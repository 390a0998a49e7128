type t = {
  snaplen : int;
  buf : Buffer.t;
  mutable frames : int;
}

(* pcap is little-endian by convention when written with magic
   0xa1b2c3d4 in host order; we always emit little-endian with the
   standard magic so any reader handles it. *)
let le32 buf v =
  Buffer.add_char buf (Char.chr (v land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 16) land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 24) land 0xff))

let le16 buf v =
  Buffer.add_char buf (Char.chr (v land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xff))

let create ?(snaplen = 65535) () =
  let buf = Buffer.create 4096 in
  le32 buf 0xa1b2c3d4 (* magic *);
  le16 buf 2 (* major *);
  le16 buf 4 (* minor *);
  le32 buf 0 (* thiszone *);
  le32 buf 0 (* sigfigs *);
  le32 buf snaplen;
  le32 buf 1 (* LINKTYPE_ETHERNET *);
  { snaplen; buf; frames = 0 }

let add_frame t ~at frame =
  let us = Rf_sim.Vtime.to_us at in
  let original = String.length frame in
  let captured = min original t.snaplen in
  le32 t.buf (us / 1_000_000);
  le32 t.buf (us mod 1_000_000);
  le32 t.buf captured;
  le32 t.buf original;
  Buffer.add_string t.buf (String.sub frame 0 captured);
  t.frames <- t.frames + 1

let frame_count t = t.frames

let contents t = Buffer.contents t.buf

let write_file t path =
  Out_channel.with_open_bin path (fun oc -> Buffer.output_buffer oc t.buf)

let tap_link engine t link =
  Link.set_tap link (fun frame ->
      add_frame t ~at:(Rf_sim.Engine.now engine) frame)
