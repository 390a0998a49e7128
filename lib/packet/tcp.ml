type flags = { syn : bool; ack : bool; fin : bool; rst : bool; psh : bool }

type t = {
  src_port : int;
  dst_port : int;
  seq : int32;
  ack_seq : int32;
  flags : flags;
  window : int;
  payload : string;
}

let no_flags = { syn = false; ack = false; fin = false; rst = false; psh = false }

let make ?(seq = 0l) ?(ack_seq = 0l) ?(flags = no_flags) ~src_port ~dst_port
    payload =
  { src_port; dst_port; seq; ack_seq; flags; window = 65535; payload }

let flags_to_int f =
  (if f.fin then 0x01 else 0)
  lor (if f.syn then 0x02 else 0)
  lor (if f.rst then 0x04 else 0)
  lor (if f.psh then 0x08 else 0)
  lor if f.ack then 0x10 else 0

let flags_of_int v =
  {
    fin = v land 0x01 <> 0;
    syn = v land 0x02 <> 0;
    rst = v land 0x04 <> 0;
    psh = v land 0x08 <> 0;
    ack = v land 0x10 <> 0;
  }

let write w t =
  Wire.Writer.u16 w t.src_port;
  Wire.Writer.u16 w t.dst_port;
  Wire.Writer.u32 w t.seq;
  Wire.Writer.u32 w t.ack_seq;
  Wire.Writer.u8 w (5 lsl 4) (* data offset = 5 words *);
  Wire.Writer.u8 w (flags_to_int t.flags);
  Wire.Writer.u16 w t.window;
  Wire.Writer.u16 w 0 (* checksum: channels are reliable in-simulator *);
  Wire.Writer.u16 w 0 (* urgent *);
  Wire.Writer.bytes w t.payload

let read r =
  try
    let src_port = Wire.Reader.u16 r in
    let dst_port = Wire.Reader.u16 r in
    let seq = Wire.Reader.u32 r in
    let ack_seq = Wire.Reader.u32 r in
    let offset = Wire.Reader.u8 r lsr 4 in
    let flags = flags_of_int (Wire.Reader.u8 r) in
    let window = Wire.Reader.u16 r in
    let _checksum = Wire.Reader.u16 r in
    let _urgent = Wire.Reader.u16 r in
    if offset < 5 then Error "tcp: bad data offset"
    else begin
      Wire.Reader.skip r ((offset - 5) * 4);
      Ok { src_port; dst_port; seq; ack_seq; flags; window; payload = Wire.Reader.rest r }
    end
  with Wire.Truncated -> Error "tcp: truncated"

let pp ppf t =
  Format.fprintf ppf "tcp %d -> %d seq=%ld len=%d" t.src_port t.dst_port t.seq
    (String.length t.payload)
