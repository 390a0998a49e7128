type t = {
  tos : int;
  ident : int;
  ttl : int;
  protocol : int;
  src : Ipv4_addr.t;
  dst : Ipv4_addr.t;
  payload : string;
}

let proto_icmp = 1

let proto_tcp = 6

let proto_udp = 17

let proto_ospf = 89

let make ?(tos = 0) ?(ttl = 64) ~protocol ~src ~dst payload =
  { tos; ident = 0; ttl; protocol; src; dst; payload }

let decrement_ttl t = if t.ttl <= 1 then None else Some { t with ttl = t.ttl - 1 }

let header_words = 5

let header_size = 4 * header_words

let write_header w ~tos ~ident ~ttl ~protocol ~src ~dst =
  let off = Wire.Writer.length w in
  Wire.Writer.u8 w ((4 lsl 4) lor header_words);
  Wire.Writer.u8 w tos;
  Wire.Writer.u16 w 0 (* total length, patched by [finish] *);
  Wire.Writer.u16 w ident;
  Wire.Writer.u16 w 0 (* flags/fragment *);
  Wire.Writer.u8 w ttl;
  Wire.Writer.u8 w protocol;
  Wire.Writer.u16 w 0 (* checksum, patched by [finish] *);
  Ipv4_addr.write w src;
  Ipv4_addr.write w dst;
  off

let max_total_length = 0xffff

let finish w off =
  let total = Wire.Writer.length w - off in
  if total > max_total_length then
    invalid_arg
      (Printf.sprintf "Ipv4: total length %d over %d" total max_total_length);
  Wire.Writer.patch_u16 w (off + 2) total;
  Wire.Writer.patch_u16 w (off + 10) (Wire.Writer.checksum w off header_size)

let write w t =
  let off =
    write_header w ~tos:t.tos ~ident:t.ident ~ttl:t.ttl ~protocol:t.protocol
      ~src:t.src ~dst:t.dst
  in
  Wire.Writer.bytes w t.payload;
  finish w off

let read r =
  try
    let n = Wire.Reader.remaining r in
    let vihl = Wire.Reader.peek_u16 r 0 lsr 8 in
    let version = vihl lsr 4 in
    let ihl = vihl land 0xF in
    if version <> 4 then Error "ipv4: not version 4"
    else if ihl < 5 then Error "ipv4: bad header length"
    else begin
      let header_len = ihl * 4 in
      let checksum =
        if header_len > n then -1 else Wire.Reader.checksum r header_len
      in
      Wire.Reader.skip r 1;
      let tos = Wire.Reader.u8 r in
      let total_len = Wire.Reader.u16 r in
      let ident = Wire.Reader.u16 r in
      let _flags_frag = Wire.Reader.u16 r in
      let ttl = Wire.Reader.u8 r in
      let protocol = Wire.Reader.u8 r in
      let _checksum = Wire.Reader.u16 r in
      let src = Ipv4_addr.read r in
      let dst = Ipv4_addr.read r in
      if header_len > n then Error "ipv4: truncated options"
      else if checksum <> 0 then Error "ipv4: bad checksum"
      else begin
        Wire.Reader.skip r (header_len - 20);
        if total_len < header_len || total_len > n then
          Error "ipv4: bad total length"
        else
          let payload = Wire.Reader.bytes r (total_len - header_len) in
          Ok { tos; ident; ttl; protocol; src; dst; payload }
      end
    end
  with Wire.Truncated -> Error "ipv4: truncated"

let pp ppf t =
  Format.fprintf ppf "ipv4 %a -> %a proto=%d ttl=%d len=%d" Ipv4_addr.pp t.src
    Ipv4_addr.pp t.dst t.protocol t.ttl (String.length t.payload)
