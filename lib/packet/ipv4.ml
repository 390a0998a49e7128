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

let make ?(tos = 0) ?(ident = 0) ?(ttl = 64) ~protocol ~src ~dst payload =
  { tos; ident; ttl; protocol; src; dst; payload }

let decrement_ttl t = if t.ttl <= 1 then None else Some { t with ttl = t.ttl - 1 }

let header_words = 5

let to_wire t =
  let w = Wire.Writer.create ~initial:(20 + String.length t.payload) () in
  Wire.Writer.u8 w ((4 lsl 4) lor header_words);
  Wire.Writer.u8 w t.tos;
  Wire.Writer.u16 w (20 + String.length t.payload);
  Wire.Writer.u16 w t.ident;
  Wire.Writer.u16 w 0 (* flags/fragment *);
  Wire.Writer.u8 w t.ttl;
  Wire.Writer.u8 w t.protocol;
  Wire.Writer.u16 w 0 (* checksum placeholder *);
  Wire.Writer.u32 w (Ipv4_addr.to_int32 t.src);
  Wire.Writer.u32 w (Ipv4_addr.to_int32 t.dst);
  let header = Wire.Writer.contents w in
  let csum = Wire.checksum header in
  Wire.Writer.patch_u16 w 10 csum;
  Wire.Writer.bytes w t.payload;
  Wire.Writer.contents w

let of_wire s =
  try
    let r = Wire.Reader.of_string s in
    let vihl = Wire.Reader.u8 r in
    let version = vihl lsr 4 in
    let ihl = vihl land 0xF in
    if version <> 4 then Error "ipv4: not version 4"
    else if ihl < 5 then Error "ipv4: bad header length"
    else begin
      let tos = Wire.Reader.u8 r in
      let total_len = Wire.Reader.u16 r in
      let ident = Wire.Reader.u16 r in
      let _flags_frag = Wire.Reader.u16 r in
      let ttl = Wire.Reader.u8 r in
      let protocol = Wire.Reader.u8 r in
      let _checksum = Wire.Reader.u16 r in
      let src = Ipv4_addr.of_int32 (Wire.Reader.u32 r) in
      let dst = Ipv4_addr.of_int32 (Wire.Reader.u32 r) in
      let header_len = ihl * 4 in
      if header_len > String.length s then Error "ipv4: truncated options"
      else if Wire.checksum_sub s 0 header_len <> 0 then
        Error "ipv4: bad checksum"
      else begin
        Wire.Reader.skip r (header_len - 20);
        if total_len < header_len || total_len > String.length s then
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
