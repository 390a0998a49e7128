type t = { dst : Mac.t; src : Mac.t; ethertype : int; payload : string }

let ethertype_ipv4 = 0x0800

let ethertype_arp = 0x0806

let ethertype_lldp = 0x88CC

let header_size = 14

let to_wire t =
  let w = Wire.Writer.create ~initial:(header_size + String.length t.payload) () in
  Wire.Writer.bytes w (Mac.to_bytes t.dst);
  Wire.Writer.bytes w (Mac.to_bytes t.src);
  Wire.Writer.u16 w t.ethertype;
  Wire.Writer.bytes w t.payload;
  Wire.Writer.contents w

let of_wire s =
  try
    let r = Wire.Reader.of_string s in
    let dst = Mac.of_bytes (Wire.Reader.bytes r 6) in
    let src = Mac.of_bytes (Wire.Reader.bytes r 6) in
    let ethertype = Wire.Reader.u16 r in
    Ok { dst; src; ethertype; payload = Wire.Reader.rest r }
  with Wire.Truncated -> Error "ethernet: truncated frame"

let pp ppf t =
  Format.fprintf ppf "eth %a -> %a type=0x%04x len=%d" Mac.pp t.src Mac.pp
    t.dst t.ethertype (String.length t.payload)
