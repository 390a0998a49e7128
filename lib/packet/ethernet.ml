type t = { dst : Mac.t; src : Mac.t; ethertype : int }

let ethertype_ipv4 = 0x0800

let ethertype_arp = 0x0806

let ethertype_lldp = 0x88CC

let write w ~dst ~src ~ethertype =
  Mac.write w dst;
  Mac.write w src;
  Wire.Writer.u16 w ethertype

let read r =
  try
    let dst = Mac.read r in
    let src = Mac.read r in
    let ethertype = Wire.Reader.u16 r in
    Ok { dst; src; ethertype }
  with Wire.Truncated -> Error "ethernet: truncated frame"

let pp ppf t =
  Format.fprintf ppf "eth %a -> %a type=0x%04x" Mac.pp t.src Mac.pp t.dst
    t.ethertype
