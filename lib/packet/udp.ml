type t = { src_port : int; dst_port : int; payload : string }

let make ~src_port ~dst_port payload = { src_port; dst_port; payload }

let write w t =
  Wire.Writer.u16 w t.src_port;
  Wire.Writer.u16 w t.dst_port;
  Wire.Writer.u16 w (8 + String.length t.payload);
  Wire.Writer.u16 w 0;
  Wire.Writer.bytes w t.payload

let read r =
  try
    let n = Wire.Reader.remaining r in
    let src_port = Wire.Reader.u16 r in
    let dst_port = Wire.Reader.u16 r in
    let len = Wire.Reader.u16 r in
    let _checksum = Wire.Reader.u16 r in
    if len < 8 || len > n then Error "udp: bad length"
    else Ok { src_port; dst_port; payload = Wire.Reader.bytes r (len - 8) }
  with Wire.Truncated -> Error "udp: truncated"

let pp ppf t =
  Format.fprintf ppf "udp %d -> %d len=%d" t.src_port t.dst_port
    (String.length t.payload)
