type op = Request | Reply

type t = {
  op : op;
  sender_mac : Mac.t;
  sender_ip : Ipv4_addr.t;
  target_mac : Mac.t;
  target_ip : Ipv4_addr.t;
}

let request ~sender_mac ~sender_ip ~target_ip =
  { op = Request; sender_mac; sender_ip; target_mac = Mac.zero; target_ip }

let reply ~sender_mac ~sender_ip ~target_mac ~target_ip =
  { op = Reply; sender_mac; sender_ip; target_mac; target_ip }

let op_code = function Request -> 1 | Reply -> 2

let write w t =
  Wire.Writer.u16 w 1 (* hardware: ethernet *);
  Wire.Writer.u16 w Ethernet.ethertype_ipv4;
  Wire.Writer.u8 w 6;
  Wire.Writer.u8 w 4;
  Wire.Writer.u16 w (op_code t.op);
  Mac.write w t.sender_mac;
  Ipv4_addr.write w t.sender_ip;
  Mac.write w t.target_mac;
  Ipv4_addr.write w t.target_ip

let read r =
  try
    let htype = Wire.Reader.u16 r in
    let ptype = Wire.Reader.u16 r in
    let hlen = Wire.Reader.u8 r in
    let plen = Wire.Reader.u8 r in
    if htype <> 1 || ptype <> Ethernet.ethertype_ipv4 || hlen <> 6 || plen <> 4
    then Error "arp: unsupported hardware/protocol"
    else
      let opcode = Wire.Reader.u16 r in
      let sender_mac = Mac.read r in
      let sender_ip = Ipv4_addr.read r in
      let target_mac = Mac.read r in
      let target_ip = Ipv4_addr.read r in
      match opcode with
      | 1 -> Ok { op = Request; sender_mac; sender_ip; target_mac; target_ip }
      | 2 -> Ok { op = Reply; sender_mac; sender_ip; target_mac; target_ip }
      | n -> Error (Printf.sprintf "arp: unknown opcode %d" n)
  with Wire.Truncated -> Error "arp: truncated"

let pp ppf t =
  match t.op with
  | Request ->
      Format.fprintf ppf "arp who-has %a tell %a" Ipv4_addr.pp t.target_ip
        Ipv4_addr.pp t.sender_ip
  | Reply ->
      Format.fprintf ppf "arp %a is-at %a" Ipv4_addr.pp t.sender_ip Mac.pp
        t.sender_mac
