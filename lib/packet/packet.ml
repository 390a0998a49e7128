type l4 =
  | Udp of Udp.t
  | Tcp of Tcp.t
  | Icmp of Icmp.t
  | Ospf of Ospf_pkt.t
  | Raw_l4 of { protocol : int; data : string }

type l3 =
  | Arp of Arp.t
  | Ipv4 of Ipv4.t * l4
  | Lldp of Lldp.t
  | Raw_l3 of { ethertype : int; data : string }

type t = { eth : Ethernet.t; l3 : l3 }

let ( let* ) = Result.bind

let parse_l4 (ip : Ipv4.t) =
  let r = Wire.Reader.of_string ip.payload in
  if ip.protocol = Ipv4.proto_udp then
    let* u = Udp.read r in
    Ok (Udp u)
  else if ip.protocol = Ipv4.proto_tcp then
    let* t = Tcp.read r in
    Ok (Tcp t)
  else if ip.protocol = Ipv4.proto_icmp then
    let* i = Icmp.read r in
    Ok (Icmp i)
  else if ip.protocol = Ipv4.proto_ospf then
    let* o = Ospf_pkt.read r in
    Ok (Ospf o)
  else Ok (Raw_l4 { protocol = ip.protocol; data = ip.payload })

(* Each layer reads its header where it lies in the frame; only the
   IPv4 payload is copied out, for forwarding. *)
let parse frame =
  let r = Wire.Reader.of_string frame in
  let* eth = Ethernet.read r in
  if eth.ethertype = Ethernet.ethertype_arp then
    let* a = Arp.read r in
    Ok { eth; l3 = Arp a }
  else if eth.ethertype = Ethernet.ethertype_lldp then
    let* l = Lldp.read r in
    Ok { eth; l3 = Lldp l }
  else if eth.ethertype = Ethernet.ethertype_ipv4 then
    let* ip = Ipv4.read r in
    let* l4 = parse_l4 ip in
    Ok { eth; l3 = Ipv4 (ip, l4) }
  else
    let data = Wire.Reader.rest r in
    Ok { eth; l3 = Raw_l3 { ethertype = eth.ethertype; data } }

(* --- builders: every layer is written into one buffer ------------- *)

let eth_header = 14

(* A frame of [size] bytes past the Ethernet header, [write] writing
   them. *)
let frame ~src ~dst ~ethertype size write v =
  let w = Wire.Writer.create ~initial:(eth_header + size) () in
  Ethernet.write w ~dst ~src ~ethertype;
  write w v;
  Wire.Writer.contents w

let arp ~src ~dst a =
  frame ~src ~dst ~ethertype:Ethernet.ethertype_arp 28 Arp.write a

let lldp ~src l =
  frame ~src ~dst:Mac.lldp_multicast ~ethertype:Ethernet.ethertype_lldp 32
    Lldp.write l

let ipv4 ~src_mac ~dst_mac (ip : Ipv4.t) =
  frame ~src:src_mac ~dst:dst_mac ~ethertype:Ethernet.ethertype_ipv4
    (20 + String.length ip.payload)
    Ipv4.write ip

(* An IPv4 frame: the header is finished once [write] has written the
   payload behind it. *)
let ip_frame ~src_mac ~dst_mac ~ttl ~protocol ~src_ip ~dst_ip size write v =
  let w = Wire.Writer.create ~initial:(eth_header + 20 + size) () in
  Ethernet.write w ~dst:dst_mac ~src:src_mac ~ethertype:Ethernet.ethertype_ipv4;
  let off =
    Ipv4.write_header w ~tos:0 ~ident:0 ~ttl ~protocol ~src:src_ip ~dst:dst_ip
  in
  write w v;
  Ipv4.finish w off;
  Wire.Writer.contents w

let udp ~src_mac ~dst_mac ~src_ip ~dst_ip ?(ttl = 64) (u : Udp.t) =
  ip_frame ~src_mac ~dst_mac ~ttl ~protocol:Ipv4.proto_udp ~src_ip ~dst_ip
    (8 + String.length u.payload)
    Udp.write u

let icmp ~src_mac ~dst_mac ~src_ip ~dst_ip i =
  ip_frame ~src_mac ~dst_mac ~ttl:64 ~protocol:Ipv4.proto_icmp ~src_ip
    ~dst_ip 64 Icmp.write i

let ospf ~src_mac ~dst_mac ~src_ip ~dst_ip o =
  ip_frame ~src_mac ~dst_mac ~ttl:1 ~protocol:Ipv4.proto_ospf ~src_ip ~dst_ip
    (Ospf_pkt.size o) Ospf_pkt.write o

let pp ppf t =
  match t.l3 with
  | Arp a -> Arp.pp ppf a
  | Lldp l -> Lldp.pp ppf l
  | Ipv4 (ip, Udp u) ->
      Format.fprintf ppf "%a / %a" Ipv4.pp ip Udp.pp u
  | Ipv4 (ip, Tcp tc) -> Format.fprintf ppf "%a / %a" Ipv4.pp ip Tcp.pp tc
  | Ipv4 (ip, Icmp i) -> Format.fprintf ppf "%a / %a" Ipv4.pp ip Icmp.pp i
  | Ipv4 (ip, Ospf o) -> Format.fprintf ppf "%a / %a" Ipv4.pp ip Ospf_pkt.pp o
  | Ipv4 (ip, Raw_l4 _) -> Ipv4.pp ppf ip
  | Raw_l3 { data; _ } ->
      Format.fprintf ppf "%a len=%d" Ethernet.pp t.eth (String.length data)
