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

let parse_l4 (ip : Ipv4.t) =
  let ( let* ) = Result.bind in
  if ip.protocol = Ipv4.proto_udp then
    let* u = Udp.of_wire ip.payload in
    Ok (Udp u)
  else if ip.protocol = Ipv4.proto_tcp then
    let* t = Tcp.of_wire ip.payload in
    Ok (Tcp t)
  else if ip.protocol = Ipv4.proto_icmp then
    let* i = Icmp.of_wire ip.payload in
    Ok (Icmp i)
  else if ip.protocol = Ipv4.proto_ospf then
    let* o = Ospf_pkt.of_wire ip.payload in
    Ok (Ospf o)
  else Ok (Raw_l4 { protocol = ip.protocol; data = ip.payload })

let parse frame =
  let ( let* ) = Result.bind in
  let* eth = Ethernet.of_wire frame in
  if eth.ethertype = Ethernet.ethertype_arp then
    let* a = Arp.of_wire eth.payload in
    Ok { eth; l3 = Arp a }
  else if eth.ethertype = Ethernet.ethertype_lldp then
    let* l = Lldp.of_wire eth.payload in
    Ok { eth; l3 = Lldp l }
  else if eth.ethertype = Ethernet.ethertype_ipv4 then
    let* ip = Ipv4.of_wire eth.payload in
    let* l4 = parse_l4 ip in
    Ok { eth; l3 = Ipv4 (ip, l4) }
  else Ok { eth; l3 = Raw_l3 { ethertype = eth.ethertype; data = eth.payload } }

let arp ~src ~dst a =
  Ethernet.to_wire
    {
      Ethernet.src;
      dst;
      ethertype = Ethernet.ethertype_arp;
      payload = Arp.to_wire a;
    }

let lldp ~src l =
  Ethernet.to_wire
    {
      Ethernet.src;
      dst = Mac.lldp_multicast;
      ethertype = Ethernet.ethertype_lldp;
      payload = Lldp.to_wire l;
    }

let ipv4 ~src_mac ~dst_mac ip =
  Ethernet.to_wire
    {
      Ethernet.src = src_mac;
      dst = dst_mac;
      ethertype = Ethernet.ethertype_ipv4;
      payload = Ipv4.to_wire ip;
    }

let udp ~src_mac ~dst_mac ~src_ip ~dst_ip ?(ttl = 64) u =
  ipv4 ~src_mac ~dst_mac
    (Ipv4.make ~ttl ~protocol:Ipv4.proto_udp ~src:src_ip ~dst:dst_ip
       (Udp.to_wire u))

let icmp ~src_mac ~dst_mac ~src_ip ~dst_ip i =
  ipv4 ~src_mac ~dst_mac
    (Ipv4.make ~protocol:Ipv4.proto_icmp ~src:src_ip ~dst:dst_ip
       (Icmp.to_wire i))

let ospf ~src_mac ~dst_mac ~src_ip ~dst_ip o =
  ipv4 ~src_mac ~dst_mac
    (Ipv4.make ~ttl:1 ~protocol:Ipv4.proto_ospf ~src:src_ip ~dst:dst_ip
       (Ospf_pkt.to_wire o))

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
  | Raw_l3 _ -> Ethernet.pp ppf t.eth
