(** Whole-frame parsing and construction.

    [parse] turns raw Ethernet bytes into a structured view, descending
    into ARP / LLDP / IPv4 and then UDP / TCP / ICMP / OSPF. Builders
    assemble complete frames from the top down. *)

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

val parse : string -> (t, string) result
(** Parse errors at inner layers degrade to [Raw_l3] / [Raw_l4] only
    when the ethertype/protocol is unknown; malformed known protocols
    produce [Error]. *)

(** {1 Builders — return full frame bytes} *)

val arp : src:Mac.t -> dst:Mac.t -> Arp.t -> string

val lldp : src:Mac.t -> Lldp.t -> string
(** Sent to the LLDP nearest-bridge multicast address. *)

val ipv4 :
  src_mac:Mac.t -> dst_mac:Mac.t -> Ipv4.t -> string

val udp :
  src_mac:Mac.t ->
  dst_mac:Mac.t ->
  src_ip:Ipv4_addr.t ->
  dst_ip:Ipv4_addr.t ->
  ?ttl:int ->
  Udp.t ->
  string

val icmp :
  src_mac:Mac.t ->
  dst_mac:Mac.t ->
  src_ip:Ipv4_addr.t ->
  dst_ip:Ipv4_addr.t ->
  Icmp.t ->
  string

val ospf :
  src_mac:Mac.t ->
  dst_mac:Mac.t ->
  src_ip:Ipv4_addr.t ->
  dst_ip:Ipv4_addr.t ->
  Ospf_pkt.t ->
  string
(** OSPF rides directly on IPv4 with TTL 1. *)

val pp : Format.formatter -> t -> unit
