(** ARP for IPv4 over Ethernet. *)

type op = Request | Reply

type t = {
  op : op;
  sender_mac : Mac.t;
  sender_ip : Ipv4_addr.t;
  target_mac : Mac.t;
  target_ip : Ipv4_addr.t;
}

val request : sender_mac:Mac.t -> sender_ip:Ipv4_addr.t -> target_ip:Ipv4_addr.t -> t

val reply :
  sender_mac:Mac.t ->
  sender_ip:Ipv4_addr.t ->
  target_mac:Mac.t ->
  target_ip:Ipv4_addr.t ->
  t

val write : Wire.Writer.t -> t -> unit
(** Appends the 28-byte Ethernet/IPv4 ARP packet. *)

val read : Wire.Reader.t -> (t, string) result

val pp : Format.formatter -> t -> unit
