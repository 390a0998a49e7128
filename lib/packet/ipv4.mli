(** IPv4 headers (no fragmentation or options emission; options in
    received packets are skipped). *)

type t = {
  tos : int;
  ident : int;
  ttl : int;
  protocol : int;
  src : Ipv4_addr.t;
  dst : Ipv4_addr.t;
  payload : string;
}

val proto_icmp : int
val proto_tcp : int
val proto_udp : int
val proto_ospf : int

val make :
  ?tos:int ->
  ?ident:int ->
  ?ttl:int ->
  protocol:int ->
  src:Ipv4_addr.t ->
  dst:Ipv4_addr.t ->
  string ->
  t

val decrement_ttl : t -> t option
(** [None] when the TTL reaches zero (packet must be dropped). *)

val to_wire : t -> string
(** Computes the header checksum. *)

val of_wire : string -> (t, string) result
(** Verifies the header checksum. Total: any input that is not a valid
    header, including one whose options run past the end, is [Error]. *)

val pp : Format.formatter -> t -> unit
