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
  ?ttl:int ->
  protocol:int ->
  src:Ipv4_addr.t ->
  dst:Ipv4_addr.t ->
  string ->
  t

val decrement_ttl : t -> t option
(** [None] when the TTL reaches zero (packet must be dropped). *)

val write_header :
  Wire.Writer.t ->
  tos:int ->
  ident:int ->
  ttl:int ->
  protocol:int ->
  src:Ipv4_addr.t ->
  dst:Ipv4_addr.t ->
  int
(** Appends a 20-byte header whose total length and checksum are left
    zero, and returns its offset in the writer. The payload is written
    after it, then {!finish} fills both fields in. *)

val finish : Wire.Writer.t -> int -> unit
(** [finish w off] patches the total length (everything written since
    [off]) and the checksum of the header at [off]. Raises
    [Invalid_argument] if the total length does not fit its 16 bits
    (65,535 bytes): the packet cannot be sent, and masking the length
    would send a different one. *)

val write : Wire.Writer.t -> t -> unit
(** Header and payload. *)

val read : Wire.Reader.t -> (t, string) result
(** Verifies the header checksum. Total: any input that is not a valid
    header, including one whose options run past the end, is [Error].
    Bytes past the total length (Ethernet padding) are left unread. *)

val pp : Format.formatter -> t -> unit
