(** Ethernet II framing. *)

type t = { dst : Mac.t; src : Mac.t; ethertype : int; payload : string }
(** [payload] is the raw bytes after the 14-byte header; higher layers
    parse it according to [ethertype]. *)

val ethertype_ipv4 : int
val ethertype_arp : int
val ethertype_lldp : int

val to_wire : t -> string

val of_wire : string -> (t, string) result
(** Fails on frames shorter than the header. *)

val pp : Format.formatter -> t -> unit
