(** Ethernet II framing. *)

type t = { dst : Mac.t; src : Mac.t; ethertype : int }
(** The 14-byte header. The payload is the rest of the frame; higher
    layers read it in place according to [ethertype]. *)

val ethertype_ipv4 : int
val ethertype_arp : int
val ethertype_lldp : int

val write : Wire.Writer.t -> dst:Mac.t -> src:Mac.t -> ethertype:int -> unit
(** Writes the header; the payload follows it in the same writer. *)

val read : Wire.Reader.t -> (t, string) result
(** Reads the header and leaves the reader at the payload. Fails on
    frames shorter than the header. *)

val pp : Format.formatter -> t -> unit
