(** UDP datagrams (checksum emitted as 0, i.e. disabled, as permitted
    by RFC 768 for IPv4). *)

type t = { src_port : int; dst_port : int; payload : string }

val make : src_port:int -> dst_port:int -> string -> t

val write : Wire.Writer.t -> t -> unit
(** Appends the header and payload; the checksum is left zero (optional
    in IPv4). *)

val read : Wire.Reader.t -> (t, string) result
(** Decodes the datagram from the reader's remaining bytes. *)

val pp : Format.formatter -> t -> unit
