(** UDP datagrams (checksum emitted as 0, i.e. disabled, as permitted
    by RFC 768 for IPv4). *)

type t = { src_port : int; dst_port : int; payload : string }

val make : src_port:int -> dst_port:int -> string -> t

val to_wire : t -> string

val of_wire : string -> (t, string) result

val pp : Format.formatter -> t -> unit
