(** IPv4 addresses and prefixes. *)

type t
(** A 32-bit IPv4 address. *)

val any : t
val broadcast : t

val ospf_all_routers : t
(** 224.0.0.5. *)

val of_int32 : int32 -> t
val to_int32 : t -> int32

val of_octets : int -> int -> int -> int -> t

val of_string : string -> t option
(** Parses dotted-quad. *)

val of_string_exn : string -> t

val succ : t -> t
(** Next address (wraps at the top of the space). *)

val add : t -> int -> t

val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int

val is_multicast : t -> bool

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** CIDR prefixes. *)
module Prefix : sig
  type addr = t

  type t
  (** A network prefix; the host bits of the stored address are zero. *)

  val make : addr -> int -> t
  (** [make a len] masks [a] to [len] bits. [len] must be in 0..32. *)

  val of_string : string -> t option
  (** Parses ["10.0.0.0/24"]. *)

  val of_string_exn : string -> t

  val network : t -> addr
  val length : t -> int
  val mask : t -> addr

  val mem : addr -> t -> bool
  (** [mem a p] is true when [a] falls inside [p]. *)

  val subset : t -> t -> bool
  (** [subset sub sup]: every address of [sub] is in [sup]. *)

  val host : t -> int -> addr
  (** [host p i] is the [i]-th address of the prefix. *)

  val global : t
  (** 0.0.0.0/0. *)

  val compare : t -> t -> int
  val equal : t -> t -> bool

  val pp : Format.formatter -> t -> unit
  val to_string : t -> string
end
