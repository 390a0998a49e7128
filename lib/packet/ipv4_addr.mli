(** IPv4 addresses and prefixes. *)

type t = private int
(** A 32-bit IPv4 address: an immediate int in [0, 2{^32}), so it is
    never boxed, and the int order is the unsigned address order. *)

val any : t
val broadcast : t

val ospf_all_routers : t
(** 224.0.0.5. *)

val of_int32 : int32 -> t
val to_int32 : t -> int32

val of_int : int -> t
(** The low 32 bits. *)

val to_int : t -> int
(** The address as an int in [0, 2{^32}). *)

val get : string -> int -> t
(** [get s off] reads the address stored big-endian at [s.[off]] to
    [s.[off + 3]]. Raises [Invalid_argument] if that range is not
    inside [s]. *)

val read : Wire.Reader.t -> t
(** Reads four bytes, big-endian. *)

val write : Wire.Writer.t -> t -> unit
(** Writes four bytes, big-endian. *)

val of_octets : int -> int -> int -> int -> t

val of_string : string -> t option
(** Parses dotted-quad. *)

val of_string_exn : string -> t

val succ : t -> t
(** Next address (wraps at the top of the space). *)

val add : t -> int -> t

val compare : t -> t -> int
(** Unsigned order: 128.0.0.0 sorts after 127.255.255.255. *)

val equal : t -> t -> bool

val hash : t -> int
(** A well-mixed hash of the immediate int: its low bits depend on
    every bit of the address. *)

module Tbl : Hashtbl.S with type key = t
(** Tables keyed by address, hashed by {!hash} in OCaml rather than by
    the polymorphic [caml_hash]. *)

val is_multicast : t -> bool

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** CIDR prefixes. *)
module Prefix : sig
  type addr = t

  type t = private int
  (** A network prefix; the host bits of the stored address are zero.
      Immediate, like an address: the network in the high bits, the
      length in the low six. *)

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
  (** By network in the unsigned order of {!Ipv4_addr.compare}, then by
      length. [Prefix_trie.fold] visits prefixes in this order. *)

  val equal : t -> t -> bool

  val pp : Format.formatter -> t -> unit
  val to_string : t -> string

  module Tbl : Hashtbl.S with type key = t
  (** Tables keyed by prefix, hashed like addresses. *)

  val sorted_keys : 'a Tbl.t -> t array
  (** The table's prefixes in {!compare} order. *)
end
