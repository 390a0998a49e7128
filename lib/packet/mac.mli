(** 48-bit Ethernet MAC addresses. *)

type t = private int
(** A MAC address: an immediate int in [0, 2{^48}), never boxed. *)

val broadcast : t

val zero : t

val lldp_multicast : t
(** 01:80:c2:00:00:0e — the LLDP nearest-bridge group address. *)

val of_int64 : int64 -> t
(** Low 48 bits are used. *)

val to_int64 : t -> int64

val to_int : t -> int
(** The address as an int in [0, 2{^48}). *)

val of_bytes : string -> t
(** Requires exactly 6 bytes. *)

val to_bytes : t -> string

val get : string -> int -> t
(** [get s off] reads the address stored big-endian at [s.[off]] to
    [s.[off + 5]]. Raises [Invalid_argument] if that range is not
    inside [s]. *)

val set : Bytes.t -> int -> t -> unit
(** [set b off t] writes [t] big-endian at [b.[off]] to [b.[off + 5]]. *)

val read : Wire.Reader.t -> t
(** Reads six bytes, big-endian. *)

val write : Wire.Writer.t -> t -> unit
(** Writes six bytes, big-endian. *)

val of_string : string -> t option
(** Parses ["aa:bb:cc:dd:ee:ff"]. *)

val make_local : int -> t
(** [make_local n] is a deterministic locally-administered unicast
    address derived from [n]; used to assign switch-port and VM-NIC
    addresses. *)

val is_broadcast : t -> bool

val is_multicast : t -> bool

val compare : t -> t -> int

val equal : t -> t -> bool

val hash : t -> int

val pp : Format.formatter -> t -> unit

val to_string : t -> string
