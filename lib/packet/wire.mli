(** Binary reader/writer (network byte order).

    All protocol codecs in this repository are built on this module.
    Readers raise [Truncated] when the input is shorter than the field
    being read; codecs translate that into a parse error. *)

exception Truncated
(** Raised by [Reader] operations that run past the end of input. *)

module Writer : sig
  type t

  val create : ?initial:int -> unit -> t

  val length : t -> int

  val u8 : t -> int -> unit
  (** Writes the low 8 bits. *)

  val u16 : t -> int -> unit
  (** Big-endian, low 16 bits. *)

  val u32 : t -> int32 -> unit

  val u64 : t -> int64 -> unit

  val bytes : t -> string -> unit
  (** Appends raw bytes. *)

  val zeros : t -> int -> unit
  (** Appends [n] zero bytes (padding). *)

  val contents : t -> string

  val patch_u16 : t -> int -> int -> unit
  (** [patch_u16 w off v] overwrites two bytes at offset [off]; used to
      backfill length fields. *)
end

module Reader : sig
  type t

  val of_string : ?pos:int -> string -> t

  val remaining : t -> int

  val pos : t -> int
  (** Absolute offset within the underlying string. *)

  val u8 : t -> int

  val u16 : t -> int

  val u32 : t -> int32

  val u64 : t -> int64

  val bytes : t -> int -> string

  val skip : t -> int -> unit

  val rest : t -> string
  (** All remaining bytes; the reader ends up empty. *)

  val sub : t -> int -> t
  (** [sub r n] is a reader over the next [n] bytes, which are consumed
      from [r]. *)
end

val checksum : string -> int
(** RFC 1071 Internet checksum of a byte string. *)

val checksum_sub : string -> int -> int -> int
(** [checksum_sub s off len] is [checksum (String.sub s off len)]
    without the copy. Raises [Invalid_argument] if the range is not
    inside [s]. *)
