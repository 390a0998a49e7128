(** OpenFlow 1.0 wire codec.

    Messages are framed by the standard 8-byte header
    (version, type, length, xid). [Framer] reassembles messages from an
    arbitrary byte stream, as delivered by the simulated TCP channels. *)

val version : int
(** 0x01. *)

val to_wire : Of_msg.t -> string

val of_wire : string -> (Of_msg.t, string) result
(** Decodes exactly one message. *)

module Framer : sig
  type t

  val create : unit -> t

  val input : t -> string -> (Of_msg.t list, string) result
  (** Feeds bytes; returns every message completed by this chunk. After
      an error the framer must be discarded (the stream is corrupt). *)

  val pending_bytes : t -> int
end
