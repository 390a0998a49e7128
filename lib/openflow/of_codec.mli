(** OpenFlow 1.0 wire codec.

    Messages are framed by the standard 8-byte header
    (version, type, length, xid). A control channel delivers each
    message as one chunk, so receivers decode chunks directly. *)

val version : int
(** 0x01. *)

val to_wire : Of_msg.t -> string

val of_wire : string -> (Of_msg.t, string) result
(** Decodes exactly one message. [Error] when the header's length
    field differs from the string's length, so a trailing byte or a
    second message is rejected, never silently dropped. *)
