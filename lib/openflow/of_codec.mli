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

(** {1 Relaying encoded messages}

    A proxy forwards the bytes it received. It reads the header and the
    body fields its policy needs in place, and decodes nothing else. *)

val msg_type : string -> int
(** The type code, byte 1, of an encoded message: the
    {!Of_msg.type_code} of its payload. *)

val xid : string -> int
(** Bytes 4-7 of an encoded message, the xid, as an unsigned int. *)

val with_xid : string -> int -> string
(** A copy of an encoded message with only its xid, bytes 4-7, set to
    the low 32 bits of the int. *)

type peek =
  | Flow_mod_head of {
      command : Of_msg.flow_mod_command;
      fm_match : Of_match.t;
      priority : int;
    }  (** a flow-mod: what it does to which rule *)
  | Packet_out_key of Of_match.key option * bool
      (** a packet-out: the flow key of its frame at its in-port
          ({!Of_match.key_of_frame}), and whether it names a buffer *)
  | Message of Of_msg.t  (** any other message, decoded in full *)

val peek : string -> (peek, string) result
(** [Error] exactly where {!of_wire} would fail: both read the header
    and a flow-mod's or packet-out's fixed part with the same code. A
    flow-mod's or packet-out's actions are checked by
    {!Of_action.check_list}, not built; any other message is decoded as
    {!of_wire} decodes it. *)
