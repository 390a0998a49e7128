(** ICMP echo (ping) and destination-unreachable messages. *)

type t =
  | Echo_request of { ident : int; seq : int; payload : string }
  | Echo_reply of { ident : int; seq : int; payload : string }
  | Dest_unreachable of { code : int; original : string }
  | Time_exceeded of { original : string }

val write : Wire.Writer.t -> t -> unit
(** Appends the message and patches its checksum in place. *)

val read : Wire.Reader.t -> (t, string) result
(** Decodes the message from the reader's remaining bytes after
    verifying their checksum. *)

val pp : Format.formatter -> t -> unit
