(** OpenFlow 1.0 actions. *)

open Rf_packet

type t =
  | Output of { port : Of_port.t; max_len : int }
  | Set_dl_src of Mac.t
  | Set_dl_dst of Mac.t
  | Set_nw_src of Ipv4_addr.t
  | Set_nw_dst of Ipv4_addr.t
  | Set_nw_tos of int
  | Set_tp_src of int
  | Set_tp_dst of int
  | Strip_vlan

val output : Of_port.t -> t
(** Output with the default controller [max_len] of 65535. *)

val to_controller : t

val outputs : t list -> int list
(** The [Output] ports of an action list, in order, pseudo-ports
    included. *)

val size : t -> int
(** Encoded size in bytes (multiple of 8). *)

val write_list : Wire.Writer.t -> t list -> unit
(** Appends the actions in order, {!size} bytes each. *)

val list_of_wire : Wire.Reader.t -> (t list, string) result
(** Consumes the whole reader. *)

val check_list : Wire.Reader.t -> (unit, string) result
(** [Ok ()] exactly when {!list_of_wire} would decode the reader's
    remaining bytes, which it consumes, without building the actions:
    the same lengths, types and errors. *)

val pp : Format.formatter -> t -> unit
