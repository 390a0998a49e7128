(** BGP-4 (RFC 4271) message wire format — the subset a Quagga bgpd in
    a RouteFlow VM exchanges: OPEN, UPDATE (with ORIGIN / AS_PATH /
    NEXT_HOP attributes), KEEPALIVE and NOTIFICATION. *)

open Rf_packet

type open_msg = {
  o_asn : int;
  o_hold_time : int;  (** seconds *)
  o_router_id : Ipv4_addr.t;
}

type update = {
  u_withdrawn : Ipv4_addr.Prefix.t list;
  u_as_path : int list;  (** empty for withdraw-only updates *)
  u_next_hop : Ipv4_addr.t option;
  u_nlri : Ipv4_addr.Prefix.t list;
}

type t =
  | Open of open_msg
  | Update of update
  | Notification of { code : int; subcode : int }
  | Keepalive

val to_wire : t -> string

val of_wire : string -> (t, string) result
(** Decodes exactly one message. [Error] when the header's length
    field differs from the string's length. *)

val pp : Format.formatter -> t -> unit
