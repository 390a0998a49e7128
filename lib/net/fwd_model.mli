(** Network-wide forwarding model for the continuous auditor.

    The switches' own flow tables, link adjacency with up/down state,
    and host attachment points with the prefix each host serves. {!walk}
    traces one header through the model exactly as the emulated
    datapaths forward it — {!Flow_table.lookup} picks the entry,
    MAC rewrites are applied in flight, one physical output is followed
    per hop — and classifies the outcome as delivered, blackholed or
    looping. A walk never touches an entry's counters. *)

open Rf_packet

type verdict =
  | Delivered  (** reached a host port whose host serves the destination *)
  | Blackhole
      (** no matching entry, no usable output, a dead link, or delivery
          to a host that does not serve the destination *)
  | Loop  (** a (switch, ingress port) pair was revisited *)

val verdict_to_string : verdict -> string
(** ["delivered"], ["blackhole"] or ["loop"]. *)

type t

val create : unit -> t

val add_switch : t -> int64 -> Flow_table.t -> unit
(** Walks through the switch read this table from now on. A switch
    without one walks as if its table were empty. *)

val table : t -> int64 -> Flow_table.t option

val add_link : t -> a:int64 * int -> b:int64 * int -> unit
(** Registers a bidirectional switch-switch link, initially up. *)

val set_link_state : t -> a:int64 * int -> b:int64 * int -> bool -> unit
(** Marks both directions of the link up or down; unknown links are
    registered on the fly. *)

val add_host : t -> dpid:int64 -> port:int -> Ipv4_addr.Prefix.t -> unit
(** Declares a host attachment: packets leaving [port] of [dpid] reach
    a host serving [prefix]. *)

val host_port : t -> int64 -> (int * Ipv4_addr.Prefix.t) option
(** The switch's host attachment with the lowest port. *)

val walk :
  t -> dpid:int64 -> in_port:int -> Rf_openflow.Of_match.key ->
  verdict * int64 list
(** Traces the header from ([dpid], [in_port]) and returns the verdict
    plus every switch visited, in order, first visit only — the
    footprint used for incremental invalidation. A revisited
    (switch, ingress port) pair is a loop. *)
