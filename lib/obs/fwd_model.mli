(** Network-wide forwarding model for the continuous auditor.

    A snapshot-fed mirror of the data plane: per-switch classifier
    snapshots (priority-ordered wildcard rules), link adjacency with
    up/down state, and host attachment points with the prefix each
    host serves. {!walk} traces one header through the model exactly
    as the emulated datapaths would forward it — first matching rule
    wins (priority descending, installation order breaking ties), MAC
    rewrites applied in flight, one physical output followed per hop —
    and classifies the outcome as delivered, blackholed or looping.

    This library sits below [rf_net]; it never reads live switch
    state. The auditor feeds it converted snapshots, which is what
    makes the differential oracle (model vs. real flow tables)
    meaningful. *)

open Rf_packet

type rule = {
  ru_match : Rf_openflow.Of_match.t;
  ru_priority : int;
  ru_seq : int;  (** installation order; equal-priority tie-break *)
  ru_out_ports : int list;  (** raw [Output] ports, pseudo-ports included *)
  ru_set_dl_src : Mac.t option;
  ru_set_dl_dst : Mac.t option;
}

val compare_rules : rule -> rule -> int
(** A total order: priority descending, then [ru_seq] ascending (the
    datapath's lookup order), then the whole rule. *)

val rule_of_actions :
  match_:Rf_openflow.Of_match.t ->
  priority:int ->
  seq:int ->
  Rf_openflow.Of_action.t list ->
  rule
(** Extracts outputs and MAC rewrites from an OF 1.0 action list
    (other rewrites are irrelevant to the invariants audited here). *)

type verdict =
  | Delivered of int64 * int  (** egress switch and host port *)
  | Blackhole of int64
      (** no matching rule, no usable output, a dead link, or delivery
          to a host that does not serve the destination *)
  | Loop of int64 list  (** switches visited, in order, on the cycle *)

val verdict_to_string : verdict -> string
(** ["delivered"], ["blackhole"] or ["loop"]. *)

type t

val create : unit -> t

val add_switch : t -> int64 -> unit
(** Registers a switch with an empty classifier. Idempotent. *)

val set_switch_rules : t -> int64 -> rule list -> unit
(** Replaces the switch's classifier snapshot (registering the switch
    if needed). Rules are re-sorted internally. *)

val switch_rules : t -> int64 -> rule list
(** In {!compare_rules} order; [] when unknown. *)

val switches : t -> int64 list
(** Sorted. *)

val add_link : t -> a:int64 * int -> b:int64 * int -> unit
(** Registers a bidirectional switch-switch link, initially up. *)

val set_link_state : t -> a:int64 * int -> b:int64 * int -> bool -> unit
(** Marks both directions of the link up or down; unknown links are
    registered on the fly. *)

val add_host : t -> dpid:int64 -> port:int -> Ipv4_addr.Prefix.t -> unit
(** Declares a host attachment: packets leaving [port] of [dpid] reach
    a host serving [prefix]. *)

val host_port : t -> int64 -> (int * Ipv4_addr.Prefix.t) option
(** The first registered host attachment of a switch (lowest port). *)

val walk :
  t -> dpid:int64 -> in_port:int -> Rf_openflow.Of_match.key ->
  verdict * int64 list
(** Traces the header from ([dpid], [in_port]) and returns the verdict
    plus every switch visited, in order, first visit only — the
    footprint used for incremental invalidation. A revisited
    (switch, ingress port) pair is a loop. *)
