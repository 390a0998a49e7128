(** The RF-controller's OpenFlow application.

    Owns the RouteFlow slice's connection to every switch (through
    FlowVisor): relays table-miss packet-ins down into the mapped VM
    NIC, emits VM-originated frames as packet-outs, and programs the
    physical flow tables from the RF-clients' exported routes. *)

open Rf_openflow

type t

val create : Rf_sim.Engine.t -> Rf_vs.t -> t
(** Also wires itself as the virtual switch's physical-out path. *)

val attach : t -> dpid:int64 -> Rf_net.Channel.endpoint -> unit
(** Pass (partially applied) as a FlowVisor slice's [attach]. *)

val is_connected : t -> int64 -> bool

val sync_flows : t -> dpid:int64 -> Vm.flow_route list -> unit
(** Diffs against what is already installed: deletes stale entries
    (strict) in installed order, then adds new ones in the given order.
    The list must be sorted and duplicate-free under {!Vm.compare_flow},
    as {!Vm.flow_routes} returns it; the diff is one merge of the two
    sorted lists. Route-prefix priority grows with prefix length so
    host routes beat subnet routes. *)

val set_master : t -> bool -> unit
(** Cluster failover hook: flips every switch session's OpenFlow role
    (and the role future attaches start in). Demotion parks the
    connections as slaves — state-changing sends are suppressed at the
    connection layer. Promotion re-pushes the flows believed installed
    on each switch; same-match same-priority adds replace in place, so
    the re-apply is idempotent. Apps start as master. *)

val is_master : t -> bool

val reassignments : t -> int
(** Switch sessions whose role was flipped by {!set_master}. *)

val installed_flows : t -> int64 -> Vm.flow_route list

val flow_mods_sent : t -> int

val packet_ins_relayed : t -> int

val packet_outs_sent : t -> int

val priority_of_prefix_len : int -> int
(** Exposed for tests. *)

val match_of_route : Vm.flow_route -> Of_match.t
