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

val sync_flows :
  t ->
  dpid:int64 ->
  Vm.t ->
  removed:Vm.flow_route list ->
  added:Vm.flow_route list ->
  unit
(** Carries one export of [vm] (a {!Vm.add_on_flows_changed} listener's
    arguments) to the switch: deletes the removed entries (strict), then
    adds the added ones, each in the given, sorted order. The app keeps
    no flow list: it remembers which VM the connection last carried,
    and when that is not [vm] (a fresh handshake, or another VM for the
    same dpid) it sends {!Vm.diff_flows} of that VM's table (or of
    nothing) against [vm]'s instead. Route-prefix priority grows with
    prefix length so host routes beat subnet routes. *)

val set_master : t -> bool -> unit
(** Cluster failover hook: flips every switch session's OpenFlow role
    (and the role future attaches start in). Demotion parks the
    connections as slaves — state-changing sends are suppressed at the
    connection layer. Promotion re-pushes the table of the VM each
    connection last carried; same-match same-priority adds replace in
    place, so the re-apply is idempotent. Apps start as master. *)

val is_master : t -> bool

val reassignments : t -> int
(** Switch sessions whose role was flipped by {!set_master}. *)

val flow_mods_sent : t -> int

val packet_ins_relayed : t -> int

val packet_outs_sent : t -> int

val priority_of_prefix_len : int -> int
(** Exposed for tests. *)

val match_of_route : Vm.flow_route -> Of_match.t
