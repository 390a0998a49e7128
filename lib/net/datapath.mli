(** An emulated OpenFlow 1.0 datapath (the Open vSwitch role).

    The datapath owns ports, the flow table and the packet-in buffer
    store. It is controller-agnostic: {!Of_agent} drives it over a
    control channel by installing the callbacks below. *)

open Rf_packet
open Rf_openflow

type t

val create :
  Rf_sim.Engine.t -> dpid:int64 -> n_ports:int -> t
(** Ports are numbered 1..n_ports, each with a deterministic
    locally-administered MAC. Flow entries expire on a 1 s grid from
    creation; the tick is scheduled only while the table holds an
    entry with an idle or hard timeout, so a switch with untimed
    entries alone schedules no expiry event. *)

val dpid : t -> int64

val entity : t -> Rf_obs.Profiler.entity
(** The switch's load-attribution handle ([Switch dpid]). *)

val engine : t -> Rf_sim.Engine.t

val n_ports : t -> int

val port_mac : t -> int -> Mac.t

val port_up : t -> int -> bool

val set_port_up : t -> int -> bool -> unit
(** Triggers the port-status callback on change. *)

val set_transmit : t -> port:int -> (string -> unit) -> unit
(** Installs the link-layer transmit function of a port. *)

val receive_frame : t -> in_port:int -> string -> unit
(** A frame arrived from the wire. *)

val flow_table : t -> Flow_table.t

val features : t -> Of_msg.features

val miss_send_len : t -> int

val set_miss_send_len : t -> int -> unit

(** {1 Controller-side operations (used by the OF agent)} *)

val handle_flow_mod : t -> Of_msg.flow_mod -> (unit, Of_msg.error) result

val handle_packet_out : t -> Of_msg.packet_out -> (unit, Of_msg.error) result

val flow_stats :
  t -> match_:Of_match.t -> out_port:Of_port.t option -> Of_msg.flow_stats list

val port_stats : t -> port:int -> Of_msg.port_stats list
(** [port = Of_port.none] returns all ports. *)

val set_on_packet_in : t -> (Of_msg.packet_in -> unit) -> unit

val set_on_flow_removed : t -> (Of_msg.flow_removed -> unit) -> unit

val set_on_port_status :
  t -> (Of_msg.port_status_reason -> Of_msg.phys_port -> unit) -> unit

val set_on_table_changed :
  t ->
  (left:Flow_table.entry list -> entered:Flow_table.entry list -> unit) ->
  unit
(** Fires after every successful flow-mod (with what
    {!Flow_table.apply_flow_mod} reports changed, possibly nothing) and
    after each expiry sweep that removed entries (those as [left]) —
    the forwarding-state auditor's feed. *)

(** {1 Introspection for experiments} *)

val packets_forwarded : t -> int

val packets_missed : t -> int
