(** LLDP topology discovery — the NOX-classic Discovery module of the
    paper's reference [3].

    For every attached switch, the module periodically emits one LLDP
    probe per physical port (packet-out). Probes received back from
    another switch arrive as packet-ins (table miss) and identify a
    unidirectional link; the module reports an undirected link the
    first time either direction is seen and ages links out when probes
    stop arriving. *)

open Rf_openflow

type link = {
  la_dpid : int64;
  la_port : int;
  lb_dpid : int64;
  lb_port : int;
}
(** Normalized so that [la_dpid < lb_dpid] (or, on a self pair,
    [la_port <= lb_port]). *)

type t

val create :
  Rf_sim.Engine.t ->
  ?probe_interval:Rf_sim.Vtime.span ->
  unit ->
  t
(** Default 5 s probes (jittered by up to 1 s). A link ages out when no
    probe has crossed it for three probe intervals (15 s at the
    default). *)

val attach : t -> Of_conn.t -> unit
(** Takes ownership of the connection's message stream. The first probe
    round for a switch runs as soon as its handshake completes. *)

val set_on_switch_up : t -> (int64 -> Of_msg.phys_port list -> unit) -> unit

val set_on_switch_down : t -> (int64 -> unit) -> unit

val set_on_link_up : t -> (link -> unit) -> unit

val set_on_link_down : t -> (link -> unit) -> unit

val switches : t -> (int64 * Of_msg.phys_port list) list
(** Sorted by dpid. *)

val links : t -> link list

val switch_seen_at : t -> int64 -> Rf_sim.Vtime.t option

val link_seen_at : t -> link -> Rf_sim.Vtime.t option
(** When the link was first reported. *)

val probes_sent : t -> int
(** Reads the engine's [discovery_probes_total] counter. *)

val lldp_received : t -> int
(** Reads the engine's [discovery_lldp_rx_total] counter. *)

val pp_link : Format.formatter -> link -> unit
