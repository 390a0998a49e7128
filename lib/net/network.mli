(** Instantiates an emulated network from a topology description:
    datapaths with OF agents, hosts, and data-plane links. Control
    channels are handed to [attach_controller] — in the paper's setup
    that is FlowVisor's switch-facing side. *)

open Rf_packet

type host_config = {
  hc_ip : Ipv4_addr.t;
  hc_prefix_len : int;
  hc_gateway : Ipv4_addr.t;
}

type t

val build :
  Rf_sim.Engine.t ->
  Topology.t ->
  host_config:(string -> host_config) ->
  attach_controller:(dpid:int64 -> Channel.endpoint -> unit) ->
  ?switch_boot_delay:(int64 -> Rf_sim.Vtime.span) ->
  unit ->
  t
(** [switch_boot_delay] staggers when each switch opens its control
    connection (default: all at the current instant). Hosts announce
    themselves with a gratuitous ARP when built. *)

val engine : t -> Rf_sim.Engine.t

val topology : t -> Topology.t

val datapath : t -> int64 -> Datapath.t

val datapaths : t -> (int64 * Datapath.t) list

val host : t -> string -> Host.t

val hosts : t -> (string * Host.t) list

val link : t -> Topology.node -> Topology.node -> Link.t option

val links : t -> ((Topology.node * Topology.node) * Link.t) list
(** All links in a deterministic order (switches before hosts, then by
    dpid/name), regardless of construction order. *)

val set_all_link_capacity : t -> Link.capacity option -> unit
(** Applies one capacity model to every link (switch-switch and
    switch-host alike); [None] restores ideal links. *)

val queue_dropped_frames : t -> int
(** Sum of FIFO tail drops over all links. *)

val set_link_up : t -> Topology.node -> Topology.node -> bool -> unit
(** Raises [Not_found] when there is no such link. *)

val set_on_link_state :
  t -> (Topology.node -> Topology.node -> bool -> unit) -> unit
(** Observer fired by {!set_link_up} after the link state changed —
    every link fault and recovery (the fault injector included) goes
    through that chokepoint, so this is the auditor's link feed. *)

val disconnect_switch : t -> int64 -> unit
(** Closes the switch's control connection (crash injection); the
    datapath keeps forwarding with its installed flows, headless. *)

val reconnect_switch : t -> int64 -> unit
(** Opens a fresh control connection for the switch (recovery after
    [disconnect_switch]); to the controllers this is a brand-new
    switch joining. *)
