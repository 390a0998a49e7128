(** The automatic-configuration framework (the paper's contribution).

    Binds the topology controller's discovery events to RouteFlow
    configuration messages: a detected switch becomes a [Switch_up] RPC
    carrying (dpid, port count); a detected link triggers allocation of
    a /30 from the administrator's range and a [Link_up] RPC carrying
    the VM interface addresses; host-facing subnets from the
    administrator's static input are pushed as [Edge_subnet] RPCs.

    A link detected after the range is exhausted is a reported fault,
    not an exception: it counts in [autoconf_alloc_exhausted_total],
    leaves an [alloc-exhausted] trace record, and stays unconfigured —
    no [Link_up] is sent and snapshots omit it. *)

open Rf_packet

type admin_config = {
  ac_range : Ipv4_addr.Prefix.t;
      (** the virtual environment's IP range — the paper's only manual
          input *)
  ac_edges : (int64 * int * Ipv4_addr.Prefix.t) list;
      (** host attachment points: switch, port, subnet (gateway = .1) *)
}

type t

val create :
  Rf_sim.Engine.t ->
  Rf_controller.Discovery.t ->
  Rf_rpc.Rpc_client.t ->
  admin_config ->
  t
(** Installs itself as the discovery module's event consumer, and as
    the RPC client's snapshot provider: on a session resync the full
    authoritative view (current switches, their edge subnets, current
    links with their existing address allocations) is rebuilt from the
    discovery state and sent as one [Sync_snapshot]. *)

val snapshot : t -> Rf_rpc.Rpc_msg.t list
(** The authoritative view, in application order (switches, then
    edges, then links). Link addresses come from the live allocation
    table, so a snapshot never renumbers a known link. *)

val allocator : t -> Ip_alloc.t

val switches_reported : t -> int
(** Switches sent as [Switch_up]: reads the engine's
    [autoconf_switches_total] counter. *)

val links_reported : t -> int
(** Links sent as [Link_up] (each detection counts, so a re-appearing
    link counts again): reads the engine's [autoconf_links_total]
    counter. *)

val links_exhausted : t -> int
(** Link detections left unconfigured because the range was
    exhausted: reads the engine's [autoconf_alloc_exhausted_total]
    counter. *)
