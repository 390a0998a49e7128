(** RIPv2 daemon (the ripd of the Quagga substrate).

    Distance-vector routing per RFC 2453: periodic full-table responses
    every 30 s (jittered), split horizon with poisoned reverse,
    triggered updates on metric change, 180 s route timeout and 120 s
    garbage-collection hold. Routes install into the RIB at Quagga's
    RIP distance (120).

    RIP converges in O(diameter) update rounds where OSPF floods in
    milliseconds — the protocol ablation of the experiment harness
    makes that visible. *)

open Rf_packet

type config = {
  update_interval : float;  (** seconds, default 30 *)
  timeout : float;  (** default 180 *)
  garbage : float;  (** default 120 *)
}

val default_config : config

type t

val create :
  Rf_sim.Engine.t ->
  ?entity:Rf_obs.Profiler.entity ->
  ?config:config ->
  Rib.t ->
  t

val add_interface : t -> ?passive:bool -> Iface.t -> unit
(** Must be addressed. Advertises the connected subnet at metric 1; the
    connected route is zebra's ({!Zebra.add_interface}), not ripd's. *)

val start : t -> unit
(** Sends an immediate request + first response round. *)

val stop : t -> unit

val table : t -> (Ipv4_addr.Prefix.t * int * Ipv4_addr.t option) list
(** (prefix, metric, next hop) including connected entries, sorted. *)

val triggered_updates : t -> int
