(** Builds the complete system of the paper's Fig. 2 around an emulated
    topology: switches and hosts ({!Rf_net.Network}), FlowVisor with
    the topology and RouteFlow slices, the topology controller
    (discovery + autoconfig + RPC client), and the RF-controller (RPC
    server + RouteFlow + VMs), plus the red/green GUI.

    The k-th host in host-name order gets the subnet [host_subnet k]:
    host = .2, VM gateway = .1; these become the administrator's static
    edge input to the topology controller. *)

open Rf_packet

type options = {
  seed : int;
  rf_params : Rf_routeflow.Rf_system.params;
  rpc_params : Rf_rpc.Rpc_client.params;
      (** supervision knobs of the RPC session (backoff, heartbeats,
          resync-on-restart) *)
  probe_interval : Rf_sim.Vtime.span;  (** LLDP probe period *)
  rpc_latency : Rf_sim.Vtime.span;  (** RPC client↔server *)
  ip_range : Ipv4_addr.Prefix.t;  (** the administrator's range *)
  faults : Rf_sim.Faults.plan;
      (** deterministic fault plan injected into the built system *)
  link_capacity : Rf_net.Link.capacity option;
      (** when set, applied to every data-plane link at build time so
          congestion and blackholing produce real loss (default [None]:
          ideal links, the pre-traffic behaviour) *)
  cluster_replicas : int;
      (** RF-controller replicas. 1 (default) keeps the legacy single
          controller with no cluster machinery at all; >= 2 routes
          every configuration message through a replicated log
          ({!Rf_rpc.Cluster}) with leader election, guards the
          RouteFlow state behind the commit path, and fails switch
          OpenFlow sessions over to each new leader *)
  profiler : Rf_obs.Profiler.t option;
      (** when set, attached to the engine before anything is
          scheduled, so boot-phase work is attributed too *)
  audit : bool;
      (** attaches a continuous forwarding-state auditor
          ({!Rf_obs.Auditor}) fed by flow-table snapshots (on every
          flow-mod and expiry), link-state transitions, per-VM RIB
          publications and FlowVisor slice attributions. Violation
          windows appear as [audit.violation] spans in the telemetry
          and as [audit_*] meta keys ([audit_dropped] always present
          when auditing, so completeness rules can bind to it). Off
          (default) adds no meta keys, keeping every pinned
          fingerprint unchanged *)
}

val host_subnet : int -> Ipv4_addr.Prefix.t
(** [host_subnet k] is 10.(k / 256).(k mod 256).0/24, the subnet of the
    k-th host (1-based); 10.0.k.0/24 for k <= 255. Raises
    [Invalid_argument] outside 1..65535, so {!build} rejects topologies
    with more than 65,535 hosts. *)

val default_options : options
(** seed 42, paper-era RouteFlow params (8 s serialized boots), 5 s
    probes, 1 ms RPC latency, range 172.16.0.0/16, no faults. The
    switch↔FlowVisor↔controller channels always use
    {!Rf_net.Channel.create}'s 1 ms default. *)

type t

val build : ?options:options -> Rf_net.Topology.t -> t

(** {1 Component access} *)

val engine : t -> Rf_sim.Engine.t

val network : t -> Rf_net.Network.t

val flowvisor : t -> Rf_flowvisor.Flowvisor.t

val discovery : t -> Rf_controller.Discovery.t

val autoconfig : t -> Autoconfig.t

val rf_system : t -> Rf_routeflow.Rf_system.t

val rf_app : t -> Rf_routeflow.Rf_controller_app.t

val rpc_client : t -> Rf_rpc.Rpc_client.t

val rpc_server : t -> Rf_rpc.Rpc_server.t

val cluster : t -> Rf_rpc.Cluster.t option
(** The controller cluster; [None] unless [cluster_replicas >= 2]. *)

val auditor : t -> Rf_obs.Auditor.t option
(** The forwarding-state auditor; [None] unless [options.audit]. *)

val gui : t -> Gui.t

val host : t -> string -> Rf_net.Host.t

val host_ip : t -> string -> Ipv4_addr.t

val switch_count : t -> int

(** {1 Running and instrumentation} *)

val run_for : t -> Rf_sim.Vtime.span -> unit
(** Advances the simulation by the given span of virtual time. *)

val add_vm_ready_listener : t -> (int64 -> unit) -> unit

val all_configured_at : t -> Rf_sim.Vtime.t option
(** When the last switch turned green (paper metric: every switch has
    its VM). *)

val routing_converged_at : t -> Rf_sim.Vtime.t option
(** When every VM's RIB covered every subnet of the network (checked
    once per simulated second). *)

val total_subnets : t -> int

(** {1 Fault injection}

    Built from [options.faults]: timed events fire on the engine's
    clock (link flaps via {!Rf_net.Network.set_link_up}, switch crashes
    via disconnect/reconnect, VM clone failures via
    {!Rf_routeflow.Rf_system.arm_boot_failures}, RF-controller
    crash/restart via the RPC server's crash/restart), an optional
    lossy profile applies to the topology slice's OpenFlow connections,
    and another to both directions of the RPC session. All randomness
    descends from [options.seed], so a run is replayable from its seed
    alone. *)

val fault_events_fired : t -> int

val last_fault_at : t -> Rf_sim.Vtime.t option
(** When the most recent planned fault fired. *)

(** {1 Telemetry}

    Every scenario shares its engine's tracer and metrics registry; the
    span tree decomposes each switch's configuration time into
    discovery, RPC, VM-provisioning and Quagga phases, with one
    retroactive [phase.convergence] span covering the routing tail. *)

val telemetry_jsonl : t -> string
(** The full span/event stream as JSON lines, preceded by a meta line:
    seed, switch and subnet counts, run outcomes when observed
    ([all_green_s], [converged_s], [last_fault_s], [reconverged_s],
    [fault_events]), the auditor's counts in audited runs and the
    cluster's in clustered runs. Deterministic: two same-seed runs
    produce byte-identical output, and the meta line alone lets
    [Rf_obs.Slo] judge a run from its telemetry file. *)

val write_telemetry : ?meta:(string * string) list -> t -> string -> unit
(** [write_telemetry ?meta t path] writes {!telemetry_jsonl} to [path],
    with [meta] appended to its meta line. *)

val prometheus : t -> string
(** Prometheus-style text exposition of the metrics registry. *)

val span_stats : t -> Rf_obs.Export.span_stat list
(** Per-span-name aggregates (count, open, total/mean/max seconds). *)

val reconverged_at : t -> Rf_sim.Vtime.t option
(** Time of the last observed route-table change at or after the last
    injected fault — the moment the routing control platform settled
    into its post-fault state. [None] until a fault has fired and some
    VM's selected routes have changed since. Only runs with a fault
    plan track this: once per simulated second every VM's selected
    (prefix, next hop, interface) triples are compared with the previous
    second's, so a change reverted within the same second is no change.
    The comparison re-reads only VMs whose RIB
    {!Rf_routing.Rib.generation} moved since the last tick, so its cost
    follows the routes that changed, not the size of the network. *)
