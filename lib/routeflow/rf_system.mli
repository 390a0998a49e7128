(** The RouteFlow server: VM lifecycle, switch↔VM and port↔NIC
    mappings, config-file generation, and the RF-client→controller flow
    path.

    This module exposes exactly the operations the paper's RPC server
    performs on reception of configuration messages: create a VM for a
    new switch, assign interface addresses for a new link, and write
    the routing configuration files. *)

open Rf_packet

type protocol = Proto_ospf | Proto_rip
(** Which routing control platform the VMs run — the framework itself
    is protocol-agnostic, it only writes different config files. *)

type params = {
  vm_boot_time : Rf_sim.Vtime.span;
      (** cloning + booting one VM image (LXC in RouteFlow) *)
  parallel_boot : int;
      (** concurrent VM creations; 1 = the serialized behaviour of the
          paper-era RouteFlow, larger values are the ablation knob *)
  config_apply_delay : Rf_sim.Vtime.span;
      (** writing config files and (re)starting daemons *)
  routing_protocol : protocol;
}

val default_params : params
(** 8 s boot, serialized, 200 ms config apply, OSPF (the paper's
    protocol). *)

type t

val create : Rf_sim.Engine.t -> Rf_controller_app.t -> Rf_vs.t -> params -> t

val router_id_of : int64 -> Ipv4_addr.t
(** Deterministic router id for a datapath: 10.255.hi.lo. *)

(** {1 Configuration operations (called by the RPC server)} *)

val switch_up : t -> dpid:int64 -> n_ports:int -> unit
(** Queues creation of the switch's VM. Idempotent per dpid. *)

val switch_down : t -> dpid:int64 -> unit

val link_config :
  t ->
  a:int64 * int * Ipv4_addr.t * int ->
  b:int64 * int * Ipv4_addr.t * int ->
  unit
(** [(dpid, port, ip, prefix_len)] for each side of a discovered link:
    records the NIC addresses, regenerates both VMs' config files, and
    mirrors the link in the virtual switch. *)

val link_down : t -> a:int64 * int -> b:int64 * int -> unit
(** Mirrors a physical link failure into the virtual environment:
    disconnects the virtual link and downs both VM NICs so the routing
    protocol reconverges immediately (the link's addresses are kept for
    its return). *)

val link_up_again : t -> a:int64 * int -> b:int64 * int -> unit
(** The reverse of [link_down] for a recovered link whose addresses are
    already configured. *)

val edge_config :
  t -> dpid:int64 -> port:int -> gateway:Ipv4_addr.t -> prefix_len:int -> unit
(** A host-facing port: the VM NIC gets the subnet's gateway address
    and the interface is OSPF-passive. *)

(** {1 Reconciliation}

    Used by the snapshot handler after a controller restart: the
    topology controller's [Sync_snapshot] is the authoritative desired
    state, and these let the RF-controller compute and apply only the
    delta. *)

val switches_known : t -> int64 list
(** Datapaths with live state (booting or configured), sorted. *)

val prune_vlinks : t -> keep:((int64 * int) * (int64 * int)) list -> unit
(** Disconnects and forgets virtual links absent from [keep] (either
    endpoint order matches). *)

(** {1 State} *)

val vm : t -> int64 -> Vm.t option

val vms : t -> (int64 * Vm.t) list

val is_configured : t -> int64 -> bool
(** Paper semantics: the switch has a corresponding VM. *)

val configured_count : t -> int
(** [List.length (vms t)], kept as a count. *)

val add_on_vm_ready : t -> (int64 -> unit) -> unit
(** Registers a listener for each VM that finishes booting, before any
    configuration that waited for it is applied. Listeners run in
    registration order: in a scenario, the GUI first, then the
    auditor's RIB feed, then the scenario's own listeners. *)

val set_mutation_guard : t -> (unit -> bool) -> unit
(** Installed by clustered deployments: every configuration mutation
    ({!switch_up}, {!switch_down}, {!link_config}, {!link_down},
    {!link_up_again}, {!edge_config}, {!prune_vlinks}) first consults
    the guard and is dropped (and counted) when it returns [false].
    Default: always allow. This is the fence that keeps a deposed
    leader from mutating state the new leader owns. *)

val mutations_rejected : t -> int
(** Configuration mutations dropped by the guard. *)

(** {1 Fault injection} *)

val arm_boot_failures : t -> dpid:int64 -> failures:int -> unit
(** The next [failures] VM clone attempts for [dpid] fail at the end of
    their boot time; each failure re-enqueues the switch at the back of
    the boot queue (the server retries until a clone succeeds), so a
    switch with a finite failure count still becomes configured. *)

val boot_failures_injected : t -> int
(** Total clone failures that have fired: reads the engine's
    [vm_boot_failures_total] counter. *)

val vms_created : t -> int
