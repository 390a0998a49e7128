(** Reproductions of the paper's evaluation artifacts plus the
    extension experiments listed in DESIGN.md.

    All times are *simulated* seconds; the manual baseline is the
    paper's analytical model. *)

(** {1 E1 — Figure 3: automatic vs manual configuration time} *)

type fig3_row = {
  f3_switches : int;
  f3_auto_s : float;  (** all switches green (VM created + configured) *)
  f3_converged_s : float option;  (** OSPF routes complete everywhere *)
  f3_manual_min : float;  (** paper model: 15 min per switch *)
}

val fig3 :
  ?sizes:int list ->
  ?vm_boot_s:float ->
  ?parallel_boot:int ->
  ?telemetry:string ->
  ?profiler:Rf_obs.Profiler.t ->
  unit ->
  fig3_row list
(** Default sizes 4, 8, ..., 28 (ring topologies, as in the paper).
    [telemetry] writes the span/event JSONL of the largest size's run
    to the given path. *)

val print_fig3 : Format.formatter -> fig3_row list -> unit

(** {1 E1b — per-phase decomposition of the configuration time}

    From the span tree of one ring run: how the critical-path switch's
    end-to-end configuration time divides into discovery, RPC delivery,
    VM provisioning and Quagga configuration, plus the routing
    convergence tail after the last switch turns green. *)

type phase_row = {
  ph_dpid : int64;
  ph_discovery_s : float;  (** switch attach → topology ctrl detection *)
  ph_rpc_s : float;  (** detection → Switch_up frame acknowledged *)
  ph_vm_s : float;  (** RF-controller delivery → VM booted (queueing) *)
  ph_quagga_s : float;  (** VM up → Quagga configs applied *)
  ph_config_s : float;  (** whole sw.configure span *)
}

type phase_breakdown = {
  pb_switches : int;
  pb_rows : phase_row list;  (** every switch, dpid order *)
  pb_critical : phase_row;  (** the switch whose configuration ended last *)
  pb_all_green_s : float option;
  pb_convergence_tail_s : float option;
  pb_converged_s : float option;
  pb_trace_events : int;  (** {!Rf_obs.Tracer.event_count} of the run *)
}

val breakdown_of : Scenario.t -> phase_breakdown
(** Reads the span tree of an already-run scenario. Raises
    [Invalid_argument] if no switch ever started configuring. *)

val phase_run :
  ?switches:int ->
  ?vm_boot_s:float ->
  ?parallel_boot:int ->
  ?telemetry:string ->
  unit ->
  Scenario.t
(** Runs one ring scenario (default: the paper's 28 switches, 8 s
    serialized boots) to convergence, ready for {!breakdown_of}.
    [telemetry] writes the run's span/event JSONL to the given
    path. *)

val print_phases : Format.formatter -> phase_breakdown -> unit

(** {1 E2 — Demonstration: pan-European video streaming} *)

type demo_result = {
  d_switches : int;
  d_links : int;
  d_first_green_s : float option;
  d_all_green_s : float option;
  d_converged_s : float option;
  d_video_first_packet_s : float option;
  d_video_sent : int;
  d_video_received : int;
  d_flow_entries_total : int;
  d_slow_path_packets : int;  (** data packets the VMs forwarded *)
  d_steady_sent : int;  (** datagrams sent in the final minute *)
  d_steady_received : int;
  d_gui_timeline : (float * int) list;  (** (time, #green) milestones *)
  d_gui_final_frame : string;
}

val demo :
  ?vm_boot_s:float ->
  ?horizon_s:float ->
  ?server_city:string ->
  ?client_city:string ->
  ?protocol:Rf_routeflow.Rf_system.protocol ->
  ?pcap_path:string ->
  ?telemetry:string ->
  unit ->
  demo_result
(** Default: 8 s boots, 360 s horizon, video streamed from a server in
    Glasgow to a client in Athens (opposite ends of the topology).
    [pcap_path] writes a Wireshark-readable capture of the client's
    access link. *)

val print_demo : Format.formatter -> demo_result -> unit

(** {1 E12 — forwarding-state audit (shared result shape)}

    One audited run's view of the {!Rf_obs.Auditor} attached via
    {!Scenario.options.audit}: window counts per invariant, union
    durations of the violation windows before and after the first
    planned fault, and the steady-state gate input — windows strictly
    inside the (post-convergence, pre-fault) interval, which must be
    empty on a healthy run. *)

type audit_window = {
  aw_kind : string;  (** "loop" / "blackhole" / "rib_fib" / "slice" *)
  aw_key : string;
  aw_open_s : float;
  aw_close_s : float option;  (** [None]: still open at the horizon *)
}

type audit_run = {
  ar_label : string;
  ar_updates : int;  (** audited incremental updates processed *)
  ar_eq_classes : int;
  ar_walks : int;
  ar_dropped : int;  (** unprobeable classes — audit incompleteness *)
  ar_loop : int;  (** windows opened, per invariant... *)
  ar_blackhole : int;
  ar_rib_fib : int;
  ar_slice : int;
  ar_window_count : int;
  ar_open_at_end : int;  (** windows still open at the horizon *)
  ar_converged_s : float option;
  ar_first_fault_s : float option;
  ar_steady_windows : int;
      (** windows overlapping the open steady-state interval
          (converged_s, first_fault_s) — the exit-code-5 gate *)
  ar_boot_union_s : float;
      (** union of violation windows clipped to before the first fault
          (dominated by the boot transient) *)
  ar_fault_union_s : float;
      (** union clipped to [first fault, horizon] — the measurable
          fault-induced violation window *)
  ar_fault_windows : audit_window list;
      (** windows opened at or after the first fault, opening order *)
}

val print_audit_run : Format.formatter -> audit_run -> unit
(** Virtual-clock figures only — safe to fingerprint. *)

(** {1 E3 — Failure recovery: link cut under live traffic}

    A ring carries a UDP stream end to end; a deterministic fault plan
    cuts one link on the stream's path mid-run. Reported: datagrams
    lost in the post-cut window, the time for the routing control
    platform to settle on routes that avoid the dead link, and an MD5
    fingerprint of the full event trace — rerunning with the same seed
    reproduces the fingerprint byte for byte. *)

type recovery_result = {
  fr_seed : int;
  fr_switches : int;
  fr_fail_at_s : float;
  fr_all_green_s : float option;
  fr_converged_s : float option;
  fr_reconverged_s : float option;  (** routes settled post-cut *)
  fr_outage_s : float option;  (** reconverged − fail time *)
  fr_window_sent : int;  (** datagrams sent in the post-cut window *)
  fr_window_received : int;
  fr_window_lost : int;
  fr_routes_avoid_failed_link : bool;
  fr_trace_fingerprint : string;  (** MD5 of {!Rf_sim.Engine.pp_trace} *)
  fr_audit : audit_run option;  (** present with [audit] *)
}

val failure_recovery :
  ?seed:int ->
  ?switches:int ->
  ?fail_at_s:float ->
  ?horizon_s:float ->
  ?audit:bool ->
  ?telemetry:string ->
  ?profiler:Rf_obs.Profiler.t ->
  unit ->
  recovery_result
(** Default: 6-switch ring (server behind sw1, client behind sw4, 2 s
    quad-parallel boots so setup is quick), link sw2–sw3 cut at 60 s,
    loss counted over the following 30 s, 150 s horizon. [audit]
    attaches the forwarding-state auditor and fills [fr_audit] (plus
    the audit meta keys of the telemetry dump). *)

val print_failure_recovery : Format.formatter -> recovery_result -> unit

(** {1 E4 — Controller restart: crash, topology change, reconcile on return}

    The RF-controller crashes, a physical link dies while it is down
    (so the Link_down config event has no live session to land in), and
    the controller restarts later. Three runs with the same seed see
    the same link cut: a baseline whose controller never crashes, a
    crash with the supervised RPC session (epochs + anti-entropy
    snapshot), and a crash with the legacy session (no epochs, no
    resync). Reported per run: configuration/convergence outcomes,
    config events that were silently lost, traffic overhead of the
    supervision, and an MD5 digest of the final VM/Quagga/route state —
    the supervised run's digest must equal the baseline's, the legacy
    run's must not (it keeps routing over the dead link). *)

type restart_run = {
  rr_label : string;
  rr_configured : int;
  rr_all_green_s : float option;
  rr_converged_s : float option;
  rr_reconverged_s : float option;
  rr_state_digest : string;  (** MD5 over VM configs + selected routes *)
  rr_sent : int;
  rr_retx : int;
  rr_gave_up : int;
  rr_pings : int;
  rr_snapshots : int;
  rr_resyncs : int;
  rr_handled : int;
  rr_dups : int;
  rr_undelivered : int;
      (** config events acknowledged-or-abandoned but never handled *)
  rr_incarnation : int;
  rr_trace_fingerprint : string;
  rr_audit : audit_run option;
      (** present with [audit]; the first fault is the crash for the
          faulty runs, the cut for the baseline *)
}

type restart_result = {
  rs_seed : int;
  rs_switches : int;
  rs_crash_at_s : float;
  rs_cut_at_s : float;  (** link sw2-sw3 dies while the controller is down *)
  rs_recover_at_s : float;
  rs_baseline : restart_run;
  rs_supervised : restart_run;
  rs_legacy : restart_run;
  rs_supervised_matches : bool;
  rs_legacy_matches : bool;
  rs_sync_overhead_msgs : int;
  rs_recovery_s : float option;
}

val restart :
  ?seed:int ->
  ?switches:int ->
  ?crash_at_s:float ->
  ?cut_at_s:float ->
  ?recover_at_s:float ->
  ?horizon_s:float ->
  ?audit:bool ->
  ?telemetry:string ->
  unit ->
  restart_result
(** Default: 8-switch ring, 2 s quad-parallel boots, crash at 4 s,
    link cut at 8 s, restart at 20 s, 120 s horizon. Requires
    [crash_at_s < cut_at_s < recover_at_s]. [telemetry] writes the
    supervised (crash + reconciliation) run's span/event JSONL to the
    given path. *)

val print_restart : Format.formatter -> restart_result -> unit

(** {1 E5 — GUI: red/green frames over the demo run} *)

val gui_frames : ?vm_boot_s:float -> ?every_s:float -> unit -> string list

(** {1 X1 — scaling beyond the paper (up to 1000 switches)} *)

type scaling_row = {
  sc_switches : int;
  sc_auto_s : float;
  sc_manual_min : float;
  sc_events : int;  (** simulator events executed *)
}

val scaling : ?sizes:int list -> unit -> scaling_row list
(** Default sizes 50, 100, 250, 500, 1000; discovery slowed to 30 s
    probes to keep event counts proportionate at scale. *)

val print_scaling : Format.formatter -> scaling_row list -> unit

(** {1 X2 — ablations} *)

type ablation_row = {
  ab_label : string;
  ab_all_green_s : float option;
  ab_converged_s : float option;
}

val ablation_parallel_boot : ?switches:int -> unit -> ablation_row list
(** Serialized (paper-era RouteFlow) vs 2/4/8-way parallel VM cloning. *)

val ablation_probe_interval : ?switches:int -> unit -> ablation_row list

val ablation_rpc_latency : ?switches:int -> unit -> ablation_row list
(** Co-located vs remote topology controller (RPC RTT sweep). *)

val ablation_protocol : ?switches:int -> unit -> ablation_row list
(** The framework is protocol-agnostic: the same run with the VMs on
    OSPF vs RIPv2 (triggered updates let RIP converge within seconds
    of the last boot too; VM cloning dominates both). *)

val print_ablation : Format.formatter -> string -> ablation_row list -> unit

(** {1 X4 — control-plane message census (extension)} *)

type census = {
  cn_switches : int;
  cn_links : int;
  cn_lldp_probes : int;
  cn_lldp_received : int;
  cn_rpc_messages : int;
  cn_fv_to_topology : int;
  cn_fv_to_routeflow : int;
  cn_fv_from_topology : int;
  cn_fv_from_routeflow : int;
  cn_flow_mods : int;
  cn_packet_ins_relayed : int;
  cn_packet_outs : int;
  cn_slow_path : int;
  cn_sim_events : int;
}

val census : ?switches:int -> unit -> census
(** Counts every control-plane message category over one full
    autoconfiguration run of a ring. *)

val print_census : Format.formatter -> census -> unit

(** {1 X3 — topology families} *)

type family_row = {
  fam_name : string;
  fam_switches : int;
  fam_links : int;
  fam_all_green_s : float option;
  fam_converged_s : float option;
}

val topo_families : ?n:int -> unit -> family_row list

val print_families : Format.formatter -> family_row list -> unit

(** {1 E6 — data-plane traffic: disruption under reconfiguration} *)

type traffic_run = {
  tw_label : string;
  tw_flows : int;
  tw_offered : int;  (** weighted data-plane packets *)
  tw_delivered : int;
  tw_lost : int;
  tw_disrupted_flows : int;
  tw_window : (float * float) option;
      (** virtual-time envelope of lost-probe send times *)
  tw_disruption_s : float;
  tw_reconverged_s : float option;
  tw_queue_dropped : int;  (** link FIFO tail drops *)
  tw_classes : Rf_traffic.Measure.class_summary list;
}

type traffic_result = {
  tr_seed : int;
  tr_switches : int;
  tr_fail_at_s : float;
  tr_manual_response_s : float;
  tr_crash_at_s : float;
  tr_cut_at_s : float;
  tr_recover_at_s : float;
  tr_auto : traffic_run;  (** E3 cut, controller up *)
  tr_manual : traffic_run;
      (** same cut with the control platform down across it — the
          manual-operation baseline *)
  tr_reconciled : traffic_run;  (** E4 crash/restart, resync on *)
  tr_legacy : traffic_run;  (** E4 crash/restart, resync off *)
  tr_auto_shorter : bool;
      (** automatic disruption strictly shorter than manual *)
}

val traffic_spec :
  ?start_s:float -> switches:int -> horizon_s:float -> unit -> Rf_traffic.Spec.t
(** The standard E6 workload: a CBR "video" class (some pairs forced
    across the sw2-sw3 cut), an on-off "bursty" class, and a Poisson
    "web" class with heavy-tailed aggregated flows. [start_s] (default
    20, the E6 value) delays every class — large rings need the
    network configured before measuring it. *)

val traffic_disruption :
  ?seed:int ->
  ?switches:int ->
  ?fail_at_s:float ->
  ?manual_response_s:float ->
  ?horizon_s:float ->
  ?telemetry:string ->
  ?profiler:Rf_obs.Profiler.t ->
  unit ->
  traffic_result
(** Four measured runs of the standard workload on a ring with 10
    Mbit/s links (one host per switch, >= 8 switches): the E3 link cut
    with automatic reconfiguration vs. the manual baseline (controller
    down across the cut, operator responds [manual_response_s] later),
    and the E4 crash (25 s), cut (30 s) and restart (45 s) with
    reconciled vs. legacy RPC. [telemetry] writes the automatic run's span/event JSONL. *)

val print_traffic : Format.formatter -> traffic_result -> unit
(** Deterministic: safe to fingerprint (no wall-clock content). *)

type traffic_scale_result = {
  ts_k : int;
  ts_switches : int;
  ts_hosts : int;
  ts_links : int;
  ts_pairs : int;
  ts_flows : int;
  ts_samples : int;
  ts_offered : int;
  ts_delivered : int;
  ts_lost : int;
  ts_horizon_s : float;
  ts_events : int;
  ts_elapsed_s : float;  (** CPU seconds; not deterministic *)
}

val traffic_scaling :
  ?seed:int ->
  ?k:int ->
  ?pairs_per_host:int ->
  ?arrivals_per_s:float ->
  ?horizon_s:float ->
  unit ->
  traffic_scale_result
(** The E6 scaling run: a k-ary fat-tree (default k=20: 500 switches,
    2000 hosts) with Poisson flow arrivals through the aggregate
    fabric — >= 10^5 aggregated flows in 60 s of virtual time at the
    defaults. *)

(** {1 E9 — controller-cluster failover under live traffic} *)

type cluster_run = {
  cw_traffic : traffic_run;
  cw_replicas : int;
  cw_digest : string;  (** RF-side state digest at the end of the run *)
  cw_elections : int;
  cw_failovers : int;
  cw_failover_s : float option;
      (** most recent leaderless interval, fault to re-election *)
  cw_leader : int option;
  cw_epoch : int32;
  cw_agree : bool;  (** live replicas end on the same committed log *)
  cw_applied : int;  (** committed entries surfaced to RouteFlow *)
  cw_reassignments : int;  (** switch sessions whose OpenFlow role flipped *)
  cw_rejected : int;  (** mutations fenced off outside the commit path *)
  cw_audit : audit_run option;  (** present with [audit] *)
}

type cluster_result = {
  cf_seed : int;
  cf_switches : int;
  cf_replicas : int;
  cf_crash_at_s : float;
  cf_cut_at_s : float;
  cf_recover_at_s : float;
  cf_manual_response_s : float;
  cf_auto : cluster_run;  (** replicated: leader crash, automatic failover *)
  cf_legacy : cluster_run;
      (** single controller: same crash needs the operator *)
  cf_digest_match : bool;
      (** both deployments configured the network identically *)
  cf_auto_shorter : bool;
}

val cluster_failover :
  ?seed:int ->
  ?switches:int ->
  ?replicas:int ->
  ?crash_at_s:float ->
  ?cut_at_s:float ->
  ?recover_at_s:float ->
  ?manual_response_s:float ->
  ?horizon_s:float ->
  ?traffic_start_s:float ->
  ?parallel_boot:int ->
  ?audit:bool ->
  ?telemetry:string ->
  ?profiler:Rf_obs.Profiler.t ->
  unit ->
  cluster_result
(** Two measured runs of the standard E6 workload on a ring with 10
    Mbit/s links: the replicated deployment loses its acting leader
    (replica 0, the deterministic bootstrap winner) just before the
    sw2-sw3 cut and fails over automatically, while the
    single-controller baseline suffers the same crash and waits
    [manual_response_s] for the operator. Both must end on the same
    RF-side state digest. [telemetry] writes the automatic run's
    span/event JSONL. At large ring sizes raise [parallel_boot],
    [traffic_start_s] and the fault times so provisioning completes
    before the measurement starts. *)

val print_cluster : Format.formatter -> cluster_result -> unit
(** Deterministic: safe to fingerprint (no wall-clock content). *)

(** {1 E10 — engine profile}

    One E6-style scaling run with the {!Rf_obs.Profiler} attached:
    per-entity load attribution and heap/GC telemetry. Every figure in
    the deterministic report derives from simulation state (event
    counts, heap shape), so the summary can be fingerprinted;
    wall-clock rates and GC words appear only in the [wall] form of
    the printer. *)

type profile_result = {
  pf_scale : traffic_scale_result;
  pf_snapshot : Rf_obs.Profiler.snapshot;
  pf_overhead_pct : float option;
      (** profiled vs unprofiled wall-clock cost of the same run, in
          percent; only present with [measure_overhead] and never part
          of deterministic output *)
}

val profile_scaling :
  ?seed:int ->
  ?k:int ->
  ?horizon_s:float ->
  ?measure_overhead:bool ->
  ?telemetry:string ->
  unit ->
  profile_result
(** The E6 scaling run (same defaults as {!traffic_scaling}) with
    profiling on. [measure_overhead] first runs the identical workload
    unprofiled and reports the relative wall-clock cost of
    instrumentation. *)

val print_profile :
  ?wall:bool ->
  ?top:int ->
  Format.formatter ->
  profile_result ->
  unit
(** With [wall:false] (default) the report contains only
    simulation-deterministic figures — safe to fingerprint. [wall]
    adds busy-time, events/sec, GC and overhead lines. [top] (default
    10) bounds the entity table. *)

(** {1 E12 — forwarding-state audit of the fault replays}

    The E3 link-cut, E4 crash/restart and E9 leader-crash fault
    schedules replayed with the {!Rf_obs.Auditor} attached, automatic
    vs. legacy control plane, on rings with one host per switch and no
    traffic workload — E12 measures the forwarding *state*: how long
    each fault leaves the network with loops, blackholes, RIB–FIB
    divergence or slice escapes, as violation windows in virtual
    time. *)

type audit_pair = {
  ap_name : string;  (** "e3-link-cut" / "e4-restart" / "e9-leader-crash" *)
  ap_detail : string;  (** printable fault schedule *)
  ap_switches : int;
  ap_auto : audit_run;
  ap_legacy : audit_run;
}

type audit_result = {
  ad_seed : int;
  ad_pairs : audit_pair list;  (** E3, E4, E9 order *)
  ad_steady_total : int;
      (** steady-state violations across every run — `rfauto audit`
          exits 5 unless this is 0 *)
}

val audit_ring_run :
  ?telemetry:string ->
  scenario:string ->
  label:string ->
  seed:int ->
  switches:int ->
  replicas:int ->
  resync:bool ->
  faults:Rf_sim.Faults.plan ->
  first_fault_s:float ->
  horizon_s:float ->
  unit ->
  audit_run
(** One audited control-plane replay: a ring with one host subnet per
    switch (no traffic workload), the given fault plan, and the
    auditor attached. The building block of {!audit_windows}; exposed
    so tests can pin reduced-size replays. *)

val audit_windows :
  ?seed:int ->
  ?e3_switches:int ->
  ?e4_switches:int ->
  ?e9_switches:int ->
  ?e9_replicas:int ->
  ?telemetry:string ->
  unit ->
  audit_result
(** Defaults mirror the source experiments: E3 on a 6-ring (cut at
    60 s; legacy: controller down 58–85 s), E4 on an 8-ring (crash 4 s,
    cut 8 s, recover 20 s; legacy: no resync), E9 on a 28-ring with 3
    replicas (leader crash 30 s, cut 36 s, rejoin 60 s; legacy: single
    controller back at 55 s). [telemetry] writes the E9 automatic run's
    span/event JSONL — its [audit.violation] spans are the headline
    windows. Deterministic: same seed, byte-identical windows. *)

val print_audit : Format.formatter -> audit_result -> unit
(** Virtual-clock figures only — the CI E12 fingerprint. *)
