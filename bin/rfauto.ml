(* rfauto — command-line front end for the reproduction experiments. *)

open Cmdliner
module Experiment = Rf_core.Experiment

let std = Format.std_formatter

(* --- fig3 --------------------------------------------------------- *)

let sizes_arg =
  let doc = "Ring sizes to sweep (comma separated)." in
  Arg.(value & opt (list int) [ 4; 8; 12; 16; 20; 24; 28 ] & info [ "sizes" ] ~doc)

let boot_arg =
  let doc = "VM creation (clone+boot) time in seconds." in
  Arg.(value & opt float 8.0 & info [ "boot-time" ] ~doc)

let parallel_arg =
  let doc = "Concurrent VM creations (1 = paper-era serialized RouteFlow)." in
  Arg.(value & opt int 1 & info [ "parallel-boot" ] ~doc)

let telemetry_arg =
  let doc =
    "Write the run's span/event telemetry as JSON lines to $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "telemetry" ] ~doc ~docv:"FILE")

let profile_flag =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:
          "Attach the engine profiler to the run and print the per-entity          load table, heap-depth curve and GC deltas afterwards (wall          figures; never part of fingerprinted output).")

let make_profiler enabled =
  if enabled then Some (Rf_obs.Profiler.create ()) else None

let print_profiler_report = function
  | None -> ()
  | Some p ->
      let sn = Rf_obs.Profiler.snapshot p in
      Format.fprintf Format.std_formatter "@.";
      Rf_obs.Profiler.pp_top ~wall:true ~top:10 Format.std_formatter sn;
      Rf_obs.Profiler.pp_depth_curve Format.std_formatter sn

(* --- trace analytics (shared by analyze/obs/failure/restart/traffic) --- *)

module Analysis = Rf_core.Analysis

let slo_arg =
  Arg.(
    value & flag
    & info [ "slo" ]
        ~doc:
          "Evaluate the experiment's SLO rules against the run's telemetry          and print the PASS/WARN/FAIL scorecard (exit 2 on FAIL).")

let flamegraph_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "flamegraph" ] ~docv:"FILE"
        ~doc:
          "Write a folded-stack flamegraph of the run's span tree to          $(docv) (self-time microseconds; renderable by flamegraph.pl or          speedscope).")

let baseline_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "baseline" ] ~docv:"FILE"
        ~doc:
          "Diff this run's indicators against the baseline stored in          $(docv) (exit 3 on regression); the file is created when          missing.")

let write_file path s =
  let oc = open_out path in
  output_string oc s;
  close_out oc

let needs_analysis ~slo ~flamegraph ~baseline =
  slo || flamegraph <> None || baseline <> None

(* Commands keep their own telemetry flag; when analysis is requested
   without one, the dump routes through a temp file removed after
   ingestion. Returns the path to pass to the experiment plus a loader
   to call after the run. *)
let telemetry_route ~needed telemetry =
  match (telemetry, needed) with
  | Some path, _ -> (Some path, fun () -> Some (Rf_obs.Ingest.load_file path))
  | None, true ->
      let path = Filename.temp_file "rfauto-analyze" ".jsonl" in
      ( Some path,
        fun () ->
          Fun.protect
            ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
            (fun () -> Some (Rf_obs.Ingest.load_file path)) )
  | None, false -> (None, fun () -> None)

(* Shared post-run analysis: scorecard, flamegraph, baseline diff.
   Exits 2 on an SLO FAIL, 3 on a baseline regression. *)
let analyze_dump exp dump ~slo ~flamegraph ~baseline =
  let results = Analysis.evaluate exp dump in
  if slo then Format.fprintf std "@.%a" Analysis.scorecard results;
  (match flamegraph with
  | Some path ->
      write_file path (Rf_obs.Flamegraph.folded (Analysis.forest dump));
      Format.fprintf std "flamegraph written to %s@." path
  | None -> ());
  let regressed = ref false in
  (match baseline with
  | Some path ->
      let current = Analysis.baseline_run ~label:(Analysis.name exp) results in
      if Sys.file_exists path then begin
        let entries =
          Rf_obs.Baseline.diff ~base:(Rf_obs.Baseline.load path) ~current ()
        in
        Format.fprintf std "@.vs baseline %s:@.%a" path Rf_obs.Baseline.pp_diff
          entries;
        if Rf_obs.Baseline.has_regression entries then regressed := true
      end
      else begin
        Rf_obs.Baseline.save path current;
        Format.fprintf std "baseline saved to %s@." path
      end
  | None -> ());
  if !regressed then exit 3;
  if slo && Rf_obs.Slo.worst results = Rf_obs.Slo.Fail then exit 2

let post_run_analysis exp load ~slo ~flamegraph ~baseline =
  if needs_analysis ~slo ~flamegraph ~baseline then
    match load () with
    | Some dump -> analyze_dump exp dump ~slo ~flamegraph ~baseline
    | None -> ()

(* --audit support: print the audited runs' window summaries and exit 5
   when any violation window overlaps the steady-state interval —
   "quiescent network => zero violations" is CI-gateable. *)
let audit_flag =
  Arg.(
    value & flag
    & info [ "audit" ]
        ~doc:
          "Attach the continuous forwarding-state auditor to the run(s),          print the violation-window summary, and exit 5 if any window          overlaps the steady-state (post-convergence, pre-fault)          interval.")

let print_audit_runs runs =
  List.iter (Experiment.print_audit_run std) (List.filter_map Fun.id runs)

let audit_gate runs =
  if
    List.exists
      (fun (r : Experiment.audit_run) -> r.ar_steady_windows > 0)
      (List.filter_map Fun.id runs)
  then begin
    Format.eprintf "rfauto: steady-state forwarding violations detected@.";
    exit 5
  end

let fig3_cmd =
  let run sizes vm_boot_s parallel_boot telemetry profile =
    let profiler = make_profiler profile in
    Experiment.print_fig3 std
      (Experiment.fig3 ~sizes ~vm_boot_s ~parallel_boot ?telemetry ?profiler ());
    print_profiler_report profiler
  in
  Cmd.v
    (Cmd.info "fig3" ~doc:"Reproduce Figure 3: automatic vs manual configuration time")
    Term.(
      const run $ sizes_arg $ boot_arg $ parallel_arg $ telemetry_arg
      $ profile_flag)

(* --- demo --------------------------------------------------------- *)

let horizon_arg =
  let doc = "Simulated horizon in seconds." in
  Arg.(value & opt float 360.0 & info [ "horizon" ] ~doc)

let server_arg =
  let doc = "City hosting the video server." in
  Arg.(value & opt string "Glasgow" & info [ "server" ] ~doc)

let client_arg =
  let doc = "City hosting the remote client." in
  Arg.(value & opt string "Athens" & info [ "client" ] ~doc)

let protocol_arg =
  let doc = "Routing protocol the VMs run: ospf or rip." in
  Arg.(
    value
    & opt
        (enum
           [
             ("ospf", Rf_routeflow.Rf_system.Proto_ospf);
             ("rip", Rf_routeflow.Rf_system.Proto_rip);
           ])
        Rf_routeflow.Rf_system.Proto_ospf
    & info [ "protocol" ] ~doc)

let pcap_arg =
  let doc = "Write a pcap capture of the client's access link to $(docv)." in
  Arg.(value & opt (some string) None & info [ "pcap" ] ~doc ~docv:"FILE")

let demo_cmd =
  let run vm_boot_s horizon_s server_city client_city protocol pcap_path
      telemetry =
    Experiment.print_demo std
      (Experiment.demo ~vm_boot_s ~horizon_s ~server_city ~client_city ~protocol
         ?pcap_path ?telemetry ())
  in
  Cmd.v
    (Cmd.info "demo"
       ~doc:
         "Reproduce the demonstration: stream video across the pan-European \
          topology while RouteFlow configures itself")
    Term.(
      const run $ boot_arg $ horizon_arg $ server_arg $ client_arg $ protocol_arg
      $ pcap_arg $ telemetry_arg)

(* --- failure -------------------------------------------------------- *)

let failure_cmd =
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Simulation seed (replays).")
  in
  let switches_arg =
    Arg.(value & opt int 6 & info [ "switches" ] ~doc:"Ring size (>= 4).")
  in
  let fail_at_arg =
    Arg.(value & opt float 60.0 & info [ "fail-at" ] ~doc:"Link cut time (sim s).")
  in
  let fail_horizon_arg =
    Arg.(value & opt float 150.0 & info [ "horizon" ] ~doc:"Sim seconds.")
  in
  let run seed switches fail_at_s horizon_s audit telemetry profile slo
      flamegraph baseline =
    let needed = needs_analysis ~slo ~flamegraph ~baseline in
    let telemetry, load = telemetry_route ~needed telemetry in
    let profiler = make_profiler profile in
    let r =
      Experiment.failure_recovery ~seed ~switches ~fail_at_s ~horizon_s ~audit
        ?telemetry ?profiler ()
    in
    Experiment.print_failure_recovery std r;
    print_audit_runs [ r.fr_audit ];
    print_profiler_report profiler;
    post_run_analysis Analysis.E3 load ~slo ~flamegraph ~baseline;
    audit_gate [ r.fr_audit ]
  in
  Cmd.v
    (Cmd.info "failure"
       ~doc:
         "Cut a ring link under live traffic and report packet loss and \
          reconvergence time (deterministic: same seed, same trace)")
    Term.(
      const run $ seed_arg $ switches_arg $ fail_at_arg $ fail_horizon_arg
      $ audit_flag $ telemetry_arg $ profile_flag $ slo_arg $ flamegraph_arg
      $ baseline_arg)

(* --- restart -------------------------------------------------------- *)

let restart_cmd =
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Simulation seed (replays).")
  in
  let switches_arg =
    Arg.(value & opt int 8 & info [ "switches" ] ~doc:"Ring size (>= 4).")
  in
  let crash_at_arg =
    Arg.(
      value & opt float 4.0
      & info [ "crash-at" ] ~doc:"RF-controller crash time (sim s).")
  in
  let cut_at_arg =
    Arg.(
      value & opt float 8.0
      & info [ "cut-at" ]
          ~doc:"Cut link sw2-sw3 at this time, while the controller is down.")
  in
  let recover_at_arg =
    Arg.(
      value & opt float 20.0
      & info [ "recover-at" ] ~doc:"RF-controller restart time (sim s).")
  in
  let restart_horizon_arg =
    Arg.(value & opt float 120.0 & info [ "horizon" ] ~doc:"Sim seconds.")
  in
  let run seed switches crash_at_s cut_at_s recover_at_s horizon_s audit
      telemetry slo flamegraph baseline =
    let needed = needs_analysis ~slo ~flamegraph ~baseline in
    let telemetry, load = telemetry_route ~needed telemetry in
    let r =
      Experiment.restart ~seed ~switches ~crash_at_s ~cut_at_s ~recover_at_s
        ~horizon_s ~audit ?telemetry ()
    in
    Experiment.print_restart std r;
    print_audit_runs
      [ r.rs_supervised.rr_audit; r.rs_legacy.rr_audit ];
    post_run_analysis Analysis.E4 load ~slo ~flamegraph ~baseline;
    audit_gate [ r.rs_supervised.rr_audit; r.rs_legacy.rr_audit ]
  in
  Cmd.v
    (Cmd.info "restart"
       ~doc:
         "Crash the RF-controller, cut a link while it is down, and compare \
          recovery with and without the session-aware RPC reconciliation \
          (deterministic: same seed, same trace)")
    Term.(
      const run $ seed_arg $ switches_arg $ crash_at_arg $ cut_at_arg
      $ recover_at_arg $ restart_horizon_arg $ audit_flag $ telemetry_arg
      $ slo_arg $ flamegraph_arg $ baseline_arg)

(* --- gui ----------------------------------------------------------- *)

let gui_cmd =
  let every_arg =
    Arg.(value & opt float 30.0 & info [ "every" ] ~doc:"Frame period (sim s).")
  in
  let run vm_boot_s every_s =
    List.iter
      (fun frame -> Format.fprintf std "%s@." frame)
      (Experiment.gui_frames ~vm_boot_s ~every_s ())
  in
  Cmd.v
    (Cmd.info "gui" ~doc:"Render the red/green GUI frames of the demo run")
    Term.(const run $ boot_arg $ every_arg)

(* --- scaling -------------------------------------------------------- *)

let scaling_cmd =
  let sizes =
    Arg.(
      value
      & opt (list int) [ 50; 100; 250; 500; 1000 ]
      & info [ "sizes" ] ~doc:"Ring sizes.")
  in
  let run sizes = Experiment.print_scaling std (Experiment.scaling ~sizes ()) in
  Cmd.v
    (Cmd.info "scaling" ~doc:"Extension: configuration time up to 1000 switches")
    Term.(const run $ sizes)

(* --- ablation -------------------------------------------------------- *)

let ablation_cmd =
  let which =
    let doc = "Which knob: boot, probe, rpc, or proto." in
    Arg.(
      value
      & pos 0
          (enum [ ("boot", `Boot); ("probe", `Probe); ("rpc", `Rpc); ("proto", `Proto) ])
          `Boot
      & info [] ~doc)
  in
  let switches_arg =
    Arg.(value & opt int 28 & info [ "switches" ] ~doc:"Ring size.")
  in
  let run which switches =
    match which with
    | `Boot ->
        Experiment.print_ablation std "VM boot parallelism"
          (Experiment.ablation_parallel_boot ~switches ())
    | `Probe ->
        Experiment.print_ablation std "LLDP probe interval"
          (Experiment.ablation_probe_interval ~switches ())
    | `Rpc ->
        Experiment.print_ablation std "RPC latency (controller placement)"
          (Experiment.ablation_rpc_latency ~switches ())
    | `Proto ->
        Experiment.print_ablation std "routing protocol (OSPF vs RIPv2)"
          (Experiment.ablation_protocol ~switches ())
  in
  Cmd.v
    (Cmd.info "ablation" ~doc:"Design-choice ablations on the 28-switch ring")
    Term.(const run $ which $ switches_arg)

(* --- inspect ---------------------------------------------------------- *)

let inspect_cmd =
  let n_arg = Arg.(value & opt int 4 & info [ "switches" ] ~doc:"Ring size.") in
  let dpid_arg =
    Arg.(value & opt int 1 & info [ "dpid" ] ~doc:"Switch whose VM to inspect.")
  in
  let run n dpid =
    let topo = Rf_net.Topo_gen.ring n in
    let options =
      {
        Rf_core.Scenario.default_options with
        rf_params =
          {
            Rf_core.Scenario.default_options.Rf_core.Scenario.rf_params with
            Rf_routeflow.Rf_system.vm_boot_time = Rf_sim.Vtime.span_s 2.0;
          };
      }
    in
    let s = Rf_core.Scenario.build ~options topo in
    Rf_core.Scenario.run_for s (Rf_sim.Vtime.span_s ((2.0 *. float_of_int n) +. 30.));
    let d = Int64.of_int dpid in
    match Rf_routeflow.Rf_system.vm (Rf_core.Scenario.rf_system s) d with
    | None -> Format.printf "switch %Ld has no VM@." d
    | Some vm ->
        Format.printf "=== %s: show ip route ===@.%s@." (Rf_routeflow.Vm.hostname vm)
          (Rf_routing.Show.ip_route (Rf_routeflow.Vm.rib vm));
        (match Rf_routeflow.Vm.ospfd vm with
        | Some daemon ->
            Format.printf "=== show ip ospf neighbor ===@.%s@."
              (Rf_routing.Show.ip_ospf_neighbor daemon);
            Format.printf "=== show ip ospf database ===@.%s@."
              (Rf_routing.Show.ip_ospf_database daemon)
        | None -> ());
        (match Rf_routeflow.Vm.ripd vm with
        | Some daemon ->
            Format.printf "=== show ip rip ===@.%s@." (Rf_routing.Show.ip_rip daemon)
        | None -> ());
        (match Rf_routeflow.Vm.config_file vm "zebra.conf" with
        | Some text -> Format.printf "=== zebra.conf ===@.%s@." text
        | None -> ());
        let dp = Rf_net.Network.datapath (Rf_core.Scenario.network s) d in
        Format.printf "=== physical flow table (%d entries) ===@."
          (Rf_net.Flow_table.size (Rf_net.Datapath.flow_table dp));
        List.iter
          (fun (e : Rf_net.Flow_table.entry) ->
            Format.printf "  prio=%d %a -> %s@." e.Rf_net.Flow_table.e_priority
              Rf_openflow.Of_match.pp e.Rf_net.Flow_table.e_match
              (String.concat ", "
                 (List.map
                    (Format.asprintf "%a" Rf_openflow.Of_action.pp)
                    e.Rf_net.Flow_table.e_actions)))
          (Rf_net.Flow_table.entries (Rf_net.Datapath.flow_table dp))
  in
  Cmd.v
    (Cmd.info "inspect"
       ~doc:"Run a ring scenario, then dump one VM's vtysh state and its switch's flow table")
    Term.(const run $ n_arg $ dpid_arg)

(* --- obs --------------------------------------------------------------- *)

let obs_cmd =
  let switches_arg =
    Arg.(value & opt int 28 & info [ "switches" ] ~doc:"Ring size.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"Write span/event JSONL to $(docv).")
  in
  let summary_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "summary-out" ] ~docv:"FILE"
          ~doc:
            "Write the per-phase summary table to $(docv) (stable across              same-seed runs; used by CI as a telemetry fingerprint).")
  in
  let prometheus_arg =
    Arg.(
      value & flag
      & info [ "prometheus" ]
          ~doc:"Also print the metrics registry in Prometheus text format.")
  in
  let spans_arg =
    Arg.(
      value & flag
      & info [ "spans" ] ~doc:"Also print per-span-name aggregates.")
  in
  let run switches vm_boot_s parallel_boot out summary_out prometheus spans
      slo flamegraph baseline =
    let options =
      {
        Rf_core.Scenario.default_options with
        rf_params =
          {
            Rf_core.Scenario.default_options.Rf_core.Scenario.rf_params with
            Rf_routeflow.Rf_system.vm_boot_time = Rf_sim.Vtime.span_s vm_boot_s;
            parallel_boot;
          };
      }
    in
    let s = Rf_core.Scenario.build ~options (Rf_net.Topo_gen.ring switches) in
    let horizon =
      (vm_boot_s *. float_of_int switches /. float_of_int parallel_boot) +. 120.
    in
    Rf_core.Scenario.run_for s (Rf_sim.Vtime.span_s horizon);
    let b = Experiment.breakdown_of s in
    Experiment.print_phases std b;
    (match out with
    | Some path ->
        Rf_core.Scenario.write_telemetry s path
          ~meta:[ ("experiment", "e1-phases") ];
        Format.fprintf std "telemetry written to %s@." path
    | None -> ());
    if needs_analysis ~slo ~flamegraph ~baseline then begin
      let dump =
        Rf_obs.Ingest.load_string
          (Rf_core.Scenario.telemetry_jsonl s
             ~meta:[ ("experiment", "e1-phases") ])
      in
      analyze_dump Analysis.E1b dump ~slo ~flamegraph ~baseline
    end;
    (match summary_out with
    | Some path ->
        let oc = open_out path in
        output_string oc (Format.asprintf "%a" Experiment.print_phases b);
        close_out oc
    | None -> ());
    if spans then begin
      Format.fprintf std "@.%a" Rf_obs.Export.pp_span_stats
        (Rf_core.Scenario.span_stats s)
    end;
    if prometheus then
      Format.fprintf std "@.%s" (Rf_core.Scenario.prometheus s)
  in
  Cmd.v
    (Cmd.info "obs"
       ~doc:
         "Run a ring configuration and decompose the end-to-end time into           discovery, RPC, VM-provisioning, Quagga and convergence phases           from the span tree; optionally dump JSONL telemetry and           Prometheus-style metrics")
    Term.(
      const run $ switches_arg $ boot_arg $ parallel_arg $ out_arg
      $ summary_arg $ prometheus_arg $ spans_arg $ slo_arg $ flamegraph_arg
      $ baseline_arg)

(* --- trace ------------------------------------------------------------- *)

let trace_cmd =
  let n_arg = Arg.(value & opt int 4 & info [ "switches" ] ~doc:"Ring size.") in
  let run n =
    let topo = Rf_net.Topo_gen.ring n in
    let s = Rf_core.Scenario.build topo in
    Rf_core.Scenario.run_for s (Rf_sim.Vtime.span_s ((8.0 *. float_of_int n) +. 60.));
    let timeline = Rf_core.Timeline.of_scenario s in
    print_string (Rf_core.Timeline.render timeline);
    let sum = Rf_core.Timeline.summarize timeline in
    Format.printf
      "@.%d switches detected, %d links detected, %d VMs ready, %d configured@."
      sum.Rf_core.Timeline.switches_detected sum.Rf_core.Timeline.links_detected
      sum.Rf_core.Timeline.vms_ready sum.Rf_core.Timeline.vms_configured;
    (match sum.Rf_core.Timeline.last_vm_ready_s with
    | Some t -> Format.printf "last VM ready at %.1f s@." t
    | None -> ())
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"Print the configuration event timeline of a ring run")
    Term.(const run $ n_arg)

(* --- run: user topology file ------------------------------------------- *)

let run_cmd =
  let topo_arg =
    Arg.(
      required
      & opt (some file) None
      & info [ "topo" ] ~docv:"FILE"
          ~doc:"Topology file (switch/link/host lines; see Topo_file).")
  in
  let horizon_arg2 =
    Arg.(value & opt float 0.0 & info [ "horizon" ] ~doc:"Sim seconds (0 = auto).")
  in
  let run topo_path horizon vm_boot_s =
    match Rf_net.Topo_file.load topo_path with
    | Error e ->
        Format.eprintf "%s@." e;
        exit 1
    | Ok topo ->
        let options =
          {
            Rf_core.Scenario.default_options with
            rf_params =
              {
                Rf_core.Scenario.default_options.Rf_core.Scenario.rf_params with
                Rf_routeflow.Rf_system.vm_boot_time = Rf_sim.Vtime.span_s vm_boot_s;
              };
          }
        in
        let s = Rf_core.Scenario.build ~options topo in
        let horizon =
          if horizon > 0. then horizon
          else
            (vm_boot_s *. float_of_int (Rf_net.Topology.switch_count topo)) +. 120.
        in
        Rf_core.Scenario.run_for s (Rf_sim.Vtime.span_s horizon);
        print_string (Rf_core.Timeline.render (Rf_core.Timeline.of_scenario s));
        Format.printf "@.%s@." (Rf_core.Gui.render (Rf_core.Scenario.gui s));
        (match Rf_core.Scenario.all_configured_at s with
        | Some t ->
            Format.printf "all switches configured at %.1f s@." (Rf_sim.Vtime.to_s t)
        | None -> Format.printf "configuration incomplete within the horizon@.");
        match Rf_core.Scenario.routing_converged_at s with
        | Some t -> Format.printf "routing converged at %.1f s@." (Rf_sim.Vtime.to_s t)
        | None -> Format.printf "routing not converged within the horizon@."
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Autoconfigure a user-supplied topology file and report the timeline")
    Term.(const run $ topo_arg $ horizon_arg2 $ boot_arg)

(* --- families --------------------------------------------------------- *)

let families_cmd =
  let n_arg = Arg.(value & opt int 16 & info [ "n" ] ~doc:"Switch count.") in
  let run n = Experiment.print_families std (Experiment.topo_families ~n ()) in
  Cmd.v
    (Cmd.info "families" ~doc:"Configuration time across topology families")
    Term.(const run $ n_arg)

(* --- traffic (E6) ------------------------------------------------------ *)

let traffic_cmd =
  let switches_arg =
    Arg.(value & opt int 8 & info [ "switches" ] ~doc:"Ring size (>= 8).")
  in
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Simulation seed.")
  in
  let fail_arg =
    Arg.(
      value & opt float 40.0
      & info [ "fail-at" ] ~doc:"Virtual second of the sw2-sw3 cut.")
  in
  let manual_arg =
    Arg.(
      value & opt float 25.0
      & info [ "manual-delay" ]
          ~doc:"Seconds the manual operator takes to respond to the cut.")
  in
  let horizon_arg =
    Arg.(value & opt float 90.0 & info [ "horizon" ] ~doc:"Sim seconds per run.")
  in
  let scale_arg =
    Arg.(
      value & flag
      & info [ "scale" ]
          ~doc:
            "Also run the fat-tree scaling workload (aggregate fabric,              >= 10^5 flows) and report events/sec.")
  in
  let k_arg =
    Arg.(
      value & opt int 20
      & info [ "k" ] ~doc:"Fat-tree arity for --scale (even, >= 2).")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Write the automatic run's span/event JSONL to $(docv).")
  in
  let summary_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "summary-out" ] ~docv:"FILE"
          ~doc:
            "Write the disruption summary to $(docv) (byte-identical across              same-seed runs; used by CI as the E6 fingerprint).")
  in
  let run switches seed fail_at manual_delay horizon scale k out summary_out
      profile slo flamegraph baseline =
    let needed = needs_analysis ~slo ~flamegraph ~baseline in
    let telemetry, load = telemetry_route ~needed out in
    let profiler = make_profiler profile in
    let r =
      Experiment.traffic_disruption ~seed ~switches ~fail_at_s:fail_at
        ~manual_response_s:manual_delay ~horizon_s:horizon ?telemetry
        ?profiler ()
    in
    Experiment.print_traffic std r;
    print_profiler_report profiler;
    (match out with
    | Some path -> Format.fprintf std "telemetry written to %s@." path
    | None -> ());
    let summary = Format.asprintf "%a" Experiment.print_traffic r in
    let summary =
      if scale then begin
        let sc = Experiment.traffic_scaling ~seed ~k () in
        Experiment.print_traffic_scaling ~show_rate:true std sc;
        summary
        ^ Format.asprintf "%a" (Experiment.print_traffic_scaling ~show_rate:false) sc
      end
      else summary
    in
    (match summary_out with
    | Some path ->
        let oc = open_out path in
        output_string oc summary;
        close_out oc
    | None -> ());
    post_run_analysis Analysis.E6 load ~slo ~flamegraph ~baseline
  in
  Cmd.v
    (Cmd.info "traffic"
       ~doc:
         "E6: measure data-plane traffic disruption (loss, latency,           disruption windows) while the E3 link-failure and E4           controller-restart scenarios play out, automatic configuration vs           a manual-operation baseline; optionally a fat-tree scaling run")
    Term.(
      const run $ switches_arg $ seed_arg $ fail_arg $ manual_arg
      $ horizon_arg $ scale_arg $ k_arg $ out_arg $ summary_arg $ profile_flag
      $ slo_arg $ flamegraph_arg $ baseline_arg)

(* --- cluster: controller-cluster failover (E9) ---------------------- *)

let cluster_cmd =
  let switches_arg =
    Arg.(value & opt int 28 & info [ "switches" ] ~doc:"Ring size (>= 8).")
  in
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Simulation seed.")
  in
  let replicas_arg =
    Arg.(
      value & opt int 3
      & info [ "replicas" ] ~doc:"RF-controller replicas (>= 3).")
  in
  let crash_arg =
    Arg.(
      value & opt float 30.0
      & info [ "crash-at" ]
          ~doc:"Virtual second the acting leader (replica 0) crashes.")
  in
  let cut_arg =
    Arg.(
      value & opt float 36.0
      & info [ "cut-at" ] ~doc:"Virtual second of the sw2-sw3 cut.")
  in
  let recover_arg =
    Arg.(
      value & opt float 60.0
      & info [ "recover-at" ]
          ~doc:"Virtual second the crashed replica rejoins.")
  in
  let manual_arg =
    Arg.(
      value & opt float 25.0
      & info [ "manual-delay" ]
          ~doc:
            "Seconds the operator takes to restart the single-controller            baseline after its crash.")
  in
  let horizon_arg =
    Arg.(
      value & opt float 120.0 & info [ "horizon" ] ~doc:"Sim seconds per run.")
  in
  let traffic_start_arg =
    Arg.(
      value & opt float 20.0
      & info [ "traffic-start" ]
          ~doc:
            "Virtual second the workload starts; raise it (with            --parallel-boot) on large rings so provisioning completes            first.")
  in
  let parallel_boot_arg =
    Arg.(
      value & opt int 4
      & info [ "parallel-boot" ] ~doc:"Concurrent VM boots while provisioning.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Write the automatic run's span/event JSONL to $(docv).")
  in
  let summary_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "summary-out" ] ~docv:"FILE"
          ~doc:
            "Write the failover summary to $(docv) (byte-identical across              same-seed runs; used by CI as the E9 fingerprint).")
  in
  let run switches seed replicas crash_at cut_at recover_at manual_delay
      horizon traffic_start parallel_boot audit out summary_out profile
      slo flamegraph baseline =
    let needed = needs_analysis ~slo ~flamegraph ~baseline in
    let telemetry, load = telemetry_route ~needed out in
    let profiler = make_profiler profile in
    let r =
      Experiment.cluster_failover ~seed ~switches ~replicas
        ~crash_at_s:crash_at ~cut_at_s:cut_at ~recover_at_s:recover_at
        ~manual_response_s:manual_delay ~horizon_s:horizon
        ~traffic_start_s:traffic_start ~parallel_boot ~audit
        ?telemetry ?profiler ()
    in
    Experiment.print_cluster std r;
    print_audit_runs [ r.cf_auto.cw_audit; r.cf_legacy.cw_audit ];
    print_profiler_report profiler;
    (match out with
    | Some path -> Format.fprintf std "telemetry written to %s@." path
    | None -> ());
    (match summary_out with
    | Some path ->
        let oc = open_out path in
        output_string oc (Format.asprintf "%a" Experiment.print_cluster r);
        close_out oc
    | None -> ());
    post_run_analysis Analysis.E9 load ~slo ~flamegraph ~baseline;
    audit_gate [ r.cf_auto.cw_audit; r.cf_legacy.cw_audit ]
  in
  Cmd.v
    (Cmd.info "cluster"
       ~doc:
         "E9: replicated RF-controller cluster under live traffic — the           acting leader crashes just before a link cut, the survivors           elect a new leader and take the switch sessions back, vs. the           single-controller baseline waiting for the operator")
    Term.(
      const run $ switches_arg $ seed_arg $ replicas_arg $ crash_arg
      $ cut_arg $ recover_arg $ manual_arg $ horizon_arg $ traffic_start_arg
      $ parallel_boot_arg $ audit_flag $ out_arg $ summary_arg
      $ profile_flag $ slo_arg $ flamegraph_arg $ baseline_arg)

(* --- profile: engine profiler (E10) ---------------------------------- *)

let profile_cmd =
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Simulation seed.")
  in
  let k_arg =
    Arg.(
      value & opt int 20
      & info [ "k" ] ~doc:"Fat-tree arity of the profiled run (even, >= 2).")
  in
  let horizon_arg =
    Arg.(value & opt float 60.0 & info [ "horizon" ] ~doc:"Sim seconds.")
  in
  let top_arg =
    Arg.(
      value & opt int 10
      & info [ "top" ] ~docv:"N" ~doc:"Entities shown in the load table.")
  in
  let entities_arg =
    Arg.(
      value & flag
      & info [ "entities" ]
          ~doc:"Show every profiled entity, not just the top N.")
  in
  let overhead_arg =
    Arg.(
      value & flag
      & info [ "measure-overhead" ]
          ~doc:
            "Run the identical workload once more without the profiler and            report the instrumentation's wall-clock overhead.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:
            "Write the run's span/event JSONL (profile snapshot included,            meta line carrying the profile figures) to $(docv).")
  in
  let summary_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "summary-out" ] ~docv:"FILE"
          ~doc:
            "Write the deterministic profile report to $(docv)            (byte-identical across same-seed runs; used by CI as the E10            fingerprint).")
  in
  let run seed k horizon top entities overhead out summary_out slo flamegraph
      baseline =
    let needed = needs_analysis ~slo ~flamegraph ~baseline in
    let telemetry, load = telemetry_route ~needed out in
    let r =
      Experiment.profile_scaling ~seed ~k ~horizon_s:horizon
        ~measure_overhead:overhead ?telemetry ()
    in
    let top =
      if entities then
        List.length r.Experiment.pf_snapshot.Rf_obs.Profiler.sn_entities
      else top
    in
    Experiment.print_profile ~wall:true ~top std r;
    (match out with
    | Some path -> Format.fprintf std "telemetry written to %s@." path
    | None -> ());
    (match summary_out with
    | Some path ->
        write_file path
          (Format.asprintf "%a" (Experiment.print_profile ~wall:false ~top) r)
    | None -> ());
    post_run_analysis Analysis.E10 load ~slo ~flamegraph ~baseline
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "E10: profile the engine across the fat-tree scaling run —           per-entity load attribution, event-heap depth/churn and GC           telemetry")
    Term.(
      const run $ seed_arg $ k_arg $ horizon_arg $ top_arg $ entities_arg
      $ overhead_arg $ out_arg $ summary_arg $ slo_arg $ flamegraph_arg
      $ baseline_arg)

(* --- analyze: trace analytics & SLO engine (E7) --------------------- *)

(* --- audit: E12 forwarding-state audit of the fault replays -------- *)

let audit_cmd =
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Simulation seed.")
  in
  let e3_arg =
    Arg.(
      value & opt int 6
      & info [ "e3-switches" ] ~doc:"Ring size of the E3 link-cut replay.")
  in
  let e4_arg =
    Arg.(
      value & opt int 8
      & info [ "e4-switches" ] ~doc:"Ring size of the E4 restart replay.")
  in
  let e9_arg =
    Arg.(
      value & opt int 28
      & info [ "e9-switches" ]
          ~doc:"Ring size of the E9 leader-crash replay (>= 8).")
  in
  let replicas_arg =
    Arg.(
      value & opt int 3
      & info [ "replicas" ]
          ~doc:"RF-controller replicas of the E9 automatic replay (>= 3).")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:
            "Write the E9 automatic replay's span/event JSONL (including            the audit.violation spans) to $(docv).")
  in
  let summary_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "summary-out" ] ~docv:"FILE"
          ~doc:
            "Write the audit summary to $(docv) (byte-identical across            same-seed runs; used by CI as the E12 fingerprint).")
  in
  let run seed e3_switches e4_switches e9_switches replicas out summary_out
      slo flamegraph baseline =
    let needed = needs_analysis ~slo ~flamegraph ~baseline in
    let telemetry, load = telemetry_route ~needed out in
    let r =
      Experiment.audit_windows ~seed ~e3_switches ~e4_switches ~e9_switches
        ~e9_replicas:replicas ?telemetry ()
    in
    Experiment.print_audit std r;
    (match out with
    | Some path -> Format.fprintf std "telemetry written to %s@." path
    | None -> ());
    (match summary_out with
    | Some path ->
        let oc = open_out path in
        output_string oc (Format.asprintf "%a" Experiment.print_audit r);
        close_out oc
    | None -> ());
    post_run_analysis Analysis.E12 load ~slo ~flamegraph ~baseline;
    if r.ad_steady_total > 0 then begin
      Format.eprintf "rfauto: steady-state forwarding violations detected@.";
      exit 5
    end
  in
  Cmd.v
    (Cmd.info "audit"
       ~doc:
         "E12: replay the E3 link-cut, E4 restart and E9 leader-crash fault           schedules with the continuous forwarding-state auditor           attached — loop / blackhole / RIB-FIB / slice-isolation           violation windows in virtual time, automatic vs legacy — and           exit 5 if any window overlaps the steady-state interval")
    Term.(
      const run $ seed_arg $ e3_arg $ e4_arg $ e9_arg $ replicas_arg
      $ out_arg $ summary_arg $ slo_arg $ flamegraph_arg $ baseline_arg)

let analyze_cmd =
  let input_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "input" ] ~docv:"FILE"
          ~doc:
            "Analyze an existing telemetry JSONL dump instead of running            experiments; the experiment is inferred from the dump's meta            line unless --experiment names it.")
  in
  let experiment_arg =
    Arg.(
      value & opt string "all"
      & info [ "experiment" ] ~docv:"EXP"
          ~doc:
            "Which experiment to analyze: e1b, e3, e4, e6, e9, e10, e12 or            all (all covers the pinned E7 set, which excludes e9, e10 and            e12).")
  in
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Simulation seed.")
  in
  let flamegraph_json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "flamegraph-json" ] ~docv:"FILE"
          ~doc:"Write the span tree as d3-flamegraph JSON to $(docv).")
  in
  let save_baseline_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "save-baseline" ] ~docv:"FILE"
          ~doc:
            "Write this run's indicators to $(docv) as the new baseline            (overwrites; no diff).")
  in
  let summary_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "summary-out" ] ~docv:"FILE"
          ~doc:
            "Also write the report to $(docv) (byte-identical across            same-seed runs; used by CI as the E7 fingerprint).")
  in
  let infer_experiment dump =
    match Rf_obs.Ingest.meta_value dump "experiment" with
    | Some ("e1-phases" | "fig3" | "demo") -> Some Analysis.E1b
    | Some "failure" -> Some Analysis.E3
    | Some "restart" -> Some Analysis.E4
    | Some "traffic" -> Some Analysis.E6
    | Some "cluster" -> Some Analysis.E9
    | Some "profile" -> Some Analysis.E10
    | Some "audit" -> Some Analysis.E12
    | Some _ | None -> None
  in
  let run input experiment seed slo flamegraph flamegraph_json baseline
      save_baseline summary_out =
    let die fmt =
      Format.kasprintf
        (fun msg ->
          Format.eprintf "rfauto analyze: %s@." msg;
          exit 64)
        fmt
    in
    let dumps =
      match input with
      | Some path ->
          let dump = Rf_obs.Ingest.load_file path in
          let exp =
            match
              if experiment = "all" then infer_experiment dump
              else Analysis.of_string experiment
            with
            | Some e -> e
            | None ->
                die
                  "cannot infer the experiment from %s; pass --experiment \
                   e1b|e3|e4|e6|e9|e10|e12"
                  path
          in
          [ (exp, dump) ]
      | None ->
          let exps =
            if experiment = "all" then Analysis.all
            else
              match Analysis.of_string experiment with
              | Some e -> [ e ]
              | None -> die "unknown experiment %s" experiment
          in
          List.map (fun e -> (e, Analysis.run_dump ~seed e)) exps
    in
    let buf = Buffer.create 4096 in
    let ppf = Format.formatter_of_buffer buf in
    (match input with
    | Some path -> Format.fprintf ppf "E7 — trace analytics of %s@." path
    | None ->
        Format.fprintf ppf "E7 — trace analytics & SLO scorecard (seed %d)@."
          seed);
    let all_results =
      List.map
        (fun (exp, dump) ->
          Format.fprintf ppf "@.== %s: %s ==@." (Analysis.name exp)
            (Analysis.describe exp);
          (match Analysis.configure_path dump with
          | Some steps ->
              Format.fprintf ppf "%a" Rf_obs.Critical_path.pp_path steps
          | None -> ());
          let results = Analysis.evaluate exp dump in
          if slo then Format.fprintf ppf "@.%a" Analysis.scorecard results;
          (exp, dump, results))
        dumps
    in
    Format.pp_print_flush ppf ();
    let report = Buffer.contents buf in
    print_string report;
    (match summary_out with
    | Some path -> write_file path report
    | None -> ());
    let forest_all =
      List.concat_map (fun (_, dump, _) -> Analysis.forest dump) all_results
    in
    (match flamegraph with
    | Some path ->
        write_file path (Rf_obs.Flamegraph.folded forest_all);
        Format.fprintf std "flamegraph written to %s@." path
    | None -> ());
    (match flamegraph_json with
    | Some path ->
        write_file path (Rf_obs.Flamegraph.d3_json forest_all);
        Format.fprintf std "flamegraph JSON written to %s@." path
    | None -> ());
    let results_flat = List.concat_map (fun (_, _, r) -> r) all_results in
    let label =
      match all_results with
      | [ (exp, _, _) ] -> Analysis.name exp
      | _ -> "all"
    in
    let current = Analysis.baseline_run ~label results_flat in
    (match save_baseline with
    | Some path ->
        Rf_obs.Baseline.save path current;
        Format.fprintf std "baseline saved to %s@." path
    | None -> ());
    let regressed = ref false in
    (match baseline with
    | Some path when Sys.file_exists path ->
        let entries =
          Rf_obs.Baseline.diff ~base:(Rf_obs.Baseline.load path) ~current ()
        in
        Format.fprintf std "@.vs baseline %s:@.%a" path Rf_obs.Baseline.pp_diff
          entries;
        if Rf_obs.Baseline.has_regression entries then regressed := true
    | Some path ->
        Rf_obs.Baseline.save path current;
        Format.fprintf std "baseline saved to %s@." path
    | None -> ());
    if !regressed then exit 3;
    if slo && Rf_obs.Slo.worst results_flat = Rf_obs.Slo.Fail then exit 2
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "E7: trace analytics & SLO engine — critical paths, flamegraphs,           sliding-window SLO verdicts and regression baselines over the           experiments' telemetry (consumes a JSONL dump via --input or runs           the experiments itself)")
    Term.(
      const run $ input_arg $ experiment_arg $ seed_arg $ slo_arg
      $ flamegraph_arg $ flamegraph_json_arg $ baseline_arg
      $ save_baseline_arg $ summary_arg)

let main =
  Cmd.group
    (Cmd.info "rfauto" ~version:"1.0.0"
       ~doc:
         "Automatic configuration of routing control platforms in OpenFlow \
          networks — reproduction experiments")
    [ fig3_cmd; demo_cmd; failure_cmd; restart_cmd; gui_cmd; scaling_cmd; ablation_cmd; families_cmd; inspect_cmd; obs_cmd; trace_cmd; run_cmd; traffic_cmd; cluster_cmd; profile_cmd; audit_cmd; analyze_cmd ]

let () = exit (Cmd.eval main)
