(* The experiment registry: one entry per experiment, read by every
   front end. rfauto builds each experiment subcommand from its entry,
   `rfauto analyze` takes its labels, rule sets and reference runs from
   it, and `rfauto fingerprint` replays every pinned run into the
   summaries CI diffs against ci/. *)

open Cmdliner
module Slo = Rf_obs.Slo
module Ingest = Rf_obs.Ingest

type ctx = {
  seed : int;
  out : string option;
  telemetry : string option;
  profiler : Rf_obs.Profiler.t option;
  audit : bool;
  scorecard : bool;
  flamegraph : string option;
  baseline : string option;
}

type analysed = {
  an_label : string;
  an_forest : Rf_obs.Critical_path.node list;
  an_results : Slo.result list;
}

type outcome = {
  summary : string;
  shown : string;
  steady_violations : int;
  analysed : analysed option;
}

type slo = {
  label : string;
  what : string;
  rules : Slo.rule list;
  in_all : bool;
  reads : string list;
}

type flag = Seed | Profile | Audit | Trace_analysis

type pin = { argv : string list; file : string }

type t = {
  id : string;
  doc : string;
  meta_tag : string option;
  slo : slo option;
  flags : flag list;
  pins : pin list;
  term : (ctx -> outcome) Term.t;
}

let entry ~id ~doc ?meta_tag ?slo ?(flags = []) ?(pins = []) term =
  { id; doc; meta_tag; slo; flags; pins; term }

let pin file argv = { argv; file }

let report summary =
  { summary; shown = summary; steady_violations = 0; analysed = None }

(* The summary plus the window lists of whichever runs were audited
   (virtual-clock figures, so pinned with it); any window inside a
   steady-state interval trips exit 5. *)
let audited summary runs =
  let runs = List.filter_map Fun.id runs in
  {
    (report
       (summary
       ^ String.concat ""
           (List.map (Format.asprintf "%a" Experiment.print_audit_run) runs)))
    with
    steady_violations =
      List.fold_left
        (fun acc (r : Experiment.audit_run) -> acc + r.ar_steady_windows)
        0 runs;
  }

let write_file path s =
  Out_channel.with_open_text path (fun oc -> output_string oc s)

(* --- The shared flags ----------------------------------------------- *)

let seed_arg =
  Arg.(
    value & opt int 42
    & info [ "seed" ] ~doc:"Simulation seed (same seed, same trace).")

let out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "out" ] ~docv:"FILE"
        ~doc:
          "Write the run's span/event telemetry as JSON lines to $(docv) \
           (multi-run experiments write their headline run).")

let profile_arg =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:
          "Attach the engine profiler to the run and print the per-entity \
           load table and heap-depth curve afterwards (wall figures; \
           never part of fingerprinted output).")

let audit_arg =
  Arg.(
    value & flag
    & info [ "audit" ]
        ~doc:
          "Attach the continuous forwarding-state auditor to the run(s), \
           print the violation-window summary, and exit 5 if any window \
           overlaps the steady-state (post-convergence, pre-fault) \
           interval.")

let slo_arg =
  Arg.(
    value & flag
    & info [ "slo" ]
        ~doc:
          "Evaluate the experiment's SLO rules against the run's telemetry \
           and print the PASS/WARN/FAIL scorecard (exit 2 on FAIL).")

let flamegraph_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "flamegraph" ] ~docv:"FILE"
        ~doc:
          "Write a folded-stack flamegraph of the run's span tree to \
           $(docv) (self-time microseconds; renderable by flamegraph.pl or \
           speedscope).")

let baseline_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "baseline" ] ~docv:"FILE"
        ~doc:
          "Diff this run's indicators against the baseline stored in \
           $(docv) (exit 3 on regression); the file is created when \
           missing.")

let ctx_term e =
  let take f arg default =
    if List.mem f e.flags then arg else Term.const default
  in
  let make seed out profile audit scorecard flamegraph baseline =
    {
      seed;
      out;
      telemetry = out;
      profiler = (if profile then Some (Rf_obs.Profiler.create ()) else None);
      audit;
      scorecard;
      flamegraph;
      baseline;
    }
  in
  Term.(
    const make $ take Seed seed_arg 42
    $ (if e.meta_tag = None then const None else out_arg)
    $ take Profile profile_arg false
    $ take Audit audit_arg false
    $ take Trace_analysis slo_arg false
    $ take Trace_analysis flamegraph_arg None
    $ take Trace_analysis baseline_arg None)

let invocation e =
  Term.(const (fun ctx run -> (ctx, run)) $ ctx_term e $ e.term)

(* A pinned argv goes through the same parser as a user's command line. *)
let parse e argv =
  match
    Cmd.eval_value
      ~argv:(Array.of_list (e.id :: argv))
      (Cmd.v (Cmd.info e.id) (invocation e))
  with
  | Ok (`Ok inv) -> inv
  | Ok (`Help | `Version) | Error _ ->
      invalid_arg
        (Printf.sprintf "cannot parse the pinned run %s %s" e.id
           (String.concat " " argv))

(* --- Running an entry ---------------------------------------------- *)

(* Runs one parsed invocation: the experiment, then the analysis its
   flags ask for. Telemetry goes to --out, or through a temp file when
   only the analysis needs it. Raises [Invalid_argument] on bad
   parameters. *)
let perform e (ctx, run) =
  let wants_dump =
    e.slo <> None
    && (ctx.scorecard || ctx.flamegraph <> None || ctx.baseline <> None)
  in
  let temp =
    if wants_dump && ctx.out = None then
      Some (Filename.temp_file "rfauto" ".jsonl")
    else None
  in
  let telemetry = if temp = None then ctx.out else temp in
  Fun.protect
    ~finally:(fun () ->
      Option.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) temp)
    (fun () ->
      let o = run { ctx with telemetry } in
      let buf = Buffer.create 1024 in
      let ppf = Format.formatter_of_buffer buf in
      Format.pp_print_string ppf o.shown;
      Option.iter
        (fun p ->
          let sn = Rf_obs.Profiler.snapshot p in
          Format.fprintf ppf "@.%a"
            (Rf_obs.Profiler.pp_top ~wall:true ~top:10)
            sn;
          Rf_obs.Profiler.pp_depth_curve ppf sn)
        ctx.profiler;
      Option.iter (Format.fprintf ppf "telemetry written to %s@.") ctx.out;
      let analysed =
        match (e.slo, telemetry) with
        | Some slo, Some path when wants_dump ->
            let dump = Ingest.load_file path in
            let results = Slo.evaluate dump slo.rules in
            if ctx.scorecard then
              Format.fprintf ppf "@.%a" Analysis.scorecard results;
            Some
              {
                an_label = slo.label;
                an_forest = Analysis.forest dump;
                an_results = results;
              }
        | _ -> o.analysed
      in
      Format.pp_print_flush ppf ();
      { o with shown = Buffer.contents buf; analysed })

(* Writes every output the flags asked for, then applies the exit
   gates: 3 on a baseline regression, 2 on an SLO FAIL, 5 on
   steady-state forwarding violations. *)
let finish ctx o =
  let regressed, failed =
    match o.analysed with
    | None -> (false, false)
    | Some an ->
        Option.iter
          (fun path ->
            write_file path (Rf_obs.Flamegraph.folded an.an_forest);
            Format.printf "flamegraph written to %s@." path)
          ctx.flamegraph;
        let regressed =
          match ctx.baseline with
          | None -> false
          | Some path ->
              let current =
                Analysis.baseline_run ~label:an.an_label an.an_results
              in
              if Sys.file_exists path then begin
                let entries =
                  Rf_obs.Baseline.diff ~base:(Rf_obs.Baseline.load path)
                    ~current ()
                in
                Format.printf "@.vs baseline %s:@.%a" path
                  Rf_obs.Baseline.pp_diff entries;
                Rf_obs.Baseline.has_regression entries
              end
              else begin
                Rf_obs.Baseline.save path current;
                Format.printf "baseline saved to %s@." path;
                false
              end
        in
        (regressed, ctx.scorecard && Slo.worst an.an_results = Slo.Fail)
  in
  if regressed then 3
  else if failed then 2
  else if o.steady_violations > 0 then begin
    Format.eprintf "rfauto: steady-state forwarding violations detected@.";
    5
  end
  else 0

(* Bad parameters surface from the experiments as [Invalid_argument]:
   a usage error (exit 64), not an internal one. *)
let guard id f =
  try f ()
  with Invalid_argument msg ->
    Format.eprintf "rfauto %s: %s@." id msg;
    64

let execute e inv =
  guard e.id (fun () ->
      let o = perform e inv in
      Format.printf "%s%!" o.shown;
      finish (fst inv) o)

let cmd e =
  Cmd.v (Cmd.info e.id ~doc:e.doc) Term.(const (execute e) $ invocation e)

(* --- Experiment parameters ------------------------------------------ *)

let boot_arg =
  Arg.(
    value & opt float 8.0
    & info [ "boot-time" ] ~doc:"VM creation (clone+boot) time in seconds.")

let switches_arg ?(doc = "Ring size.") n =
  Arg.(value & opt int n & info [ "switches" ] ~doc)

let sizes_arg sizes =
  Arg.(
    value & opt (list int) sizes
    & info [ "sizes" ] ~doc:"Ring sizes to sweep (comma separated).")

let int_arg name default doc =
  Arg.(value & opt int default & info [ name ] ~doc)

let float_arg name default doc =
  Arg.(value & opt float default & info [ name ] ~doc)

let horizon_arg default =
  float_arg "horizon" default "Simulated horizon in seconds."

let parallel_arg default =
  Arg.(
    value & opt int default
    & info [ "parallel-boot" ]
        ~doc:"Concurrent VM creations (1 = paper-era serialized RouteFlow).")

let manual_arg =
  float_arg "manual-delay" 25.0
    "Seconds the operator takes to respond: to the cut (traffic), or to \
     restart the single-controller baseline after its crash (cluster)."

(* --- The experiments ------------------------------------------------- *)

let e1b =
  {
    label = "e1b";
    what = "phase decomposition, 8-switch ring, 2 s boots";
    rules = Analysis.e1b_rules;
    in_all = true;
    (* Figure 3 and the demo dump the same configure span tree. *)
    reads = [ "fig3"; "demo" ];
  }

let fig3 =
  let run sizes vm_boot_s parallel_boot ctx =
    report
      (Format.asprintf "%a" Experiment.print_fig3
         (Experiment.fig3 ~sizes ~vm_boot_s ~parallel_boot
            ?telemetry:ctx.telemetry ?profiler:ctx.profiler ()))
  in
  entry ~id:"fig3"
    ~doc:"E1 / Figure 3: automatic vs manual configuration time"
    ~meta_tag:"fig3" ~flags:[ Profile ]
    ~pins:[ pin "e1-fig3-summary.txt" [] ]
    Term.(
      const run
      $ sizes_arg [ 4; 8; 12; 16; 20; 24; 28 ]
      $ boot_arg $ parallel_arg 1)

let obs =
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
  let run switches vm_boot_s parallel_boot prometheus spans ctx =
    let s =
      Experiment.phase_run ~switches ~vm_boot_s ~parallel_boot
        ?telemetry:ctx.telemetry ()
    in
    let summary =
      Format.asprintf "%a" Experiment.print_phases (Experiment.breakdown_of s)
    in
    let spans =
      if spans then
        Format.asprintf "@.%a" Rf_obs.Export.pp_span_stats
          (Scenario.span_stats s)
      else ""
    in
    let prometheus = if prometheus then "\n" ^ Scenario.prometheus s else "" in
    { (report summary) with shown = summary ^ spans ^ prometheus }
  in
  entry ~id:"obs"
    ~doc:
      "E1b: run a ring configuration and decompose the end-to-end time into \
       discovery, RPC, VM-provisioning, Quagga and convergence phases from \
       the span tree; optionally dump JSONL telemetry and Prometheus-style \
       metrics"
    ~meta_tag:"e1-phases" ~slo:e1b ~flags:[ Trace_analysis ]
    ~pins:
      [
        pin "e1-phase-summary.txt" [ "--switches"; "8"; "--boot-time"; "2" ];
        pin "e1-phase-28-summary.txt" [];
      ]
    Term.(
      const run $ switches_arg 28 $ boot_arg $ parallel_arg 1 $ prometheus_arg
      $ spans_arg)

let demo =
  let server_arg =
    Arg.(
      value & opt string "Glasgow"
      & info [ "server" ] ~doc:"City hosting the video server.")
  in
  let client_arg =
    Arg.(
      value & opt string "Athens"
      & info [ "client" ] ~doc:"City hosting the remote client.")
  in
  let protocol_arg =
    Arg.(
      value
      & opt
          (enum
             [
               ("ospf", Rf_routeflow.Rf_system.Proto_ospf);
               ("rip", Rf_routeflow.Rf_system.Proto_rip);
             ])
          Rf_routeflow.Rf_system.Proto_ospf
      & info [ "protocol" ] ~doc:"Routing protocol the VMs run: ospf or rip.")
  in
  let pcap_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "pcap" ] ~docv:"FILE"
          ~doc:"Write a pcap capture of the client's access link to $(docv).")
  in
  let run vm_boot_s horizon_s server_city client_city protocol pcap_path ctx =
    report
      (Format.asprintf "%a" Experiment.print_demo
         (Experiment.demo ~vm_boot_s ~horizon_s ~server_city ~client_city
            ~protocol ?pcap_path ?telemetry:ctx.telemetry ()))
  in
  entry ~id:"demo"
    ~doc:
      "E2: stream video across the pan-European topology while RouteFlow \
       configures itself"
    ~meta_tag:"demo"
    ~pins:[ pin "e2-demo-summary.txt" [] ]
    Term.(
      const run $ boot_arg $ horizon_arg 360.0 $ server_arg $ client_arg
      $ protocol_arg $ pcap_arg)

let failure =
  let run switches fail_at_s horizon_s ctx =
    let r =
      Experiment.failure_recovery ~seed:ctx.seed ~switches ~fail_at_s
        ~horizon_s ~audit:ctx.audit ?telemetry:ctx.telemetry
        ?profiler:ctx.profiler ()
    in
    audited
      (Format.asprintf "%a" Experiment.print_failure_recovery r)
      [ r.fr_audit ]
  in
  entry ~id:"failure"
    ~doc:
      "E3: cut a ring link under live traffic and report packet loss and \
       reconvergence time (deterministic: same seed, same trace)"
    ~meta_tag:"failure"
    ~slo:
      {
        label = "e3";
        what = "link cut under live traffic, 6-switch ring";
        rules = Analysis.e3_rules;
        in_all = true;
        reads = [];
      }
    ~flags:[ Seed; Profile; Audit; Trace_analysis ]
    ~pins:
      [
        pin "e3-failure-summary.txt" [];
        pin "e3-failure-audit-summary.txt" [ "--audit" ];
      ]
    Term.(
      const run
      $ switches_arg ~doc:"Ring size (>= 4)." 6
      $ float_arg "fail-at" 60.0 "Link cut time (sim s)."
      $ horizon_arg 150.0)

let restart =
  let run switches crash_at_s cut_at_s recover_at_s horizon_s ctx =
    let r =
      Experiment.restart ~seed:ctx.seed ~switches ~crash_at_s ~cut_at_s
        ~recover_at_s ~horizon_s ~audit:ctx.audit ?telemetry:ctx.telemetry ()
    in
    audited
      (Format.asprintf "%a" Experiment.print_restart r)
      [ r.rs_supervised.rr_audit; r.rs_legacy.rr_audit ]
  in
  entry ~id:"restart"
    ~doc:
      "E4: crash the RF-controller, cut a link while it is down, and compare \
       recovery with and without the session-aware RPC reconciliation \
       (deterministic: same seed, same trace)"
    ~meta_tag:"restart"
    ~slo:
      {
        label = "e4";
        what = "controller crash + reconciliation, 8-switch ring";
        rules = Analysis.e4_rules;
        in_all = true;
        reads = [];
      }
    ~flags:[ Seed; Audit; Trace_analysis ]
    ~pins:
      [
        pin "e4-restart-summary.txt" [];
        pin "e4-restart-audit-summary.txt" [ "--audit" ];
      ]
    Term.(
      const run
      $ switches_arg ~doc:"Ring size (>= 4)." 8
      $ float_arg "crash-at" 4.0 "RF-controller crash time (sim s)."
      $ float_arg "cut-at" 8.0
          "Cut link sw2-sw3 at this time, while the controller is down."
      $ float_arg "recover-at" 20.0 "RF-controller restart time (sim s)."
      $ horizon_arg 120.0)

let gui =
  let run vm_boot_s every_s _ctx =
    report
      (String.concat ""
         (List.map
            (fun frame -> frame ^ "\n")
            (Experiment.gui_frames ~vm_boot_s ~every_s ())))
  in
  entry ~id:"gui" ~doc:"E5: render the red/green GUI frames of the demo run"
    ~pins:[ pin "e5-gui-summary.txt" [] ]
    Term.(const run $ boot_arg $ float_arg "every" 30.0 "Frame period (sim s).")

let traffic =
  let run switches fail_at_s manual_response_s horizon_s ctx =
    report
      (Format.asprintf "%a" Experiment.print_traffic
         (Experiment.traffic_disruption ~seed:ctx.seed ~switches ~fail_at_s
            ~manual_response_s ~horizon_s ?telemetry:ctx.telemetry
            ?profiler:ctx.profiler ()))
  in
  entry ~id:"traffic"
    ~doc:
      "E6: measure data-plane traffic disruption (loss, latency, disruption \
       windows) while the E3 link-failure and E4 controller-restart \
       scenarios play out, automatic configuration vs a manual-operation \
       baseline"
    ~meta_tag:"traffic"
    ~slo:
      {
        label = "e6";
        what = "traffic disruption, automatic response, 8-switch ring";
        rules = Analysis.e6_rules;
        in_all = true;
        reads = [];
      }
    ~flags:[ Seed; Profile; Trace_analysis ]
    ~pins:[ pin "e6-summary.txt" [ "--switches"; "8" ] ]
    Term.(
      const run
      $ switches_arg ~doc:"Ring size (>= 8)." 8
      $ float_arg "fail-at" 40.0 "Virtual second of the sw2-sw3 cut."
      $ manual_arg $ horizon_arg 90.0)

let cluster =
  let traffic_start_arg =
    float_arg "traffic-start" 20.0
      "Virtual second the workload starts; raise it (with --parallel-boot) \
       on large rings so provisioning completes first."
  in
  let run switches replicas crash_at_s cut_at_s recover_at_s
      manual_response_s horizon_s traffic_start_s parallel_boot ctx =
    let r =
      Experiment.cluster_failover ~seed:ctx.seed ~switches ~replicas
        ~crash_at_s ~cut_at_s ~recover_at_s ~manual_response_s ~horizon_s
        ~traffic_start_s ~parallel_boot ~audit:ctx.audit
        ?telemetry:ctx.telemetry ?profiler:ctx.profiler ()
    in
    audited
      (Format.asprintf "%a" Experiment.print_cluster r)
      [ r.cf_auto.cw_audit; r.cf_legacy.cw_audit ]
  in
  entry ~id:"cluster"
    ~doc:
      "E9: replicated RF-controller cluster under live traffic — the acting \
       leader crashes just before a link cut, the survivors elect a new \
       leader and take the switch sessions back, vs. the single-controller \
       baseline waiting for the operator"
    ~meta_tag:"cluster"
    ~slo:
      {
        label = "e9";
        what = "cluster leader crash + failover, 28-switch ring, 3 replicas";
        rules = Analysis.e9_rules;
        in_all = false;
        reads = [];
      }
    ~flags:[ Seed; Profile; Audit; Trace_analysis ]
    ~pins:[ pin "e9-summary.txt" [] ]
    Term.(
      const run
      $ switches_arg ~doc:"Ring size (>= 8)." 28
      $ int_arg "replicas" 3 "RF-controller replicas (>= 3)."
      $ float_arg "crash-at" 30.0
          "Virtual second the acting leader (replica 0) crashes."
      $ float_arg "cut-at" 36.0 "Virtual second of the sw2-sw3 cut."
      $ float_arg "recover-at" 60.0
          "Virtual second the crashed replica rejoins."
      $ manual_arg $ horizon_arg 120.0 $ traffic_start_arg $ parallel_arg 4)

let profile =
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
            "Run the identical workload once more without the profiler and \
             report the instrumentation's wall-clock overhead.")
  in
  let run k horizon_s top entities measure_overhead ctx =
    let r =
      Experiment.profile_scaling ~seed:ctx.seed ~k ~horizon_s
        ~measure_overhead ?telemetry:ctx.telemetry ()
    in
    let top =
      if entities then List.length r.pf_snapshot.Rf_obs.Profiler.sn_entities
      else top
    in
    {
      (report
         (Format.asprintf "%a" (Experiment.print_profile ~wall:false ~top) r))
      with
      shown = Format.asprintf "%a" (Experiment.print_profile ~wall:true ~top) r;
    }
  in
  entry ~id:"profile"
    ~doc:
      "E10: profile the engine across the fat-tree scaling run — per-entity \
       load attribution and event-heap depth/churn"
    ~meta_tag:"profile"
    ~slo:
      {
        label = "e10";
        what = "engine profile of the fat-tree scaling run";
        rules = Analysis.e10_rules;
        in_all = false;
        reads = [];
      }
    ~flags:[ Seed; Trace_analysis ]
    ~pins:[ pin "e10-profile-summary.txt" [] ]
    Term.(
      const run
      $ int_arg "k" 20 "Fat-tree arity of the profiled run (even, >= 2)."
      $ horizon_arg 60.0
      $ int_arg "top" 10 "Entities shown in the load table."
      $ entities_arg $ overhead_arg)

let audit =
  let run e3_switches e4_switches e9_switches e9_replicas ctx =
    let r =
      Experiment.audit_windows ~seed:ctx.seed ~e3_switches ~e4_switches
        ~e9_switches ~e9_replicas ?telemetry:ctx.telemetry ()
    in
    {
      (report (Format.asprintf "%a" Experiment.print_audit r)) with
      steady_violations = r.ad_steady_total;
    }
  in
  entry ~id:"audit"
    ~doc:
      "E12: replay the E3 link-cut, E4 restart and E9 leader-crash fault \
       schedules with the continuous forwarding-state auditor attached — \
       loop / blackhole / RIB-FIB / slice-isolation violation windows in \
       virtual time, automatic vs legacy — and exit 5 if any window \
       overlaps the steady-state interval"
    ~meta_tag:"audit"
    ~slo:
      {
        label = "e12";
        what = "forwarding-state audit of the E3/E4/E9 fault replays";
        rules = Analysis.e12_rules;
        in_all = false;
        reads = [];
      }
    ~flags:[ Seed; Trace_analysis ]
    ~pins:[ pin "e12-audit-summary.txt" [] ]
    Term.(
      const run
      $ int_arg "e3-switches" 6 "Ring size of the E3 link-cut replay."
      $ int_arg "e4-switches" 8 "Ring size of the E4 restart replay."
      $ int_arg "e9-switches" 28
          "Ring size of the E9 leader-crash replay (>= 8)."
      $ int_arg "replicas" 3
          "RF-controller replicas of the E9 automatic replay (>= 3).")

let scaling =
  let run sizes _ctx =
    report
      (Format.asprintf "%a" Experiment.print_scaling
         (Experiment.scaling ~sizes ()))
  in
  entry ~id:"scaling"
    ~doc:"X1: configuration time on rings up to 1000 switches"
    ~pins:[ pin "x1-summary.txt" [ "--sizes"; "50,100,250" ] ]
    Term.(const run $ sizes_arg [ 50; 100; 250; 500; 1000 ])

let ablation =
  let variants =
    [
      ("boot", ("VM boot parallelism", Experiment.ablation_parallel_boot));
      ("probe", ("LLDP probe interval", Experiment.ablation_probe_interval));
      ( "rpc",
        ("RPC latency (controller placement)", Experiment.ablation_rpc_latency)
      );
      ( "proto",
        ("routing protocol (OSPF vs RIPv2)", Experiment.ablation_protocol) );
    ]
  in
  let which_arg =
    Arg.(
      value
      & pos 0 (enum variants) (List.assoc "boot" variants)
      & info [] ~docv:"KNOB" ~doc:"Which knob: boot, probe, rpc, or proto.")
  in
  let run ((title, ablate) : string * (?switches:int -> unit -> _)) switches
      _ctx =
    report
      (Format.asprintf "%a"
         (fun ppf -> Experiment.print_ablation ppf title)
         (ablate ~switches ()))
  in
  entry ~id:"ablation" ~doc:"X2: design-choice ablations on the 28-switch ring"
    ~pins:
      (List.map
         (fun (name, _) ->
           pin (Printf.sprintf "x2-%s-summary.txt" name) [ name ])
         variants)
    Term.(const run $ which_arg $ switches_arg 28)

let families =
  let run n _ctx =
    report
      (Format.asprintf "%a" Experiment.print_families
         (Experiment.topo_families ~n ()))
  in
  entry ~id:"families" ~doc:"X3: configuration time across topology families"
    ~pins:[ pin "x3-families-summary.txt" [] ]
    Term.(const run $ int_arg "n" 16 "Switch count.")

let census =
  let run _ctx =
    report (Format.asprintf "%a" Experiment.print_census (Experiment.census ()))
  in
  entry ~id:"census"
    ~doc:
      "X4: count every control-plane message category over one full \
       autoconfiguration run of the 28-switch ring"
    ~pins:[ pin "x4-census-summary.txt" [] ]
    (Term.const run)

let experiments =
  [
    fig3; obs; demo; failure; restart; gui; traffic; cluster; profile; audit;
    scaling; ablation; families; census;
  ]

(* --- E7: analyze ------------------------------------------------------ *)

let analysed_entries =
  List.filter_map
    (fun e -> Option.map (fun s -> (e, s)) e.slo)
    experiments

(* The entry whose rule set reads dumps carrying this meta tag. *)
let reader_of_tag tag =
  List.find_opt
    (fun (e, s) -> e.meta_tag = Some tag || List.mem tag s.reads)
    analysed_entries

(* The entry's first pinned run, its telemetry ingested — the exact
   pipeline a replayed file goes through. *)
let reference_dump ?(seed = 42) e =
  match e.pins with
  | [] -> invalid_arg (e.id ^ " has no pinned run")
  | p :: _ ->
      let path = Filename.temp_file "rfauto-analyze" ".jsonl" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          let ctx, run = parse e p.argv in
          ignore (run { ctx with seed; telemetry = Some path });
          Ingest.load_file path)

let analyze =
  let labels = List.map (fun (_, s) -> s.label) analysed_entries in
  let input_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "input" ] ~docv:"FILE"
          ~doc:
            "Analyze an existing telemetry JSONL dump instead of running \
             experiments; the experiment is inferred from the dump's meta \
             line unless --experiment names it.")
  in
  let experiment_arg =
    Arg.(
      value & opt string "all"
      & info [ "experiment" ] ~docv:"EXP"
          ~doc:
            (Printf.sprintf
               "Which experiment to analyze: %s, or all (the pinned E7 set: \
                %s)."
               (String.concat ", " labels)
               (String.concat ", "
                  (List.filter_map
                     (fun (_, s) -> if s.in_all then Some s.label else None)
                     analysed_entries))))
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
            "Write this run's indicators to $(docv) as the new baseline \
             (overwrites; no diff).")
  in
  let run input experiment flamegraph_json save_baseline ctx =
    let by_label l =
      List.find_opt (fun (_, s) -> s.label = l) analysed_entries
    in
    let dumps =
      match input with
      | Some path -> (
          let dump = Ingest.load_file path in
          match
            if experiment = "all" then
              Option.bind (Ingest.meta_value dump "experiment") reader_of_tag
            else by_label experiment
          with
          | Some (_, s) -> [ (s, dump) ]
          | None ->
              invalid_arg
                (Printf.sprintf
                   "cannot infer the experiment from %s; pass --experiment %s"
                   path (String.concat "|" labels)))
      | None ->
          let chosen =
            if experiment = "all" then
              List.filter (fun (_, s) -> s.in_all) analysed_entries
            else
              match by_label experiment with
              | Some x -> [ x ]
              | None -> invalid_arg ("unknown experiment " ^ experiment)
          in
          List.map (fun (e, s) -> (s, reference_dump ~seed:ctx.seed e)) chosen
    in
    let buf = Buffer.create 4096 in
    let ppf = Format.formatter_of_buffer buf in
    (match input with
    | Some path -> Format.fprintf ppf "E7 — trace analytics of %s@." path
    | None ->
        Format.fprintf ppf "E7 — trace analytics & SLO scorecard (seed %d)@."
          ctx.seed);
    let results =
      List.map
        (fun (s, dump) ->
          Format.fprintf ppf "@.== %s: %s ==@." s.label s.what;
          Option.iter
            (Format.fprintf ppf "%a" Rf_obs.Critical_path.pp_path)
            (Analysis.configure_path dump);
          let results = Slo.evaluate dump s.rules in
          if ctx.scorecard then
            Format.fprintf ppf "@.%a" Analysis.scorecard results;
          results)
        dumps
    in
    Format.pp_print_flush ppf ();
    let summary = Buffer.contents buf in
    let forest =
      List.concat_map (fun (_, dump) -> Analysis.forest dump) dumps
    in
    let an =
      {
        an_label = (match dumps with [ (s, _) ] -> s.label | _ -> "all");
        an_forest = forest;
        an_results = List.concat results;
      }
    in
    let notes =
      (match flamegraph_json with
      | Some path ->
          write_file path (Rf_obs.Flamegraph.d3_json forest);
          Printf.sprintf "flamegraph JSON written to %s\n" path
      | None -> "")
      ^
      match save_baseline with
      | Some path ->
          Rf_obs.Baseline.save path
            (Analysis.baseline_run ~label:an.an_label an.an_results);
          Printf.sprintf "baseline saved to %s\n" path
      | None -> ""
    in
    { (report summary) with shown = summary ^ notes; analysed = Some an }
  in
  entry ~id:"analyze"
    ~doc:
      "E7: trace analytics & SLO engine — critical paths, flamegraphs, \
       sliding-window SLO verdicts and regression baselines over the \
       experiments' telemetry (consumes a JSONL dump via --input or runs the \
       experiments' pinned runs itself)"
    ~flags:[ Seed; Trace_analysis ]
    ~pins:[ pin "e7-slo-summary.txt" [ "--experiment"; "all"; "--slo" ] ]
    Term.(
      const run $ input_arg $ experiment_arg $ flamegraph_json_arg
      $ save_baseline_arg)

let all = experiments @ [ analyze ]

(* --- fingerprint ------------------------------------------------------- *)

(* Replays every pinned run, writing its summary (and, for entries that
   emit telemetry, its JSONL) into [dir]. Every file is written before
   the exit gates apply. *)
let fingerprint dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  List.fold_left
    (fun code e ->
      List.fold_left
        (fun code p ->
          let ctx, run = parse e p.argv in
          let out =
            Option.map
              (fun _ ->
                Filename.concat dir
                  (Filename.remove_extension p.file ^ ".jsonl"))
              e.meta_tag
          in
          let ctx = { ctx with out; telemetry = out } in
          let o = perform e (ctx, run) in
          write_file (Filename.concat dir p.file) o.summary;
          Format.printf "%-28s rfauto %s@." p.file
            (String.concat " " (e.id :: p.argv));
          let c = finish ctx o in
          if code = 0 then c else code)
        code e.pins)
    0 all

let fingerprint_cmd =
  let dir_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"DIR" ~doc:"Directory the summaries are written to.")
  in
  Cmd.v
    (Cmd.info "fingerprint"
       ~doc:
         "Replay every experiment's pinned run and write the summaries CI \
          diffs against ci/*.txt (plus the telemetry JSONL of the runs that \
          emit it) into DIR")
    Term.(
      const (fun dir -> guard "fingerprint" (fun () -> fingerprint dir))
      $ dir_arg)
