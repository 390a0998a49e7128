(* The benchmark measures the same program as the pinned experiments,
   and every workload reports every metric BENCHMARK.json names. *)

open E2e_bench
module Experiment = Rf_core.Experiment
module Json = Rf_obs.Json

let run_case (c : Workloads.case) =
  let p = c.setup None in
  p.run ignore;
  p.finish ()

let lines s = String.split_on_char '\n' s

let e9_reproduces_experiment () =
  let r = Experiment.cluster_failover ~seed:42 ~switches:8 () in
  let line label (cw : Experiment.cluster_run) =
    let t = cw.cw_traffic in
    Workloads.e9_line ~label ~flows:t.tw_flows ~offered:t.tw_offered
      ~delivered:t.tw_delivered ~lost:t.tw_lost ~disruption_s:t.tw_disruption_s
      ~elections:cw.cw_elections ~failover_s:cw.cw_failover_s
  in
  let o = run_case (Workloads.e9_case ~seed:42 ~switches:8) in
  Alcotest.(check (list string)) "checks pass" [] o.failures;
  Alcotest.(check (list string))
    "same virtual outputs"
    [ line "automatic" r.cf_auto; line "legacy" r.cf_legacy ]
    (List.filteri (fun i _ -> i < 2) (lines o.summary))

let e6b_reproduces_experiment () =
  let r = Experiment.traffic_scaling ~seed:42 ~k:4 ~horizon_s:10.0 () in
  let o =
    run_case (Workloads.e6b_case ~seed:42 ~k:4 ~horizon_s:10.0 ~min_flows:1)
  in
  Alcotest.(check (list string)) "checks pass" [] o.failures;
  Alcotest.(check string)
    "same virtual outputs"
    (Printf.sprintf "switches=%d %s" r.ts_switches
       (Workloads.e6b_line ~flows:r.ts_flows ~samples:r.ts_samples
          ~offered:r.ts_offered ~delivered:r.ts_delivered ~lost:r.ts_lost
          ~events:r.ts_events))
    o.summary

let benchmark_names key =
  let j =
    Json.parse
      (In_channel.with_open_text "../../BENCHMARK.json" In_channel.input_all)
  in
  List.filter_map
    (fun m -> Option.bind (Json.member "name" m) Json.to_string_opt)
    (Option.value ~default:[]
       (Option.bind (Json.member key j) Json.to_list_opt))

let emits key ~trace (w : Workloads.t) () =
  let o =
    Runner.run ~workload:w ~seed:42 ~seconds:0. ~trace ~size:Workloads.Tiny
  in
  Alcotest.(check (list string)) "no errors" [] o.errors;
  Alcotest.(check bool) "correct" true o.correct;
  Alcotest.(check (list string))
    "every metric, in order" (benchmark_names key)
    (List.map (fun (n, _, _) -> n) o.metrics);
  List.iter
    (fun (n, _, v) ->
      Alcotest.(check bool) (n ^ " is finite") true (Float.is_finite v))
    o.metrics

let quartiles_match_python () =
  let check name xs want =
    let q1, m, q3 = Stats.quartiles xs in
    Alcotest.(check (list (float 1e-12))) name want [ q1; m; q3 ]
  in
  (* statistics.quantiles(xs, n=4) *)
  check "ten"
    (List.init 10 (fun i -> float_of_int (10 - i)))
    [ 2.75; 5.5; 8.25 ];
  check "two" [ 1.; 2. ] [ 0.75; 1.5; 2.25 ];
  check "five" [ 3.; 1.; 4.; 1.; 5. ] [ 1.; 3.; 4.5 ]

(* Host-speed slices must not touch the OCaml heap, or they would move
   the GC work of the code they calibrate. *)
let slice_allocates_nothing () =
  ignore (Runner.calibration_slice ());
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (Runner.calibration_slice ()));
  Alcotest.(check bool)
    "no allocation" true
    (Gc.minor_words () -. before < 16.)

let () =
  Alcotest.run "e2e"
    [
      ( "experiments",
        [
          Alcotest.test_case "e9 reproduces cluster_failover" `Quick
            e9_reproduces_experiment;
          Alcotest.test_case "e6b reproduces traffic_scaling" `Quick
            e6b_reproduces_experiment;
        ] );
      ( "metrics",
        Alcotest.test_case "fig3 end-to-end" `Quick
          (emits "end_to_end" ~trace:false Workloads.fig3_sweep)
        :: List.map
             (fun (w : Workloads.t) ->
               Alcotest.test_case (w.name ^ " per-layer") `Quick
                 (emits "per_layer" ~trace:true w))
             Workloads.all );
      ( "runner",
        [
          Alcotest.test_case "quartiles" `Quick quartiles_match_python;
          Alcotest.test_case "calibration slice" `Quick slice_allocates_nothing;
        ] );
    ]
