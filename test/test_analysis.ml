(* Tests for the trace-analytics suite: critical-path extraction,
   flamegraph folding, sliding-window aggregation, the SLO rule
   engine, baselines, and the per-experiment scorecards built on top
   of them. *)

module Tracer = Rf_obs.Tracer
module Export = Rf_obs.Export
module Ingest = Rf_obs.Ingest
module Critical_path = Rf_obs.Critical_path
module Flamegraph = Rf_obs.Flamegraph
module Timeseries = Rf_obs.Timeseries
module Slo = Rf_obs.Slo
module Baseline = Rf_obs.Baseline
module Metrics = Rf_obs.Metrics
module Analysis = Rf_core.Analysis

let mk ?parent ~id ~start_us ~end_us name =
  { Tracer.id; parent; name; start_us; end_us = Some end_us; attrs = [] }

let ev ?span ~us ~component ~kind detail =
  { Tracer.time_us = us; component; kind; detail; span }

let empty_dump meta = { Ingest.meta; spans = []; events = [] }

(* --- Generators ---------------------------------------------------- *)

(* Random span forests. [disjoint] makes every sibling pair disjoint
   (the sequential-phases shape, where self times must partition the
   root exactly); without it children may overlap, like concurrent
   rpc.frame spans. Children always nest inside their parent. *)
let gen_forest ~disjoint st =
  let next_id = ref 0 in
  let acc = ref [] in
  let rec emit ~parent ~depth ~lo ~hi name =
    incr next_id;
    let id = !next_id in
    acc := mk ?parent ~id ~start_us:lo ~end_us:hi name :: !acc;
    if depth < 3 && hi - lo > 8 then
      let n = Random.State.int st 4 in
      if disjoint then (
        let pos = ref lo in
        let i = ref 1 in
        while !i <= n && hi - !pos > 2 do
          let a = !pos + Random.State.int st 3 in
          if hi - a > 1 then (
            let b = a + 1 + Random.State.int st (hi - a - 1) in
            emit ~parent:(Some id) ~depth:(depth + 1) ~lo:a ~hi:b
              (Printf.sprintf "c%d" !i);
            pos := b);
          incr i
        done)
      else
        for i = 1 to n do
          let a = lo + Random.State.int st (hi - lo - 1) in
          let b = min hi (a + 1 + Random.State.int st (hi - a)) in
          if b > a then
            emit ~parent:(Some id) ~depth:(depth + 1) ~lo:a ~hi:b
              (Printf.sprintf "c%d" i)
        done
  in
  let roots = 1 + Random.State.int st 2 in
  let t = ref 0 in
  for r = 1 to roots do
    let dur = 50 + Random.State.int st 500 in
    emit ~parent:None ~depth:0 ~lo:!t ~hi:(!t + dur)
      (Printf.sprintf "root%d" r);
    t := !t + dur + 10 + Random.State.int st 40
  done;
  List.rev !acc

let print_spans spans =
  String.concat "; "
    (List.map
       (fun (sp : Tracer.span) ->
         Printf.sprintf "%d<-%s %s [%d,%s)" sp.id
           (match sp.parent with Some p -> string_of_int p | None -> ".")
           sp.name sp.start_us
           (match sp.end_us with Some e -> string_of_int e | None -> "?"))
       spans)

let arb_forest ~disjoint =
  QCheck.make ~print:print_spans (gen_forest ~disjoint)

(* --- Critical path ------------------------------------------------- *)

let test_critical_path_known_tree () =
  let spans =
    [
      mk ~id:1 ~start_us:0 ~end_us:100 "root";
      mk ~id:2 ~parent:1 ~start_us:0 ~end_us:60 "a";
      mk ~id:3 ~parent:1 ~start_us:60 ~end_us:90 "b";
      mk ~id:4 ~parent:2 ~start_us:10 ~end_us:30 "a1";
    ]
  in
  match Critical_path.forest spans with
  | [ root ] ->
      Alcotest.(check int) "root total" 100 root.Critical_path.n_total_us;
      Alcotest.(check int) "root self" 10 root.Critical_path.n_self_us;
      let names =
        List.map
          (fun (s : Critical_path.step) -> s.cp_name)
          (Critical_path.critical_path root)
      in
      Alcotest.(check (list string))
        "descends into the longest child" [ "root"; "a"; "a1" ] names
  | forest ->
      Alcotest.failf "expected a single root, got %d" (List.length forest)

let prop_critical_path_chain =
  QCheck.Test.make ~name:"critical path is a descending root-to-leaf chain"
    ~count:100 (arb_forest ~disjoint:false) (fun spans ->
      let forest = Critical_path.forest spans in
      forest <> []
      && List.for_all
           (fun (root : Critical_path.node) ->
             match Critical_path.critical_path root with
             | [] -> false
             | head :: _ as steps ->
                 head.Critical_path.cp_span_id = root.span.id
                 && head.cp_total_us = root.n_total_us
                 &&
                 let ok, _, _ =
                   List.fold_left
                     (fun (ok, depth, prev) (s : Critical_path.step) ->
                       ( ok && s.cp_depth = depth && s.cp_total_us <= prev
                         && s.cp_self_us >= 0
                         && s.cp_self_us <= s.cp_total_us,
                         depth + 1,
                         s.cp_total_us ))
                     (true, 0, root.n_total_us)
                     steps
                 in
                 ok)
           forest)

let prop_self_times_partition =
  QCheck.Test.make
    ~name:"self times sum to the root total (disjoint children)" ~count:100
    (arb_forest ~disjoint:true) (fun spans ->
      let forest = Critical_path.forest spans in
      List.for_all
        (fun (root : Critical_path.node) ->
          let sum =
            Critical_path.fold_nodes
              (fun acc n -> acc + n.Critical_path.n_self_us)
              0 [ root ]
          in
          sum = root.n_total_us)
        forest)

(* --- Flamegraph ---------------------------------------------------- *)

let test_flamegraph_overlap_partition () =
  (* Two children overlap on [40,80): the earlier sibling claims it,
     the later one keeps only [80,100), and the folded total still
     equals the root duration exactly. *)
  let spans =
    [
      mk ~id:1 ~start_us:0 ~end_us:100 "root";
      mk ~id:2 ~parent:1 ~start_us:0 ~end_us:80 "c1";
      mk ~id:3 ~parent:1 ~start_us:40 ~end_us:100 "c2";
    ]
  in
  let forest = Critical_path.forest spans in
  Alcotest.(check (list (pair string int)))
    "exact partition"
    [ ("root", 0); ("root;c1", 80); ("root;c2", 20) ]
    (Flamegraph.folded_entries forest);
  Alcotest.(check int) "total = root duration" 100
    (Flamegraph.total (Flamegraph.folded forest))

let test_flamegraph_parse_malformed () =
  Alcotest.check_raises "no value"
    (Flamegraph.Malformed "no value in line: abc") (fun () ->
      ignore (Flamegraph.parse_folded "abc"));
  Alcotest.check_raises "bad value"
    (Flamegraph.Malformed "bad value in line: a b") (fun () ->
      ignore (Flamegraph.parse_folded "a b"))

let test_flamegraph_d3_json () =
  let single =
    Critical_path.forest [ mk ~id:1 ~start_us:0 ~end_us:10 "only" ]
  in
  Alcotest.(check string)
    "single root, no wrapper" "{\"name\":\"only\",\"value\":10}\n"
    (Flamegraph.d3_json single);
  let double =
    Critical_path.forest
      [
        mk ~id:1 ~start_us:0 ~end_us:10 "a"; mk ~id:2 ~start_us:20 ~end_us:50 "b";
      ]
  in
  let json = Flamegraph.d3_json double in
  Alcotest.(check bool)
    "multi-root wraps under all" true
    (Astring_contains.contains json "{\"name\":\"all\",\"value\":40")

let prop_folded_total_exact =
  QCheck.Test.make
    ~name:"folded total equals summed root durations (overlap allowed)"
    ~count:100 (arb_forest ~disjoint:false) (fun spans ->
      let forest = Critical_path.forest spans in
      let roots_total =
        List.fold_left
          (fun acc (n : Critical_path.node) -> acc + n.n_total_us)
          0 forest
      in
      Flamegraph.total (Flamegraph.folded forest) = roots_total)

let prop_folded_roundtrip =
  QCheck.Test.make ~name:"folded output parses back to the same tree shape"
    ~count:100 (arb_forest ~disjoint:false) (fun spans ->
      let forest = Critical_path.forest spans in
      let entries = Flamegraph.folded_entries forest in
      let parsed = Flamegraph.parse_folded (Flamegraph.folded forest) in
      let rec paths prefix (n : Critical_path.node) =
        let p = prefix @ [ Flamegraph.frame n.span.name ] in
        p :: List.concat_map (paths p) n.Critical_path.children
      in
      let tree_paths =
        List.concat_map (paths []) forest |> List.sort_uniq compare
      in
      List.length parsed = List.length entries
      && List.for_all2
           (fun (path, v) (key, v') ->
             String.concat ";" path = key && v = v')
           parsed entries
      && List.sort_uniq compare (List.map fst parsed) = tree_paths)

(* --- Timeseries ---------------------------------------------------- *)

let test_sliding_windows () =
  let ts = Timeseries.of_points [ (0, 1.); (500, 3.); (2500, 5.) ] in
  Alcotest.(check (list (pair int (float 1e-9))))
    "count reports empty windows as zero"
    [ (0, 2.); (1000, 0.); (2000, 1.) ]
    (Timeseries.sliding ~width_us:1000 ~step_us:1000 Timeseries.Count ts);
  Alcotest.(check (list (pair int (float 1e-9))))
    "mean omits empty windows"
    [ (0, 2.); (2000, 5.) ]
    (Timeseries.sliding ~width_us:1000 ~step_us:1000 Timeseries.Mean ts);
  Alcotest.(check (option (float 1e-9)))
    "max window" (Some 5.)
    (Timeseries.max_window ~width_us:1000 ~step_us:1000 Timeseries.Sum ts);
  Alcotest.check_raises "bad width"
    (Invalid_argument "Timeseries.sliding: width_us <= 0") (fun () ->
      ignore (Timeseries.sliding ~width_us:0 ~step_us:1 Timeseries.Count ts))

let prop_sliding_reorder_invariant =
  QCheck.Test.make ~name:"sliding windows invariant under input reordering"
    ~count:100
    QCheck.(
      list_of_size
        Gen.(1 -- 30)
        (pair (int_bound 5000) (map float_of_int (int_bound 100))))
    (fun points ->
      let aggs =
        Timeseries.[ Count; Sum; Mean; Max; Min ]
      in
      let windows ps agg =
        Timeseries.sliding ~width_us:700 ~step_us:300 agg
          (Timeseries.of_points ps)
      in
      let rotated = match points with [] -> [] | x :: tl -> tl @ [ x ] in
      List.for_all
        (fun agg ->
          windows points agg = windows (List.rev points) agg
          && windows points agg = windows rotated agg)
        aggs)

(* --- Metrics quantile ---------------------------------------------- *)

let test_histogram_quantile () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "q_seconds" in
  List.iter (Metrics.observe h) [ 0.002; 0.004; 0.2; 2.0 ];
  let q50 = Metrics.histogram_quantile h 0.5 in
  let q99 = Metrics.histogram_quantile h 0.99 in
  Alcotest.(check bool) "median within observed range" true
    (q50 > 0.001 && q50 < 2.0);
  Alcotest.(check bool) "quantile monotone" true
    (Metrics.histogram_quantile h 0.1 <= q50 && q50 <= q99);
  (* Degenerate inputs have documented values instead of raising. *)
  let q_max = Metrics.histogram_quantile h 1.0 in
  Alcotest.(check (float 1e-9)) "q above 1 clamps to q=1" q_max
    (Metrics.histogram_quantile h 1.5);
  Alcotest.(check (float 1e-9)) "q below 0 clamps to q=0"
    (Metrics.histogram_quantile h 0.0)
    (Metrics.histogram_quantile h (-0.5));
  Alcotest.(check (float 1e-9)) "nan q reads as q=0"
    (Metrics.histogram_quantile h 0.0)
    (Metrics.histogram_quantile h Float.nan);
  let empty = Metrics.histogram m "empty_seconds" in
  Alcotest.(check bool) "empty histogram is nan" true
    (Float.is_nan (Metrics.histogram_quantile empty 0.5));
  let single = Metrics.histogram m "single_seconds" in
  Metrics.observe single 0.02;
  (* One observation lands in the (0.01, 0.025] bucket; every quantile
     interpolates inside that single bucket's bounds. *)
  let q0 = Metrics.histogram_quantile single 0.0
  and q1 = Metrics.histogram_quantile single 1.0 in
  Alcotest.(check bool) "single bucket bounds" true
    (q0 >= 0.01 && q1 <= 0.025 && q0 <= q1)

(* --- SLO rules ----------------------------------------------------- *)

let rule ?(direction = Slo.At_most) ?(unit_ = "s") name source ~warn ~fail =
  {
    Slo.r_name = name;
    r_source = source;
    r_direction = direction;
    r_warn = warn;
    r_fail = fail;
    r_unit = unit_;
  }

let verdict_of dump r =
  match Slo.evaluate dump [ r ] with
  | [ res ] -> res.Slo.res_verdict
  | _ -> Alcotest.fail "one rule, one result"

let test_slo_verdict_boundaries () =
  let v x = empty_dump [ ("v", Printf.sprintf "%g" x) ] in
  let at_most = rule "m" (Slo.Meta_s "v") ~warn:1.0 ~fail:2.0 in
  Alcotest.(check string) "at warn is still a pass" "PASS"
    (Slo.verdict_string (verdict_of (v 1.0) at_most));
  Alcotest.(check string) "between warn and fail" "WARN"
    (Slo.verdict_string (verdict_of (v 1.5) at_most));
  Alcotest.(check string) "past fail" "FAIL"
    (Slo.verdict_string (verdict_of (v 2.5) at_most));
  let at_least =
    rule ~direction:Slo.At_least "l" (Slo.Meta_s "v") ~warn:0.97 ~fail:0.9
  in
  Alcotest.(check string) "healthy ratio" "PASS"
    (Slo.verdict_string (verdict_of (v 0.99) at_least));
  Alcotest.(check string) "sagging ratio" "WARN"
    (Slo.verdict_string (verdict_of (v 0.95) at_least));
  Alcotest.(check string) "collapsed ratio" "FAIL"
    (Slo.verdict_string (verdict_of (v 0.5) at_least));
  Alcotest.(check string) "missing value fails, never passes vacuously"
    "FAIL"
    (Slo.verdict_string (verdict_of (empty_dump []) at_most))

let test_slo_burn_rate () =
  let err i = ev ~us:(i * 50) ~component:"c" ~kind:"err" "x" in
  let ok i = ev ~us:(i * 10) ~component:"c" ~kind:"ok" "x" in
  let dump errs oks =
    {
      (empty_dump []) with
      Ingest.events = List.init errs err @ List.init oks ok;
    }
  in
  let burn d =
    Slo.measure d
      (Slo.Burn_rate
         {
           errors = { Slo.m_component = Some "c"; m_kind = Some "err" };
           total = { Slo.m_component = None; m_kind = None };
           objective = 0.9;
           window_us = 1000;
         })
  in
  Alcotest.(check (option (float 1e-9)))
    "all-error window burns 1/(1-objective)" (Some 10.)
    (burn (dump 3 0));
  Alcotest.(check (option (float 1e-9)))
    "3 errors in 10 events at 90% objective" (Some 3.)
    (burn (dump 3 7));
  Alcotest.check_raises "objective must be < 1"
    (Invalid_argument "Slo: burn-rate objective outside [0,1)") (fun () ->
      ignore
        (Slo.measure (empty_dump [])
           (Slo.Burn_rate
              {
                errors = { Slo.m_component = None; m_kind = None };
                total = { Slo.m_component = None; m_kind = None };
                objective = 1.0;
                window_us = 1000;
              })))

(* --- Baseline ------------------------------------------------------ *)

let indicator ?(lower = true) name value =
  {
    Baseline.i_name = name;
    i_value = value;
    i_unit = "s";
    i_lower_is_better = lower;
  }

let test_baseline_roundtrip () =
  let run =
    {
      Baseline.run_label = "seed-42";
      indicators =
        [ indicator "e1b.configure_max_s" 16.207; indicator "zz" 1.0 ];
    }
  in
  let json = Baseline.to_json run in
  let back = Baseline.of_json json in
  Alcotest.(check string) "label survives" "seed-42" back.Baseline.run_label;
  Alcotest.(check string) "re-serialization byte-identical" json
    (Baseline.to_json back);
  let path = Filename.temp_file "rfauto-test-baseline" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Baseline.save path run;
      Alcotest.(check string)
        "save/load byte-identical" json
        (Baseline.to_json (Baseline.load path)));
  Alcotest.check_raises "wrong schema rejected"
    (Baseline.Malformed "baseline: unknown schema \"other\"") (fun () ->
      ignore (Baseline.of_json "{\"schema\":\"other\",\"label\":\"x\"}"))

let test_baseline_regression_detection () =
  let base =
    {
      Baseline.run_label = "base";
      indicators =
        [
          indicator "configure_s" 16.2;
          indicator ~lower:false "delivery" 0.98;
          indicator "gone_s" 1.0;
        ];
    }
  in
  let current =
    {
      Baseline.run_label = "current";
      indicators =
        [
          indicator "configure_s" 32.4;
          (* 2x slowdown: regression *)
          indicator ~lower:false "delivery" 0.985;
          indicator "new_s" 3.0;
        ];
    }
  in
  let entries = Baseline.diff ~base ~current () in
  let status name =
    match
      List.find_opt (fun (e : Baseline.entry) -> e.e_name = name) entries
    with
    | Some e -> Baseline.status_string e.Baseline.e_status
    | None -> "missing"
  in
  Alcotest.(check string) "2x slowdown flagged" "REGRESSED"
    (status "configure_s");
  Alcotest.(check string) "better delivery is fine" "ok"
    (status "delivery");
  Alcotest.(check string) "dropped indicator" "removed" (status "gone_s");
  Alcotest.(check string) "new indicator" "added" (status "new_s");
  Alcotest.(check bool) "regression reported" true
    (Baseline.has_regression entries);
  let same = Baseline.diff ~base ~current:base () in
  Alcotest.(check bool) "identical run passes" false
    (Baseline.has_regression same);
  let improved =
    Baseline.diff ~base
      ~current:
        {
          Baseline.run_label = "fast";
          indicators =
            [
              indicator "configure_s" 8.0;
              indicator ~lower:false "delivery" 0.98;
              indicator "gone_s" 1.0;
            ];
        }
      ()
  in
  Alcotest.(check bool) "improvement is not a regression" false
    (Baseline.has_regression improved)

(* --- Ingest round trip --------------------------------------------- *)

let test_ingest_roundtrip_matches_live () =
  let clock = ref 0 in
  let tr = Tracer.create ~clock:(fun () -> !clock) () in
  let root = Tracer.span_start tr ~attrs:[ ("dpid", "9") ] "sw.configure" in
  clock := 100;
  let child = Tracer.span_start tr ~parent:root "phase.rpc" in
  Tracer.event tr ~span:child ~component:"rpc-client" ~kind:"sent" "f1";
  clock := 400;
  Tracer.event tr ~component:"rpc-client" ~kind:"acked" "f1";
  Tracer.span_end tr child;
  clock := 900;
  Tracer.span_end tr root;
  (* An audited run that could not probe one class says so in meta. *)
  let meta = [ ("seed", "7"); ("audit_dropped", "1") ] in
  let live = Ingest.of_tracer ~meta tr in
  let replayed = Ingest.load_string (Export.jsonl ~meta tr) in
  Alcotest.(check bool) "replayed dump equals live dump" true
    (live = replayed);
  Alcotest.(check int) "dropped_records counts the audit drop" 1
    (Ingest.dropped_records replayed);
  Alcotest.(check int) "no audit key, no drops" 0
    (Ingest.dropped_records (Ingest.of_tracer tr));
  let completeness =
    rule ~unit_:"records" "dropped" Slo.Dropped_records ~warn:0. ~fail:0.
  in
  Alcotest.(check string) "completeness rule fails on drops" "FAIL"
    (Slo.verdict_string (verdict_of replayed completeness))

(* --- End-to-end experiment scorecards ------------------------------ *)

let test_scorecards_pass_and_deterministic () =
  let slo_of label =
    List.find_map
      (fun (e : Rf_core.Registry.t) ->
        match e.slo with
        | Some s when s.label = label -> Some (e, s)
        | Some _ | None -> None)
      Rf_core.Registry.all
    |> Option.get
  in
  let card (s : Rf_core.Registry.slo) dump =
    Format.asprintf "%a" Analysis.scorecard (Slo.evaluate dump s.rules)
  in
  (* Every experiment's seed-42 pinned run passes its calibrated rule
     set. *)
  List.iter
    (fun label ->
      let e, s = slo_of label in
      let dump = Rf_core.Registry.reference_dump e in
      Alcotest.(check string)
        (label ^ " all green")
        "PASS"
        (Slo.verdict_string (Slo.worst (Slo.evaluate dump s.rules)));
      (* The flamegraph invariant holds on real telemetry too. *)
      let forest = Analysis.forest dump in
      let roots_total =
        List.fold_left
          (fun acc (n : Critical_path.node) -> acc + n.n_total_us)
          0 forest
      in
      Alcotest.(check int)
        (label ^ " folded total = root durations")
        roots_total
        (Flamegraph.total (Flamegraph.folded forest)))
    [ "e1b"; "e6" ];
  (* Same seed, byte-identical verdicts — the E7 CI fingerprint
     property. *)
  let e3, s3 = slo_of "e3" in
  let a = Rf_core.Registry.reference_dump e3 in
  let b = Rf_core.Registry.reference_dump e3 in
  Alcotest.(check string)
    "same-seed scorecards byte-identical" (card s3 a) (card s3 b);
  match Analysis.configure_path a with
  | Some (head :: _) ->
      Alcotest.(check string)
        "critical path roots at the configure span" "sw.configure"
        head.Critical_path.cp_name
  | Some [] | None -> Alcotest.fail "no configure critical path"

let suite =
  [
    Alcotest.test_case "critical path of a known tree" `Quick
      test_critical_path_known_tree;
    QCheck_alcotest.to_alcotest prop_critical_path_chain;
    QCheck_alcotest.to_alcotest prop_self_times_partition;
    Alcotest.test_case "flamegraph partitions overlapping siblings" `Quick
      test_flamegraph_overlap_partition;
    Alcotest.test_case "folded parser rejects malformed lines" `Quick
      test_flamegraph_parse_malformed;
    Alcotest.test_case "d3 flamegraph json shape" `Quick
      test_flamegraph_d3_json;
    QCheck_alcotest.to_alcotest prop_folded_total_exact;
    QCheck_alcotest.to_alcotest prop_folded_roundtrip;
    Alcotest.test_case "sliding windows aggregate and validate" `Quick
      test_sliding_windows;
    QCheck_alcotest.to_alcotest prop_sliding_reorder_invariant;
    Alcotest.test_case "histogram quantile interpolation" `Quick
      test_histogram_quantile;
    Alcotest.test_case "slo verdict boundaries" `Quick
      test_slo_verdict_boundaries;
    Alcotest.test_case "slo burn rate windows" `Quick test_slo_burn_rate;
    Alcotest.test_case "baseline json round trip" `Quick
      test_baseline_roundtrip;
    Alcotest.test_case "baseline flags a 2x slowdown" `Quick
      test_baseline_regression_detection;
    Alcotest.test_case "ingest round trip matches the live tracer" `Quick
      test_ingest_roundtrip_matches_live;
    Alcotest.test_case "experiment scorecards pass and are deterministic"
      `Slow test_scorecards_pass_and_deterministic;
  ]
