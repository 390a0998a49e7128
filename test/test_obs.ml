(* Tests for the telemetry layer: the metrics registry, the span
   tracer, the exporters, and the span tree a full configuration run
   leaves behind. *)

module Metrics = Rf_obs.Metrics
module Tracer = Rf_obs.Tracer
module Phase = Rf_obs.Phase
module Export = Rf_obs.Export
module Scenario = Rf_core.Scenario
module Experiment = Rf_core.Experiment
module Engine = Rf_sim.Engine
module Vtime = Rf_sim.Vtime

(* --- Metrics ------------------------------------------------------- *)

let test_metrics_counter_identity () =
  let m = Metrics.create () in
  let a = Metrics.counter m ~labels:[ ("slice", "x") ] "msgs_total" in
  let b = Metrics.counter m ~labels:[ ("slice", "y") ] "msgs_total" in
  let a' = Metrics.counter m ~labels:[ ("slice", "x") ] "msgs_total" in
  Metrics.incr a;
  Metrics.incr ~by:4 a';
  Metrics.incr b;
  Alcotest.(check int) "labelled series share" 5 (Metrics.counter_value a);
  Alcotest.(check int) "other labels distinct" 1 (Metrics.counter_value b)

let test_metrics_kind_mismatch () =
  let m = Metrics.create () in
  ignore (Metrics.counter m "thing");
  Alcotest.check_raises "kind clash"
    (Invalid_argument "Metrics: thing is a counter, not a gauge") (fun () ->
      ignore (Metrics.gauge m "thing"))

let test_metrics_histogram () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "latency_seconds" in
  List.iter (Metrics.observe h) [ 0.003; 0.003; 0.4; 9999.0 ];
  Alcotest.(check int) "observations" 4 (Metrics.observations h);
  Alcotest.(check (float 1e-6)) "sum" 9999.406 (Metrics.observation_sum h);
  let text = Metrics.to_prometheus m in
  Alcotest.(check bool)
    "cumulative bucket" true
    (Astring_contains.contains text
       "latency_seconds_bucket{le=\"0.005\"} 2");
  Alcotest.(check bool)
    "+Inf bucket counts all" true
    (Astring_contains.contains text "latency_seconds_bucket{le=\"+Inf\"} 4");
  Alcotest.(check bool)
    "count line" true
    (Astring_contains.contains text "latency_seconds_count 4")

let test_prometheus_deterministic () =
  (* The exposition is sorted, so registration order must not show. *)
  let build order =
    let m = Metrics.create () in
    List.iter
      (fun (name, labels) -> Metrics.incr (Metrics.counter m ~labels name))
      order;
    Metrics.to_prometheus m
  in
  let a =
    build [ ("zz_total", []); ("aa_total", [ ("x", "1") ]); ("aa_total", []) ]
  in
  let b =
    build [ ("aa_total", []); ("aa_total", [ ("x", "1") ]); ("zz_total", []) ]
  in
  Alcotest.(check string) "order-independent" a b

(* --- Exposition escaping ------------------------------------------- *)

(* Small exposition parser for the roundtrip property: splits a sample
   line into name and unescaped labels. Raw newlines in label values
   are escaped by the renderer, so splitting the exposition on '\n'
   is safe — that is exactly what the property demonstrates. *)
let parse_sample line =
  match String.index_opt line '{' with
  | None -> (
      match String.index_opt line ' ' with
      | Some i -> Some (String.sub line 0 i, [])
      | None -> None)
  | Some b ->
      let name = String.sub line 0 b in
      let n = String.length line in
      let buf = Buffer.create 16 in
      let labels = ref [] in
      let i = ref (b + 1) in
      let rec read_pairs () =
        if !i < n && line.[!i] <> '}' then begin
          let k0 = !i in
          while line.[!i] <> '=' do
            incr i
          done;
          let key = String.sub line k0 (!i - k0) in
          i := !i + 2;
          Buffer.clear buf;
          let rec value () =
            match line.[!i] with
            | '\\' ->
                (match line.[!i + 1] with
                | 'n' -> Buffer.add_char buf '\n'
                | c -> Buffer.add_char buf c);
                i := !i + 2;
                value ()
            | '"' -> incr i
            | c ->
                Buffer.add_char buf c;
                incr i;
                value ()
          in
          value ();
          labels := (key, Buffer.contents buf) :: !labels;
          if line.[!i] = ',' then begin
            incr i;
            read_pairs ()
          end
        end
      in
      read_pairs ();
      Some (name, List.rev !labels)

let test_prometheus_escaping () =
  let m = Metrics.create () in
  Metrics.incr
    (Metrics.counter m ~help:"line1\nline2 \\ back"
       ~labels:[ ("path", "a\\b\"c\nd") ]
       "esc_total");
  let text = Metrics.to_prometheus m in
  Alcotest.(check bool)
    "help escapes newline and backslash" true
    (Astring_contains.contains text
       "# HELP esc_total line1\\nline2 \\\\ back");
  Alcotest.(check bool)
    "label value escapes quote, backslash, newline" true
    (Astring_contains.contains text
       "esc_total{path=\"a\\\\b\\\"c\\nd\"} 1")

let test_prometheus_type_for_every_family () =
  let m = Metrics.create () in
  (* No help text anywhere: TYPE lines must still appear. *)
  Metrics.incr (Metrics.counter m "c_total");
  Metrics.set (Metrics.gauge m "g_now") 1.5;
  Metrics.observe (Metrics.histogram m "h_seconds") 0.01;
  let text = Metrics.to_prometheus m in
  List.iter
    (fun want ->
      Alcotest.(check bool) want true (Astring_contains.contains text want))
    [
      "# TYPE c_total counter";
      "# TYPE g_now gauge";
      "# TYPE h_seconds histogram";
    ]

let prop_prometheus_label_roundtrip =
  QCheck.Test.make
    ~name:"prometheus label values roundtrip through escaping" ~count:200
    QCheck.(
      string_gen_of_size
        (Gen.int_range 0 24)
        (Gen.oneofl
           [ 'a'; 'z'; '0'; '"'; '\\'; '\n'; ' '; '{'; '}'; ','; '=' ]))
    (fun v ->
      let m = Metrics.create () in
      Metrics.incr (Metrics.counter m ~labels:[ ("v", v) ] "round_total");
      let text = Metrics.to_prometheus m in
      let sample =
        List.find_opt
          (fun l ->
            String.length l > 0 && l.[0] <> '#'
            && String.length l >= 11
            && String.sub l 0 11 = "round_total")
          (String.split_on_char '\n' text)
      in
      match sample with
      | None -> false
      | Some line -> parse_sample line = Some ("round_total", [ ("v", v) ]))

(* --- Tracer -------------------------------------------------------- *)

let test_tracer_spans () =
  let clock = ref 0 in
  let tr = Tracer.create ~clock:(fun () -> !clock) () in
  let root = Tracer.span_start tr "root" in
  clock := 5;
  let child = Tracer.span_start tr ~parent:root "child" in
  clock := 9;
  Tracer.span_end tr child;
  Tracer.span_end tr child;
  (* idempotent *)
  clock := 12;
  Tracer.span_end tr ~attrs:[ ("status", "ok") ] root;
  (match Tracer.find_span tr child with
  | Some sp ->
      Alcotest.(check int) "child start" 5 sp.Tracer.start_us;
      Alcotest.(check (option int)) "child end" (Some 9) sp.Tracer.end_us;
      Alcotest.(check (option int)) "parent link" (Some root) sp.Tracer.parent
  | None -> Alcotest.fail "child span lost");
  match Tracer.find_span tr root with
  | Some sp ->
      Alcotest.(check (option int)) "root end" (Some 12) sp.Tracer.end_us;
      Alcotest.(check (option string))
        "end attrs" (Some "ok")
        (List.assoc_opt "status" sp.Tracer.attrs)
  | None -> Alcotest.fail "root span lost"

let test_tracer_correlation () =
  let tr = Tracer.create () in
  let sp = Tracer.span_start tr "phase" in
  Tracer.correlate tr ~key:8 sp;
  Alcotest.(check (option int)) "correlated" (Some sp)
    (Tracer.correlated tr ~key:8);
  Alcotest.(check (option int)) "other key" None (Tracer.correlated tr ~key:9);
  Alcotest.(check (option int)) "take" (Some sp) (Tracer.take tr ~key:8);
  Alcotest.(check (option int)) "take removes" None (Tracer.take tr ~key:8)

let test_phase_tree () =
  let clock = ref 0 in
  let tr = Tracer.create ~clock:(fun () -> !clock) () in
  let span id =
    match Tracer.find_span tr id with
    | Some sp -> sp
    | None -> Alcotest.fail "span lost"
  in
  let open_id phase dpid =
    match Phase.current tr phase dpid with
    | Some id -> id
    | None -> Alcotest.failf "no open %s" (Phase.name phase)
  in
  (* A phase with no open Configure has no parent. *)
  Phase.start tr Phase.Rpc 7L;
  Alcotest.(check (option int)) "orphan phase" None
    (span (open_id Phase.Rpc 7L)).Tracer.parent;
  Phase.start tr Phase.Configure 1L;
  Phase.start tr Phase.Configure 2L;
  let cfg1 = open_id Phase.Configure 1L and cfg2 = open_id Phase.Configure 2L in
  Alcotest.(check (option string)) "configure carries its dpid" (Some "1")
    (List.assoc_opt "dpid" (span cfg1).Tracer.attrs);
  Phase.start tr Phase.Discovery 1L;
  Phase.start tr Phase.Discovery 2L;
  Phase.start tr Phase.Vm 1L;
  let disc1 = open_id Phase.Discovery 1L and vm1 = open_id Phase.Vm 1L in
  Alcotest.(check (option int)) "under its switch's configure" (Some cfg1)
    (span disc1).Tracer.parent;
  Alcotest.(check (option int)) "keys are per dpid" (Some cfg2)
    (span (open_id Phase.Discovery 2L)).Tracer.parent;
  Alcotest.(check string)
    "span name" "phase.discovery" (span disc1).Tracer.name;
  clock := 2_500_000;
  Alcotest.(check (option (float 1e-9))) "finish returns the open time"
    (Some 2.5) (Phase.finish tr Phase.Discovery 1L);
  Alcotest.(check (option int)) "closed at the clock" (Some 2_500_000)
    (span disc1).Tracer.end_us;
  Alcotest.(check (option (float 1e-9))) "closes once" None
    (Phase.finish tr Phase.Discovery 1L);
  Alcotest.(check (option int)) "no longer current" None
    (Phase.current tr Phase.Discovery 1L);
  clock := 3_000_000;
  Phase.abort tr 1L;
  let status id = List.assoc_opt "status" (span id).Tracer.attrs in
  Alcotest.(check (option string)) "open phase aborted" (Some "aborted")
    (status vm1);
  Alcotest.(check (option string)) "configure aborted" (Some "aborted")
    (status cfg1);
  Alcotest.(check (option int)) "aborted at the clock" (Some 3_000_000)
    (span vm1).Tracer.end_us;
  Alcotest.(check (option string)) "finished phase untouched" None
    (status disc1);
  Alcotest.(check (option int)) "other switch still open" None
    (span cfg2).Tracer.end_us

(* --- Export -------------------------------------------------------- *)

let test_json_escape () =
  Alcotest.(check string)
    "quotes and control" "a\\\"b\\\\c\\n\\u0007"
    (Export.json_escape "a\"b\\c\n\007")

let test_jsonl_shape () =
  let clock = ref 0 in
  let tr = Tracer.create ~clock:(fun () -> !clock) () in
  let sp = Tracer.span_start tr ~attrs:[ ("dpid", "3") ] "sw.configure" in
  clock := 1500;
  Tracer.event tr ~span:sp ~component:"c" ~kind:"k" "hello \"world\"";
  Tracer.span_end tr sp;
  let lines =
    String.split_on_char '\n'
      (String.trim (Export.jsonl ~meta:[ ("seed", "7") ] tr))
  in
  match lines with
  | [ meta; span; event ] ->
      Alcotest.(check string)
        "meta line" "{\"type\":\"meta\",\"seed\":\"7\"}" meta;
      Alcotest.(check bool)
        "span line" true
        (Astring_contains.contains span "\"name\":\"sw.configure\"");
      Alcotest.(check bool)
        "span attrs" true
        (Astring_contains.contains span "\"dpid\":\"3\"");
      Alcotest.(check bool)
        "event escape" true
        (Astring_contains.contains event "hello \\\"world\\\"")
  | _ -> Alcotest.fail "expected exactly 3 lines"

(* --- Scenario span tree -------------------------------------------- *)

let rf_params ?(parallel_boot = 1) vm_boot_s =
  {
    Rf_routeflow.Rf_system.vm_boot_time = Vtime.span_s vm_boot_s;
    parallel_boot;
    config_apply_delay = Vtime.span_ms 200;
    routing_protocol = Rf_routeflow.Rf_system.Proto_ospf;
  }

let run_ring ?(seed = 42) ?(n = 4) ?(vm_boot_s = 2.0) () =
  let options =
    { Scenario.default_options with seed; rf_params = rf_params vm_boot_s }
  in
  let s = Scenario.build ~options (Rf_net.Topo_gen.ring n) in
  Scenario.run_for s (Vtime.span_s ((vm_boot_s *. float_of_int n) +. 40.));
  s

let test_phases_sum_to_total () =
  let s = run_ring ~n:6 () in
  let b = Experiment.breakdown_of s in
  Alcotest.(check int) "all switches have a row" 6 b.Experiment.pb_switches;
  let c = b.Experiment.pb_critical in
  let phase_sum =
    c.Experiment.ph_discovery_s +. c.Experiment.ph_rpc_s
    +. c.Experiment.ph_vm_s +. c.Experiment.ph_quagga_s
  in
  (* Phases overlap only by the 1 ms RPC ack latency, so they must sum
     to the configure span within rounding. *)
  Alcotest.(check bool)
    "phases decompose the configure span" true
    (Float.abs (phase_sum -. c.Experiment.ph_config_s) < 0.05);
  (match (b.Experiment.pb_all_green_s, b.Experiment.pb_converged_s) with
  | Some green, Some conv -> (
      Alcotest.(check bool)
        "critical configure bounds all-green" true
        (c.Experiment.ph_config_s +. 0.05 >= green);
      match b.Experiment.pb_convergence_tail_s with
      | Some tail ->
          (* The convergence span starts at all-green and ends when
             every RIB is full, so green + tail is the end-to-end
             number exactly. *)
          Alcotest.(check (float 1e-6)) "tail closes the gap" conv
            (green +. tail)
      | None -> Alcotest.fail "no convergence span")
  | _ -> Alcotest.fail "run did not configure/converge");
  Alcotest.(check int) "trace events counted" b.Experiment.pb_trace_events
    (Tracer.event_count (Engine.tracer (Scenario.engine s)))

let test_rpc_metrics_populated () =
  let s = run_ring () in
  let m = Engine.metrics (Scenario.engine s) in
  let v name = Metrics.counter_value (Metrics.counter m name) in
  Alcotest.(check bool) "frames sent" true (v "rpc_client_sent_total" > 0);
  Alcotest.(check int) "switches reported" 4 (v "autoconf_switches_total");
  Alcotest.(check int) "vms booted" 4 (v "vm_boots_total");
  Alcotest.(check bool) "spf ran" true (v "ospf_spf_runs_total" > 0);
  let h = Metrics.histogram m "rpc_delivery_seconds" in
  Alcotest.(check bool) "deliveries observed" true
    (Metrics.observations h >= 4)

let test_telemetry_deterministic () =
  let a = Scenario.telemetry_jsonl (run_ring ()) in
  let b = Scenario.telemetry_jsonl (run_ring ()) in
  Alcotest.(check bool) "same seed, byte-identical" true (String.equal a b);
  Alcotest.(check bool) "non-trivial" true (String.length a > 500)

(* Every span's parent exists; children start no earlier than their
   parent and, when both closed, end no later. Fault plans crash
   switches mid-configuration, so aborted spans are covered too. *)
let prop_span_tree_integrity =
  QCheck.Test.make ~name:"span tree integrity across seeds" ~count:8
    QCheck.(int_bound 1000)
    (fun seed ->
      let faults =
        if seed mod 2 = 0 then
          Rf_sim.Faults.(
            plan [ switch_crash ~at_s:3.0 2L; switch_recover ~at_s:10.0 2L ])
        else Rf_sim.Faults.empty
      in
      let options =
        {
          Scenario.default_options with
          seed;
          rf_params = rf_params ~parallel_boot:2 2.0;
          faults;
        }
      in
      let s = Scenario.build ~options (Rf_net.Topo_gen.ring 4) in
      Scenario.run_for s (Vtime.span_s 40.);
      let tr = Engine.tracer (Scenario.engine s) in
      let spans = Tracer.spans tr in
      List.for_all
        (fun (sp : Tracer.span) ->
          match sp.Tracer.parent with
          | None -> true
          | Some pid -> (
              match Tracer.find_span tr pid with
              | None -> false
              | Some parent -> (
                  sp.Tracer.start_us >= parent.Tracer.start_us
                  &&
                  match (sp.Tracer.end_us, parent.Tracer.end_us) with
                  | Some ce, Some pe -> ce <= pe
                  | Some _, None | None, _ -> true)))
        spans
      && List.for_all
           (fun (ev : Tracer.event) ->
             match ev.Tracer.span with
             | None -> true
             | Some id -> Tracer.find_span tr id <> None)
           (Tracer.events tr))

let suite =
  [
    Alcotest.test_case "metrics counter identity by (name, labels)" `Quick
      test_metrics_counter_identity;
    Alcotest.test_case "metrics kind mismatch rejected" `Quick
      test_metrics_kind_mismatch;
    Alcotest.test_case "metrics histogram buckets" `Quick
      test_metrics_histogram;
    Alcotest.test_case "prometheus exposition is order-independent" `Quick
      test_prometheus_deterministic;
    Alcotest.test_case "prometheus escaping" `Quick test_prometheus_escaping;
    Alcotest.test_case "prometheus TYPE for every family" `Quick
      test_prometheus_type_for_every_family;
    QCheck_alcotest.to_alcotest prop_prometheus_label_roundtrip;
    Alcotest.test_case "tracer span lifecycle" `Quick test_tracer_spans;
    Alcotest.test_case "tracer correlation keys" `Quick
      test_tracer_correlation;
    Alcotest.test_case "phase span tree per switch" `Quick test_phase_tree;
    Alcotest.test_case "json escaping" `Quick test_json_escape;
    Alcotest.test_case "jsonl export shape" `Quick test_jsonl_shape;
    Alcotest.test_case "phases decompose configuration time" `Quick
      test_phases_sum_to_total;
    Alcotest.test_case "pipeline metrics populated" `Quick
      test_rpc_metrics_populated;
    Alcotest.test_case "telemetry is deterministic" `Quick
      test_telemetry_deterministic;
    QCheck_alcotest.to_alcotest prop_span_tree_integrity;
  ]
