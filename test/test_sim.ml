(* Unit and property tests for the simulation engine substrate. *)

module Vtime = Rf_sim.Vtime
module Event_heap = Rf_sim.Event_heap
module Engine = Rf_sim.Engine
module Rng = Rf_sim.Rng
module Stats = Rf_sim.Stats
module Tracer = Rf_obs.Tracer

(* --- Vtime --------------------------------------------------------- *)

let test_vtime_arithmetic () =
  let t = Vtime.add Vtime.zero (Vtime.span_s 1.5) in
  Alcotest.(check (float 1e-9)) "to_s" 1.5 (Vtime.to_s t);
  let t2 = Vtime.add t (Vtime.span_ms 250) in
  Alcotest.(check (float 1e-9)) "add ms" 1.75 (Vtime.to_s t2);
  Alcotest.(check (float 1e-9))
    "diff" 0.25
    (Vtime.span_to_s (Vtime.diff t2 t));
  Alcotest.(check bool) "lt" true Vtime.(t < t2);
  Alcotest.(check bool) "le refl" true Vtime.(t <= t)

let test_vtime_span_ops () =
  Alcotest.(check (float 1e-9))
    "span_min" 120.
    (Vtime.span_to_s (Vtime.span_min 2.));
  Alcotest.(check (float 1e-9))
    "span_add" 3.
    (Vtime.span_to_s (Vtime.span_add (Vtime.span_s 1.) (Vtime.span_s 2.)));
  Alcotest.(check (float 1e-6))
    "span_scale" 0.5
    (Vtime.span_to_s (Vtime.span_scale 0.25 (Vtime.span_s 2.)));
  Alcotest.(check bool) "negative" true
    (Vtime.span_is_negative (Vtime.span_s (-1.)));
  Alcotest.(check string) "pp" "01:05.250"
    (Format.asprintf "%a" Vtime.pp (Vtime.of_s 65.25))

(* --- Event_heap ----------------------------------------------------- *)

let test_heap_ordering () =
  let h = Event_heap.create 0 in
  let times = [ 5.0; 1.0; 3.0; 2.0; 4.0 ] in
  List.iteri (fun i s -> Event_heap.push h (Vtime.of_s s) i) times;
  let order = ref [] in
  let rec drain () =
    match Event_heap.pop h with
    | Some (t, _) ->
        order := Vtime.to_s t :: !order;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list (float 1e-9)))
    "sorted" [ 1.0; 2.0; 3.0; 4.0; 5.0 ]
    (List.rev !order)

let test_heap_fifo_ties () =
  let h = Event_heap.create 0 in
  let t = Vtime.of_s 1.0 in
  for i = 0 to 9 do
    Event_heap.push h t i
  done;
  let out = ref [] in
  let rec drain () =
    match Event_heap.pop h with
    | Some (_, v) ->
        out := v :: !out;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int)) "FIFO within equal times"
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.rev !out)

let test_heap_grows () =
  let h = Event_heap.create 0 in
  for i = 0 to 999 do
    Event_heap.push h (Vtime.of_s (float_of_int (999 - i))) i
  done;
  Alcotest.(check int) "size" 1000 (Event_heap.size h);
  (match Event_heap.peek_time h with
  | Some t -> Alcotest.(check (float 1e-9)) "peek min" 0.0 (Vtime.to_s t)
  | None -> Alcotest.fail "empty");
  Event_heap.clear h;
  Alcotest.(check bool) "cleared" true (Event_heap.is_empty h)

let prop_heap_sorted =
  QCheck.Test.make ~name:"event_heap pops in nondecreasing time order"
    ~count:200
    QCheck.(list (float_range 0. 1e6))
    (fun times ->
      let h = Event_heap.create 0 in
      List.iteri (fun i s -> Event_heap.push h (Vtime.of_s s) i) times;
      let rec drain last acc =
        match Event_heap.pop h with
        | None -> acc
        | Some (t, _) ->
            let ok = Vtime.compare last t <= 0 in
            drain t (acc && ok)
      in
      drain Vtime.zero true)

(* Model: a set of (time, insertion index) pairs, whose minimum is the
   event the heap must pop next. Times come from a small range, so
   most pops break a tie on insertion order, and pushes outnumber pops
   three to one, so the heap grows from 64 slots past 256. *)
module Key_set = Set.Make (struct
  type t = int * int

  let compare = compare
end)

type heap_op = Push of int | Pop

let prop_heap_matches_model =
  let op =
    QCheck.Gen.(
      frequency [ (3, map (fun t -> Push t) (int_bound 15)); (1, return Pop) ])
  in
  let print = function Push t -> Printf.sprintf "push %d" t | Pop -> "pop" in
  QCheck.Test.make
    ~name:"event_heap equals a sorted-list model under interleaved push/pop"
    ~count:100
    QCheck.(
      make
        ~print:(fun ops -> String.concat "; " (List.map print ops))
        Gen.(list_size (int_range 1000 1400) op))
    (fun ops ->
      let h = Event_heap.create (-1) in
      let step (model, next) = function
        | Push t ->
            Event_heap.push h (Vtime.of_us t) next;
            (Key_set.add (t, next) model, next + 1)
        | Pop -> (
            match Key_set.min_elt_opt model with
            | None ->
                if Event_heap.pop h <> None then
                  QCheck.Test.fail_report "pop from empty heap returned a value";
                (model, next)
            | Some ((t, v) as k) ->
                let ht = Vtime.to_us (Event_heap.min_time h) in
                let hv = Event_heap.pop_min h in
                if ht <> t || hv <> v then
                  QCheck.Test.fail_reportf "popped (%d, %d), model says (%d, %d)"
                    ht hv t v;
                (Key_set.remove k model, next))
      in
      let model, _ = List.fold_left step (Key_set.empty, 0) ops in
      let rest = List.map snd (Key_set.elements model) in
      let drained = List.init (Event_heap.size h) (fun _ -> Event_heap.pop_min h) in
      Event_heap.peak h > 300 && Event_heap.is_empty h && drained = rest)

(* Once the arrays have grown, push and pop_min only move ints and the
   stored values around: no per-operation allocation. *)
let test_heap_steady_state_zero_alloc () =
  let h = Event_heap.create 0 in
  let rng = Rng.create 11 in
  for i = 0 to 999 do
    Event_heap.push h (Vtime.of_us (Rng.int rng 1_000_000)) i
  done;
  let before = Gc.minor_words () in
  for i = 1 to 5_000 do
    let t = Vtime.to_us (Event_heap.min_time h) in
    Event_heap.push h (Vtime.of_us (t + (i land 1023))) i;
    ignore (Event_heap.pop_min h)
  done;
  let delta = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "10,000 push/pop_min allocated %.0f minor words" delta)
    true (delta < 16.)

(* A popped or cleared value must not stay reachable from the heap's
   arrays: the vacated slots hold the filler instead. *)
let test_heap_releases_values () =
  let n = 100 in
  let weak = Weak.create n in
  let filler = ref (-1) in
  let fill h =
    for i = 0 to n - 1 do
      (* Allocated here and reachable only through the heap and [weak]. *)
      let v = ref i in
      Weak.set weak i (Some v);
      Event_heap.push h (Vtime.of_us (n - i)) v
    done
  in
  let live () =
    Gc.full_major ();
    List.length (List.filter (Weak.check weak) (List.init n Fun.id))
  in
  let h = Event_heap.create filler in
  fill h;
  Alcotest.(check int) "queued values are live" n (live ());
  for _ = 1 to n do
    ignore (Event_heap.pop_min h)
  done;
  Alcotest.(check int) "popped values are collected" 0 (live ());
  fill h;
  Event_heap.clear h;
  Alcotest.(check int) "cleared values are collected" 0 (live ());
  (* [h] stays reachable through the checks above. *)
  Alcotest.(check bool) "cleared" true (Event_heap.is_empty h)

(* --- Engine ---------------------------------------------------------- *)

let test_engine_schedule_order () =
  let e = Engine.create () in
  let log = ref [] in
  ignore (Engine.schedule e (Vtime.span_s 2.0) (fun () -> log := 2 :: !log));
  ignore (Engine.schedule e (Vtime.span_s 1.0) (fun () -> log := 1 :: !log));
  ignore (Engine.schedule e (Vtime.span_s 3.0) (fun () -> log := 3 :: !log));
  Alcotest.(check bool) "quiescent" true (Engine.run e = Engine.Quiescent);
  Alcotest.(check (list int)) "order" [ 1; 2; 3 ] (List.rev !log);
  Alcotest.(check (float 1e-9)) "clock at last event" 3.0 (Vtime.to_s (Engine.now e))

let test_engine_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let timer = Engine.schedule e (Vtime.span_s 1.0) (fun () -> fired := true) in
  Engine.cancel timer;
  ignore (Engine.run e);
  Alcotest.(check bool) "cancelled timer silent" false !fired

let test_engine_periodic () =
  let e = Engine.create () in
  let count = ref 0 in
  let timer = Engine.periodic e (Vtime.span_s 1.0) (fun () -> incr count) in
  ignore (Engine.run ~until:(Vtime.of_s 5.5) e);
  Engine.cancel timer;
  ignore (Engine.run ~until:(Vtime.of_s 10.0) e);
  Alcotest.(check int) "five ticks then stop" 5 !count

(* A periodic timer re-pushes one inner timer per handle, so once the
   heap's arrays have grown a firing allocates nothing. After [cancel]
   the pending firing still runs, and counts, as a no-op; then the
   chain ends. *)
let test_periodic_rearm_allocates_nothing () =
  let e = Engine.create () in
  let timer = Engine.periodic e (Vtime.span_ms 1) ignore in
  ignore (Engine.run ~until:(Vtime.of_s 0.1) e);
  let fired = Engine.events_executed e in
  let before = Gc.minor_words () in
  ignore (Engine.run ~until:(Vtime.of_s 10.1) e);
  let delta = Gc.minor_words () -. before in
  Alcotest.(check int) "10,000 firings" 10_000 (Engine.events_executed e - fired);
  Alcotest.(check bool)
    (Printf.sprintf "10,000 periodic firings allocated %.0f minor words" delta)
    true (delta < 64.);
  Engine.cancel timer;
  let fired = Engine.events_executed e in
  ignore (Engine.run e);
  Alcotest.(check int) "the pending firing runs as a counted no-op" 1
    (Engine.events_executed e - fired)

let test_periodic_self_cancel () =
  let e = Engine.create () in
  let fired = ref 0 in
  let timer = ref None in
  timer :=
    Some
      (Engine.periodic e (Vtime.span_s 1.0) (fun () ->
           incr fired;
           if !fired = 3 then Option.iter Engine.cancel !timer));
  Alcotest.(check bool) "heap drains" true (Engine.run e = Engine.Quiescent);
  Alcotest.(check int) "three firings" 3 !fired;
  Alcotest.(check int) "three events, no trailing no-op" 3
    (Engine.events_executed e)

let test_engine_deadline () =
  let e = Engine.create () in
  ignore (Engine.schedule e (Vtime.span_s 10.0) (fun () -> ()));
  let r = Engine.run ~until:(Vtime.of_s 5.0) e in
  Alcotest.(check bool) "deadline" true (r = Engine.Deadline_reached);
  Alcotest.(check (float 1e-9)) "clock = horizon" 5.0 (Vtime.to_s (Engine.now e));
  let r2 = Engine.run ~until:(Vtime.of_s 20.0) e in
  Alcotest.(check bool) "then quiescent" true (r2 = Engine.Quiescent)

let test_engine_stop () =
  let e = Engine.create () in
  ignore (Engine.schedule e (Vtime.span_s 1.0) (fun () -> Engine.stop e));
  ignore (Engine.schedule e (Vtime.span_s 2.0) (fun () -> Alcotest.fail "ran past stop"));
  Alcotest.(check bool) "stopped" true (Engine.run e = Engine.Stopped)

let test_engine_max_events_guard () =
  let e = Engine.create () in
  (* A self-perpetuating zero-delay event chain must hit the guard
     rather than spin forever. *)
  let rec bomb () = ignore (Engine.schedule e (Vtime.span_us 1) bomb) in
  bomb ();
  (match Engine.run ~max_events:1000 e with
  | exception Failure msg ->
      Alcotest.(check bool) "guard message" true
        (Astring_contains.contains msg "max_events")
  | _ -> Alcotest.fail "runaway simulation not caught")

(* [max_events] bounds one call, not the engine's lifetime: a caller
   that runs in steps gets the whole budget on every step. *)
let test_engine_max_events_per_call () =
  let e = Engine.create () in
  let fired = ref 0 in
  for i = 1 to 600 do
    ignore (Engine.schedule e (Vtime.span_us i) (fun () -> incr fired))
  done;
  let first = Engine.run ~until:(Vtime.of_us 300) ~max_events:400 e in
  Alcotest.(check bool) "first step reaches its deadline" true
    (first = Engine.Deadline_reached);
  Alcotest.(check int) "300 events in the first step" 300 !fired;
  let second = Engine.run ~max_events:400 e in
  Alcotest.(check bool) "second step drains the queue" true
    (second = Engine.Quiescent);
  Alcotest.(check int) "all 600 events ran" 600 !fired

let test_engine_rejects_past () =
  let e = Engine.create () in
  ignore (Engine.schedule e (Vtime.span_s 1.0) (fun () -> ()));
  ignore (Engine.run e);
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Engine.schedule: negative delay") (fun () ->
      ignore (Engine.schedule e (Vtime.span_s (-1.0)) (fun () -> ())));
  Alcotest.check_raises "past absolute"
    (Invalid_argument "Engine.schedule_at: scheduling into the past") (fun () ->
      ignore (Engine.schedule_at e Vtime.zero (fun () -> ())))

let test_engine_deterministic () =
  let run () =
    let e = Engine.create ~seed:7 () in
    let log = Buffer.create 64 in
    ignore
      (Engine.periodic e ~jitter:(Vtime.span_ms 500) (Vtime.span_s 1.0)
         (fun () ->
           Buffer.add_string log
             (Printf.sprintf "%d;" (Vtime.to_us (Engine.now e)))));
    ignore (Engine.run ~until:(Vtime.of_s 10.0) e);
    Buffer.contents log
  in
  Alcotest.(check string) "same seed, same timeline" (run ()) (run ())

(* --- Rng --------------------------------------------------------------- *)

let test_rng_bounds () =
  let rng = Rng.create 1 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 17 in
    if v < 0 || v >= 17 then Alcotest.fail (Printf.sprintf "out of range: %d" v)
  done

let test_rng_determinism () =
  let a = Rng.create 99 and b = Rng.create 99 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_split_independent () =
  let parent = Rng.create 5 in
  let child = Rng.split parent in
  let xs = List.init 10 (fun _ -> Rng.int parent 1000) in
  let ys = List.init 10 (fun _ -> Rng.int child 1000) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let test_rng_shuffle_permutation () =
  let rng = Rng.create 3 in
  let arr = Array.init 50 (fun i -> i) in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 (fun i -> i)) sorted

let prop_rng_float_range =
  QCheck.Test.make ~name:"rng float stays in range" ~count:500
    QCheck.(pair small_int (float_range 0.001 1000.))
    (fun (seed, bound) ->
      let rng = Rng.create seed in
      let v = Rng.float rng bound in
      v >= 0. && v < bound)

(* --- Stats -------------------------------------------------------------- *)

let test_stats_summary () =
  let s = Stats.series () in
  List.iter (Stats.add s) [ 1.; 2.; 3.; 4.; 5. ];
  match Stats.summarize s with
  | None -> Alcotest.fail "no summary"
  | Some sum ->
      Alcotest.(check int) "count" 5 sum.Stats.count;
      Alcotest.(check (float 1e-9)) "mean" 3.0 sum.Stats.mean;
      Alcotest.(check (float 1e-9)) "p50" 3.0 sum.Stats.p50;
      Alcotest.(check (float 1e-9)) "min" 1.0 sum.Stats.min;
      Alcotest.(check (float 1e-9)) "max" 5.0 sum.Stats.max

let test_stats_empty () =
  let s = Stats.series () in
  Alcotest.(check bool) "no summary of empty" true (Stats.summarize s = None)

let test_percentile_boundaries () =
  let s = Stats.series () in
  List.iter (Stats.add s) [ 5.; 1.; 3.; 2.; 4. ];
  Alcotest.(check (float 1e-9)) "q=0 is min" 1.0 (Stats.percentile s 0.0);
  Alcotest.(check (float 1e-9)) "q=1 is max" 5.0 (Stats.percentile s 1.0);
  (* p99 of [1..5] interpolates between the last two samples: the rank
     is 0.99 * 4 = 3.96, i.e. 4 + 0.96 * (5 - 4). *)
  Alcotest.(check (float 1e-9)) "p99 interpolates" 4.96 (Stats.percentile s 0.99);
  Alcotest.(check (float 1e-9)) "p25" 2.0 (Stats.percentile s 0.25)

(* Degenerate inputs have documented values instead of raising: empty
   series -> nan, q clamped to [0,1] (NaN q reads as 0), single sample
   is every quantile of itself. *)
let test_percentile_edge_cases () =
  let s = Stats.series () in
  Alcotest.(check bool) "empty series is nan" true
    (Float.is_nan (Stats.percentile s 0.5));
  Stats.add s 1.0;
  Alcotest.(check (float 1e-9)) "q above 1 clamps" 1.0 (Stats.percentile s 1.5);
  Alcotest.(check (float 1e-9)) "q below 0 clamps" 1.0
    (Stats.percentile s (-0.1));
  Alcotest.(check (float 1e-9)) "nan q reads as 0" 1.0
    (Stats.percentile s Float.nan);
  List.iter (Stats.add s) [ 2.0; 3.0 ];
  Alcotest.(check (float 1e-9)) "clamped q=2 is max" 3.0
    (Stats.percentile s 2.0);
  Alcotest.(check (float 1e-9)) "single sample" 7.5
    (Stats.percentile_of_sorted [| 7.5 |] 0.33)

(* The list-backed series every published figure came from: samples
   newest first, a stable sort for quantiles, a newest-first sum for
   the mean. The unboxed series must agree with it bit for bit. *)
module Ref_series = struct
  let sorted samples = Array.of_list (List.sort Float.compare samples)

  let mean samples =
    match samples with
    | [] -> 0.
    | _ ->
        List.fold_left ( +. ) 0. samples /. float_of_int (List.length samples)

  let summarize samples =
    match samples with
    | [] -> None
    | _ ->
        let arr = sorted samples in
        let n = Array.length arr in
        let mean = mean samples in
        let var =
          Array.fold_left (fun acc v -> acc +. ((v -. mean) ** 2.)) 0. arr
          /. float_of_int n
        in
        Some
          {
            Stats.count = n;
            min = arr.(0);
            max = arr.(n - 1);
            mean;
            stddev = sqrt var;
            p50 = Stats.percentile_of_sorted arr 0.5;
            p90 = Stats.percentile_of_sorted arr 0.9;
            p99 = Stats.percentile_of_sorted arr 0.99;
          }
end

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_summary (a : Stats.summary) (b : Stats.summary) =
  a.count = b.count && same_bits a.min b.min && same_bits a.max b.max
  && same_bits a.mean b.mean && same_bits a.stddev b.stddev
  && same_bits a.p50 b.p50 && same_bits a.p90 b.p90 && same_bits a.p99 b.p99

let prop_stats_match_list_reference =
  let sample =
    QCheck.Gen.(
      oneof
        [
          oneofl [ 0.0; -0.0; 1.0; -1.0; 2.5; -2.5; 1e-9; 1e9 ];
          float_range (-5.) 5.;
        ])
  in
  QCheck.Test.make ~name:"stats equal the list-backed reference bit for bit"
    ~count:500
    (QCheck.make
       ~print:(fun (xs, q) ->
         Printf.sprintf "q=%h [%s]" q
           (String.concat "; " (List.map (Printf.sprintf "%h") xs)))
       QCheck.Gen.(
         pair (list_size (int_range 0 80) sample) (float_range (-0.2) 1.2)))
    (fun (xs, q) ->
      let s = Stats.series () in
      List.iter (Stats.add s) xs;
      let newest_first = List.rev xs in
      Stats.count s = List.length xs
      && same_bits (Stats.mean s) (Ref_series.mean newest_first)
      && same_bits (Stats.percentile s q)
           (Stats.percentile_of_sorted (Ref_series.sorted newest_first) q)
      &&
      match (Stats.summarize s, Ref_series.summarize newest_first) with
      | None, None -> true
      | Some a, Some b -> same_summary a b
      | _ -> false)

(* --- Trace ---------------------------------------------------------------- *)

let test_trace_query () =
  let e = Engine.create () in
  ignore
    (Engine.schedule e (Vtime.span_s 1.0) (fun () ->
         Engine.record e ~component:"a" ~event:"x" "one"));
  ignore
    (Engine.schedule e (Vtime.span_s 2.0) (fun () ->
         Engine.record e ~component:"b" ~event:"x" "two"));
  ignore (Engine.run e);
  let tr = Engine.tracer e in
  Alcotest.(check int) "size" 2 (Tracer.event_count tr);
  let xs = List.filter (fun ev -> ev.Tracer.kind = "x") (Tracer.events tr) in
  (match xs with
  | first :: _ ->
      Alcotest.(check string) "first" "one" first.Tracer.detail;
      Alcotest.(check int) "first stamp" 1_000_000 first.Tracer.time_us
  | [] -> Alcotest.fail "missing");
  (match List.rev xs with
  | last :: _ -> Alcotest.(check string) "last" "two" last.Tracer.detail
  | [] -> Alcotest.fail "missing");
  Alcotest.(check string)
    "printed trace"
    (Format.asprintf "[%a] %-18s %-16s %s@.[%a] %-18s %-16s %s@." Vtime.pp
       (Vtime.of_s 1.0) "a" "x" "one" Vtime.pp (Vtime.of_s 2.0) "b" "x" "two")
    (Format.asprintf "%a" Engine.pp_trace e)

(* The tracer is the engine's only event log and is unbounded: every
   record lands, in order, stamped with the engine clock and carrying
   its span link. *)
let test_trace_keeps_every_record () =
  let e = Engine.create () in
  let n = 10_000 in
  for i = 0 to n - 1 do
    ignore
      (Engine.schedule_at e (Vtime.of_us (i * 10)) (fun () ->
           let span = if i mod 3 = 0 then Some i else None in
           Engine.record e ?span ~component:"c" ~event:"e" (string_of_int i)))
  done;
  ignore (Engine.run e);
  let tr = Engine.tracer e in
  Alcotest.(check int) "every record kept" n (Tracer.event_count tr);
  List.iteri
    (fun i (ev : Tracer.event) ->
      if
        ev.detail <> string_of_int i
        || ev.time_us <> i * 10
        || ev.span <> (if i mod 3 = 0 then Some i else None)
      then Alcotest.failf "record %d out of place: %s at %d us" i ev.detail
          ev.time_us)
    (Tracer.events tr);
  (* the benchmark's layer probe reads this shim *)
  Alcotest.(check int) "bench probe reads no drops" 0 (Rf_sim.Trace.dropped tr)

let suite =
  [
    Alcotest.test_case "vtime arithmetic" `Quick test_vtime_arithmetic;
    Alcotest.test_case "vtime span operations" `Quick test_vtime_span_ops;
    Alcotest.test_case "heap pops in order" `Quick test_heap_ordering;
    Alcotest.test_case "heap is FIFO for ties" `Quick test_heap_fifo_ties;
    Alcotest.test_case "heap grows and clears" `Quick test_heap_grows;
    QCheck_alcotest.to_alcotest prop_heap_sorted;
    QCheck_alcotest.to_alcotest prop_heap_matches_model;
    Alcotest.test_case "heap push/pop_min does not allocate" `Quick
      test_heap_steady_state_zero_alloc;
    Alcotest.test_case "heap releases popped and cleared values" `Quick
      test_heap_releases_values;
    Alcotest.test_case "engine executes in time order" `Quick test_engine_schedule_order;
    Alcotest.test_case "engine cancel" `Quick test_engine_cancel;
    Alcotest.test_case "engine periodic + cancel" `Quick test_engine_periodic;
    Alcotest.test_case "periodic re-arm allocates nothing" `Quick
      test_periodic_rearm_allocates_nothing;
    Alcotest.test_case "a periodic cancelled by its callback stops at once"
      `Quick test_periodic_self_cancel;
    Alcotest.test_case "engine deadline semantics" `Quick test_engine_deadline;
    Alcotest.test_case "engine stop" `Quick test_engine_stop;
    Alcotest.test_case "engine rejects scheduling into the past" `Quick
      test_engine_rejects_past;
    Alcotest.test_case "engine max_events guard" `Quick test_engine_max_events_guard;
    Alcotest.test_case "engine max_events is per call" `Quick
      test_engine_max_events_per_call;
    Alcotest.test_case "engine runs are deterministic" `Quick
      test_engine_deterministic;
    Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
    Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
    Alcotest.test_case "rng split independence" `Quick test_rng_split_independent;
    Alcotest.test_case "rng shuffle is a permutation" `Quick
      test_rng_shuffle_permutation;
    QCheck_alcotest.to_alcotest prop_rng_float_range;
    Alcotest.test_case "stats summary" `Quick test_stats_summary;
    Alcotest.test_case "stats empty" `Quick test_stats_empty;
    Alcotest.test_case "percentile boundaries interpolate" `Quick
      test_percentile_boundaries;
    Alcotest.test_case "percentile edge cases are total" `Quick
      test_percentile_edge_cases;
    QCheck_alcotest.to_alcotest prop_stats_match_list_reference;
    Alcotest.test_case "trace records and queries" `Quick test_trace_query;
    Alcotest.test_case "engine trace keeps every record" `Quick
      test_trace_keeps_every_record;
  ]
