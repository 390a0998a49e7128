(* Profiler attribution and engine hot-path allocation tests. *)

module Engine = Rf_sim.Engine
module Vtime = Rf_sim.Vtime
module Profiler = Rf_obs.Profiler

(* --- Exact attribution with an injected clock ----------------------- *)

(* With [clock_every:1] every tick closes an interval, and a fake
   clock that only advances inside handlers makes each entity's busy
   time equal the sum of its handlers' advances. *)
let test_exact_attribution () =
  let fake = ref 0 in
  let p = Profiler.create ~clock_ns:(fun () -> !fake) ~clock_every:1 () in
  let e = Engine.create () in
  Engine.set_profiler e (Some p);
  let a = Profiler.component "a" and b = Profiler.component "b" in
  for i = 1 to 10 do
    ignore
      (Engine.schedule ~entity:a e
         (Vtime.span_us (10 * i))
         (fun () -> fake := !fake + 100));
    ignore
      (Engine.schedule ~entity:b e
         (Vtime.span_us ((10 * i) + 5))
         (fun () -> fake := !fake + 7))
  done;
  ignore (Engine.run e);
  let sn = Profiler.snapshot p in
  let busy id =
    match
      List.find_opt (fun s -> s.Profiler.es_id = id) sn.Profiler.sn_entities
    with
    | Some s -> s.Profiler.es_busy_ns
    | None -> Alcotest.fail ("missing entity " ^ id)
  in
  Alcotest.(check int) "a busy" 1000 (busy "comp:a");
  Alcotest.(check int) "b busy" 70 (busy "comp:b");
  Alcotest.(check int) "idle" 0 sn.Profiler.sn_idle_ns;
  Alcotest.(check int) "run = busy + idle" 1070 sn.Profiler.sn_run_ns

(* --- Conservation property ------------------------------------------ *)

(* Under random entity counts, workloads and clock strides: attributed
   busy + idle equals total run time exactly, and per-entity event
   counts sum to the engine's executed-event count. *)
let prop_conservation =
  QCheck.Test.make ~name:"profiler busy+idle = run; counts sum to executed"
    ~count:100
    QCheck.(
      triple (int_range 1 16)
        (small_list (pair (int_range 0 15) (int_range 1 5000)))
        (int_range 1 64))
    (fun (n_entities, events, clock_every) ->
      let fake = ref 0 in
      (* An adversarial clock: advances by a varying amount on every
         read, including reads not aligned to any handler. *)
      let clock () =
        fake := !fake + 1 + (!fake mod 37);
        !fake
      in
      let p = Profiler.create ~clock_ns:clock ~clock_every () in
      let e = Engine.create () in
      Engine.set_profiler e (Some p);
      let ents =
        Array.init n_entities (fun i ->
            Profiler.component (Printf.sprintf "c%d" i))
      in
      List.iter
        (fun (ei, delay_us) ->
          ignore
            (Engine.schedule
               ~entity:ents.(ei mod n_entities)
               e (Vtime.span_us delay_us)
               (fun () -> ())))
        events;
      ignore (Engine.run e);
      let sn = Profiler.snapshot p in
      let counted =
        List.fold_left
          (fun acc s -> acc + s.Profiler.es_events)
          0 sn.Profiler.sn_entities
      in
      sn.Profiler.sn_busy_ns + sn.Profiler.sn_idle_ns
      = sn.Profiler.sn_run_ns
      && counted = Engine.events_executed e
      && sn.Profiler.sn_events = Engine.events_executed e)

(* --- Dispatch must not allocate when profiling is off ---------------- *)

let test_dispatch_zero_alloc () =
  let e = Engine.create () in
  let nop () = () in
  for i = 1 to 1000 do
    ignore (Engine.schedule e (Vtime.span_us i) nop)
  done;
  let before = Gc.minor_words () in
  ignore (Engine.run e);
  let delta = Gc.minor_words () -. before in
  (* A fixed budget independent of event count: the loop itself may
     cost a few words, but nothing per event. *)
  Alcotest.(check bool)
    (Printf.sprintf "dispatch allocated %.0f minor words" delta)
    true (delta < 256.)

(* --- Heap telemetry -------------------------------------------------- *)

let test_heap_peak_and_pushes () =
  let p = Profiler.create ~clock_ns:(fun () -> 0) () in
  let e = Engine.create () in
  Engine.set_profiler e (Some p);
  let ent = Profiler.component "x" in
  for i = 1 to 50 do
    ignore (Engine.schedule ~entity:ent e (Vtime.span_us i) (fun () -> ()))
  done;
  ignore (Engine.run e);
  let sn = Profiler.snapshot p in
  Alcotest.(check int) "peak is max heap size" 50 sn.Profiler.sn_heap_peak;
  Alcotest.(check int) "pushes counted" 50 sn.Profiler.sn_heap_pushes

let suite =
  [
    Alcotest.test_case "exact attribution at clock_every=1" `Quick
      test_exact_attribution;
    QCheck_alcotest.to_alcotest prop_conservation;
    Alcotest.test_case "unprofiled dispatch does not allocate" `Quick
      test_dispatch_zero_alloc;
    Alcotest.test_case "heap peak and pushes" `Quick test_heap_peak_and_pushes;
  ]
