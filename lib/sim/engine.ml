type timer = {
  mutable cancelled : bool;
  thunk : unit -> unit;
  entity : Rf_obs.Profiler.entity;
}

type t = {
  mutable clock : Vtime.t;
  queue : timer Event_heap.t;
  rng : Rng.t;
  tracer : Rf_obs.Tracer.t;
  metrics : Rf_obs.Metrics.t;
  unattributed : Rf_obs.Profiler.entity;
  mutable profiler : Rf_obs.Profiler.t option;
  mutable stop_requested : bool;
  mutable executed : int;
}

(* Fills the heap's free slots: already cancelled, so it would be a
   no-op even if it were ever dispatched. *)
let filler =
  {
    cancelled = true;
    thunk = (fun () -> ());
    entity = Rf_obs.Profiler.unattributed ();
  }

let create ?(seed = 42) () =
  let tracer = Rf_obs.Tracer.create () in
  let t =
    {
      clock = Vtime.zero;
      queue = Event_heap.create filler;
      rng = Rng.create seed;
      tracer;
      metrics = Rf_obs.Metrics.create ();
      unattributed = Rf_obs.Profiler.unattributed ();
      profiler = None;
      stop_requested = false;
      executed = 0;
    }
  in
  (* The tracer stamps spans/events with the virtual clock, so all
     telemetry is deterministic for a given seed. *)
  Rf_obs.Tracer.set_clock tracer (fun () -> Vtime.to_us t.clock);
  t

let now t = t.clock

let rng t = t.rng

let tracer t = t.tracer

let trace = tracer

let metrics t = t.metrics

let set_profiler t p = t.profiler <- p

let profiler t = t.profiler

let heap_pushes t = Event_heap.pushes t.queue

let heap_peak t = Event_heap.peak t.queue

let schedule_at ?entity t at f =
  if Vtime.(at < t.clock) then
    invalid_arg "Engine.schedule_at: scheduling into the past";
  let entity =
    match entity with Some e -> e | None -> t.unattributed
  in
  let timer = { cancelled = false; thunk = f; entity } in
  Event_heap.push t.queue at timer;
  timer

let schedule ?entity t after f =
  if Vtime.span_is_negative after then
    invalid_arg "Engine.schedule: negative delay";
  schedule_at ?entity t (Vtime.add t.clock after) f

let periodic ?entity t ?jitter every f =
  if Vtime.span_is_negative every then
    invalid_arg "Engine.periodic: negative period";
  let entity = match entity with Some e -> e | None -> t.unattributed in
  let handle = { cancelled = false; thunk = ignore; entity } in
  let next_delay () =
    match jitter with
    | None -> every
    | Some j ->
        let extra_s = Rng.float t.rng (Vtime.span_to_s j) in
        Vtime.span_add every (Vtime.span_s extra_s)
  in
  (* One inner timer, built once and pushed again after each firing, so
     a firing allocates nothing. It checks [handle.cancelled] before and
     after [f]: a callback that cancels its own handle ends the chain at
     once; a cancel from elsewhere leaves the pending firing to run (and
     count) as a no-op. *)
  let rec inner =
    {
      cancelled = false;
      thunk =
        (fun () ->
          if not handle.cancelled then begin
            f ();
            if not handle.cancelled then
              Event_heap.push t.queue (Vtime.add t.clock (next_delay ())) inner
          end);
      entity;
    }
  in
  Event_heap.push t.queue (Vtime.add t.clock (next_delay ())) inner;
  handle

let cancel timer = timer.cancelled <- true

let record t ?span ~component ~event detail =
  Rf_obs.Tracer.event t.tracer ?span ~component ~kind:event detail

let pp_trace ppf t =
  List.iter
    (fun (ev : Rf_obs.Tracer.event) ->
      Format.fprintf ppf "[%a] %-18s %-16s %s@." Vtime.pp
        (Vtime.of_us ev.time_us) ev.component ev.kind ev.detail)
    (Rf_obs.Tracer.events t.tracer)

type run_result = Quiescent | Deadline_reached | Stopped

(* The dispatch loop must not allocate when no profiler is installed:
   [Event_heap.min_time] returns an unboxed int, the clock is set from
   it, and [pop_min] hands back the stored timer, so the only per-event
   work is int reads and stores, one heap sift and the [None] profiler
   branch. A Gc.minor_words budget test pins this. [max_events] bounds
   this call: the limit is fixed once at entry. *)
let run ?until ?(max_events = 50_000_000) t =
  t.stop_requested <- false;
  let limit = t.executed + max_events in
  (match t.profiler with
  | Some p -> Rf_obs.Profiler.run_begin p
  | None -> ());
  let rec loop () =
    if t.stop_requested then Stopped
    else if Event_heap.is_empty t.queue then Quiescent
    else
      let next = Event_heap.min_time t.queue in
      match until with
      | Some horizon when Vtime.(horizon < next) ->
          t.clock <- horizon;
          Deadline_reached
      | Some _ | None ->
          let timer = Event_heap.pop_min t.queue in
          t.clock <- next;
          if not timer.cancelled then begin
            t.executed <- t.executed + 1;
            if t.executed > limit then
              failwith "Engine.run: max_events exceeded";
            (match t.profiler with
            | Some p ->
                Rf_obs.Profiler.tick p timer.entity
                  ~depth:(Event_heap.size t.queue)
                  ~now_us:(Vtime.to_us t.clock)
            | None -> ());
            timer.thunk ()
          end;
          loop ()
  in
  let result = loop () in
  (match (result, until) with
  | Quiescent, Some horizon when Vtime.(t.clock < horizon) -> t.clock <- horizon
  | (Quiescent | Deadline_reached | Stopped), _ -> ());
  (match t.profiler with
  | Some p ->
      Rf_obs.Profiler.run_end p
        ~depth:(Event_heap.size t.queue)
        ~now_us:(Vtime.to_us t.clock)
        ~pushes:(Event_heap.pushes t.queue)
        ~peak:(Event_heap.peak t.queue)
  | None -> ());
  result

let stop t = t.stop_requested <- true

let events_executed t = t.executed
