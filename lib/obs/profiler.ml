(* Per-entity load attribution over the simulation engine's dispatch
   loop. The engine calls [tick] once per executed event; each tick
   takes a single wall-clock sample and charges the interval since the
   previous sample to the *previous* event's entity. Consecutive
   samples therefore partition the run's wall time exactly: summing
   attributed busy time plus idle time reproduces the total run time
   to the nanosecond, which is what the conservation property tests
   pin.

   Entities are mutable handles with inline counters, created once per
   component and registered lazily on first tick (stamp check), so the
   per-event cost is one clock read plus a handful of int stores — no
   hashing, no allocation. *)

type kind =
  | Unattributed
  | Idle
  | Component of string
  | Switch of int64
  | Link of int64 * int64
  | Host of string
  | Controller of int

type entity = {
  kind : kind;
  mutable ev_count : int;
  mutable busy_ns : int;
  mutable stamp : int;
}

let make kind = { kind; ev_count = 0; busy_ns = 0; stamp = 0 }

let component name = make (Component name)

let switch dpid = make (Switch dpid)

let link a b = if Int64.compare a b <= 0 then make (Link (a, b)) else make (Link (b, a))

let host name = make (Host name)

let controller i = make (Controller i)

let unattributed () = make Unattributed

let kind_id = function
  | Unattributed -> "unattributed"
  | Idle -> "idle"
  | Component c -> "comp:" ^ c
  | Switch d -> Printf.sprintf "sw:%Ld" d
  | Link (a, b) -> Printf.sprintf "link:%Ld-%Ld" a b
  | Host h -> "host:" ^ h
  | Controller i -> Printf.sprintf "ctl:%d" i

type sample = {
  s_us : int;  (** virtual-clock timestamp of the sample *)
  s_depth : int;  (** event-heap depth at the sample point *)
}

type t = {
  clock_ns : unit -> int;
  clock_every : int;
  stamp_id : int;
  idle : entity;
  mutable handles : entity list;
  mutable current : entity;
  mutable last_ns : int;
  mutable run_start_ns : int;
  mutable running : bool;
  mutable dispatches : int;
  mutable next_clock : int;
  mutable next_sample : int;
  mutable run_ns : int;
  mutable heap_peak : int;
  mutable pushes : int;
  mutable samples : sample list;  (* newest first *)
}

(* Wall clock in integer nanoseconds relative to a base captured at
   profiler creation: gettimeofday is a ~25 ns vDSO call with
   microsecond resolution, and subtracting the base keeps the float
   subtraction exact well past any realistic run length. *)
let default_clock () =
  let base = Unix.gettimeofday () in
  fun () -> int_of_float ((Unix.gettimeofday () -. base) *. 1e9)

let stamp_counter = ref 0

(* Event-count period of heap-depth samples. *)
let sample_every = 4096

let create ?clock_ns ?(clock_every = 32) () =
  if clock_every < 1 then invalid_arg "Profiler.create: clock_every < 1";
  incr stamp_counter;
  let stamp = !stamp_counter in
  let clock_ns =
    match clock_ns with Some f -> f | None -> default_clock ()
  in
  let idle = make Idle in
  idle.stamp <- stamp;
  {
    clock_ns;
    clock_every;
    stamp_id = stamp;
    idle;
    handles = [ idle ];
    current = idle;
    last_ns = 0;
    run_start_ns = 0;
    running = false;
    dispatches = 0;
    next_clock = clock_every;
    next_sample = sample_every;
    run_ns = 0;
    heap_peak = 0;
    pushes = 0;
    samples = [];
  }

let register p e =
  e.stamp <- p.stamp_id;
  e.ev_count <- 0;
  e.busy_ns <- 0;
  p.handles <- e :: p.handles

let take_sample p ~now_us ~depth =
  p.samples <- { s_us = now_us; s_depth = depth } :: p.samples

let run_begin p =
  if not p.running then begin
    p.running <- true;
    p.current <- p.idle;
    p.next_clock <- p.dispatches + p.clock_every;
    p.next_sample <- p.dispatches + sample_every;
    let t = p.clock_ns () in
    p.last_ns <- t;
    p.run_start_ns <- t
  end

(* The hot path: integer stores only, no allocation, no write barrier.
   The wall clock is read every [clock_every] dispatches; the interval
   it closes is charged to the entity of the previous clock boundary
   ([clock_every = 1] degenerates to exact per-event attribution).
   Successive intervals partition the run, so per-entity busy plus
   idle equals total run time to the nanosecond at any stride. *)
let tick p e ~depth ~now_us =
  if e.stamp <> p.stamp_id then register p e;
  e.ev_count <- e.ev_count + 1;
  let d = p.dispatches + 1 in
  p.dispatches <- d;
  if d >= p.next_clock then begin
    p.next_clock <- d + p.clock_every;
    let t = p.clock_ns () in
    p.current.busy_ns <- p.current.busy_ns + (t - p.last_ns);
    p.last_ns <- t;
    p.current <- e;
    (* Depth samples align to clock boundaries, so their points stay
       a deterministic function of the dispatch count. *)
    if d >= p.next_sample then begin
      p.next_sample <- d + sample_every;
      take_sample p ~now_us ~depth
    end
  end

let run_end p ~depth ~now_us ~pushes ~peak =
  if p.running then begin
    let t = p.clock_ns () in
    p.current.busy_ns <- p.current.busy_ns + (t - p.last_ns);
    p.last_ns <- t;
    p.run_ns <- p.run_ns + (t - p.run_start_ns);
    p.current <- p.idle;
    p.running <- false;
    if peak > p.heap_peak then p.heap_peak <- peak;
    p.pushes <- pushes;
    (* Close the depth timeseries with a final sample at the run's last
       virtual instant. *)
    take_sample p ~now_us ~depth
  end

(** {1 Snapshots} *)

type entity_stat = {
  es_id : string;
  es_kind : kind;
  es_events : int;
  es_busy_ns : int;
}

type snapshot = {
  sn_events : int;
  sn_entities : entity_stat list;
  sn_attributed_events : int;
  sn_busy_ns : int;
  sn_idle_ns : int;
  sn_run_ns : int;
  sn_heap_peak : int;
  sn_heap_pushes : int;
  sn_samples : sample list;
}

let snapshot p =
  (* Merge handles by kind: several components may hold distinct
     handles for the same logical entity (e.g. a switch's datapath and
     its VM both tagging [Switch dpid]). *)
  let merged : (kind, int * int) Hashtbl.t = Hashtbl.create 64 in
  let idle_ns = ref 0 in
  List.iter
    (fun e ->
      if e.kind = Idle then idle_ns := !idle_ns + e.busy_ns
      else
        let ev, ns =
          match Hashtbl.find_opt merged e.kind with
          | Some (ev, ns) -> (ev, ns)
          | None -> (0, 0)
        in
        Hashtbl.replace merged e.kind (ev + e.ev_count, ns + e.busy_ns))
    p.handles;
  let entities =
    Hashtbl.fold
      (fun kind (ev, ns) acc ->
        { es_id = kind_id kind; es_kind = kind; es_events = ev; es_busy_ns = ns }
        :: acc)
      merged []
    |> List.sort (fun a b ->
           match compare b.es_events a.es_events with
           | 0 -> String.compare a.es_id b.es_id
           | c -> c)
  in
  let busy = List.fold_left (fun acc e -> acc + e.es_busy_ns) 0 entities in
  let attributed =
    List.fold_left
      (fun acc e ->
        match e.es_kind with Unattributed | Idle -> acc | _ -> acc + e.es_events)
      0 entities
  in
  {
    sn_events = p.dispatches;
    sn_entities = entities;
    sn_attributed_events = attributed;
    sn_busy_ns = busy;
    sn_idle_ns = !idle_ns;
    sn_run_ns = p.run_ns;
    sn_heap_peak = p.heap_peak;
    sn_heap_pushes = p.pushes;
    sn_samples = List.rev p.samples;
  }

let attributed_share sn =
  if sn.sn_events = 0 then 0.
  else float_of_int sn.sn_attributed_events /. float_of_int sn.sn_events

let events_per_second sn =
  if sn.sn_run_ns <= 0 then 0.
  else float_of_int sn.sn_events /. (float_of_int sn.sn_run_ns /. 1e9)

(* Deterministic key/value pairs for telemetry meta: only values
   derived from the virtual simulation (event counts, heap shape) —
   never wall-clock figures, which would break byte-identical
   fingerprints. *)
let meta sn =
  [
    ("profile_events", string_of_int sn.sn_events);
    ("profile_entities", string_of_int (List.length sn.sn_entities));
    ("profile_attributed_events", string_of_int sn.sn_attributed_events);
    ( "profile_attributed_pct",
      Printf.sprintf "%.1f" (100. *. attributed_share sn) );
    ("profile_heap_peak", string_of_int sn.sn_heap_peak);
    ("profile_heap_pushes", string_of_int sn.sn_heap_pushes);
  ]

(* Emit the snapshot onto the telemetry bus so JSONL export, analyze
   and SLO evaluation see profiles with no new plumbing. Entity events
   are stamped with the final virtual instant; heap-depth samples keep
   their own timestamps. *)
let emit sn ~tracer ~metrics ~now_us =
  List.iter
    (fun e ->
      Tracer.event_at tracer ~us:now_us ~component:"profiler" ~kind:"entity"
        (Printf.sprintf "%s events=%d" e.es_id e.es_events))
    sn.sn_entities;
  (* Stride the depth curve to at most 256 points so huge runs don't
     drown the event store. *)
  let n = List.length sn.sn_samples in
  let stride = if n <= 256 then 1 else (n + 255) / 256 in
  List.iteri
    (fun i s ->
      if i mod stride = 0 then
        Tracer.event_at tracer ~us:s.s_us ~component:"profiler" ~kind:"heap"
          (Printf.sprintf "depth=%d" s.s_depth))
    sn.sn_samples;
  (* dropped: samples not emitted are recoverable from the snapshot;
     the stride is deterministic so fingerprints stay stable. *)
  let g =
    Metrics.gauge metrics ~help:"peak event-heap depth over the profiled run"
      "profiler_heap_depth_peak"
  in
  Metrics.set g (float_of_int sn.sn_heap_peak);
  let g =
    Metrics.gauge metrics
      ~help:"share of executed events attributed to a typed entity"
      "profiler_attributed_ratio"
  in
  Metrics.set g (attributed_share sn);
  let c =
    Metrics.counter metrics ~help:"events executed while profiling"
      "profiler_events_total"
  in
  Metrics.incr ~by:sn.sn_events c;
  (* Wall-clock rate: real seconds, deliberately absent from [meta]. *)
  let g =
    Metrics.gauge metrics
      ~help:"executed events per wall-clock second while profiling"
      "profiler_events_per_second"
  in
  Metrics.set g (events_per_second sn)

(** {1 Reports} *)

let pp_share ppf (part, total) =
  if total = 0 then Format.fprintf ppf "0.0%%"
  else Format.fprintf ppf "%.1f%%" (100. *. float_of_int part /. float_of_int total)

(* [wall:false] prints only simulation-deterministic figures and is
   what fingerprinted summaries use; [wall:true] adds busy time and
   event rate for interactive runs. *)
let pp_top ?(wall = false) ~top ppf sn =
  Format.fprintf ppf "profile: %d events over %d entities, %a attributed@."
    sn.sn_events
    (List.length sn.sn_entities)
    pp_share
    (sn.sn_attributed_events, sn.sn_events);
  Format.fprintf ppf "heap: peak depth %d, %d pushes@." sn.sn_heap_peak
    sn.sn_heap_pushes;
  if wall then begin
    Format.fprintf ppf
      "wall: run %.3f s, %.2f Mev/s, busy %.3f s, idle %.3f s@."
      (float_of_int sn.sn_run_ns /. 1e9)
      (events_per_second sn /. 1e6)
      (float_of_int sn.sn_busy_ns /. 1e9)
      (float_of_int sn.sn_idle_ns /. 1e9)
  end;
  let shown = ref 0 in
  Format.fprintf ppf "%4s  %-24s %12s %7s" "rank" "entity" "events" "share";
  if wall then Format.fprintf ppf " %10s" "busy(ms)";
  Format.fprintf ppf "@.";
  List.iter
    (fun e ->
      if !shown < top then begin
        incr shown;
        Format.fprintf ppf "%4d  %-24s %12d %6.1f%%" !shown e.es_id
          e.es_events
          (if sn.sn_events = 0 then 0.
           else 100. *. float_of_int e.es_events /. float_of_int sn.sn_events);
        if wall then
          Format.fprintf ppf " %10.2f" (float_of_int e.es_busy_ns /. 1e6);
        Format.fprintf ppf "@."
      end)
    sn.sn_entities;
  if List.length sn.sn_entities > top then
    Format.fprintf ppf "      ... %d more entities@."
      (List.length sn.sn_entities - top)

let pp_depth_curve ppf sn =
  let points = 16 in
  match sn.sn_samples with
  | [] -> Format.fprintf ppf "heap depth: no samples@."
  | samples ->
      let n = List.length samples in
      let stride = if n <= points then 1 else (n + points - 1) / points in
      Format.fprintf ppf "heap depth (every %d samples):@." stride;
      List.iteri
        (fun i s ->
          if i mod stride = 0 then
            Format.fprintf ppf "  t=%8.3fs depth=%6d@."
              (float_of_int s.s_us /. 1e6)
              s.s_depth)
        samples
