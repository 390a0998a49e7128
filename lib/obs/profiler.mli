(** Per-entity load attribution for the simulation engine.

    The engine's dispatch loop calls {!tick} once per executed event.
    Ticks count events per entity exactly; the wall clock is read only
    every [clock_every] dispatches, and each elapsed interval is
    charged to the entity at the previous clock boundary. Consecutive
    intervals partition the run's wall time exactly: over a completed
    run, attributed busy time plus idle time equals total run time to
    the nanosecond, and per-entity event counts sum to the engine's
    executed-event count. When no profiler is installed the engine
    dispatch path does not allocate and pays only a [None] branch.

    Alongside attribution the profiler records an event-heap
    depth/churn timeseries, sampled every 4096 events, so its points
    are deterministic. *)

type kind =
  | Unattributed  (** events scheduled without an [~entity] tag *)
  | Idle  (** pseudo-entity for time outside event handlers *)
  | Component of string
  | Switch of int64
  | Link of int64 * int64  (** normalised so the smaller dpid is first *)
  | Host of string
  | Controller of int

type entity
(** Mutable attribution handle. Create one per logical component and
    reuse it on every [schedule] call — counters live inline on the
    handle, so tagging costs nothing beyond the pointer. Handles for
    the same [kind] are merged at {!snapshot} time. *)

val component : string -> entity

val switch : int64 -> entity

val link : int64 -> int64 -> entity

val host : string -> entity

val controller : int -> entity

val unattributed : unit -> entity

type t

val create :
  ?clock_ns:(unit -> int) -> ?clock_every:int -> unit -> t
(** [clock_ns] defaults to a [Unix.gettimeofday]-based nanosecond
    clock (injectable for deterministic tests). [clock_every] (default
    32) is the dispatch stride between clock reads: each interval is
    charged whole to the entity at the previous stride boundary —
    sampling-profiler semantics that keep the per-event cost to a few
    integer stores; [clock_every:1] recovers exact per-event
    attribution. Intervals partition the run either way, so busy +
    idle always equals total run time exactly. Heap-depth samples are
    taken every 4096 events (aligned to clock strides). Raises
    [Invalid_argument] if [clock_every < 1]. *)

(** {1 Engine hooks} *)

val run_begin : t -> unit

val tick : t -> entity -> depth:int -> now_us:int -> unit
(** Called once per executed event, before its handler runs. [depth]
    is the event-heap depth after popping; [now_us] the virtual
    clock. *)

val run_end : t -> depth:int -> now_us:int -> pushes:int -> peak:int -> unit
(** Closes the pending attribution interval and folds [pushes] (the
    heap's cumulative insertion count — churn) and [peak] (its exact
    high-water mark, tracked by the heap itself) into the profile. *)

(** {1 Snapshots} *)

type sample = { s_us : int; s_depth : int }

type entity_stat = {
  es_id : string;
  es_kind : kind;
  es_events : int;
  es_busy_ns : int;
}

type snapshot = {
  sn_events : int;
  sn_entities : entity_stat list;  (** events desc, then id asc *)
  sn_attributed_events : int;
  sn_busy_ns : int;  (** sum over entities, idle excluded *)
  sn_idle_ns : int;
  sn_run_ns : int;  (** equals [sn_busy_ns + sn_idle_ns] exactly *)
  sn_heap_peak : int;
  sn_heap_pushes : int;
  sn_samples : sample list;  (** chronological *)
}

val snapshot : t -> snapshot

val attributed_share : snapshot -> float

val meta : snapshot -> (string * string) list
(** Deterministic telemetry meta (event counts, heap shape) — safe
    for byte-identical fingerprints. Wall-clock figures are
    deliberately excluded. *)

val emit : snapshot -> tracer:Tracer.t -> metrics:Metrics.t -> now_us:int -> unit
(** Publishes the snapshot on the telemetry bus: per-entity events and
    a strided heap-depth curve as tracer events, plus gauges/counters
    on the metrics registry. *)

(** {1 Reports} *)

val pp_top : ?wall:bool -> top:int -> Format.formatter -> snapshot -> unit
(** Top-entities table. With [wall:false] (the default) only
    simulation-deterministic figures are printed — this is the form
    fingerprinted summaries use; [wall:true] adds busy time and event
    rate. *)

val pp_depth_curve : Format.formatter -> snapshot -> unit
