(** Discrete-event simulation engine.

    A single engine owns the virtual clock and the event queue. All
    simulated components capture the engine and schedule closures on
    it; [run] drains the queue in timestamp order, advancing the clock
    to each event's instant before executing it. *)

type t

type timer
(** Handle for a scheduled event, used for cancellation. *)

val create : ?seed:int -> unit -> t

val now : t -> Vtime.t

val rng : t -> Rng.t
(** The engine's root generator; components normally [Rng.split] it. *)

val tracer : t -> Rf_obs.Tracer.t
(** The engine's telemetry bus and only event log; its clock is the
    virtual clock, so span/event timestamps are deterministic
    microseconds. *)

val trace : t -> Rf_obs.Tracer.t
(** [tracer] under its old name, kept only for the end-to-end
    benchmark's layer probe; deleted together with {!Trace} when the
    benchmark next changes. *)

val metrics : t -> Rf_obs.Metrics.t
(** The engine-wide metrics registry. Components get-or-create their
    instruments here at attach time and bump them on the hot path. *)

val set_profiler : t -> Rf_obs.Profiler.t option -> unit
(** Installs (or removes) a load profiler. With a profiler installed,
    [run] attributes each executed event's wall time to the entity it
    was scheduled with; without one the dispatch loop pays only a
    [None] branch and allocates nothing. *)

val profiler : t -> Rf_obs.Profiler.t option
(** Components consult this at construction time to decide whether to
    build entity handles. *)

val heap_pushes : t -> int
(** Cumulative events ever scheduled (heap churn). *)

val heap_peak : t -> int
(** High-water mark of the event-queue depth. *)

val schedule :
  ?entity:Rf_obs.Profiler.entity -> t -> Vtime.span -> (unit -> unit) -> timer
(** [schedule t after f] runs [f] once, [after] from now. A negative
    delay raises [Invalid_argument]. [entity] tags the event for load
    attribution; untagged events are charged to "unattributed". *)

val schedule_at :
  ?entity:Rf_obs.Profiler.entity -> t -> Vtime.t -> (unit -> unit) -> timer
(** Absolute variant; scheduling strictly in the past raises. *)

val periodic :
  ?entity:Rf_obs.Profiler.entity ->
  t -> ?jitter:Vtime.span -> Vtime.span -> (unit -> unit) -> timer
(** [periodic t every f] runs [f] every [every], first firing after
    [every]. With [~jitter:j], each interval is lengthened by a uniform
    draw from [0, j) (desynchronises protocol timers, as real
    implementations do). Cancel to stop. When [f] cancels its own
    timer, no firing follows. A cancel from outside [f] leaves the
    firing already scheduled to run as a no-op, counted by
    {!events_executed}, and none follows. Without a jitter a firing
    allocates nothing. *)

val cancel : timer -> unit
(** Cancelling an already-fired one-shot timer is a no-op. *)

val record : t -> ?span:int -> component:string -> event:string -> string -> unit
(** Appends a tracer event at the current instant ([event] is its
    [kind]); [?span] links the record to a telemetry span. *)

val pp_trace : Format.formatter -> t -> unit
(** Prints every tracer event, one line each:
    [[<time>] <component> <kind> <detail>] with the virtual time in
    {!Vtime.pp} form and the component and kind padded to 18 and 16
    columns. Trace fingerprints hash this text. *)

type run_result =
  | Quiescent  (** event queue drained *)
  | Deadline_reached  (** stopped at the [until] horizon *)
  | Stopped  (** a component called [stop] *)

val run : ?until:Vtime.t -> ?max_events:int -> t -> run_result
(** Drains the queue. [until] bounds virtual time (events after it stay
    queued; the clock is left at [until]). [max_events] guards against
    runaway simulations: it is per call, counting only the events this
    call executes, and [run] raises [Failure] when they exceed it. *)

val stop : t -> unit
(** Makes [run] return after the current event completes. *)

val events_executed : t -> int
