(** Span tracing with causal parent ids over an injected clock.

    The tracer is the telemetry event bus of the simulator: components
    open spans around pipeline phases (discovery, RPC delivery, VM
    provisioning, Quagga configuration, convergence) and append
    point-in-time events, all stamped with the *virtual* clock the
    owner installs via [set_clock]. Nothing here reads wall-clock time
    or allocates identifiers non-deterministically, so two runs of the
    same seeded simulation produce byte-identical telemetry.

    Time is a plain [int] count of microseconds since the simulation
    epoch (the representation of [Rf_sim.Vtime.t]); this library sits
    below [rf_sim] and must not depend on it. *)

type span = {
  id : int;  (** sequential, 1-based, unique within a tracer *)
  parent : int option;
  name : string;
  start_us : int;
  mutable end_us : int option;  (** [None] while the span is open *)
  mutable attrs : (string * string) list;  (** insertion order *)
}

type event = {
  time_us : int;
  component : string;
  kind : string;
  detail : string;
  span : int option;  (** causal link into the span tree *)
}

type t

val create : ?clock:(unit -> int) -> unit -> t
(** The default clock is [fun () -> 0]; the simulation engine installs
    its virtual clock with [set_clock] right after construction. The
    stores are unbounded: every span and event is kept. *)

val set_clock : t -> (unit -> int) -> unit

val now_us : t -> int

(** {1 Spans} *)

val span_start :
  t -> ?parent:int -> ?start_us:int -> ?attrs:(string * string) list ->
  string -> int
(** Opens a span named after the phase it covers and returns its id.
    [start_us] overrides the clock for retroactive spans (e.g. a
    convergence span opened only once convergence is observed). *)

val span_end : t -> ?attrs:(string * string) list -> int -> unit
(** Closes the span at the current clock, appending [attrs]. Ending an
    already-ended or unknown span is a no-op, so hooks that may fire
    twice (reconnects, re-applies) need no guards. *)

val find_span : t -> int -> span option

val spans : t -> span list
(** All spans in id (= start) order. *)

val span_count : t -> int

(** {1 Events} *)

val event :
  t -> ?span:int -> component:string -> kind:string -> string -> unit

val event_at :
  t -> ?span:int -> us:int -> component:string -> kind:string -> string ->
  unit
(** Explicit-timestamp variant, used by {!Profiler}, which stamps its
    samples with the instants it took them at. *)

val events : t -> event list
(** All events in insertion order. *)

val event_count : t -> int

(** {1 Correlation}

    Cross-component span hand-off. The component that opens a span
    registers it under a string key (["cfg:5"], ["rpc:5"], ...); the
    component that closes it — typically in another library, reached
    only via callbacks — looks the key up. Keys are process-local and
    deterministic, so this adds no wire format. *)

val correlate : t -> key:string -> int -> unit
(** Registers (or overwrites) a key. *)

val correlated : t -> key:string -> int option

val take : t -> key:string -> int option
(** Like [correlated] but removes the key, so a phase boundary fires
    at most once per key registration. *)
