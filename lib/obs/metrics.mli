(** Typed metrics registry: counters, gauges and fixed-bucket
    histograms with Prometheus-style text exposition.

    Instruments are created once (get-or-create, keyed by name +
    sorted label set) and then updated through a direct record-field
    mutation — no hashing or allocation on the hot path, which keeps
    the registry safe to update from per-packet code. All values are
    driven by the simulation, so the exposition of two same-seed runs
    is byte-identical. *)

type t

type counter
(** Monotonically increasing integer. *)

type gauge
(** A float that can go up and down. *)

type histogram
(** Observation distribution over the fixed [buckets] bounds. *)

val create : unit -> t

val buckets : float array
(** The shared log-scale bucket upper bounds, in seconds: a 1–2.5–5
    decade grid from 1 ms to 500 s (a [+Inf] bucket is implicit).
    Chosen to resolve both millisecond RPC deliveries and the
    100-second VM boot serialization of the Fig. 3 runs. *)

val counter :
  t -> ?help:string -> ?labels:(string * string) list -> string -> counter
(** Get-or-create. Reusing a name with a different instrument type
    raises [Invalid_argument]. *)

val incr : ?by:int -> counter -> unit

val counter_value : counter -> int

val gauge :
  t -> ?help:string -> ?labels:(string * string) list -> string -> gauge

val set : gauge -> float -> unit

val histogram :
  t -> ?help:string -> ?labels:(string * string) list -> string -> histogram

val observe : histogram -> float -> unit
(** Adds an observation in seconds. *)

val observations : histogram -> int

val observation_sum : histogram -> float

val histogram_quantile : histogram -> float -> float
(** [histogram_quantile h q] estimates the [q]-quantile (q in [0,1])
    with Prometheus semantics: locate the log bucket containing the
    q-rank and interpolate linearly within its bounds (lower edge 0 for
    the first bucket; observations in the implicit +Inf bucket clamp to
    the highest finite bound). Lets SLOs read p99 straight off a live
    histogram without keeping raw samples. Total on all inputs: an
    empty histogram yields [nan], [q] is clamped to [0,1] (NaN [q]
    reads as 0), mirroring [Rf_sim.Stats.percentile]. *)

val fold :
  t ->
  init:'a ->
  counter:('a -> name:string -> labels:(string * string) list -> int -> 'a) ->
  gauge:('a -> name:string -> labels:(string * string) list -> float -> 'a) ->
  'a
(** Folds over counters and gauges in exposition (sorted) order;
    histograms are skipped. Used by summary reports. *)

val to_prometheus : t -> string
(** Deterministic text exposition: families sorted by name, samples by
    label set. Every family gets a [# TYPE] line ([untyped] as the
    defensive fallback) and a [# HELP] line when help text was given;
    label values and help text are escaped per the exposition format
    (backslash, double-quote and newline). *)
