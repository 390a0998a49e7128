(** Float sample series and their summaries, used by the experiment
    harness. Counts live in the engine's {!Rf_obs.Metrics} registry. *)

type summary = {
  count : int;
  min : float;
  max : float;
  mean : float;
  stddev : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

type series
(** A growable collection of float samples, stored unboxed. *)

val series : unit -> series

val add : series -> float -> unit

val count : series -> int

val summarize : series -> summary option
(** [None] when no sample was recorded. *)

val percentile : series -> float -> float
(** [percentile s q] with [q] in [0,1], linearly interpolated on the
    (n-1)-spaced rank grid (p0 = min, p100 = max, interior quantiles
    interpolate between neighbouring order statistics). Total on all
    inputs: an empty series yields [nan], [q] is clamped to [0,1]
    (NaN [q] reads as 0), and a single sample is every quantile of
    itself. *)

val percentile_of_sorted : float array -> float -> float
(** {!percentile} on an already-sorted array — the allocation-free
    form reports use; same totality contract. *)

val mean : series -> float
