(** Sliding-window aggregation over timestamped samples (virtual
    microseconds), the substrate for windowed SLO rules such as
    error-budget burn rate.

    Construction sorts by timestamp and every aggregate is
    commutative, so results are invariant under reordering of input
    points within a window. *)

type t

type agg = Count | Sum | Mean | Max | Min

val of_points : (int * float) list -> t
(** [(time_us, value)] samples in any order. *)

val of_events : Tracer.event list -> t
(** One point of value [1.] per event at its timestamp, so aggregates
    count events. *)

val length : t -> int

val span_us : t -> (int * int) option
(** First and last timestamp, [None] when empty. *)

val sliding : width_us:int -> step_us:int -> agg -> t -> (int * float) list
(** Aggregate over half-open windows [\[w, w + width_us)], [w]
    stepping by [step_us] from the step-aligned floor of the first
    point through the last point. [Count]/[Sum] report empty windows
    as [0.]; [Mean]/[Max]/[Min] omit them. Raises [Invalid_argument]
    on non-positive width or step. *)

val max_window : width_us:int -> step_us:int -> agg -> t -> float option
(** Largest windowed value, [None] when no window produced one. *)
