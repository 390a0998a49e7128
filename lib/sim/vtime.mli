(** Virtual simulation time.

    Time is kept as an integer number of microseconds since the start
    of the simulation, which keeps event ordering exact and the whole
    simulation deterministic (no floating-point drift in comparisons). *)

type t
(** An absolute instant of virtual time. *)

type span
(** A duration. Spans may be negative in intermediate arithmetic but
    the engine rejects scheduling into the past. *)

val zero : t
(** The simulation epoch. *)

val compare : t -> t -> int

val equal : t -> t -> bool

val ( <= ) : t -> t -> bool

val ( < ) : t -> t -> bool

val add : t -> span -> t
(** [add t d] is the instant [d] after [t]. *)

val diff : t -> t -> span
(** [diff a b] is the span from [b] to [a] (i.e. [a - b]). *)

val span_us : int -> span
val span_ms : int -> span
val span_s : float -> span
val span_min : float -> span

val span_zero : span
val span_compare : span -> span -> int
val span_add : span -> span -> span
val span_scale : float -> span -> span
val span_is_negative : span -> bool

val to_s : t -> float
(** Seconds since the epoch, for reporting. *)

val span_to_s : span -> float
val span_to_ms : span -> float

val of_s : float -> t
(** Instant [s] seconds after the epoch. *)

val to_us : t -> int
val of_us : int -> t

val pp : Format.formatter -> t -> unit
(** Renders as [mm:ss.mmm]. *)
