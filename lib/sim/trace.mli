(** Structured trace of simulation events.

    Components record ("component", "event", detail) triples with the
    virtual timestamp; experiments query the trace afterwards to
    reconstruct timelines (e.g. when each switch became configured).

    Since the telemetry layer landed, the trace is a facade over an
    [Rf_obs.Tracer] event bus (the engine shares one tracer between
    the two), so every record is also a telemetry event and may carry
    a causal link into the span tree. *)

type record = {
  time : Vtime.t;
  component : string;
  event : string;
  detail : string;
}

type t

val create : ?capacity:int -> ?tracer:Rf_obs.Tracer.t -> unit -> t
(** With [~capacity:n], records past the [n]th are dropped (and
    counted — see [dropped]) instead of growing without bound. The
    engine passes its own [tracer]; a fresh private one is created
    otherwise. *)

val record :
  t -> ?span:int -> Vtime.t -> component:string -> event:string -> string ->
  unit
(** [?span] links the record to a telemetry span (e.g. a fault
    injection landing inside one switch's configuration span). *)

val size : t -> int
(** Records accepted (excludes dropped ones). *)

val dropped : t -> int
(** Records discarded because the trace was at capacity. *)

val to_list : t -> record list
(** All records in chronological (insertion) order. *)

val filter : t -> (record -> bool) -> record list

val find_first : t -> (record -> bool) -> record option

val find_last : t -> (record -> bool) -> record option

val dump : Format.formatter -> t -> unit
