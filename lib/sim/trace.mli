(** Kept only for the end-to-end benchmark's layer probe, which passes
    it the engine's [trace]; deleted together with that accessor when
    the benchmark next changes. *)

val dropped : Rf_obs.Tracer.t -> int
(** Always 0: the tracer keeps every record. *)
