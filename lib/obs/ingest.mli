(** Parses {!Export.jsonl} dumps back into tracer records, so the
    analysis suite (critical paths, flamegraphs, SLOs, baselines) runs
    identically on a live tracer and on a telemetry file replayed from
    disk. *)

type dump = {
  meta : (string * string) list;  (** merged from all meta lines *)
  spans : Tracer.span list;  (** sorted by id *)
  events : Tracer.event list;  (** file order *)
}

exception Malformed of string
(** Raised with a line number and reason on records the exporter could
    not have written. *)

val load_string : string -> dump
(** Blank lines are skipped; multiple meta lines merge in order, which
    keeps concatenated dumps loadable. *)

val load_file : string -> dump
(** [load_string] over the whole file; I/O errors propagate as
    [Sys_error]. *)

val of_tracer : ?meta:(string * string) list -> Tracer.t -> dump
(** The dump a live tracer would round-trip through
    [load_string (Export.jsonl ?meta t)], without serializing. *)

(** {1 Convenience accessors} *)

val meta_value : dump -> string -> string option

val meta_float : dump -> string -> float option
(** [None] when the key is absent or not a float. *)

val spans_named : dump -> string -> Tracer.span list

val dropped_records : dump -> int
(** The [audit_dropped] meta count (0 when absent): classes the
    forwarding auditor could not probe. The tracer itself keeps every
    record, so this is the only loss a dump can carry — the
    completeness input for {!Slo} rules. *)
