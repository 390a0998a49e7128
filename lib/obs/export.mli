(** Machine-readable exporters for the tracer: JSONL span/event dump
    and a compact per-run summary table.

    All output is a pure function of tracer contents — timestamps are
    integer virtual microseconds and ordering is insertion order — so
    two same-seed runs export byte-identical text. *)

val json_escape : string -> string
(** Escapes for embedding inside a double-quoted JSON string
    (backslash, quote, control characters). *)

val jsonl : ?meta:(string * string) list -> Tracer.t -> string
(** The full dump: an optional leading
    [{"type":"meta","k":"v",...}] line, then every span in id order,
    then every event in insertion order, newline-terminated. Non-zero
    tracer drop counts are appended to the meta line automatically
    (keys [dropped_spans]/[dropped_events]) so a truncated dump cannot
    pass downstream analysis silently. *)

val drop_meta : Tracer.t -> (string * string) list
(** The meta entries [jsonl] appends: empty when nothing was dropped. *)

(** {1 Summary table} *)

type span_stat = {
  st_name : string;
  st_count : int;  (** ended spans only *)
  st_open : int;  (** spans never closed *)
  st_total_s : float;
  st_mean_s : float;
  st_max_s : float;
}

val span_stats : Tracer.t -> span_stat list
(** Ended spans grouped by name, sorted by name. *)

val pp_span_stats : Format.formatter -> span_stat list -> unit
(** Renders the per-run summary table. *)
