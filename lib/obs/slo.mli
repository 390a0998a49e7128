(** Declarative SLO rule engine over an ingested telemetry dump.

    A rule pairs a measurement source with warn/fail thresholds;
    evaluation is a pure function of the dump, so a seeded run's
    scorecard is byte-identical across invocations and CI can diff it
    like any other fingerprint. A rule whose source produces no value
    (span never emitted, meta key absent) fails rather than passing
    vacuously. *)

type verdict = Pass | Warn | Fail

val verdict_string : verdict -> string
(** ["PASS"] / ["WARN"] / ["FAIL"] *)

type event_match = {
  m_component : string option;  (** [None] matches any *)
  m_kind : string option;
}

(** What to measure. All [_s] sources are seconds derived from the
    integer-microsecond telemetry. *)
type source =
  | Span_last_end_s of string
      (** Latest end of any span with this name — e.g. convergence
          completion time. *)
  | Span_max_duration_s of string  (** Slowest closed instance. *)
  | Span_total_duration_s of string  (** Sum over closed instances. *)
  | Span_union_duration_s of string
      (** Union of closed intervals — actual wall time disrupted when
          per-flow disruption spans overlap. *)
  | Span_quantile_s of string * float
      (** Linear-interpolation quantile of closed durations. *)
  | Span_count of string
  | Event_count of event_match
  | Meta_s of string  (** Meta value parsed as a float. *)
  | Meta_diff_s of string * string  (** [a - b]. *)
  | Meta_ratio of string * string
      (** [num / den]; no value when [den] is 0. *)
  | Burn_rate of {
      errors : event_match;
      total : event_match;
      objective : float;  (** success objective in [0,1), e.g. 0.99 *)
      window_us : int;
    }
      (** Worst sliding-window error-budget burn rate:
          [max over windows of (errors/total) / (1 - objective)];
          windows step by [window_us/4]. 1.0 = burning exactly the
          budget. *)
  | Dropped_records
      (** {!Ingest.dropped_records} — completeness guard. *)

type direction = At_most | At_least

type rule = {
  r_name : string;
  r_source : source;
  r_direction : direction;
  r_warn : float;
  r_fail : float;
  r_unit : string;
}

type result = {
  res_rule : rule;
  res_value : float option;
  res_verdict : verdict;
}

val measure : Ingest.dump -> source -> float option
(** Raises [Invalid_argument] on a burn-rate objective outside
    [\[0,1)]. *)

val evaluate : Ingest.dump -> rule list -> result list
(** One result per rule, in rule order. Missing values ⇒ [Fail]. *)

val worst : result list -> verdict
(** [Pass] for an empty list. *)

val pp_scorecard : Format.formatter -> result list -> unit
(** Fixed-width table plus an [overall:] line — the byte-diffable CI
    artifact. *)
