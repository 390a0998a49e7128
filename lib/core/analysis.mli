(** Trace analytics over the experiments: standard SLO rule sets,
    critical paths, flamegraph forests and baseline indicators, all
    derived from a telemetry dump ({!Rf_obs.Ingest.dump}) — whether
    just produced by a live run or replayed from a JSONL file.

    Thresholds are calibrated to the seed-42 defaults: warn sits above
    the observed value with headroom, fail marks a broken run, so the
    scorecard of an unmodified run is all-PASS and byte-identical
    across invocations — CI diffs it as the E7 fingerprint. Which
    experiment a rule set belongs to, and which dumps it reads, is
    recorded in {!Registry}. *)

(** {1 Rule sets}

    Each set ends with a [<label>.dropped_records] completeness
    guard. *)

val e1b_rules : Rf_obs.Slo.rule list
val e3_rules : Rf_obs.Slo.rule list
val e4_rules : Rf_obs.Slo.rule list
val e6_rules : Rf_obs.Slo.rule list
val e9_rules : Rf_obs.Slo.rule list
val e10_rules : Rf_obs.Slo.rule list
val e12_rules : Rf_obs.Slo.rule list

(** {1 Derived views} *)

val baseline_run :
  label:string -> Rf_obs.Slo.result list -> Rf_obs.Baseline.run

val forest : Rf_obs.Ingest.dump -> Rf_obs.Critical_path.node list

val configure_path :
  Rf_obs.Ingest.dump -> Rf_obs.Critical_path.step list option
(** Critical path of the longest {!Rf_obs.Phase.Configure} span, [None]
    when the dump has none. *)

val scorecard : Format.formatter -> Rf_obs.Slo.result list -> unit
