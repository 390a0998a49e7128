(** The experiment registry: one entry per experiment, so the list of
    experiments and their pinned parameters exists in exactly one
    place.

    rfauto builds each experiment subcommand from its entry: the
    entry's own parameter term plus the shared flags its {!flag} list
    and meta tag call for ([--seed], [--out], [--profile], [--audit],
    [--slo], [--flamegraph], [--baseline]). [rfauto analyze] takes its
    labels, rule sets and reference runs from the entries, and
    [rfauto fingerprint] replays every {!pin} into the summaries CI
    diffs against [ci/*.txt]. *)

(** What a run sees of its command line beyond its own parameters. *)
type ctx = {
  seed : int;  (** [--seed]; 42 on entries without the flag *)
  out : string option;  (** [--out] as given *)
  telemetry : string option;
      (** where the run writes its JSONL: [--out], or a temp file when
          only the analysis needs the dump *)
  profiler : Rf_obs.Profiler.t option;  (** [--profile] *)
  audit : bool;  (** [--audit] *)
  scorecard : bool;  (** [--slo] *)
  flamegraph : string option;
  baseline : string option;
}

(** An evaluated rule set, ready for the flamegraph, baseline and SLO
    gates. *)
type analysed = {
  an_label : string;
  an_forest : Rf_obs.Critical_path.node list;
  an_results : Rf_obs.Slo.result list;
}

type outcome = {
  summary : string;
      (** virtual-clock report: printed, and pinned by [fingerprint] *)
  shown : string;  (** what the subcommand prints: the summary plus extras *)
  steady_violations : int;  (** > 0 trips exit 5 *)
  analysed : analysed option;
}

(** An experiment's E7 identity and SLO rule set. *)
type slo = {
  label : string;  (** e.g. ["e1b"], as in ci/e7-slo-summary.txt *)
  what : string;
  rules : Rf_obs.Slo.rule list;
  in_all : bool;  (** part of [analyze --experiment all], the E7 set *)
  reads : string list;
      (** meta tags of other entries whose dumps these rules also
          analyze *)
}

(** The shared flags an entry takes beyond [--out], which every entry
    with a meta tag takes. *)
type flag =
  | Seed  (** [--seed] *)
  | Profile  (** [--profile] *)
  | Audit  (** [--audit] *)
  | Trace_analysis  (** [--slo], [--flamegraph], [--baseline] *)

(** A pinned run: the entry's own argv and the ci/ file it writes. *)
type pin = { argv : string list; file : string }

type t = {
  id : string;  (** the rfauto subcommand *)
  doc : string;
  meta_tag : string option;
      (** the JSONL [experiment] meta value; [None]: emits no
          telemetry, so no [--out] *)
  slo : slo option;
  flags : flag list;
  pins : pin list;
  term : (ctx -> outcome) Cmdliner.Term.t;
}

val all : t list
(** Every experiment, [analyze] last. *)

val reference_dump : ?seed:int -> t -> Rf_obs.Ingest.dump
(** Runs the entry's first pin with telemetry into a temp file and
    ingests it — the same pipeline a replayed dump goes through. *)

val boot_arg : float Cmdliner.Term.t
(** [--boot-time], shared with the hand-written tools. *)

val cmd : t -> int Cmdliner.Cmd.t
(** The entry's subcommand. Exit codes: 2 on SLO FAIL, 3 on baseline
    regression, 5 on steady-state violations, 64 when the experiment
    rejects its parameters. *)

val fingerprint_cmd : int Cmdliner.Cmd.t
(** [rfauto fingerprint DIR]. *)
