(** Per-run summary persistence and regression detection.

    A run is a flat list of named indicators (convergence seconds,
    disruption seconds, delivery ratios, …). Saved baselines are JSON
    with sorted keys and fixed-precision values — byte-identical for
    identical runs — and {!diff} flags any indicator that moved beyond
    a tolerance band in its bad direction. *)

type indicator = {
  i_name : string;
  i_value : float;
  i_unit : string;
  i_lower_is_better : bool;
      (** durations/losses: lower is better; ratios/deliveries:
          higher is better *)
}

type run = { run_label : string; indicators : indicator list }

type tolerance = {
  tol_rel : float;  (** fraction of the baseline value *)
  tol_abs : float;  (** absolute floor, protects near-zero baselines *)
}

type status = Ok | Improved | Regressed | Added | Removed

val status_string : status -> string

type entry = {
  e_name : string;
  e_status : status;
  e_base : float option;
  e_current : float option;
  e_unit : string;
}

val schema : string
(** ["rfauto-baseline-v1"], embedded in every file. *)

exception Malformed of string

val to_json : run -> string

val of_json : string -> run
(** Raises {!Malformed} on wrong schema or missing fields. *)

val save : string -> run -> unit

val load : string -> run

val diff : ?tol:tolerance -> base:run -> current:run -> unit -> entry list
(** Entries sorted by indicator name; indicators present on only one
    side report [Added]/[Removed] (neither is a regression). [tol]
    defaults to 10% relative, 0.001 absolute. *)

val has_regression : entry list -> bool

val pp_diff : Format.formatter -> entry list -> unit
(** Fixed-width comparison table with signed percentage deltas. *)
