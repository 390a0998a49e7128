(** Continuous forwarding-state auditor.

    Subscribes (via the owner's hooks) to flow-table changes, link
    state transitions, RIB publications and slice attributions,
    maintains an incremental {!Fwd_model} composed into forwarding
    walks per header equivalence class, and checks four invariants on
    every update:

    - no forwarding loops,
    - no blackholes for destinations inside a configured host prefix,
    - control-plane RIB vs. installed-FIB consistency per switch, and
    - FlowVisor slice isolation (no installed flow escapes the
      flowspace of the slice that installed it).

    Each violation is keyed coarsely (loops and blackholes by
    destination prefix, RIB–FIB divergence by switch, isolation by
    slice) and tracked as a *violation window* — opened when the first
    witness appears, closed when the last one disappears — so every
    fault produces a measurable interval in virtual time. Windows are
    mirrored as [audit.violation] spans on the attached tracer and
    counted in the attached metrics registry
    ([audit_violations_total{kind}], [audit_check_seconds],
    [audit_eq_classes], [audit_dropped_total]).

    Incrementality: every forwarding walk records the switches it
    visited; a rule or link update re-runs only the walks whose
    footprint contains a touched switch. {!full_recheck} re-runs
    everything and is the differential comparator the bench and the
    qcheck oracle use. All timestamps come from the injected clock
    (the simulation installs virtual time), so same-seed windows are
    byte-identical; wall-clock only ever feeds the
    [audit_check_seconds] histogram. *)

open Rf_packet

type kind = Loop | Blackhole | Rib_fib | Slice

val kind_to_string : kind -> string
(** ["loop"], ["blackhole"], ["rib_fib"], ["slice"]. *)

type window = {
  w_kind : kind;
  w_key : string;
  w_open_us : int;
  mutable w_close_us : int option;  (** [None] while still open *)
}

type t

val create :
  ?clock:(unit -> int) ->
  ?tracer:Tracer.t ->
  ?metrics:Metrics.t ->
  unit ->
  t
(** [clock] defaults to the tracer's clock when one is attached, else
    to a constant 0. *)

(** {1 Topology feed (setup time)} *)

val add_switch : t -> int64 -> unit
(** Registers a switch as a probe ingress (and in the model). *)

val add_link : t -> a:int64 * int -> b:int64 * int -> unit

val add_host : t -> dpid:int64 -> port:int -> Ipv4_addr.Prefix.t -> unit
(** Declares a configured prefix served behind [port] of [dpid]:
    blackhole checking covers exactly these destinations. *)

val set_slice : t -> string -> Rf_openflow.Of_match.t list -> unit
(** Registers (or replaces) a slice's flowspace pattern list. *)

(** {1 Update feed (every call is one audited update)} *)

val set_switch_rules : t -> int64 -> Fwd_model.rule list -> unit
(** Replaces the switch's classifier snapshot and re-audits
    incrementally. *)

val set_link_state : t -> a:int64 * int -> b:int64 * int -> bool -> unit

val set_rib : t -> int64 -> (Ipv4_addr.Prefix.t * int) list -> unit
(** Publishes the switch's desired FIB: the (prefix, output port)
    pairs its VM's RIB currently resolves. *)

val attribute :
  t -> dpid:int64 -> match_:Rf_openflow.Of_match.t -> priority:int ->
  string -> unit
(** Records which slice installed the flow identified by (match,
    priority) on [dpid]; the isolation check consults this map. *)

val full_recheck : t -> unit
(** Re-runs every walk and every per-switch check. Window state is
    unchanged when the incremental bookkeeping was correct — this is
    the comparator benched against the incremental path. *)

(** {1 Results} *)

val windows : t -> window list
(** Every violation window, in opening order. *)

val open_violations : t -> (kind * string) list
(** Currently-open windows, sorted. *)

val overlapping : t -> start_us:int -> stop_us:int -> window list
(** Windows intersecting the closed interval [start_us, stop_us] —
    the exit-code-5 gate evaluates this over the steady-state
    interval. *)

val reachability : t -> (string * int64 * string) list
(** One row per (equivalence class, ingress switch): the class's
    prefix, the ingress dpid and the walk verdict ("delivered" /
    "blackhole" / "loop" / "unprobed" when the class has no coverable
    representative). Sorted; the qcheck oracle diffs this against
    brute-force per-packet simulation. *)

val updates : t -> int
(** Audited updates processed. *)

val eq_classes : t -> int

val walks : t -> int
(** Forwarding walks currently cached (classes x ingresses). *)

val dropped : t -> int
(** Classes the auditor could not probe (no representative address
    avoids every more-specific class): non-zero means the audit is
    incomplete, surfaced by {!Ingest.dropped_records}. *)

val violations_total : t -> kind -> int
(** Windows opened so far, per kind. *)
