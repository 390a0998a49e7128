(** A replicated RF-controller cluster: N {!Replica}s wired over a
    full mesh of {!Rf_net.Channel}s speaking the {!Rpc_msg} wire
    format, plus the fault surface the robustness experiments drive —
    per-replica crash/restart, network partitions between replica
    subsets, and per-frame fault profiles (drop/duplicate/delay).

    The cluster tracks the acting leader across elections and exposes
    a single [submit] entry point: messages are appended to the
    current leader's replicated log (or queued while the cluster is
    leaderless) and surface exactly once, in commit order, through the
    apply hook once a majority holds them. After a failover the
    in-flight tail is re-submitted to the new leader, so appliers must
    be idempotent — the RouteFlow mutation entry points are.

    Telemetry: a [cluster_leader_epoch] gauge, a
    [cluster_elections_total] counter, a [cluster_election_seconds]
    histogram of leaderless intervals, and a [cluster.failover] span
    per disruption window, all on the engine's registry/tracer. *)

type t

val create :
  Rf_sim.Engine.t ->
  rng:Rf_sim.Rng.t ->
  ?replicas:int ->
  ?latency:Rf_sim.Vtime.span ->
  unit ->
  t
(** Defaults: 3 replicas, 1 ms mesh latency, {!Replica.default_config}
    timers. Each replica's jitter stream is derived from [rng] by a
    per-replica salt, so the parent generator is never advanced and
    same-seed runs are bit-identical. Replica 0's biased election
    timeout makes it the deterministic bootstrap leader. *)

val set_on_apply : t -> (Rpc_msg.t -> unit) -> unit
(** Called once per committed log entry, in log order, deduplicated by
    index across replicas and failovers (re-submitted duplicates after
    a leader change appear as new entries and re-fire). *)

val set_on_leader_change : t -> (int -> unit) -> unit
(** Called when the acting leader changes, after the pending tail has
    been re-submitted to it. *)

val set_on_failover : t -> (unit -> unit) -> unit
(** Called when the cluster becomes leaderless (the acting leader
    crashed or lost its quorum) — the moment switch sessions must fall
    back to slave mode. *)

val set_fault_profile : t -> Rf_sim.Rng.t -> Rf_sim.Faults.chan_profile -> unit
(** Per-frame fates on every mesh transmission. *)

val submit : t -> Rpc_msg.t -> unit
(** Replicate a configuration message. Queued while leaderless;
    applied (via the apply hook) once committed by a majority. *)

(** {1 Fault injection} *)

val crash : t -> int -> unit
(** Kill replica [i]: volatile state lost, log and epoch survive. *)

val restart : t -> int -> unit

val partition : t -> int list -> int list -> unit
(** Drop every frame between the two replica subsets (both
    directions). Replicas in neither subset keep full connectivity.
    Replaces any previous partition. *)

val heal : t -> unit

(** {1 Introspection} *)

val replicas : t -> int

val leader : t -> int option
(** The acting leader the cluster currently routes submissions to. *)

val leader_epoch : t -> int32

val member : t -> int -> Replica.t

val leadership_history : t -> (int32 * int) list
(** Every (epoch, replica) pair that ever won an election, most recent
    first. Election safety means no epoch appears twice with different
    replicas. *)

val elections : t -> int

val failovers : t -> int
(** Completed leaderless intervals (crash/partition to re-election). *)

val last_failover_s : t -> float option
(** Duration of the most recent completed failover. *)

val pending : t -> int
(** Submitted messages not yet committed. *)

val applied : t -> int
(** Committed entries surfaced through the apply hook. *)

val partition_drops : t -> int
(** Frames dropped by the active partition. *)

val log_digest : t -> int -> string

val converged : t -> bool
(** All live replicas agree on the committed prefix digest. *)
