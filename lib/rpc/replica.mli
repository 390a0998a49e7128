(** One member of the replicated RF-controller cluster.

    A simplified Raft-style state machine over the {!Rpc_msg} wire:
    epoch-based leader election with randomized (seeded) timeouts,
    log replication with cumulative follower acks, and full-log
    snapshot anti-entropy ([Sync_request]/[Sync_snapshot]) for gap
    recovery. The epoch, vote and log model stable storage — they
    survive {!crash}; role, known leader, commit index and timers are
    volatile and are re-learned after {!restart} (committed entries
    replay through the commit hook, so appliers must be idempotent).

    Election safety: a vote is granted at most once per epoch and only
    to candidates whose log is at least as long as the voter's, so two
    leaders can never coexist in one epoch and an elected leader holds
    every committed entry (commit requires a majority, and majorities
    intersect). When a replica first accepts a leader for an epoch it
    truncates its uncommitted tail — entries an earlier leader failed
    to commit — and resyncs from the new leader's snapshot.

    The replica is transport-agnostic: it emits protocol messages
    through the [send] callback and consumes them via {!receive}; the
    mesh wiring (channels, partitions, frame faults) lives in
    {!Cluster}. *)

type role = Follower | Candidate | Leader

type config = {
  id : int;  (** this replica's index, [0 .. replicas-1] *)
  replicas : int;
}
(** The timers are fixed. A replica stands for election after 2 s of
    silence plus a deterministic bias proportional to its id and a
    seeded jitter draw, so replica 0 bootstraps as the first leader and
    re-elections rarely collide. A leader heartbeats every 0.5 s plus a
    seeded uniform delay of up to a quarter of that. *)

type t

val create :
  Rf_sim.Engine.t ->
  rng:Rf_sim.Rng.t ->
  config ->
  send:(dst:int -> Rpc_msg.body -> unit) ->
  t
(** Starts as follower with the election timer armed. All randomness
    (timeout jitter) comes from [rng], so same-seed runs are
    bit-identical. *)

val set_on_commit : t -> (int -> Rpc_msg.t -> unit) -> unit
(** Called once per newly committed log entry, in index order (1-based).
    Re-fires from index 1 after a crash/restart replay. *)

val set_on_role : t -> (role -> int32 -> unit) -> unit
(** Called on every role change with the new role and epoch. *)

val receive : t -> src:int -> Rpc_msg.body -> unit
(** Feed a protocol message from replica [src]. Non-cluster bodies and
    anything received while crashed are ignored. *)

val submit : t -> Rpc_msg.t -> bool
(** Leader-only append: adds the message to the replicated log and
    broadcasts it. Returns [false] (and does nothing) on a follower,
    candidate or crashed replica — callers re-submit to the next
    leader. *)

val crash : t -> unit
(** Process death: volatile state (role, leader, commit, timers) is
    lost; epoch, vote and log survive as stable storage. *)

val restart : t -> unit
(** Rejoins as follower and re-arms the election timer; committed
    entries replay through the commit hook once a leader is heard. *)

(** {1 Introspection} *)

val id : t -> int

val role : t -> role

val term : t -> int32
(** Current cluster epoch. *)

val leader : t -> int option
(** The leader this replica currently follows (itself when leading). *)

val crashed : t -> bool

val log : t -> Rpc_msg.t list
(** The replicated log, oldest first. *)

val log_digest : t -> string
(** MD5 over the committed prefix — equal across replicas once they
    have converged. *)
