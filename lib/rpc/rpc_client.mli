(** Session-aware reliable RPC client (topology-controller side).

    Every configuration message is wrapped in an envelope carrying the
    client's session epoch and a sequence number, retransmitted with
    exponential backoff (plus seeded jitter, so a run replays exactly
    from its seed) until acknowledged. After [max_retries]
    retransmissions a frame is parked, the counter {!gave_up} is
    bumped, and the peer is declared dead; the first sign of life from
    the peer resends every parked frame with the backoff restarted.

    A heartbeat [Ping] goes out every [heartbeat_every]; silence for
    [dead_after] consecutive intervals also flips {!peer_alive}.

    Restart semantics: the epoch field of every server envelope carries
    the server's incarnation number, so any reply after a server
    restart is detected immediately and triggers a resync — the client
    bumps its own epoch (invalidating the server's dedup state for the
    old session) and resends its authoritative state, as one
    [Sync_snapshot] when a provider is installed via
    {!set_snapshot_provider}. With [resync = false] the client keeps
    legacy behaviour: restarts reuse the same epoch and sequence
    numbers collide with the server's dedup state — the motivating bug,
    kept reproducible for the restart experiment's baseline. *)

type params = {
  rto : Rf_sim.Vtime.span;  (** initial retransmission timeout *)
  rto_max : Rf_sim.Vtime.span;  (** backoff cap *)
  max_retries : int;
      (** retransmissions before a frame is parked and the peer is
          declared dead *)
  heartbeat_every : Rf_sim.Vtime.span;
  heartbeat_jitter : float;
      (** extra uniform delay per heartbeat, as a fraction of
          [heartbeat_every]; 0 keeps the fixed cadence the pinned
          experiment fingerprints encode *)
  dead_after : int;
      (** heartbeat intervals of silence before the peer is presumed
          dead *)
  resync : bool;
      (** epoch bump + state resend on restart detection; [false]
          reproduces the pre-supervision protocol *)
}

val default_params : params
(** rto 2 s, cap 30 s, 10 retries, heartbeat 5 s, dead after 3 silent
    intervals, resync on. *)

type t

val create :
  Rf_sim.Engine.t -> ?params:params -> Rf_net.Channel.endpoint -> t
(** Installs the channel receiver and starts the heartbeat timer.
    Jitter draws come from a generator split off the engine's, so the
    retransmission schedule is replayable from the engine seed. *)

val send : t -> Rpc_msg.t -> unit
(** Tracked send: assigned the next sequence number and retransmitted
    until acknowledged. While crashed, messages are counted in
    {!dropped_while_down} and lost — exactly what the reconciliation
    snapshot exists to repair. *)

val set_snapshot_provider : t -> (unit -> Rpc_msg.t list) -> unit
(** Called on resync to rebuild the full authoritative state. Without a
    provider, resync renumbers and resends only the in-flight frames. *)

val set_fault_profile : t -> Rf_sim.Rng.t -> Rf_sim.Faults.chan_profile -> unit
(** Applies per-frame fates (drop/duplicate/delay) to every
    transmission, as [Of_conn] does for the OpenFlow channel. *)

val crash : t -> unit
(** Simulated process death: pending state and timers are lost; sends
    and received bytes are ignored until {!restart}. *)

val restart : t -> unit
(** Comes back up. With [resync] the epoch is bumped and a snapshot is
    sent (when a provider is installed); without it the client reuses
    its old epoch and restarts numbering from 1 — the seq-collision
    bug. *)

(** {1 Introspection} *)

val unacked : t -> int

val sent : t -> int
(** Tracked frames sent (excluding retransmissions): reads the
    engine's [rpc_client_sent_total] counter. *)

val retransmissions : t -> int
(** Reads the engine's [rpc_client_retx_total] counter. *)

val gave_up : t -> int
(** Frames that exhausted [max_retries] and were parked: reads the
    engine's [rpc_client_gave_up_total] counter. *)

val pings_sent : t -> int

val snapshots_sent : t -> int

val resyncs : t -> int
(** Reads the engine's [rpc_client_resyncs_total] counter. *)

val dropped_while_down : t -> int

val peer_alive : t -> bool

val epoch : t -> int32

val set_next_seq : t -> int32 -> unit
(** Test hook: force the next allocated sequence to be the successor of
    [seq] (pair with [Rpc_server.set_watermark] to exercise
    wraparound). *)
