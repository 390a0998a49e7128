(** Session-aware RPC server beside the RF-controller.

    Deduplication is bounded, unlike the original grow-forever seen
    set: a cumulative watermark records the highest contiguously
    delivered sequence of the current client epoch, and a fixed-size
    out-of-order window buffers (already acknowledged) frames ahead of
    it until the gap closes, so the handler observes every message of
    an epoch exactly once and in order. Frames beyond the window are
    dropped unacknowledged; frames from an older epoch are dropped as
    stale. Adopting a newer epoch evicts all dedup state — the client
    bumps its epoch precisely when it wants a fresh session.

    Every reply (ack, pong, sync request) carries the server's
    incarnation number in the envelope's epoch field; a {!restart}
    after a {!crash} increments it and proactively sends
    [Sync_request], so the client both notices the restart and learns
    it must resend its authoritative state. *)

type t

val create : Rf_sim.Engine.t -> Rf_net.Channel.endpoint -> t

val set_handler : t -> (Rpc_msg.t -> unit) -> unit
(** Receives each request of an epoch exactly once, in sequence
    order. *)

val set_snapshot_handler : t -> (Rpc_msg.t list -> unit) -> unit
(** Receives the client's [Sync_snapshot] (also exactly once per
    sequence number); the RF-controller reconciles it against its live
    VM/config state, applying only the delta. *)

val set_fault_profile : t -> Rf_sim.Rng.t -> Rf_sim.Faults.chan_profile -> unit
(** Applies per-frame fates to every reply transmission. *)

val crash : t -> unit
(** Process death: session state (epoch, watermark, out-of-order
    buffer) is lost; incoming bytes are ignored. *)

val restart : t -> unit
(** Bumps the incarnation and sends [Sync_request]. *)

(** {1 Introspection} *)

val requests_handled : t -> int
(** Reads the engine's [rpc_server_handled_total] counter. *)

val duplicates_dropped : t -> int
(** Reads the engine's [rpc_server_dups_total] counter. *)

val snapshots_received : t -> int
(** Reads the engine's [rpc_server_snapshots_total] counter. *)

val incarnation : t -> int32

val dedup_size : t -> int
(** Out-of-order frames currently buffered; never exceeds the window
    (512). *)

val set_watermark : t -> int32 -> unit
(** Test hook: pretend every seq serially <= [seq] was already
    delivered (pair with [Rpc_client.set_next_seq] to exercise
    wraparound). *)
