(** Controller-side OpenFlow connection.

    Wraps one control channel: performs the Hello / Features handshake,
    answers echo requests, assigns transaction ids, and dispatches
    incoming messages to the owning application. *)

open Rf_openflow

type role = Master | Slave
(** OpenFlow 1.2-style controller role. A [Slave] keeps the channel
    open (handshake, echo replies, reads) but its state-changing sends —
    [Flow_mod] and [Packet_out] — are suppressed, each leaving a
    [slave-suppressed] trace record. Standby cluster replicas hold
    their switch connections as slaves until failover promotes them. *)

type t

val create : Rf_sim.Engine.t -> Rf_net.Channel.endpoint -> t
(** Sends Hello immediately; requests features once the peer's Hello
    arrives. The connection sends no keepalive and schedules no timer:
    it answers a peer's [Echo_request] but never originates one. Its
    liveness is the channel's: a dead switch closes the channel, and
    [set_on_close] is how the owner learns of it. *)

val dpid : t -> int64 option
(** Known after the handshake completes. *)

val features : t -> Of_msg.features option

val set_on_handshake : t -> (Of_msg.features -> unit) -> unit

val set_on_message : t -> (Of_msg.t -> string -> unit) -> unit
(** Receives every message except Hello, Echo and Features_reply
    (handled internally), with the bytes it arrived as, so a proxy can
    relay them without encoding the message again. *)

val set_fault_profile : t -> Rf_sim.Rng.t -> Rf_sim.Faults.chan_profile -> unit
(** Makes this connection's outgoing messages subject to the lossy
    profile: each message is dropped, duplicated or delayed per a draw
    from the given generator (split it off the engine's seeded root so
    the run stays replayable). Faults apply to whole messages, never
    to part of one, and the handshake openers (Hello,
    Features_request) are exempt from drop/duplication since nothing
    retries them. *)

val set_role : t -> role -> unit
(** Connections start as [Master]. *)

val role : t -> role

val messages_dropped : t -> int

val messages_duplicated : t -> int

val messages_delayed : t -> int

val set_on_close : t -> (unit -> unit) -> unit
(** Runs once when the channel closes, at either end (see
    {!Rf_net.Channel.close}); replaces any earlier callback. *)

val send : t -> Of_msg.payload -> int32
(** Assigns and returns a fresh xid. *)

val send_msg : t -> Of_msg.t -> unit
(** [send_wire] of the message's encoding. *)

val send_wire : t -> string -> unit
(** Sends one encoded message as it is: the one path every send takes,
    with the fault profile applied per message. *)

val is_open : t -> bool

val close : t -> unit

(** {1 Convenience senders} *)

val packet_out :
  t -> ?in_port:int -> actions:Of_action.t list -> string -> unit

val flow_mod : t -> Of_msg.flow_mod -> unit
