(** The switch-side OpenFlow endpoint.

    Owns the control channel of one {!Datapath}: performs the version
    handshake, answers echo/features/config/stats/barrier, applies
    flow-mods and packet-outs, and pushes packet-in / flow-removed /
    port-status events to the controller. *)

type t

val create : Rf_sim.Engine.t -> Datapath.t -> Channel.endpoint -> t
(** Sends OFPT_HELLO immediately and starts serving. *)

val disconnect : t -> unit
(** Closes the control channel (models a switch crash or management
    disconnect). *)
