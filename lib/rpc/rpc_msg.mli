(** Configuration messages between the topology controller's RPC client
    and the RPC server at the RF-controller (paper §2): switch
    detection carries the datapath id and port count; link detection
    carries the interface addresses the topology controller allocated
    from the administrator's range. [Edge_subnet] carries the
    host-facing subnets from the administrator's static input.

    Every envelope carries a session epoch and a sequence number. The
    client's epoch identifies one run of the topology controller:
    bumping it on restart keeps fresh sequence numbers from colliding
    with the server's dedup state for the previous session. Envelopes
    sent by the server carry its incarnation number in the epoch field,
    so every ack and heartbeat reply doubles as a restart beacon.
    Supervision messages: [Ping]/[Pong] heartbeats, [Ack] with a
    cumulative watermark, and the anti-entropy pair
    [Sync_request]/[Sync_snapshot]. *)

open Rf_packet

type t =
  | Switch_up of { dpid : int64; n_ports : int }
  | Switch_down of { dpid : int64 }
  | Link_up of {
      a_dpid : int64;
      a_port : int;
      a_ip : Ipv4_addr.t;
      a_prefix_len : int;
      b_dpid : int64;
      b_port : int;
      b_ip : Ipv4_addr.t;
      b_prefix_len : int;
    }
  | Link_down of { a_dpid : int64; a_port : int; b_dpid : int64; b_port : int }
  | Edge_subnet of {
      dpid : int64;
      port : int;
      gateway : Ipv4_addr.t;
      prefix_len : int;
    }

type ack = {
  a_epoch : int32;  (** the client epoch being acknowledged *)
  a_cum : int32;  (** every seq serially <= this has been delivered *)
  a_seq : int32;  (** the specific seq that triggered this ack *)
}

type envelope = { epoch : int32; seq : int32; body : body }

and body =
  | Request of t
  | Ack of ack
  | Ping
  | Pong
  | Sync_request  (** server asks the client for a full state snapshot *)
  | Sync_snapshot of t list
      (** the topology controller's authoritative view, in application
          order (switches, then edges, then links) *)
  | Elect_request of { el_epoch : int32; el_candidate : int; el_last : int32 }
      (** replica [el_candidate] stands for election in cluster epoch
          [el_epoch]; [el_last] is its replicated-log length, so voters
          can refuse candidates that would lose committed state *)
  | Elect_vote of { ev_epoch : int32; ev_voter : int; ev_granted : bool }
  | Leader_heartbeat of {
      lh_epoch : int32;
      lh_leader : int;
      lh_commit : int32;  (** committed log prefix at the leader *)
      lh_len : int32;  (** leader log length; shorter followers resync *)
    }
  | Replicate of {
      rp_epoch : int32;
      rp_leader : int;
      rp_index : int32;  (** 1-based log index of [rp_msg] *)
      rp_msg : t;
    }
  | Replicate_ack of { ra_epoch : int32; ra_replica : int; ra_index : int32 }
      (** follower [ra_replica]'s log holds a contiguous prefix up to
          [ra_index] *)

(** {1 Serial sequence arithmetic}

    Sequence numbers and epochs wrap around int32; comparisons use
    serial arithmetic so ordering survives the wrap. Sequence 0 is
    reserved for untracked envelopes (acks, heartbeats, sync
    requests). *)

val seq_after : int32 -> int32 -> bool
(** [seq_after a b] is true when [a] is serially after [b]. *)

val seq_succ : int32 -> int32
(** Successor, skipping the reserved value 0. *)

val to_wire : envelope -> string
(** Length-prefixed frame. Raises [Invalid_argument] if a snapshot
    holds more messages than its u16 count can say (65,535). *)

val of_wire : string -> (envelope, string) result
(** Decodes exactly one frame. [Error] when the length prefix differs
    from the rest of the string's length, so a trailing byte or a
    second frame is rejected, never silently dropped. *)

val pp : Format.formatter -> t -> unit

val pp_body : Format.formatter -> body -> unit
