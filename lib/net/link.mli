(** Data-plane links with propagation latency, optional capacity
    (bandwidth + bounded FIFO queue with tail drop) and failure
    injection. *)

type t

type attachment =
  | To_switch of Datapath.t * int  (** datapath, port number *)
  | To_host of Host.t

type capacity = {
  bandwidth_bps : int;  (** serialization rate, bits per second *)
  queue_frames : int;
      (** bounded per-direction FIFO depth, counting the frame being
          serialized; arrivals beyond this are tail-dropped *)
}

val connect :
  Rf_sim.Engine.t ->
  ?latency:Rf_sim.Vtime.span ->
  ?capacity:capacity ->
  attachment ->
  attachment ->
  t
(** Wires the two attachments together: installs each side's transmit
    function so frames appear at the other side after [latency]
    (default 1 ms), one engine event per frame. A frame is lost if the
    link went down at any time since it was accepted, even if the link
    is up again when it would arrive.

    Without [capacity] the link is ideal (infinite bandwidth, no
    queueing): a frame arrives [latency] after it was sent. With
    [capacity], each direction serializes frames at [bandwidth_bps]
    through a bounded FIFO of [queue_frames] slots; frames arriving at
    a full queue are tail-dropped and counted in
    {!frames_queue_dropped}. A frame leaves the FIFO when its
    serialization ends (before any frame sent at that instant is
    queued) and arrives [latency] later. *)

val set_capacity : t -> capacity option -> unit
(** Changes the capacity model for subsequent frames. [None] restores
    the ideal (unqueued) link. *)

val capacity : t -> capacity option

val set_up : t -> bool -> unit
(** Also drives the port-status state on switch attachments. *)

val is_up : t -> bool

val set_tap : t -> (string -> unit) -> unit
(** Observes every frame the link delivers (both directions); used by
    the pcap capture. One tap per link. *)

val frames_offered : t -> int
(** Every frame handed to the link by either side. Conservation holds
    after the engine quiesces: offered = carried + dropped. *)

val frames_carried : t -> int

val frames_dropped : t -> int
(** Frames lost to link-down transitions plus queue tail drops. *)

val frames_queue_dropped : t -> int
(** The subset of {!frames_dropped} lost to a full FIFO. *)
