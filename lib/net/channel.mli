(** Reliable, ordered, bidirectional message channels.

    These model the control-plane TCP connections of the paper's
    testbed: switch↔FlowVisor, FlowVisor↔controller, and RPC
    client↔server sessions. Delivery is in order with a fixed one-way
    latency; there is no loss (the real transport is TCP).

    One [send], one delivery: the receiver gets each sent string whole,
    never split and never merged with another. Receivers rely on this
    and decode each chunk as exactly one protocol message. *)

type endpoint
(** One side of a channel. *)

val create :
  Rf_sim.Engine.t ->
  ?latency:Rf_sim.Vtime.span ->
  ?entity:Rf_obs.Profiler.entity ->
  unit ->
  endpoint * endpoint
(** A connected pair. Default latency 1 ms. [entity] tags both
    directions' delivery events for load attribution (e.g. the
    per-switch control channel tags its switch). *)

val send : endpoint -> string -> unit
(** Queues one message for the peer; it arrives, whole, after the
    channel latency.
    Sending on a closed channel is a silent no-op (as writes to a dying
    TCP connection are, from the application's viewpoint). *)

val set_receiver : endpoint -> (string -> unit) -> unit
(** At most one receiver per endpoint, called once per message sent by
    the peer; messages delivered before a receiver is installed are
    buffered. *)

val close : endpoint -> unit
(** Closes both directions; the peer's [set_on_close] fires after the
    channel latency. *)

val set_on_close : endpoint -> (unit -> unit) -> unit

val is_open : endpoint -> bool
