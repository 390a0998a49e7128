(** The measurement plane: per-flow loss / latency / goodput accounting
    and disruption-window detection.

    Generators declare probes with {!sent}; fabrics (or live host UDP
    handlers) report arrivals with {!delivered}. A periodic reaper
    declares probes lost once they are older than the spec's loss
    timeout; a flow's *disruption window* is the virtual-time envelope
    of its lost probes' send times, also emitted as a
    ["traffic.disruption"] span on the engine tracer (opened at the
    first loss, closed at the first delivery after the losses — the
    observed recovery). Latencies feed the engine's metrics registry
    (log-bucket [traffic_latency_seconds] histogram plus
    offered/delivered/lost counters, labelled by class).

    All counting is in *weighted* packets: a probe carrying weight w
    stands for w packets of its aggregated flow, so offered =
    delivered + lost holds exactly after {!finalize}.

    Memory follows the flows in flight, not the length of the run. A
    flow that is closed and has no probe outstanding is folded into
    its class's totals; its id keeps one word, and late arrivals on it
    still count on its class. Each delivered probe keeps one unboxed
    latency sample. *)

type t

type flow

val create : Rf_sim.Engine.t -> loss_timeout_s:float -> unit -> t

val register_flow : t -> cls:string -> src:string -> dst:string -> flow

val flow_id : flow -> int

val sent : t -> flow -> seq:int -> weight:int -> bytes:int -> unit
(** Record a probe handed to the fabric at the current instant. *)

val delivered : t -> flow_id:int -> seq:int -> unit
(** Record a probe arrival. Unknown flows, duplicates and probes
    already declared lost are counted as late and otherwise ignored, so
    conservation is preserved. *)

val close_flow : flow -> unit
(** The generator will send no more probes for this flow; once its
    outstanding probes resolve the reaper stops tracking it. *)

val finalize : t -> unit
(** Stop the reaper, declare every still-outstanding probe lost and
    close the disruption spans of the flows the reaper still watches.
    Call once, after the run's horizon.

    The reaper stops watching a flow once it is closed and has no probe
    outstanding. If no delivery followed that flow's last loss, its
    span stays open: [finalize] does not reach it. *)

(** {1 Summaries} *)

type class_summary = {
  cs_class : string;
  cs_flows : int;
  cs_offered : int;  (** weighted packets *)
  cs_delivered : int;
  cs_lost : int;
  cs_late : int;  (** duplicate / post-verdict arrivals (samples) *)
  cs_bytes : int;  (** weighted goodput, bytes *)
  cs_latency : Rf_sim.Stats.summary option;
  cs_disrupted_flows : int;
  cs_window : (float * float) option;
      (** loss envelope in seconds of virtual time *)
}

val flow_count : t -> int

val class_summary : t -> string -> class_summary

val summaries : t -> class_summary list
(** One per class, in first-registration order. *)

val total_offered : t -> int

val total_delivered : t -> int

val total_lost : t -> int

val disruption_window : t -> (float * float) option
(** Envelope over all flows; [None] when no probe was lost. *)

val disruption_seconds : t -> float
(** Envelope duration, 0 when no loss. *)

val disrupted_flows : t -> int
