(** The per-switch configuration span tree of E1b.

    Each switch that reaches the slicer gets one [sw.configure] span,
    and the four phases of its configuration hang under it:
    discovery, RPC delivery, VM provisioning and Quagga configuration.
    The phases open and close in different libraries, reached from
    one another only through callbacks, so the open spans are found
    by (phase, dpid) in the tracer's correlation table. This module
    is the only one that builds those keys or names those spans. *)

type t = Configure | Discovery | Rpc | Vm | Quagga

val name : t -> string
(** The span name: [sw.configure], [phase.discovery], [phase.rpc],
    [phase.vm] or [phase.quagga]. *)

val start : Tracer.t -> t -> int64 -> unit
(** Opens the phase's span for the switch, replacing any open one in
    the table. A [Configure] span carries a [dpid] attribute; every
    other phase hangs under the switch's open [Configure], and has no
    parent when none is open. *)

val current : Tracer.t -> t -> int64 -> int option
(** The id of the switch's open span of that phase. *)

val finish : Tracer.t -> t -> int64 -> float option
(** Closes the switch's open span of that phase and returns how long
    it was open, in seconds; [None] when none is open, so a span
    closes once. *)

val abort : Tracer.t -> int64 -> unit
(** Closes every open phase of the switch, innermost first, with
    [status=aborted]. *)
