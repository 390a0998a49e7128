(** FlowVisor: a transparent OpenFlow proxy that lets several
    controllers share the same switches, each confined to its slice.

    Toward each switch, FlowVisor is the controller (it completes the
    handshake itself). Toward each slice controller, it impersonates
    every connected switch over a dedicated channel, answering
    handshakes from cached features, policing flow-mods and packet-outs
    against the slice's flowspace, classifying packet-ins to the owning
    slice, and translating transaction ids both ways. *)


type t

val create : Rf_sim.Engine.t -> t
(** Slice connections get {!Rf_net.Channel.create}'s default latency. *)

val add_slice :
  t ->
  Flowspace.t ->
  attach:(dpid:int64 -> Rf_net.Channel.endpoint -> unit) ->
  unit
(** [attach] is invoked once per (slice, switch) as switches complete
    their handshake; the endpoint speaks OpenFlow 1.0 and behaves like
    a direct connection to that switch. Classification follows slice
    registration order. Must be called before switches connect. *)

val switch_attach : t -> dpid:int64 -> Rf_net.Channel.endpoint -> unit
(** Give FlowVisor the controller-side endpoint of a switch's control
    channel — pass this (partially applied) as [attach_controller] to
    {!Rf_net.Network.build}. The [dpid] parameter is redundant with the
    handshake and only used for bookkeeping labels. *)

val set_on_flow_mod :
  t ->
  (dpid:int64 ->
  slice:string ->
  Rf_openflow.Of_msg.flow_mod_command ->
  Rf_openflow.Of_match.t ->
  priority:int ->
  unit) ->
  unit
(** Observer fired for every flow-mod a slice controller was permitted
    to install, before it is forwarded to the switch, with its command,
    match and priority — the auditor's slice-attribution feed. Denied
    flow-mods never reach it. *)

(** {1 Introspection} *)

val slices : t -> string list

val switches_connected : t -> int64 list

val messages_to_slice : t -> string -> int
(** Switch→controller messages forwarded into a slice. *)

val messages_from_slice : t -> string -> int

val denied_flow_mods : t -> string -> int
(** Flow-mods rejected because they escaped the slice's flowspace. *)
