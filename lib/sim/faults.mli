(** Deterministic fault injection for the simulator.

    A {!plan} is a declarative description of everything that goes
    wrong during a run: timed topology faults (link flaps, switch
    crashes, VM clone failures) plus an optional probabilistic fault
    profile for control channels. Probabilistic faults draw from an
    {!Rng.t} split off the engine's seeded root generator, so a run is
    replayable bit-for-bit from its seed — the foundation of the
    failure-recovery experiments and the determinism regression tests.

    This module is layer-agnostic: it only knows datapath ids and
    virtual time. The scenario layer supplies an {!injector} that maps
    each fault onto the emulated network, and components with a control
    channel (e.g. the controller-side OpenFlow connection) send each
    frame through {!transmit} to apply a {!chan_profile}. *)

(** {1 Timed topology faults} *)

type link_ref = { l_a : int64; l_b : int64 }
(** A switch–switch link named by its endpoints' datapath ids. *)

type event =
  | Link_down of link_ref
  | Link_up of link_ref  (** recovery of a previously failed link *)
  | Switch_crash of int64
      (** the switch loses its control connection; the datapath keeps
          forwarding headless *)
  | Switch_recover of int64
  | Vm_boot_failure of { dpid : int64; failures : int }
      (** arms the RouteFlow server so the next [failures] VM clone
          attempts for [dpid] fail; the server's retry policy re-queues
          the switch after each failed boot until a clone succeeds *)
  | Controller_crash of int
      (** RF-controller replica [i] dies: its RPC/replication endpoint
          stops reading and loses all volatile session state. Replica 0
          is the single controller of the legacy deployments *)
  | Controller_recover of int
      (** the replica restarts (new incarnation / rejoins the cluster
          as follower) and resynchronizes state *)
  | Controller_partition of { cp_a : int list; cp_b : int list }
      (** drop every RPC frame between the two replica subsets, both
          directions; replicas in neither subset keep connectivity *)
  | Controller_heal  (** lifts the active controller partition *)

type timed = { at : Vtime.t; ev : event }

(** Convenience constructors, taking the instant in simulated seconds. *)

val link_down : at_s:float -> int64 -> int64 -> timed

val link_up : at_s:float -> int64 -> int64 -> timed

val switch_crash : at_s:float -> int64 -> timed

val switch_recover : at_s:float -> int64 -> timed

val vm_boot_failure : at_s:float -> dpid:int64 -> failures:int -> timed

val controller_crash : at_s:float -> ?replica:int -> unit -> timed
(** [replica] defaults to 0, the legacy single controller. *)

val controller_recover : at_s:float -> ?replica:int -> unit -> timed

val controller_partition : at_s:float -> int list -> int list -> timed

val controller_heal : at_s:float -> timed

(** {1 Probabilistic control-channel faults} *)

type chan_profile = {
  cf_drop : float;  (** P(message silently dropped) *)
  cf_duplicate : float;  (** P(message delivered twice) *)
  cf_delay : float;  (** P(message delayed) *)
  cf_max_delay : Vtime.span;
      (** a delayed message waits a uniform draw from [0, cf_max_delay) *)
}
(** Per-message fault probabilities. [cf_drop + cf_duplicate + cf_delay]
    must not exceed 1. *)

val reliable : chan_profile
(** All probabilities zero. *)

val lossy :
  ?drop:float ->
  ?duplicate:float ->
  ?delay:float ->
  ?max_delay:Vtime.span ->
  unit ->
  chan_profile
(** Defaults: 2% drop, 1% duplicate, 5% delay, 100 ms max delay —
    a plausibly overloaded control channel. *)

type fate = Deliver | Drop | Duplicate | Delay of Vtime.span

val fate : Rng.t -> chan_profile -> fate
(** Draws the fate of one message. Always consumes exactly one draw
    from the generator (two when the fate is [Delay]), keeping replay
    deterministic regardless of the outcome. *)

val transmit :
  Engine.t ->
  entity:Rf_obs.Profiler.entity ->
  ?exempt:bool ->
  (Rng.t * chan_profile) option ->
  (unit -> unit) ->
  fate
(** [transmit engine ~entity faults send] is the per-frame fault path
    of every control channel: it draws one {!fate} from [faults] and
    acts on it — [send ()] now, not at all, twice, or after the drawn
    delay in an event charged to [entity] — then returns the fate it
    acted on, so the caller can record it. Without a profile it sends
    and returns [Deliver] without drawing. An [exempt] frame (default
    [false]) still draws, but a [Drop] or [Duplicate] is delivered
    once and reported as [Deliver]; a [Delay] applies. *)

(** {1 Plans} *)

type plan = {
  events : timed list;
  control_faults : chan_profile option;
      (** applied to control channels that opt in (the scenario wires it
          into the connections it owns) *)
  rpc_faults : chan_profile option;
      (** applied to the topology-controller ↔ RF-controller RPC
          session, on both directions *)
}

val empty : plan

val plan :
  ?control_faults:chan_profile -> ?rpc_faults:chan_profile -> timed list -> plan

val is_empty : plan -> bool

(** {1 Execution} *)

type injector = {
  inj_link : up:bool -> link_ref -> unit;
  inj_switch : up:bool -> int64 -> unit;
  inj_vm_boot_failure : dpid:int64 -> failures:int -> unit;
  inj_controller : up:bool -> int -> unit;
      (** crash/restart of one controller replica *)
  inj_partition : (int list * int list) option -> unit;
      (** [Some (a, b)] installs a controller partition; [None] heals *)
}
(** How each fault is realised; supplied by the layer that owns the
    emulated network. *)

type handle

val schedule : Engine.t -> injector -> plan -> handle
(** Schedules every timed event on the engine (events in the past fire
    immediately). Each firing is recorded in the engine trace under
    component ["faults"] and dispatched through the injector. *)

val fired_count : handle -> int

val last_fired_at : handle -> Vtime.t option
(** When the most recent fault fired; [None] until the first fires.
    Reconvergence is measured from the value this holds after the final
    fault. *)
