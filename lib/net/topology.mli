(** Network topology descriptions.

    A topology is the ground truth the emulated network is built from;
    the topology controller must re-discover the switch/link part of it
    via LLDP. Switch nodes carry datapath ids; host nodes carry names.
    Ports are numbered from 1 in edge-insertion order, matching how
    Open vSwitch numbers its interfaces. *)

type node = Switch of int64 | Host of string

type edge = {
  a : node;
  a_port : int;
  b : node;
  b_port : int;
  latency : Rf_sim.Vtime.span;
  cost : int;  (** OSPF metric of the corresponding virtual link *)
}

type t

val create : unit -> t

val add_switch : t -> int64 -> unit
(** Idempotent. *)

val add_host : t -> string -> unit

val connect :
  t ->
  ?latency:Rf_sim.Vtime.span ->
  ?cost:int ->
  node ->
  node ->
  edge
(** Adds both endpoints if missing; allocates the next free port on
    each side. Default latency 1 ms, cost 10. Host–host edges are
    rejected. *)

val switches : t -> int64 list
(** Sorted. *)

val hosts : t -> string list
(** Sorted. *)

val edges : t -> edge list
(** In insertion order. *)

val switch_count : t -> int

val edge_count : t -> int

val degree : t -> node -> int

val neighbors : t -> node -> node list

val peer_of : t -> node -> int -> (node * int) option
(** What the given port connects to. *)

val edge_between : t -> node -> node -> edge option

val switch_switch_edges : t -> edge list
(** Only the core links LLDP discovery can find. *)

val is_connected : t -> bool
(** Considering switch nodes only. *)

val hop_distance : t -> node -> node -> int option
(** BFS hop count, [None] if unreachable. *)

val diameter : t -> int
(** Max finite switch-to-switch hop distance (0 for <2 switches). *)
