(** OSPFv2 daemon (the ospfd of the Quagga substrate).

    Point-to-point network model, single backbone area: hello-based
    neighbor discovery and liveness, a simplified database-description
    / request / update adjacency bring-up, reliable flooding of router
    LSAs with explicit acks and retransmission, and Dijkstra SPF
    feeding OSPF routes into the RIB.

    Interfaces are {!Iface.t} values wired by the caller (in RouteFlow,
    to the RF virtual switch). Passive interfaces advertise their
    connected subnet as a stub link but exchange no protocol packets —
    the host-facing ports. *)

open Rf_packet

type config = {
  router_id : Ipv4_addr.t;
  area_id : Ipv4_addr.t;
  hello_interval : int;  (** seconds *)
  dead_interval : int;
  rxmt_interval : int;
  spf_delay : Rf_sim.Vtime.span;  (** holddown between LSDB change and SPF *)
  reference_cost : int;  (** every interface's cost *)
}

val default_config : router_id:Ipv4_addr.t -> config
(** Quagga defaults: hello 10 s, dead 40 s, rxmt 5 s, SPF delay 1 s,
    cost 10, area 0.0.0.0. *)

type neighbor_state = Down | Init | Exstart | Exchange | Loading | Full

type neighbor_info = {
  ni_router_id : Ipv4_addr.t;
  ni_addr : Ipv4_addr.t;
  ni_iface : string;
  ni_state : neighbor_state;
}

type t

val create :
  Rf_sim.Engine.t -> ?entity:Rf_obs.Profiler.entity -> config -> Rib.t -> t
(** [entity] tags the daemon's timers (hello, SPF, dead-scan) for load
    attribution — the owning VM passes its switch entity. *)

val config : t -> config

val add_interface : t -> ?passive:bool -> Iface.t -> unit
(** Must be called before [start]. Also installs the connected route
    into the RIB. Every interface costs [reference_cost]. *)

val start : t -> unit
(** Sends the first hellos immediately and starts all timers. *)

val stop : t -> unit
(** Cancels timers and withdraws OSPF routes. *)

val router_id : t -> Ipv4_addr.t

val neighbors : t -> neighbor_info list

val lsdb : t -> Ospf_pkt.lsa list

val lsdb_size : t -> int

val spf_runs : t -> int

val spf_now : t -> int
(** Runs SPF synchronously (outside the normal holddown scheduling) and
    returns the number of OSPF routes in the RIB afterwards
    ({!Rib.count}). Incremental, like every scheduled run: repairs only
    the part of the shortest-path tree affected by LSAs changed since
    the last run, and republishes only the prefixes advertised by those
    LSAs and by the routers whose distance or first hop moved. For
    benchmarks.

    Every run publishes through {!Rib.replace_proto}. The daemon keeps
    no copy of what it published, and has no route-change hook of its
    own: route changes reach observers as RIB events
    ({!Rib.add_listener}). *)

val spf_now_full : t -> int
(** Like {!spf_now} but recomputes the whole tree from the LSDB from
    scratch. The reference oracle for the incremental path: both must
    produce identical routes. *)

val install_lsa : t -> Ospf_pkt.lsa -> unit
(** Installs an LSA directly into the LSDB (bypassing flooding) and
    schedules SPF, as receiving it in an LS Update would; a MaxAge
    instance purges the LSA instead. For benchmarks and differential
    tests. *)

val is_adjacent_to : t -> Ipv4_addr.t -> bool
(** Full adjacency with the given router id. *)

val full_neighbor_count : t -> int
