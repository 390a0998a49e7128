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
  hello_interval : int;  (** seconds *)
  dead_interval : int;
}
(** What ospfd.conf sets. The rest is fixed at Quagga's defaults: area
    0.0.0.0, retransmit interval 5 s, SPF holddown 1 s after an LSDB
    change, and a cost of 10 on every interface. *)

val default_config : router_id:Ipv4_addr.t -> config
(** Quagga defaults: hello 10 s, dead 40 s. *)

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
(** [entity] tags the daemon's timers (hello, SPF, inactivity,
    retransmit) for load attribution — the owning VM passes its switch
    entity. *)

val config : t -> config

val add_interface : t -> ?passive:bool -> Iface.t -> unit
(** Must be addressed. On a running daemon it comes up at once. The
    connected route is zebra's ({!Zebra.add_interface}), not ospfd's. *)

val start : t -> unit
(** Sends the first hellos immediately and starts the hello timers.
    Each neighbour gets its own inactivity deadline (RFC 2328 §10) on
    a 1 s grid from [start]: it dies at the first grid point strictly
    after its last hello plus [dead_interval]. A neighbour's
    retransmit timer runs only while it has unacknowledged LSAs. *)

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
    the last run, and republishes only the prefixes of the stub links
    those LSAs changed and those advertised by the routers whose
    distance or first hop moved. For benchmarks.

    The run's state is keyed on immediate ints: the dirty routers and
    the stub-link cache in {!Ipv4_addr.Tbl}s by router id, the
    advertisers index and the affected prefixes in
    {!Ipv4_addr.Prefix.Tbl}s. The graph and the stub cache hold the
    arrays of each LSA instance's {!Ospf_pkt.spf_input}, shared with
    every other daemon holding the instance, rather than a copy.

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
