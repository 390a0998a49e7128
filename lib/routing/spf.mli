(** Incremental shortest-path-first engine.

    Holds the shortest-path tree rooted at one router and repairs it
    in place when a subset of routers re-originate their LSAs: only
    the invalidated subtree is re-relaxed (warm-start Dijkstra), and
    only the nodes whose inputs changed get a new parent, so a run costs
    what changed rather than the size of the tree. The full
    recomputation stays available as {!full}, the test oracle, and both
    paths produce identical results — parents and first hops are a
    canonical function of the (unique) distance map, so equal-cost
    ties break the same way regardless of relaxation order.

    The graph is the router-LSA topology: a directed edge [u -> v]
    with metric [m] exists when [u]'s links list [(v, m)] {e and} [v]'s
    links list [u] back (the bidirectionality check of RFC 2328
    §16.1). *)

open Rf_packet

type graph
(** Mutable adjacency cache, an {!Ipv4_addr.Tbl} keyed by router id. *)

val graph_create : unit -> graph

val graph_set_links :
  graph -> Ipv4_addr.t -> out:Ipv4_addr.t array -> metric:int array -> unit
(** Replace [rid]'s out-links with the neighbours [out] at the metrics
    [metric], index for index. The graph keeps both arrays, unchanged
    and unshared with its own state: ospfd passes the arrays of
    {!Rf_packet.Ospf_pkt.spf_input}, which every daemon holding the LSA
    instance reads. Raises [Invalid_argument] when the lengths differ. *)

val graph_remove : graph -> Ipv4_addr.t -> unit

val graph_reset : graph -> unit

type t
(** The tree: one mutable record per router ever seen, in an
    {!Ipv4_addr.Tbl} keyed by router id, holding its distance, parent,
    children, first hop and root-link preference. A run updates the
    records in place, so an incremental run allocates little beyond
    the list of routers it reports. *)

val create : root:Ipv4_addr.t -> t

val full : t -> graph -> unit
(** Cold-start: recompute the whole tree from the root. *)

type outcome =
  | Full  (** the whole tree was recomputed *)
  | Repaired of Ipv4_addr.t list
      (** the routers whose distance or first hop changed, including
          those that became unreachable (order unspecified) *)

val update : t -> graph -> dirty:Ipv4_addr.t list -> outcome
(** Warm-start: repair the tree given that exactly the routers in
    [dirty] changed their links since the last run. The caller must
    have refreshed [graph] for those routers first. Only the dirty
    routers that removed a link or raised its metric, and what the tree
    reached through them, are re-relaxed from scratch; the others
    relax their links from their standing distance. Falls back to
    {!full} when the tree has never been computed or when the root
    removed a link or raised its metric. *)

val dist : t -> Ipv4_addr.t -> int
(** Distance from the root; -1 when unreachable. *)

val first_hop : t -> Ipv4_addr.t -> Ipv4_addr.t option
(** First router on the canonical shortest path from the root. *)

val reachable : t -> (Ipv4_addr.t * int * Ipv4_addr.t) list
(** Sorted [(rid, dist, first_hop)] snapshot, for tests. *)
