(** Topology generators.

    [ring] is the workload of the paper's Fig. 3 experiment;
    [pan_european] is the 28-node demo topology (de Maesschalck et al.,
    Photonic Network Communications 2003, the paper's reference [5]). *)

val ring : ?latency:Rf_sim.Vtime.span -> int -> Topology.t
(** [ring n] with [n >= 3] switches, dpids 1..n. *)

val line : ?latency:Rf_sim.Vtime.span -> int -> Topology.t
(** [line n] with [n >= 2]. *)

val star : ?latency:Rf_sim.Vtime.span -> int -> Topology.t
(** [star n]: hub dpid 1 plus [n-1] leaves. *)

val grid : ?latency:Rf_sim.Vtime.span -> int -> int -> Topology.t
(** [grid w h], dpids row-major from 1. *)

val random :
  ?latency:Rf_sim.Vtime.span -> seed:int -> n:int -> extra_edges:int -> unit -> Topology.t
(** A connected random graph: a random spanning tree plus
    [extra_edges] random chords (no duplicates, no self-loops). *)

val fat_tree :
  ?latency:Rf_sim.Vtime.span -> int -> Topology.t
(** [fat_tree k] for even [k >= 2]: the k-ary fat-tree of Al-Fares et
    al. (SIGCOMM 2008) — [(k/2)^2] core switches, [k] pods of [k/2]
    aggregation and [k/2] edge switches (every switch of degree [k]),
    and [k/2] hosts per edge switch ([k^3/4] total) named by
    {!fat_tree_host_name}. Dpids number the cores first, then each
    pod's aggregation then edge switches. *)

val fat_tree_host_name : int -> string
(** Zero-padded ("h0042") so lexicographic host order equals index
    order. *)

val fat_tree_host_count : int -> int
(** [k^3/4]. *)

val fat_tree_hops : k:int -> int -> int -> int
(** Structural hop count between two host indexes: 0 (same host),
    2 (same edge switch), 4 (same pod) or 6 (via core). *)

val pan_european : unit -> Topology.t
(** 28 nodes, 41 links; dpids 1..28. Link latencies approximate
    geographic distance. *)

val pan_european_city : int64 -> string
(** City name of a pan-European dpid; raises [Not_found] for ids
    outside 1..28. *)
