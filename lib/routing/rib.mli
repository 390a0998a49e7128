(** The routing information base (zebra's central table).

    Each protocol contributes candidate routes; the RIB selects the
    best per prefix by (administrative distance, metric) and notifies
    listeners of changes to the selected set — in RouteFlow, that
    notification stream is what the RF-client translates into flow
    programming. *)

open Rf_packet

type proto = Connected | Static | Ospf | Rip | Bgp

val default_distance : proto -> int
(** Quagga defaults: connected 0, static 1, eBGP 20, OSPF 110, RIP 120. *)

val proto_name : proto -> string

type route = {
  r_prefix : Ipv4_addr.Prefix.t;
  r_proto : proto;
  r_distance : int;
  r_metric : int;
  r_next_hop : Ipv4_addr.t option;  (** [None] for directly connected *)
  r_iface : string;
}

type event = Best_added of route | Best_changed of route | Best_removed of Ipv4_addr.Prefix.t

type t

val create : unit -> t

val update : t -> route -> unit
(** Installs or replaces [r_proto]'s candidate for the prefix. *)

val withdraw : t -> proto -> Ipv4_addr.Prefix.t -> unit

val replace_proto :
  t -> ?scope:Ipv4_addr.Prefix.t list -> proto -> route list -> unit
(** [replace_proto t ?scope proto routes] is how a protocol publishes:
    afterwards [proto]'s candidates inside the scope are exactly
    [routes]. [routes] must be sorted by prefix ({!Ipv4_addr.Prefix.compare}),
    hold one route per prefix, all of [proto], and lie inside the
    scope. The scope is every prefix by default, or the sorted prefix
    list [scope]: candidates outside it are left alone (ospfd passes
    the prefixes a repaired SPF touched). The call walks both sorted
    lists once and calls {!withdraw} or {!update}, in prefix order,
    only where the candidate appears, disappears or differs, so an
    unchanged route raises no event and does not bump the
    generation. *)

val candidates : t -> proto -> route list
(** Every candidate of one protocol, selected or not, sorted by
    prefix. *)

val count : t -> proto -> int
(** [List.length (candidates t proto)], kept as a counter. *)

val best : t -> Ipv4_addr.Prefix.t -> route option

val lookup : t -> Ipv4_addr.t -> route option
(** Longest-prefix match over selected routes. *)

val selected : t -> route list
(** All selected routes, sorted by prefix. *)

val size : t -> int

val generation : t -> int
(** Bumped on every [Best_added], [Best_changed] and [Best_removed]
    notification, so an unchanged generation means an unchanged
    selected set. Starts at 0. *)

val add_listener : t -> (event -> unit) -> unit

val pp_route : Format.formatter -> route -> unit
