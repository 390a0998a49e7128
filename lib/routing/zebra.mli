(** The zebra daemon: owns the RIB, the interfaces and their addresses,
    connected and static routes. Routing protocol daemons (ospfd, ripd,
    bgpd) share its RIB but install no connected route of their own;
    RouteFlow's RF-client listens to the RIB's change stream. *)

open Rf_packet

type t

val create : hostname:string -> unit -> t

val rib : t -> Rib.t

val add_interface : t -> Iface.t -> unit
(** The one installer of the interface's connected route: present while
    the interface is up and addressed, withdrawn while it is down, and
    replaced when it is re-addressed. *)

val add_static : t -> Ipv4_addr.Prefix.t -> Ipv4_addr.t -> unit

val apply_config : t -> Quagga_conf.zebra_conf -> (unit, string) result
(** Sets the address of each interface the config names, as Quagga's
    zebra does, in config order, then installs the static routes. An
    interface that was never added is an error: the addresses before it
    stay set and no static route goes in. *)

val connected_routes : t -> Rib.route list
