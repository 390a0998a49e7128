(** A RouteFlow virtual machine: the container that runs the routing
    control platform (zebra + ospfd, optionally bgpd) for one switch.

    The VM's NICs mirror the switch's ports one-to-one. Its IP stack
    implements what a Linux guest would contribute to RouteFlow:
    answering ARP for its interface addresses, passive ARP learning,
    ICMP echo, and slow-path IPv4 forwarding driven by the RIB (packets
    relayed up from the physical switch before flows are installed).

    Configuration enters exactly as in the paper: the RPC server writes
    Quagga config *files*; [apply_zebra_config] / [apply_ospfd_config]
    parse that text and reconcile the running daemons. *)

open Rf_packet
open Rf_routing

type t

val create :
  Rf_sim.Engine.t -> dpid:int64 -> n_ports:int -> unit -> t
(** NICs eth1..ethN are created unnumbered. *)

val dpid : t -> int64

val entity : t -> Rf_obs.Profiler.entity
(** Load-attribution handle ([Switch dpid]), shared with the physical
    datapath of the same switch via kind-merging. *)

val hostname : t -> string
(** ["vm-<dpid>"], matching the paper's "ID identical to the switch
    ID". *)

val n_ports : t -> int

val nic : t -> int -> Iface.t
(** 1-based port number; raises [Invalid_argument] out of range. *)

val zebra : t -> Zebra.t

val rib : t -> Rib.t

val ospfd : t -> Ospfd.t option
(** Present after the first ospfd config has been applied. *)

val bgpd : t -> Bgpd.t option

val ripd : t -> Ripd.t option

val apply_zebra_config : t -> string -> (unit, string) result
(** Parses zebra.conf text: addresses NICs, installs static routes. *)

val apply_ospfd_config : t -> string -> (unit, string) result
(** Parses ospfd.conf text: boots ospfd on first call, then reconciles
    (enables OSPF on interfaces covered by new network statements). *)

val apply_ripd_config : t -> string -> (unit, string) result
(** Parses ripd.conf text: boots ripd on first call, then reconciles
    (enables RIP on interfaces covered by new network statements). *)

val apply_bgpd_config :
  t -> peer_channel:(Ipv4_addr.t -> ((string -> unit) * ((string -> unit) -> unit)) option) ->
  string -> (unit, string) result
(** [peer_channel addr] returns the (send, set_receive) pair of a
    session transport toward the BGP neighbor at [addr]. *)

val config_file : t -> string -> string option
(** Text of the last applied config file, by name ("zebra.conf",
    "ospfd.conf", "bgpd.conf"). *)

(** {1 Flow export (the rfclient role)} *)

type flow_route = {
  fr_prefix : Ipv4_addr.Prefix.t;
  fr_port : int;  (** switch output port *)
  fr_src_mac : Mac.t;  (** rewritten source = NIC MAC *)
  fr_dst_mac : Mac.t;  (** next hop or host MAC *)
}

(** Flow lists here are sorted and duplicate-free under one total
    order: prefix, then port, source MAC and destination MAC. *)

val diff_flows :
  flow_route list -> flow_route list -> flow_route list * flow_route list
(** [diff_flows olds fresh], two sorted lists, is [(removed, added)]:
    the flows only in [olds] and those only in [fresh], each sorted.
    One walk over the two lists. *)

val flow_routes : t -> flow_route list
(** The routes currently resolvable to a (port, MAC) pair — the set the
    RF-client wants installed on the physical switch, sorted. The VM
    keeps them in a prefix-keyed table; this builds the list from it.

    Exports are debounced (10 ms after the first change) and cost what
    changed: an export recomputes only the prefixes the RIB reported
    since the last one, plus those whose next hop still awaits ARP
    (their ARP requests are re-sent each export) and statics resolved
    through another route, and diffs each against its entry in the
    table. A change to the ARP table, a NIC address or a connected
    route (whose host flows come from ARP entries), or a changed host
    route, recomputes and diffs the whole table. Either way the result,
    and the ARP requests sent, equal a full recompute over
    {!Rib.selected}. *)

val add_on_flows_changed :
  t -> (removed:flow_route list -> added:flow_route list -> unit) -> unit
(** Registers a listener for every export that changed the table; it
    gets the flows removed and added, each sorted, once {!flow_routes}
    reads the new table. Listeners run in registration order:
    {!Rf_system}'s RF-client first, then the auditor's RIB feed. *)

(** {1 Introspection} *)

val arp_entries : t -> (int * Ipv4_addr.t * Mac.t) list
(** (port, ip, mac), sorted. *)

val packets_forwarded_slow_path : t -> int
