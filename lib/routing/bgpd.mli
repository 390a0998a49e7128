(** A compact BGP-4 speaker (the bgpd of the Quagga substrate).

    Transport-agnostic: each peer is driven through a byte-stream
    [send] function plus calls to [input] with received bytes, so
    sessions run over any reliable channel. Semantics implemented:
    OPEN/KEEPALIVE session bring-up, hold-timer expiry, UPDATE
    origination for locally announced networks, AS-path loop rejection,
    shortest-AS-path selection, and RIB installation (distance 20). *)

open Rf_packet

type t

type peer

type peer_state = Idle | Open_sent | Established

val create :
  Rf_sim.Engine.t ->
  ?entity:Rf_obs.Profiler.entity ->
  asn:int ->
  router_id:Ipv4_addr.t ->
  Rib.t ->
  t

val asn : t -> int

val add_peer :
  t -> remote_asn:int -> next_hop_hint:Ipv4_addr.t -> send:(string -> unit) -> peer
(** [next_hop_hint] is the address our announcements carry as NEXT_HOP
    toward this peer (our address on the shared link). *)

val input : peer -> string -> unit
(** Feed bytes received from the peer's channel. *)

val start_peer : peer -> unit
(** Sends OPEN and arms timers. *)

val announce : t -> Ipv4_addr.Prefix.t -> unit
(** Originate a network (sent to all established peers, and to peers
    that establish later). *)

val withdraw_network : t -> Ipv4_addr.Prefix.t -> unit

val peer_state : peer -> peer_state

val established_peers : t -> int

val routes_learned : t -> int
(** Number of prefixes currently selected from BGP. *)
