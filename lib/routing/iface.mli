(** Virtual network interfaces (the NICs of RouteFlow VMs).

    An interface carries raw Ethernet frames: the owner wires
    [set_transmit] to the virtual switch, and protocol stacks register
    receivers. Like a guest kernel, the interface parses each incoming
    frame once and hands the parsed packet to every receiver; each
    receiver filters for itself.

    NICs are created unnumbered (0.0.0.0/0) — the RouteFlow VM gets its
    addresses later, from the RPC server's link-up configuration — so
    the address is mutable and observable. *)

open Rf_packet

type t

val create :
  name:string -> mac:Mac.t -> ?ip:Ipv4_addr.t -> ?prefix_len:int -> unit -> t
(** Default address 0.0.0.0/0 (unnumbered). *)

val name : t -> string

val mac : t -> Mac.t

val ip : t -> Ipv4_addr.t

val prefix_len : t -> int

val is_addressed : t -> bool
(** False while still 0.0.0.0. *)

val set_address : t -> ip:Ipv4_addr.t -> prefix_len:int -> unit
(** Notifies address listeners when the address actually changes. *)

val prefix : t -> Ipv4_addr.Prefix.t
(** The connected subnet. *)

val netmask : t -> Ipv4_addr.t

val is_up : t -> bool

val set_up : t -> bool -> unit
(** Also notifies state listeners. *)

val set_transmit : t -> (string -> unit) -> unit

val send : t -> string -> unit
(** Drops silently when down or unwired. *)

val deliver : t -> string -> unit
(** A frame arrived from the wire. Unless the interface is down, it is
    parsed once and the packet fans out to the receivers in the order
    they were added; a frame that does not parse reaches none. *)

val add_receiver : t -> (Packet.t -> unit) -> unit

val add_state_listener : t -> (bool -> unit) -> unit

val add_address_listener : t -> (unit -> unit) -> unit

val frames_received : t -> int
