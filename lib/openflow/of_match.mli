(** OpenFlow 1.0 flow matches.

    A {!key} is the exact 12-tuple a switch extracts from an incoming
    packet; a {!t} is a (possibly wildcarded) match over keys, encoded
    on the wire as the 40-byte [ofp_match] structure. *)

open Rf_packet

type key = {
  in_port : int;
  dl_src : Mac.t;
  dl_dst : Mac.t;
  dl_vlan : int;  (** 0xffff when untagged, per the OF 1.0 convention *)
  dl_pcp : int;
  dl_type : int;
  nw_tos : int;
  nw_proto : int;  (** ARP opcode for ARP packets *)
  nw_src : Ipv4_addr.t;
  nw_dst : Ipv4_addr.t;
  tp_src : int;
  tp_dst : int;
}

val key_of_frame : in_port:int -> string -> key option
(** Field extraction as in OF 1.0 §3.4 (non-IP fields read as zero),
    read in place from the frame's bytes. [None] exactly when
    {!Rf_packet.Packet.parse} rejects the frame: the same length,
    version, checksum and TLV checks, without decoding the payload. *)

type t = {
  m_in_port : int option;
  m_dl_src : Mac.t option;
  m_dl_dst : Mac.t option;
  m_dl_vlan : int option;
  m_dl_pcp : int option;
  m_dl_type : int option;
  m_nw_tos : int option;
  m_nw_proto : int option;
  m_nw_src : Ipv4_addr.Prefix.t option;
  m_nw_dst : Ipv4_addr.Prefix.t option;
  m_tp_src : int option;
  m_tp_dst : int option;
}

val wildcard_all : t
(** Matches every packet. *)

val exact_of_key : key -> t

val dl_type_is : int -> t
(** Wildcard except [dl_type]. *)

val nw_dst_prefix : Ipv4_addr.Prefix.t -> t
(** The match RouteFlow installs for a route: IPv4 + destination
    prefix. *)

val matches : t -> key -> bool

val subsumes : t -> t -> bool
(** [subsumes outer inner]: every key matched by [inner] is matched by
    [outer]. FlowVisor uses this to police flow-mods against a slice's
    flowspace. *)

val intersects : t -> t -> bool
(** Whether some key is matched by both (conservative: may return
    [true] on a pair with empty intersection only when both sides
    wildcard a field pair asymmetrically — exact for the fields used in
    this system). *)

val to_wire : t -> string
(** 40-byte [ofp_match]. *)

val of_wire : Wire.Reader.t -> (t, string) result

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
