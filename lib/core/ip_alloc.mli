(** Allocator over the administrator-supplied IP range (the only manual
    input the framework needs, per the paper): carves /30 transfer
    networks for the virtual machines' link interfaces. *)

open Rf_packet

type t

val create : Ipv4_addr.Prefix.t -> t
(** The range must be /24 or shorter to hold at least one /30 block
    comfortably; raises [Invalid_argument] for prefixes longer than
    /28. *)

val alloc_p2p : t -> (Ipv4_addr.t * Ipv4_addr.t * int) option
(** The two usable host addresses (.1 and .2) of the next free /30 and
    the prefix length (30), or [None] once the range is exhausted —
    with 1000 switches and a /16 range this does not happen; the
    administrator must size the range to the network. *)

val allocated_blocks : t -> int

val capacity_blocks : t -> int

val contains : t -> Ipv4_addr.t -> bool
