(** Binary (Patricia-style, one bit per level) trie over IPv4 prefixes
    with longest-prefix-match lookup — the FIB structure of the zebra
    substrate. *)

open Rf_packet

type 'a t

val create : unit -> 'a t

val insert : 'a t -> Ipv4_addr.Prefix.t -> 'a -> unit
(** Replaces any previous value at exactly that prefix. *)

val remove : 'a t -> Ipv4_addr.Prefix.t -> unit

val find_exact : 'a t -> Ipv4_addr.Prefix.t -> 'a option
(** Walks one level per prefix bit. {!Rib} answers exact lookups from
    its own prefix hash table, so only the trie's tests call this. *)

val lookup : 'a t -> Ipv4_addr.t -> (Ipv4_addr.Prefix.t * 'a) option
(** Longest matching prefix. *)

val fold : (Ipv4_addr.Prefix.t -> 'a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc
(** Visits entries in {!Ipv4_addr.Prefix.compare} order (network, then
    length). *)

val entries : 'a t -> (Ipv4_addr.Prefix.t * 'a) list
(** Sorted by prefix (network, then length). *)

val size : 'a t -> int
