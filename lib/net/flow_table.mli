(** A single OpenFlow 1.0 flow table.

    Implements the OF 1.0 semantics the substrate needs: highest
    priority wins on lookup, non-strict modify/delete subsume by match,
    strict variants require equal match and priority, idle and hard
    timeouts, and per-entry packet/byte counters. *)

open Rf_openflow

type entry = {
  e_match : Of_match.t;
  e_priority : int;
  e_cookie : int64;
  e_idle_timeout : int;  (** seconds; 0 = none *)
  e_hard_timeout : int;
  e_notify_removed : bool;
  e_seq : int;  (** installation sequence; equal-priority tie-break *)
  mutable e_actions : Of_action.t list;
  mutable e_packets : int;
  mutable e_bytes : int;  (** widened to [int64] in stats and flow-removed *)
  e_installed : Rf_sim.Vtime.t;
  mutable e_last_used : Rf_sim.Vtime.t;
}

type removal_reason = Expired_idle | Expired_hard

type t

val create : ?capacity:int -> unit -> t
(** Default capacity 65536; adds beyond it are rejected with an
    "all tables full" error, as a real switch would. *)

val size : t -> int

val entries : t -> entry list
(** Priority-descending, then insertion order; sorted on each call. *)

val iter : t -> (entry -> unit) -> unit
(** Every entry, in no particular order, without sorting. *)

val lookup : t -> Of_match.key -> entry option
(** Highest-priority matching entry (insertion order breaks ties).
    The table stores its entries by wildcard signature in exact-match
    hash buckets, so the cost is one hash probe per distinct signature
    rather than a scan of every entry. A probe hashes the key as it is,
    through the bucket's mask, and allocates nothing. In front of the
    buckets sits a cache of earlier answers, keyed on the key's
    projection onto every field some bucket reads: a key that agrees
    there with an earlier one since the last add or remove costs one
    probe, and gets the same entry the buckets would give. Does not
    touch counters; callers account explicitly. *)

val bucket_hash : Of_match.t -> Of_match.key -> int
(** The hash {!lookup} computes for a key in the bucket of entries
    shaped like the given match (same exact fields, same prefix
    lengths). Exposed so tests can check how keys spread. *)

val lookup_linear : t -> Of_match.key -> entry option
(** A scan of every entry that keeps the best match in table order,
    without hashing; the reference oracle for {!lookup} — both must
    agree on every key. *)

val account : entry -> now:Rf_sim.Vtime.t -> bytes:int -> unit

val apply_flow_mod :
  t ->
  now:Rf_sim.Vtime.t ->
  Of_msg.flow_mod ->
  (entry list * entry list, string) result
(** Returns what changed: (the entries that left, the entries that
    entered). Add with an existing identical (match, priority) entry
    replaces it, resetting counters, and reports both. A modify changes
    its hits' actions in place and reports them in both lists; a delete
    reports what it removed. Add and the strict commands touch only the
    entries of their own match; the non-strict ones sort every entry. *)

val expire : t -> now:Rf_sim.Vtime.t -> (entry * removal_reason) list
(** Removes and returns timed-out entries in canonical eviction order:
    priority descending, then cookie ascending, then table order — so
    the Flow_removed sequence is deterministic even when several
    entries expire at the same vtime regardless of install order.
    Returns [[]] without scanning when no entry has a timeout. *)

val timed_entries : t -> int
(** Entries with a non-zero idle or hard timeout. *)

val stats :
  t -> match_:Of_match.t -> out_port:Of_port.t option -> now:Rf_sim.Vtime.t ->
  Of_msg.flow_stats list
