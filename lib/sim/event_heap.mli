(** 4-ary min-heap of timestamped events.

    Ties on time are broken by insertion sequence number so that two
    events scheduled for the same instant fire in scheduling order —
    this is what makes the whole simulation deterministic.

    Layout: struct of arrays. Times (as {!Vtime.to_us} ints), sequence
    numbers and values live in three parallel arrays, so a comparison
    reads two ints in place and a push or pop allocates nothing once
    the arrays have grown (they double when full and never shrink).
    The arity is fixed at 4: a shallower tree means fewer levels per
    sift, and the four children of a slot are adjacent in memory.

    Filler contract: every slot outside the live region holds the
    filler value given to {!create}. {!pop_min}, {!pop} and {!clear}
    overwrite the vacated slots with it, so the heap never keeps a
    popped or cleared value reachable. *)

type 'a t

val create : 'a -> 'a t
(** [create filler] is an empty heap whose free slots hold [filler]. *)

val is_empty : 'a t -> bool

val size : 'a t -> int

val push : 'a t -> Vtime.t -> 'a -> unit
(** [push h time v] inserts [v] with priority [time]. *)

val pop_min : 'a t -> 'a
(** Removes and returns the earliest value, allocation-free; the
    engine reads its time with {!min_time} first. Raises
    [Invalid_argument] on an empty heap. *)

val pop : 'a t -> (Vtime.t * 'a) option
(** Removes and returns the earliest event, or [None] if empty. *)

val peek_time : 'a t -> Vtime.t option
(** Time of the earliest event without removing it. *)

val min_time : 'a t -> Vtime.t
(** Allocation-free [peek_time]; raises [Invalid_argument] on an
    empty heap — check {!is_empty} first. *)

val pushes : 'a t -> int
(** Cumulative number of [push]es over the heap's lifetime (the
    insertion sequence counter) — the churn figure profilers report
    alongside depth. *)

val peak : 'a t -> int
(** Maximum size ever reached (tracked at push, so it is exact even
    between pops) — profilers report it as the heap's high-water
    mark. *)

val clear : 'a t -> unit
(** Drops every event, writing the filler over their slots. *)
