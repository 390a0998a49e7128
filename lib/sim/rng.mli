(** Deterministic pseudo-random number generator (splitmix64).

    The simulator never uses the global [Random] state: every source of
    randomness is an explicit [Rng.t] seeded by the experiment, so runs
    are reproducible. *)

type t

val create : int -> t
(** [create seed] builds a generator from a seed. *)

val split : t -> t
(** Derives an independent generator; the parent advances. *)

val derive : t -> int -> t
(** [derive t salt] builds an independent generator keyed by [salt]
    from [t]'s current state {e without} advancing [t]. Distinct salts
    give distinct streams; the parent's draw sequence is unchanged, so
    existing same-seed runs stay bit-identical. *)

val int : t -> int -> int
(** [int t bound] draws uniformly from [0, bound). Requires [bound > 0]. *)

val float : t -> float -> float
(** [float t bound] draws uniformly from [0, bound). *)

val bool : t -> bool

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val exponential : t -> float -> float
(** [exponential t mean] draws from Exp with the given mean. *)
