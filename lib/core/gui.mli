(** The demonstration GUI model: every switch is drawn red until the
    RPC server has created its VM, then green (paper §3). The renderer
    produces ASCII frames; the timeline records when each switch
    flipped. *)

type color = Red | Green

type t

val create : Rf_sim.Engine.t -> unit -> t

val add_switch : t -> int64 -> unit
(** Registers a switch in Red state. *)

val set_green : t -> int64 -> unit
(** Timestamps the transition with the engine clock; idempotent. *)

val color_of : t -> int64 -> color option

val total : t -> int

val green_count : t -> int

val all_green : t -> bool

val all_green_at : t -> Rf_sim.Vtime.t option
(** Instant the last switch flipped, if all did. *)

val timeline : t -> (int64 * Rf_sim.Vtime.t) list
(** Green transitions in chronological order. *)

val render : ?label:(int64 -> string) -> t -> string
(** An ASCII panel: one cell per switch, seven to a row, [#] green /
    [.] red, with a status line. *)
