(** TCP segment headers. The simulator carries control-plane sessions
    over an abstract reliable channel, so only header encode/decode is
    needed (used by FlowVisor's flowspace matching and tests). *)

type flags = { syn : bool; ack : bool; fin : bool; rst : bool; psh : bool }

type t = {
  src_port : int;
  dst_port : int;
  seq : int32;
  ack_seq : int32;
  flags : flags;
  window : int;
  payload : string;
}

val no_flags : flags

val make :
  ?seq:int32 ->
  ?ack_seq:int32 ->
  ?flags:flags ->
  src_port:int ->
  dst_port:int ->
  string ->
  t

val to_wire : t -> string

val of_wire : string -> (t, string) result

val pp : Format.formatter -> t -> unit
