type t = int (* microseconds since epoch *)

type span = int (* microseconds *)

let zero = 0

let compare = Int.compare

let equal = Int.equal

let ( <= ) (a : t) (b : t) = a <= b

let ( < ) (a : t) (b : t) = a < b

let add t d = t + d

let diff a b = a - b

let span_us us = us

let span_ms ms = ms * 1_000

let span_s s = int_of_float (s *. 1e6 +. (if s >= 0. then 0.5 else -0.5))

let span_min m = span_s (m *. 60.)

let span_zero = 0

let span_compare = Int.compare

let span_add = ( + )

let span_scale f d = int_of_float (f *. float_of_int d)

let span_is_negative d = d < 0

let to_s t = float_of_int t /. 1e6

let span_to_s = to_s

let span_to_ms d = float_of_int d /. 1e3

let of_s = span_s

let to_us t = t

let of_us us = us

let pp ppf t =
  let total_ms = t / 1_000 in
  let ms = total_ms mod 1_000 in
  let s = total_ms / 1_000 in
  Format.fprintf ppf "%02d:%02d.%03d" (s / 60) (s mod 60) ms
