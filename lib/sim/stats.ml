type summary = {
  count : int;
  min : float;
  max : float;
  mean : float;
  stddev : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

(* Samples live unboxed in [data.(0 .. n-1)], oldest first; the
   buffer doubles when full. *)
type series = { mutable data : Float.Array.t; mutable n : int }

let series () = { data = Float.Array.create 16; n = 0 }

let add s v =
  if s.n = Float.Array.length s.data then begin
    let grown = Float.Array.create (2 * s.n) in
    Float.Array.blit s.data 0 grown 0 s.n;
    s.data <- grown
  end;
  Float.Array.unsafe_set s.data s.n v;
  s.n <- s.n + 1

let count s = s.n

(* Filled newest first before the stable sort, so equal keys (0.0 and
   -0.0) come out in the order a newest-first list sort gives them. *)
let sorted s =
  let arr = Array.make s.n 0. in
  for i = 0 to s.n - 1 do
    arr.(i) <- Float.Array.get s.data (s.n - 1 - i)
  done;
  Array.stable_sort Float.compare arr;
  arr

(* Linear interpolation on the (n-1)-spaced rank grid: p0 is the
   minimum, p100 the maximum, and interior quantiles interpolate
   between neighbours instead of clamping to an order statistic (p99
   of [1..5] is 4.96, not 5). *)
(* Total on all inputs: empty input yields nan (quantile of nothing is
   undefined, and callers fold it into reports where nan is visible
   rather than fatal); q is clamped to [0,1] with NaN q reading as 0;
   a single sample is every quantile of itself. *)
let percentile_of_sorted sorted_arr q =
  let n = Array.length sorted_arr in
  if n = 0 then Float.nan
  else begin
  let q = if Float.is_nan q then 0. else Float.min 1. (Float.max 0. q) in
  let idx = q *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor idx) in
  let hi = int_of_float (Float.ceil idx) in
  if lo = hi then sorted_arr.(lo)
  else
    let frac = idx -. float_of_int lo in
    (sorted_arr.(lo) *. (1. -. frac)) +. (sorted_arr.(hi) *. frac)
  end

let percentile s q = percentile_of_sorted (sorted s) q

(* Summed newest first, the order every published mean was computed in. *)
let mean s =
  if s.n = 0 then 0.
  else begin
    let sum = ref 0. in
    for i = s.n - 1 downto 0 do
      sum := !sum +. Float.Array.get s.data i
    done;
    !sum /. float_of_int s.n
  end

let summarize s =
  if s.n = 0 then None
  else begin
    let arr = sorted s in
    let n = Array.length arr in
    let mean = mean s in
    let var =
      Array.fold_left (fun acc v -> acc +. ((v -. mean) ** 2.)) 0. arr
      /. float_of_int n
    in
    Some
      {
        count = n;
        min = arr.(0);
        max = arr.(n - 1);
        mean;
        stddev = sqrt var;
        p50 = percentile_of_sorted arr 0.5;
        p90 = percentile_of_sorted arr 0.9;
        p99 = percentile_of_sorted arr 0.99;
      }
  end
