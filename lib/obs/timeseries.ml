(* Sliding-window aggregation over timestamped samples.

   Points are sorted by timestamp on construction and every aggregate
   is a commutative reduction, so results are invariant under
   reordering of the input within a window — the property the SLO
   engine relies on when events from different components interleave
   nondeterministically in wall-time but identically in virtual
   time. *)

type point = { p_us : int; p_v : float }

type t = { points : point array }

type agg = Count | Sum | Mean | Max | Min

let of_points pts =
  let arr =
    Array.of_list (List.map (fun (us, v) -> { p_us = us; p_v = v }) pts)
  in
  (* Stable sort on the timestamp only: same-time points keep input
     order, which no commutative aggregate can observe anyway. *)
  Array.stable_sort (fun a b -> compare a.p_us b.p_us) arr;
  { points = arr }

let of_events events =
  of_points (List.map (fun (ev : Tracer.event) -> (ev.time_us, 1.)) events)

let length t = Array.length t.points

let span_us t =
  if Array.length t.points = 0 then None
  else
    Some
      ( t.points.(0).p_us,
        t.points.(Array.length t.points - 1).p_us )

let aggregate agg values =
  match (agg, values) with
  | Count, vs -> Some (float_of_int (List.length vs))
  | Sum, vs -> Some (List.fold_left ( +. ) 0. vs)
  | (Mean | Max | Min), [] -> None
  | Mean, vs ->
      Some (List.fold_left ( +. ) 0. vs /. float_of_int (List.length vs))
  | Max, v :: vs -> Some (List.fold_left Stdlib.max v vs)
  | Min, v :: vs -> Some (List.fold_left Stdlib.min v vs)

(* Windows are [start, start + width), stepping by [step_us] from the
   step-aligned floor of the first point through the last point.
   Count/Sum report empty windows as 0; Mean/Max/Min skip them. *)
let sliding ~width_us ~step_us agg t =
  if width_us <= 0 then invalid_arg "Timeseries.sliding: width_us <= 0";
  if step_us <= 0 then invalid_arg "Timeseries.sliding: step_us <= 0";
  match span_us t with
  | None -> []
  | Some (first, last) ->
      let w0 = first / step_us * step_us in
      let n = Array.length t.points in
      (* [lo] tracks the first point with p_us >= window start; points
         are sorted so it only advances. *)
      let lo = ref 0 in
      let rec windows w acc =
        if w > last then List.rev acc
        else begin
          while !lo < n && t.points.(!lo).p_us < w do
            incr lo
          done;
          let values = ref [] in
          let i = ref !lo in
          while !i < n && t.points.(!i).p_us < w + width_us do
            values := t.points.(!i).p_v :: !values;
            incr i
          done;
          let acc =
            match aggregate agg !values with
            | Some v -> (w, v) :: acc
            | None -> acc
          in
          windows (w + step_us) acc
        end
      in
      windows w0 []

let max_window ~width_us ~step_us agg t =
  sliding ~width_us ~step_us agg t
  |> List.fold_left (fun acc (_, v) -> max acc v) neg_infinity
  |> fun m -> if m = neg_infinity then None else Some m
