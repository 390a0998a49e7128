(* Declarative SLO rules over an ingested telemetry dump.

   A rule names a measurement source, a direction, and warn/fail
   thresholds; evaluation is a pure function of the dump, so verdicts
   for a seeded run are byte-identical across invocations — which lets
   CI diff the scorecard like any other fingerprint. *)

type verdict = Pass | Warn | Fail

let verdict_string = function Pass -> "PASS" | Warn -> "WARN" | Fail -> "FAIL"

let verdict_rank = function Pass -> 0 | Warn -> 1 | Fail -> 2

type event_match = { m_component : string option; m_kind : string option }

type source =
  | Span_last_end_s of string
  | Span_max_duration_s of string
  | Span_total_duration_s of string
  | Span_union_duration_s of string
  | Span_quantile_s of string * float
  | Span_count of string
  | Event_count of event_match
  | Meta_s of string
  | Meta_diff_s of string * string
  | Meta_ratio of string * string
  | Burn_rate of {
      errors : event_match;
      total : event_match;
      objective : float;
      window_us : int;
    }
  | Dropped_records

type direction = At_most | At_least

type rule = {
  r_name : string;
  r_source : source;
  r_direction : direction;
  r_warn : float;
  r_fail : float;
  r_unit : string;
}

type result = { res_rule : rule; res_value : float option; res_verdict : verdict }

let s_of_us us = float_of_int us /. 1e6

let closed_durations_us dump name =
  Ingest.spans_named dump name
  |> List.filter_map (fun (sp : Tracer.span) ->
         match sp.end_us with Some e -> Some (e - sp.start_us) | None -> None)

(* Linear-interpolation percentile over raw durations; local rather
   than Rf_sim.Stats because this library sits below rf_sim. *)
let percentile q xs =
  match List.sort compare xs with
  | [] -> None
  | sorted ->
      let arr = Array.of_list sorted in
      let n = Array.length arr in
      let rank = q *. float_of_int (n - 1) in
      let lo = int_of_float (Float.floor rank) in
      let hi = int_of_float (Float.ceil rank) in
      let frac = rank -. float_of_int lo in
      Some (arr.(lo) +. (frac *. (arr.(hi) -. arr.(lo))))

let union_us intervals =
  let sorted = List.sort compare intervals in
  let total, _ =
    List.fold_left
      (fun (total, cur_end) (s, e) ->
        if e <= s then (total, cur_end)
        else if s >= cur_end then (total + (e - s), e)
        else if e > cur_end then (total + (e - cur_end), e)
        else (total, cur_end))
      (0, min_int) sorted
  in
  total

let event_matches m (ev : Tracer.event) =
  (match m.m_component with Some c -> ev.component = c | None -> true)
  && match m.m_kind with Some k -> ev.kind = k | None -> true

let measure (dump : Ingest.dump) = function
  | Span_last_end_s name -> (
      match
        Ingest.spans_named dump name
        |> List.filter_map (fun (sp : Tracer.span) -> sp.end_us)
      with
      | [] -> None
      | ends -> Some (s_of_us (List.fold_left max min_int ends)))
  | Span_max_duration_s name -> (
      match closed_durations_us dump name with
      | [] -> None
      | ds -> Some (s_of_us (List.fold_left max 0 ds)))
  | Span_total_duration_s name -> (
      match closed_durations_us dump name with
      | [] -> None
      | ds -> Some (s_of_us (List.fold_left ( + ) 0 ds)))
  | Span_union_duration_s name -> (
      match
        Ingest.spans_named dump name
        |> List.filter_map (fun (sp : Tracer.span) ->
               match sp.end_us with
               | Some e -> Some (sp.start_us, e)
               | None -> None)
      with
      | [] -> None
      | intervals -> Some (s_of_us (union_us intervals)))
  | Span_quantile_s (name, q) ->
      closed_durations_us dump name
      |> List.map float_of_int
      |> percentile q
      |> Option.map (fun us -> us /. 1e6)
  | Span_count name ->
      Some (float_of_int (List.length (Ingest.spans_named dump name)))
  | Event_count m ->
      Some
        (float_of_int
           (List.length (List.filter (event_matches m) dump.events)))
  | Meta_s key -> Ingest.meta_float dump key
  | Meta_diff_s (a, b) -> (
      match (Ingest.meta_float dump a, Ingest.meta_float dump b) with
      | Some va, Some vb -> Some (va -. vb)
      | _ -> None)
  | Meta_ratio (num, den) -> (
      match (Ingest.meta_float dump num, Ingest.meta_float dump den) with
      | Some _, Some d when d = 0. -> None
      | Some n, Some d -> Some (n /. d)
      | _ -> None)
  | Burn_rate { errors; total; objective; window_us } ->
      if objective < 0. || objective >= 1. then
        invalid_arg "Slo: burn-rate objective outside [0,1)";
      let series m =
        Timeseries.of_events (List.filter (event_matches m) dump.events)
      in
      let step = max 1 (window_us / 4) in
      let windowed m =
        Timeseries.sliding ~width_us:window_us ~step_us:step Timeseries.Count
          (series m)
      in
      let err = windowed errors in
      let tot = windowed total in
      (* Windows align because both series step identically; missing
         windows on either side count as zero. *)
      let tbl = Hashtbl.create 16 in
      List.iter (fun (w, v) -> Hashtbl.replace tbl w v) tot;
      let burn =
        List.fold_left
          (fun acc (w, e) ->
            let t = match Hashtbl.find_opt tbl w with Some v -> v | None -> 0. in
            let all = max t e in
            if all = 0. then acc
            else max acc (e /. all /. (1. -. objective)))
          0. err
      in
      Some burn
  | Dropped_records -> Some (float_of_int (Ingest.dropped_records dump))

let verdict_of rule value =
  match value with
  | None -> Fail
  | Some v -> (
      match rule.r_direction with
      | At_most ->
          if v > rule.r_fail then Fail
          else if v > rule.r_warn then Warn
          else Pass
      | At_least ->
          if v < rule.r_fail then Fail
          else if v < rule.r_warn then Warn
          else Pass)

let evaluate dump rules =
  List.map
    (fun rule ->
      let value = measure dump rule.r_source in
      { res_rule = rule; res_value = value; res_verdict = verdict_of rule value })
    rules

let worst results =
  List.fold_left
    (fun acc r ->
      if verdict_rank r.res_verdict > verdict_rank acc then r.res_verdict
      else acc)
    Pass results

let pp_scorecard ppf results =
  Format.fprintf ppf "%-34s %14s %10s %10s  %s@." "SLO" "value" "warn" "fail"
    "verdict";
  List.iter
    (fun r ->
      let value =
        match r.res_value with
        | Some v -> Printf.sprintf "%.3f %s" v r.res_rule.r_unit
        | None -> "n/a"
      in
      Format.fprintf ppf "%-34s %14s %10.3f %10.3f  %s@." r.res_rule.r_name
        value r.res_rule.r_warn r.res_rule.r_fail
        (verdict_string r.res_verdict))
    results;
  Format.fprintf ppf "overall: %s@." (verdict_string (worst results))
