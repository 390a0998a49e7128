(* Critical-path extraction over a span tree.

   The configure pipeline traces as a root span with phase children
   (the tree [Phase] owns); the critical path is the root-to-leaf
   chain of locally-longest spans, and self time is the part of each
   span not covered by its children — computed as interval arithmetic
   on the integer-microsecond stamps, so results are exact and
   byte-stable across same-seed runs. *)

type node = {
  span : Tracer.span;
  n_end_us : int;
  n_total_us : int;
  n_self_us : int;
  children : node list;
}

type step = {
  cp_name : string;
  cp_span_id : int;
  cp_depth : int;
  cp_total_us : int;
  cp_self_us : int;
}

(* Open spans (crash mid-configure, dump taken mid-run) clamp to the
   latest timestamp in the dump so durations stay defined. *)
let horizon spans =
  List.fold_left
    (fun acc (sp : Tracer.span) ->
      let e = match sp.end_us with Some e -> e | None -> sp.start_us in
      max acc e)
    0 spans

(* Length of the union of [intervals] clipped to [lo, hi]. Intervals
   must be sorted by start. *)
let covered_us ~lo ~hi intervals =
  let total, _ =
    List.fold_left
      (fun (total, cur_end) (s, e) ->
        let s = max s lo and e = min e hi in
        if e <= s then (total, cur_end)
        else if s >= cur_end then (total + (e - s), e)
        else if e > cur_end then (total + (e - cur_end), e)
        else (total, cur_end))
      (0, min_int) intervals
  in
  total

let forest spans =
  let hz = horizon spans in
  let end_of (sp : Tracer.span) =
    match sp.end_us with Some e -> e | None -> max hz sp.start_us
  in
  let by_parent : (int, Tracer.span list) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (sp : Tracer.span) ->
      match sp.parent with
      | Some p ->
          let prev =
            match Hashtbl.find_opt by_parent p with Some l -> l | None -> []
          in
          Hashtbl.replace by_parent p (sp :: prev)
      | None -> ())
    spans;
  let children_of id =
    (match Hashtbl.find_opt by_parent id with Some l -> l | None -> [])
    |> List.sort (fun (a : Tracer.span) (b : Tracer.span) ->
           match compare a.start_us b.start_us with
           | 0 -> compare a.id b.id
           | c -> c)
  in
  let rec build (sp : Tracer.span) =
    let n_end_us = end_of sp in
    let children = List.map build (children_of sp.id) in
    let intervals =
      List.map (fun c -> (c.span.start_us, c.n_end_us)) children
    in
    let covered = covered_us ~lo:sp.start_us ~hi:n_end_us intervals in
    {
      span = sp;
      n_end_us;
      n_total_us = n_end_us - sp.start_us;
      n_self_us = n_end_us - sp.start_us - covered;
      children;
    }
  in
  List.filter (fun (sp : Tracer.span) -> sp.parent = None) spans
  |> List.sort (fun (a : Tracer.span) (b : Tracer.span) ->
         match compare a.start_us b.start_us with
         | 0 -> compare a.id b.id
         | c -> c)
  |> List.map build

(* Deepest-first search for the longest node with [name]; ties break
   to the lowest span id so the choice is deterministic. *)
let find_longest ~name nodes =
  let better a b =
    match (a, b) with
    | None, x | x, None -> x
    | Some na, Some nb ->
        if nb.n_total_us > na.n_total_us then Some nb
        else if nb.n_total_us < na.n_total_us then Some na
        else if nb.span.id < na.span.id then Some nb
        else Some na
  in
  let rec scan best n =
    let best =
      if n.span.name = name then better best (Some n) else best
    in
    List.fold_left scan best n.children
  in
  List.fold_left scan None nodes

let critical_path node =
  let rec go depth n acc =
    let step =
      {
        cp_name = n.span.name;
        cp_span_id = n.span.id;
        cp_depth = depth;
        cp_total_us = n.n_total_us;
        cp_self_us = n.n_self_us;
      }
    in
    match n.children with
    | [] -> List.rev (step :: acc)
    | cs ->
        let widest =
          List.fold_left
            (fun best c ->
              if c.n_total_us > best.n_total_us then c
              else if
                c.n_total_us = best.n_total_us && c.span.id < best.span.id
              then c
              else best)
            (List.hd cs) (List.tl cs)
        in
        go (depth + 1) widest (step :: acc)
  in
  go 0 node []

let rec fold_nodes f acc nodes =
  List.fold_left (fun acc n -> fold_nodes f (f acc n) n.children) acc nodes

let s_of_us us = float_of_int us /. 1e6

let pp_path ppf steps =
  Format.fprintf ppf "%-24s %10s %10s %6s@." "critical path" "total(s)"
    "self(s)" "share";
  let root_total =
    match steps with [] -> 0 | s :: _ -> max 1 s.cp_total_us
  in
  List.iter
    (fun s ->
      let indent = String.make (2 * s.cp_depth) ' ' in
      Format.fprintf ppf "%-24s %10.3f %10.3f %5.1f%%@."
        (indent ^ s.cp_name) (s_of_us s.cp_total_us) (s_of_us s.cp_self_us)
        (100. *. float_of_int s.cp_self_us /. float_of_int root_total))
    steps
