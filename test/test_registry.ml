(* Consistency of the experiment registry. Nothing here runs an
   experiment: it only reads the entries and the ci/ directory. *)

module Registry = Rf_core.Registry

let duplicates names =
  List.filter
    (fun n -> List.length (List.filter (String.equal n) names) > 1)
    names
  |> List.sort_uniq String.compare

let check_unique what names =
  Alcotest.(check (list string)) (what ^ " are unique") [] (duplicates names)

let test_unique () =
  check_unique "ids" (List.map (fun (e : Registry.t) -> e.id) Registry.all);
  check_unique "E7 labels"
    (List.filter_map
       (fun (e : Registry.t) ->
         Option.map (fun (s : Registry.slo) -> s.label) e.slo)
       Registry.all);
  check_unique "meta tags"
    (List.filter_map (fun (e : Registry.t) -> e.meta_tag) Registry.all)

(* Every fingerprint in ci/ belongs to exactly one pinned run, and every
   pinned run has its fingerprint checked in. *)
let test_pins_match_ci () =
  let pinned =
    List.concat_map
      (fun (e : Registry.t) ->
        List.map (fun (p : Registry.pin) -> p.file) e.pins)
      Registry.all
  in
  check_unique "pinned files" pinned;
  let checked_in =
    Sys.readdir "../ci" |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".txt")
    |> List.sort String.compare
  in
  Alcotest.(check (list string))
    "ci/*.txt = the pinned files" checked_in
    (List.sort String.compare pinned)

(* EXPERIMENTS.md quotes every fingerprint whole: a line
   `<!-- pin: ci/FILE -->` followed by a fenced block holding FILE's
   text. Returns (FILE, block text) in document order. *)
let pin_blocks doc =
  let prefix = "<!-- pin: ci/" and suffix = " -->" in
  let pin_file line =
    if String.starts_with ~prefix line && String.ends_with ~suffix line then
      Some
        (String.sub line (String.length prefix)
           (String.length line - String.length prefix - String.length suffix))
    else None
  in
  let rec body file acc = function
    | "```" :: rest -> (String.concat "" (List.rev acc), rest)
    | line :: rest -> body file ((line ^ "\n") :: acc) rest
    | [] -> Alcotest.failf "EXPERIMENTS.md: the %s block is never closed" file
  in
  let rec scan acc = function
    | [] -> List.rev acc
    | line :: rest -> (
        match (pin_file line, rest) with
        | None, _ -> scan acc rest
        | Some file, fence :: rest when String.starts_with ~prefix:"```" fence
          ->
            let text, rest = body file [] rest in
            scan ((file, text) :: acc) rest
        | Some file, _ ->
            Alcotest.failf "EXPERIMENTS.md: the %s marker has no fenced block"
              file)
  in
  scan [] (String.split_on_char '\n' doc)

let read path = In_channel.with_open_bin path In_channel.input_all

(* Every marked block equals its fingerprint byte for byte, and every
   ci/*.txt has exactly one block, so no pinned number in EXPERIMENTS.md
   can drift from what CI checks. *)
let test_experiments_quote_pins () =
  let blocks = pin_blocks (read "../EXPERIMENTS.md") in
  List.iter
    (fun (file, text) ->
      Alcotest.(check string)
        ("EXPERIMENTS.md block = ci/" ^ file)
        (read ("../ci/" ^ file))
        text)
    blocks;
  let quoted = List.map fst blocks in
  check_unique "quoted fingerprints" quoted;
  Alcotest.(check (list string))
    "every ci/*.txt is quoted"
    (Sys.readdir "../ci" |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".txt")
    |> List.sort String.compare)
    (List.sort String.compare quoted)

(* SLO rules need a dump to read: every entry with rules emits telemetry,
   takes the analysis flags, and has a pinned reference run; every
   borrowed meta tag belongs to an entry without rules of its own. *)
let test_slo_entries_emit_telemetry () =
  List.iter
    (fun (e : Registry.t) ->
      match e.slo with
      | None -> ()
      | Some s ->
          Alcotest.(check bool) (e.id ^ " emits telemetry") true
            (e.meta_tag <> None);
          Alcotest.(check bool) (e.id ^ " takes the analysis flags") true
            (List.mem Registry.Trace_analysis e.flags);
          Alcotest.(check bool) (e.id ^ " has a reference run") true
            (e.pins <> []);
          List.iter
            (fun tag ->
              Alcotest.(check bool)
                (Printf.sprintf "%s reads %s, a rule-less entry" s.label tag)
                true
                (List.exists
                   (fun (o : Registry.t) ->
                     o.meta_tag = Some tag && Option.is_none o.slo)
                   Registry.all))
            s.reads)
    Registry.all

let suite =
  [
    Alcotest.test_case "ids, labels and meta tags unique" `Quick test_unique;
    Alcotest.test_case "every ci fingerprint is pinned by one entry" `Quick
      test_pins_match_ci;
    Alcotest.test_case "entries with SLO rules emit telemetry" `Quick
      test_slo_entries_emit_telemetry;
    Alcotest.test_case "EXPERIMENTS.md quotes every pin" `Quick
      test_experiments_quote_pins;
  ]
