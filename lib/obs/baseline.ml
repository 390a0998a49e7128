(* Per-run summary persistence and regression detection.

   A run is a flat set of named indicators; the baseline file is JSON
   with deterministic key order and fixed-precision values, so saving
   the same run twice produces identical bytes. Diffing compares each
   indicator against a tolerance band: a change beyond tolerance in
   the bad direction (up for lower-is-better indicators, down
   otherwise) is a regression. *)

type indicator = {
  i_name : string;
  i_value : float;
  i_unit : string;
  i_lower_is_better : bool;
}

type run = { run_label : string; indicators : indicator list }

type tolerance = { tol_rel : float; tol_abs : float }

let default_tolerance = { tol_rel = 0.10; tol_abs = 0.001 }

type status = Ok | Improved | Regressed | Added | Removed

let status_string = function
  | Ok -> "ok"
  | Improved -> "improved"
  | Regressed -> "REGRESSED"
  | Added -> "added"
  | Removed -> "removed"

type entry = {
  e_name : string;
  e_status : status;
  e_base : float option;
  e_current : float option;
  e_unit : string;
}

let schema = "rfauto-baseline-v1"

let sorted_indicators run =
  List.sort (fun a b -> String.compare a.i_name b.i_name) run.indicators

let to_json run =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "{\n  \"schema\": \"";
  Buffer.add_string buf schema;
  Buffer.add_string buf "\",\n  \"label\": \"";
  Buffer.add_string buf (Export.json_escape run.run_label);
  Buffer.add_string buf "\",\n  \"indicators\": [";
  List.iteri
    (fun i ind ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf "\n    {\"name\": \"";
      Buffer.add_string buf (Export.json_escape ind.i_name);
      Buffer.add_string buf "\", \"value\": ";
      Buffer.add_string buf (Printf.sprintf "%.6f" ind.i_value);
      Buffer.add_string buf ", \"unit\": \"";
      Buffer.add_string buf (Export.json_escape ind.i_unit);
      Buffer.add_string buf "\", \"lower_is_better\": ";
      Buffer.add_string buf (if ind.i_lower_is_better then "true" else "false");
      Buffer.add_string buf "}")
    (sorted_indicators run);
  Buffer.add_string buf "\n  ]\n}\n";
  Buffer.contents buf

exception Malformed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Malformed s)) fmt

let of_json text =
  let j =
    try Json.parse text with Json.Parse_error e -> fail "baseline: %s" e
  in
  (match Json.member "schema" j with
  | Some (Json.Str s) when s = schema -> ()
  | Some (Json.Str s) -> fail "baseline: unknown schema %S" s
  | _ -> fail "baseline: missing schema");
  let label =
    match Option.bind (Json.member "label" j) Json.to_string_opt with
    | Some l -> l
    | None -> fail "baseline: missing label"
  in
  let indicators =
    match Option.bind (Json.member "indicators" j) Json.to_list_opt with
    | None -> fail "baseline: missing indicators"
    | Some items ->
        List.map
          (fun item ->
            let str key =
              match Option.bind (Json.member key item) Json.to_string_opt with
              | Some s -> s
              | None -> fail "baseline: indicator missing %S" key
            in
            let value =
              match Option.bind (Json.member "value" item) Json.to_float_opt with
              | Some v -> v
              | None -> fail "baseline: indicator missing value"
            in
            let lower =
              match Json.member "lower_is_better" item with
              | Some (Json.Bool b) -> b
              | _ -> true
            in
            {
              i_name = str "name";
              i_value = value;
              i_unit = str "unit";
              i_lower_is_better = lower;
            })
          items
  in
  { run_label = label; indicators }

let save path run =
  Out_channel.with_open_bin path (fun oc -> output_string oc (to_json run))

let load path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> of_json (really_input_string ic (in_channel_length ic)))

let within_tolerance tol ~base ~current =
  let delta = Float.abs (current -. base) in
  delta <= tol.tol_abs || delta <= tol.tol_rel *. Float.abs base

let diff ?(tol = default_tolerance) ~base ~current () =
  let names =
    List.sort_uniq String.compare
      (List.map (fun i -> i.i_name) base.indicators
      @ List.map (fun i -> i.i_name) current.indicators)
  in
  let find run name =
    List.find_opt (fun i -> i.i_name = name) run.indicators
  in
  List.map
    (fun name ->
      match (find base name, find current name) with
      | None, Some c ->
          {
            e_name = name;
            e_status = Added;
            e_base = None;
            e_current = Some c.i_value;
            e_unit = c.i_unit;
          }
      | Some b, None ->
          {
            e_name = name;
            e_status = Removed;
            e_base = Some b.i_value;
            e_current = None;
            e_unit = b.i_unit;
          }
      | None, None -> assert false
      | Some b, Some c ->
          let status =
            if within_tolerance tol ~base:b.i_value ~current:c.i_value then Ok
            else
              let worse =
                if c.i_lower_is_better then c.i_value > b.i_value
                else c.i_value < b.i_value
              in
              if worse then Regressed else Improved
          in
          {
            e_name = name;
            e_status = status;
            e_base = Some b.i_value;
            e_current = Some c.i_value;
            e_unit = c.i_unit;
          })
    names

let has_regression entries =
  List.exists (fun e -> e.e_status = Regressed) entries

let pp_diff ppf entries =
  Format.fprintf ppf "%-34s %12s %12s %8s  %s@." "indicator" "baseline"
    "current" "delta" "status";
  List.iter
    (fun e ->
      let f = function
        | Some v -> Printf.sprintf "%.3f" v
        | None -> "-"
      in
      let delta =
        match (e.e_base, e.e_current) with
        | Some b, Some c when b <> 0. ->
            Printf.sprintf "%+.1f%%" (100. *. (c -. b) /. Float.abs b)
        | _ -> "-"
      in
      Format.fprintf ppf "%-34s %12s %12s %8s  %s@." e.e_name (f e.e_base)
        (f e.e_current) delta (status_string e.e_status))
    entries
