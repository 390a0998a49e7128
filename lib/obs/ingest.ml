(* Reads an Export.jsonl dump back into tracer records so the
   analysis suite (critical paths, flamegraphs, SLOs) works equally on
   a live tracer and on a telemetry file from a previous run. *)

type dump = {
  meta : (string * string) list;
  spans : Tracer.span list;
  events : Tracer.event list;
}

exception Malformed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Malformed s)) fmt

let str j key =
  match Json.member key j with
  | Some v -> (
      match Json.to_string_opt v with
      | Some s -> s
      | None -> fail "field %S is not a string" key)
  | None -> fail "missing field %S" key

let int_field j key =
  match Json.member key j with
  | Some v -> (
      match Json.to_int_opt v with
      | Some i -> i
      | None -> fail "field %S is not an integer" key)
  | None -> fail "missing field %S" key

let opt_int_field j key =
  match Json.member key j with
  | None | Some Json.Null -> None
  | Some v -> (
      match Json.to_int_opt v with
      | Some i -> Some i
      | None -> fail "field %S is not an integer or null" key)

let meta_of j =
  List.filter_map
    (fun (k, v) ->
      if k = "type" then None
      else
        match Json.to_string_opt v with
        | Some s -> Some (k, s)
        | None -> fail "meta field %S is not a string" k)
    (Json.obj_fields j)

let span_of j : Tracer.span =
  let attrs =
    match Json.member "attrs" j with
    | Some (Json.Obj fields) ->
        List.map
          (fun (k, v) ->
            match Json.to_string_opt v with
            | Some s -> (k, s)
            | None -> fail "span attr %S is not a string" k)
          fields
    | Some _ -> fail "span attrs is not an object"
    | None -> []
  in
  {
    id = int_field j "id";
    parent = opt_int_field j "parent";
    name = str j "name";
    start_us = int_field j "start_us";
    end_us = opt_int_field j "end_us";
    attrs;
  }

let event_of j : Tracer.event =
  {
    time_us = int_field j "us";
    component = str j "component";
    kind = str j "kind";
    detail = str j "detail";
    span = opt_int_field j "span";
  }

let load_string text =
  let meta = ref [] in
  let spans = ref [] in
  let events = ref [] in
  let lineno = ref 0 in
  String.split_on_char '\n' text
  |> List.iter (fun line ->
         incr lineno;
         let line = String.trim line in
         if line <> "" then
           let j =
             try Json.parse line
             with Json.Parse_error e -> fail "line %d: %s" !lineno e
           in
           match str j "type" with
           | "meta" -> meta := !meta @ meta_of j
           | "span" -> spans := span_of j :: !spans
           | "event" -> events := event_of j :: !events
           | other -> fail "line %d: unknown record type %S" !lineno other);
  (* The exporter writes spans in id order and events in insertion
     order; re-sorting spans by id makes ingestion robust to
     concatenated or hand-edited dumps. *)
  {
    meta = !meta;
    spans =
      List.sort
        (fun (a : Tracer.span) (b : Tracer.span) -> compare a.id b.id)
        !spans;
    events = List.rev !events;
  }

let load_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> load_string (really_input_string ic (in_channel_length ic)))

let of_tracer ?(meta = []) t =
  { meta; spans = Tracer.spans t; events = Tracer.events t }

let meta_value dump key = List.assoc_opt key dump.meta

let meta_float dump key =
  match meta_value dump key with
  | None -> None
  | Some s -> float_of_string_opt s

let spans_named dump name =
  List.filter (fun (sp : Tracer.span) -> sp.name = name) dump.spans

let dropped_records dump =
  match meta_value dump "audit_dropped" with
  | Some s -> Option.value (int_of_string_opt s) ~default:0
  | None -> 0
