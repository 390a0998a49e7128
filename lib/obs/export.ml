let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let add_str buf s =
  Buffer.add_char buf '"';
  Buffer.add_string buf (json_escape s);
  Buffer.add_char buf '"'

let add_opt_int buf = function
  | None -> Buffer.add_string buf "null"
  | Some i -> Buffer.add_string buf (string_of_int i)

(* One JSON object, no trailing newline:
   [{"type":"span","id":..,"parent":..,"name":"..","start_us":..,
     "end_us":..,"attrs":{..}}] — [parent]/[end_us] are [null] for
   roots/open spans. *)
let span_line (sp : Tracer.span) =
  let buf = Buffer.create 128 in
  Buffer.add_string buf "{\"type\":\"span\",\"id\":";
  Buffer.add_string buf (string_of_int sp.id);
  Buffer.add_string buf ",\"parent\":";
  add_opt_int buf sp.parent;
  Buffer.add_string buf ",\"name\":";
  add_str buf sp.name;
  Buffer.add_string buf ",\"start_us\":";
  Buffer.add_string buf (string_of_int sp.start_us);
  Buffer.add_string buf ",\"end_us\":";
  add_opt_int buf sp.end_us;
  Buffer.add_string buf ",\"attrs\":{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      add_str buf k;
      Buffer.add_char buf ':';
      add_str buf v)
    sp.attrs;
  Buffer.add_string buf "}}";
  Buffer.contents buf

(* [{"type":"event","us":..,"component":"..","kind":"..",
    "detail":"..","span":..}] *)
let event_line (ev : Tracer.event) =
  let buf = Buffer.create 128 in
  Buffer.add_string buf "{\"type\":\"event\",\"us\":";
  Buffer.add_string buf (string_of_int ev.time_us);
  Buffer.add_string buf ",\"component\":";
  add_str buf ev.component;
  Buffer.add_string buf ",\"kind\":";
  add_str buf ev.kind;
  Buffer.add_string buf ",\"detail\":";
  add_str buf ev.detail;
  Buffer.add_string buf ",\"span\":";
  add_opt_int buf ev.span;
  Buffer.add_string buf "}";
  Buffer.contents buf

let jsonl ?(meta = []) t =
  let buf = Buffer.create 4096 in
  if meta <> [] then begin
    Buffer.add_string buf "{\"type\":\"meta\"";
    List.iter
      (fun (k, v) ->
        Buffer.add_char buf ',';
        add_str buf k;
        Buffer.add_char buf ':';
        add_str buf v)
      meta;
    Buffer.add_string buf "}\n"
  end;
  List.iter
    (fun sp ->
      Buffer.add_string buf (span_line sp);
      Buffer.add_char buf '\n')
    (Tracer.spans t);
  List.iter
    (fun ev ->
      Buffer.add_string buf (event_line ev);
      Buffer.add_char buf '\n')
    (Tracer.events t);
  Buffer.contents buf

let write_jsonl ?meta t path =
  let oc = open_out path in
  output_string oc (jsonl ?meta t);
  close_out oc

type span_stat = {
  st_name : string;
  st_count : int;
  st_open : int;
  st_total_s : float;
  st_mean_s : float;
  st_max_s : float;
}

type acc = {
  mutable a_count : int;
  mutable a_open : int;
  mutable a_total : float;
  mutable a_max : float;
}

let span_stats t =
  let tbl : (string, acc) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (sp : Tracer.span) ->
      let a =
        match Hashtbl.find_opt tbl sp.name with
        | Some a -> a
        | None ->
            let a = { a_count = 0; a_open = 0; a_total = 0.; a_max = 0. } in
            Hashtbl.replace tbl sp.name a;
            a
      in
      match sp.end_us with
      | None -> a.a_open <- a.a_open + 1
      | Some e ->
          let d = float_of_int (e - sp.start_us) /. 1e6 in
          a.a_count <- a.a_count + 1;
          a.a_total <- a.a_total +. d;
          if d > a.a_max then a.a_max <- d)
    (Tracer.spans t);
  Hashtbl.fold
    (fun name a acc ->
      {
        st_name = name;
        st_count = a.a_count;
        st_open = a.a_open;
        st_total_s = a.a_total;
        st_mean_s =
          (if a.a_count = 0 then 0. else a.a_total /. float_of_int a.a_count);
        st_max_s = a.a_max;
      }
      :: acc)
    tbl []
  |> List.sort (fun a b -> String.compare a.st_name b.st_name)

let pp_span_stats ppf stats =
  Format.fprintf ppf "%-18s %6s %5s %10s %10s %10s@." "span" "count" "open"
    "total(s)" "mean(s)" "max(s)";
  List.iter
    (fun st ->
      Format.fprintf ppf "%-18s %6d %5d %10.3f %10.3f %10.3f@." st.st_name
        st.st_count st.st_open st.st_total_s st.st_mean_s st.st_max_s)
    stats
