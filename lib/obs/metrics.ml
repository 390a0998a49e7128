type counter = { mutable c : int }

type gauge = { mutable g : float }

type histogram = { counts : int array; mutable sum : float; mutable n : int }

type instrument = C of counter | G of gauge | H of histogram

type sample = {
  s_name : string;
  s_labels : (string * string) list;
  inst : instrument;
}

type kind = Counter | Gauge | Histogram

type family = { f_kind : kind; mutable f_help : string option }

type t = {
  samples : (string, sample) Hashtbl.t;
  families : (string, family) Hashtbl.t;
}

(* 1-2.5-5 decades from 1 ms to 500 s; +Inf is implicit. *)
let buckets =
  [|
    0.001; 0.0025; 0.005; 0.01; 0.025; 0.05; 0.1; 0.25; 0.5; 1.; 2.5; 5.;
    10.; 25.; 50.; 100.; 250.; 500.;
  |]

let create () = { samples = Hashtbl.create 64; families = Hashtbl.create 32 }

let sort_labels labels =
  List.sort (fun (a, _) (b, _) -> String.compare a b) labels

let sample_key name labels =
  let buf = Buffer.create 32 in
  Buffer.add_string buf name;
  List.iter
    (fun (k, v) ->
      Buffer.add_char buf '\x00';
      Buffer.add_string buf k;
      Buffer.add_char buf '\x01';
      Buffer.add_string buf v)
    labels;
  Buffer.contents buf

let kind_name = function
  | Counter -> "counter"
  | Gauge -> "gauge"
  | Histogram -> "histogram"

let family t name kind help =
  match Hashtbl.find_opt t.families name with
  | Some f ->
      if f.f_kind <> kind then
        invalid_arg
          (Printf.sprintf "Metrics: %s is a %s, not a %s" name
             (kind_name f.f_kind) (kind_name kind));
      if f.f_help = None then f.f_help <- help
  | None -> Hashtbl.replace t.families name { f_kind = kind; f_help = help }

let get_or_create t ?help ?(labels = []) name kind make =
  family t name kind help;
  let labels = sort_labels labels in
  let key = sample_key name labels in
  match Hashtbl.find_opt t.samples key with
  | Some s -> s.inst
  | None ->
      let inst = make () in
      Hashtbl.replace t.samples key { s_name = name; s_labels = labels; inst };
      inst

let counter t ?help ?labels name =
  match get_or_create t ?help ?labels name Counter (fun () -> C { c = 0 }) with
  | C c -> c
  | G _ | H _ -> assert false

let incr ?(by = 1) c = c.c <- c.c + by

let counter_value c = c.c

let gauge t ?help ?labels name =
  match get_or_create t ?help ?labels name Gauge (fun () -> G { g = 0. }) with
  | G g -> g
  | C _ | H _ -> assert false

let set g v = g.g <- v

let histogram t ?help ?labels name =
  let make () =
    H { counts = Array.make (Array.length buckets + 1) 0; sum = 0.; n = 0 }
  in
  match get_or_create t ?help ?labels name Histogram make with
  | H h -> h
  | C _ | G _ -> assert false

let bucket_index v =
  let n = Array.length buckets in
  let rec go i = if i >= n then n else if v <= buckets.(i) then i else go (i + 1) in
  go 0

let observe h v =
  let i = bucket_index v in
  h.counts.(i) <- h.counts.(i) + 1;
  h.sum <- h.sum +. v;
  h.n <- h.n + 1

let observations h = h.n

let observation_sum h = h.sum

(* Prometheus-style histogram_quantile: find the bucket holding the
   q-rank, then interpolate linearly inside it (the first bucket's
   lower edge is 0, the +Inf bucket clamps to the highest finite
   bound). Total functions on totally-ordered inputs: an empty
   histogram yields [nan] and q is clamped to [0,1], mirroring
   [Rf_sim.Stats.percentile]. *)
let histogram_quantile h q =
  if h.n = 0 then Float.nan
  else begin
  let q = if Float.is_nan q then 0. else Float.min 1. (Float.max 0. q) in
  let nb = Array.length buckets in
  let rank = q *. float_of_int h.n in
  let rec go i cum =
    if i >= nb then buckets.(nb - 1)
    else
      let cum' = cum + h.counts.(i) in
      if float_of_int cum' >= rank && h.counts.(i) > 0 then
        let lower = if i = 0 then 0. else buckets.(i - 1) in
        let upper = buckets.(i) in
        lower
        +. (upper -. lower)
           *. ((rank -. float_of_int cum) /. float_of_int h.counts.(i))
      else go (i + 1) cum'
  in
  go 0 0
  end

(* Exposition order: family name, then the (sorted) label set. *)
let sorted_samples t =
  let all = Hashtbl.fold (fun _ s acc -> s :: acc) t.samples [] in
  List.sort
    (fun a b ->
      match String.compare a.s_name b.s_name with
      | 0 -> compare a.s_labels b.s_labels
      | c -> c)
    all

let fold t ~init ~counter ~gauge =
  List.fold_left
    (fun acc s ->
      match s.inst with
      | C c -> counter acc ~name:s.s_name ~labels:s.s_labels c.c
      | G g -> gauge acc ~name:s.s_name ~labels:s.s_labels g.g
      | H _ -> acc)
    init (sorted_samples t)

(* Prometheus exposition-format escaping: label values escape
   backslash, double-quote and newline; HELP text escapes backslash
   and newline. *)
let add_escaped buf ~quote s =
  String.iter
    (fun ch ->
      match ch with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '"' when quote -> Buffer.add_string buf "\\\""
      | ch -> Buffer.add_char buf ch)
    s

let escape_help s =
  let buf = Buffer.create (String.length s) in
  add_escaped buf ~quote:false s;
  Buffer.contents buf

let render_labels buf labels =
  match labels with
  | [] -> ()
  | _ ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf k;
          Buffer.add_string buf "=\"";
          add_escaped buf ~quote:true v;
          Buffer.add_char buf '"')
        labels;
      Buffer.add_char buf '}'

let add_sample buf name labels value =
  Buffer.add_string buf name;
  render_labels buf labels;
  Buffer.add_char buf ' ';
  Buffer.add_string buf value;
  Buffer.add_char buf '\n'

let to_prometheus t =
  let buf = Buffer.create 1024 in
  let last_family = ref "" in
  List.iter
    (fun s ->
      if s.s_name <> !last_family then begin
        last_family := s.s_name;
        match Hashtbl.find_opt t.families s.s_name with
        | Some f ->
            (match f.f_help with
            | Some h ->
                Buffer.add_string buf
                  (Printf.sprintf "# HELP %s %s\n" s.s_name (escape_help h))
            | None -> ());
            Buffer.add_string buf
              (Printf.sprintf "# TYPE %s %s\n" s.s_name (kind_name f.f_kind))
        | None ->
            (* Every exposed family carries a # TYPE line even if it was
               never registered (defensive: untyped is the spec's
               catch-all). *)
            Buffer.add_string buf
              (Printf.sprintf "# TYPE %s untyped\n" s.s_name)
      end;
      match s.inst with
      | C c -> add_sample buf s.s_name s.s_labels (string_of_int c.c)
      | G g -> add_sample buf s.s_name s.s_labels (Printf.sprintf "%g" g.g)
      | H h ->
          let cumulative = ref 0 in
          Array.iteri
            (fun i bound ->
              cumulative := !cumulative + h.counts.(i);
              add_sample buf (s.s_name ^ "_bucket")
                (s.s_labels @ [ ("le", Printf.sprintf "%g" bound) ])
                (string_of_int !cumulative))
            buckets;
          cumulative := !cumulative + h.counts.(Array.length buckets);
          add_sample buf (s.s_name ^ "_bucket")
            (s.s_labels @ [ ("le", "+Inf") ])
            (string_of_int !cumulative);
          add_sample buf (s.s_name ^ "_sum") s.s_labels
            (Printf.sprintf "%g" h.sum);
          add_sample buf (s.s_name ^ "_count") s.s_labels (string_of_int h.n))
    (sorted_samples t);
  Buffer.contents buf
