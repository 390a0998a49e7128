type span = {
  id : int;
  parent : int option;
  name : string;
  start_us : int;
  mutable end_us : int option;
  mutable attrs : (string * string) list;
}

type event = {
  time_us : int;
  component : string;
  kind : string;
  detail : string;
  span : int option;
}

type t = {
  mutable clock : unit -> int;
  mutable next_id : int;
  mutable spans_rev : span list;
  mutable n_spans : int;
  by_id : (int, span) Hashtbl.t;
  mutable events_rev : event list;
  mutable n_events : int;
  keys : (string, int) Hashtbl.t;
}

let create ?(clock = fun () -> 0) () =
  {
    clock;
    next_id = 1;
    spans_rev = [];
    n_spans = 0;
    by_id = Hashtbl.create 64;
    events_rev = [];
    n_events = 0;
    keys = Hashtbl.create 16;
  }

let set_clock t clock = t.clock <- clock

let now_us t = t.clock ()

let span_start t ?parent ?start_us ?(attrs = []) name =
  let id = t.next_id in
  t.next_id <- id + 1;
  let start_us = match start_us with Some us -> us | None -> t.clock () in
  let sp = { id; parent; name; start_us; end_us = None; attrs } in
  t.spans_rev <- sp :: t.spans_rev;
  t.n_spans <- t.n_spans + 1;
  Hashtbl.replace t.by_id id sp;
  id

let find_span t id = Hashtbl.find_opt t.by_id id

let span_end t ?(attrs = []) id =
  match find_span t id with
  | Some sp when sp.end_us = None ->
      sp.end_us <- Some (t.clock ());
      if attrs <> [] then sp.attrs <- sp.attrs @ attrs
  | Some _ | None -> ()

let spans t = List.rev t.spans_rev

let span_count t = t.n_spans

let event_at t ?span ~us ~component ~kind detail =
  t.events_rev <-
    { time_us = us; component; kind; detail; span } :: t.events_rev;
  t.n_events <- t.n_events + 1

let event t ?span ~component ~kind detail =
  event_at t ?span ~us:(t.clock ()) ~component ~kind detail

let events t = List.rev t.events_rev

let event_count t = t.n_events

let correlate t ~key id = Hashtbl.replace t.keys key id

let correlated t ~key = Hashtbl.find_opt t.keys key

let take t ~key =
  match Hashtbl.find_opt t.keys key with
  | Some id ->
      Hashtbl.remove t.keys key;
      Some id
  | None -> None
