open Rf_packet
module Of_match = Rf_openflow.Of_match
module Of_action = Rf_openflow.Of_action
module Prefix = Ipv4_addr.Prefix
module Metrics = Rf_obs.Metrics
module Tracer = Rf_obs.Tracer

type kind = Loop | Blackhole | Rib_fib | Slice

let kind_to_string = function
  | Loop -> "loop"
  | Blackhole -> "blackhole"
  | Rib_fib -> "rib_fib"
  | Slice -> "slice"

let kind_index = function Loop -> 0 | Blackhole -> 1 | Rib_fib -> 2 | Slice -> 3

type window = {
  w_kind : kind;
  w_key : string;
  w_open_us : int;
  mutable w_close_us : int option;
}

(* One header equivalence class: a destination prefix seen in some
   flow table or configured on a host, refcounted across both. The
   representative address is the probe destination — chosen inside the
   prefix but outside every strictly-more-specific class, so the walk
   exercises this prefix's entries and not a longer match's. *)
type cls = {
  c_key : string;
  c_prefix : Prefix.t;
  mutable c_refs : int;
  mutable c_rep : Ipv4_addr.t option;
  mutable c_covered : bool;  (* rep lies inside a configured host prefix *)
}

type instruments = {
  i_violations : Metrics.counter array;  (* indexed by kind_index *)
  i_check : Metrics.histogram;
  i_eq_classes : Metrics.gauge;
  i_dropped : Metrics.counter;
}

type t = {
  model : Fwd_model.t;
  clock : unit -> int;
  tracer : Tracer.t option;
  inst : instruments option;
  classes : (string, cls) Hashtbl.t;
  mutable host_prefixes : Prefix.t list;
  known : (int64, unit) Hashtbl.t;
  verdicts : (string * int64, string * (kind * string) option) Hashtbl.t;
  paths : (string * int64, int64 list) Hashtbl.t;
  touched : (int64 * string, (int64, unit) Hashtbl.t) Hashtbl.t;
      (* (switch, class) -> ingresses whose walk of the class visits
         the switch *)
  active : (kind * string, int) Hashtbl.t;
  open_wins : (kind * string, window * int option) Hashtbl.t;
  mutable windows_rev : window list;
  rib : (int64, (Prefix.t * int) list) Hashtbl.t;
  rib_bad : (int64, unit) Hashtbl.t;
  slices : (string, Of_match.t list) Hashtbl.t;
  attribution :
    (int64 * int * Prefix.t option, (Of_match.t * string) list) Hashtbl.t;
      (* (switch, priority, nw_dst) -> the (match, slice) of each
         attributed flow with that key *)
  slice_bad : (int64, string list) Hashtbl.t;
  totals : int array;  (* windows opened, by kind_index *)
  mutable updates : int;
  mutable dropped : int;
}

let create ?clock ?tracer ?metrics () =
  let clock =
    match (clock, tracer) with
    | Some c, _ -> c
    | None, Some tr -> fun () -> Tracer.now_us tr
    | None, None -> fun () -> 0
  in
  let inst =
    match metrics with
    | None -> None
    | Some m ->
        let c kind =
          Metrics.counter m ~help:"Violation windows opened by the auditor"
            ~labels:[ ("kind", kind_to_string kind) ]
            "audit_violations_total"
        in
        Some
          {
            i_violations = Array.map c [| Loop; Blackhole; Rib_fib; Slice |];
            i_check =
              Metrics.histogram m
                ~help:"Wall-clock cost of one incremental audit update"
                "audit_check_seconds";
            i_eq_classes =
              Metrics.gauge m
                ~help:"Header equivalence classes currently audited"
                "audit_eq_classes";
            i_dropped =
              Metrics.counter m
                ~help:"Classes that lost probe coverage (audit incomplete)"
                "audit_dropped_total";
          }
  in
  {
    model = Fwd_model.create ();
    clock;
    tracer;
    inst;
    classes = Hashtbl.create 64;
    host_prefixes = [];
    known = Hashtbl.create 64;
    verdicts = Hashtbl.create 512;
    paths = Hashtbl.create 512;
    touched = Hashtbl.create 64;
    active = Hashtbl.create 16;
    open_wins = Hashtbl.create 16;
    windows_rev = [];
    rib = Hashtbl.create 64;
    rib_bad = Hashtbl.create 16;
    slices = Hashtbl.create 8;
    attribution = Hashtbl.create 512;
    slice_bad = Hashtbl.create 16;
    totals = [| 0; 0; 0; 0 |];
    updates = 0;
    dropped = 0;
  }

(* {2 Violation windows} *)

let open_window t kind key =
  let now = t.clock () in
  let w = { w_kind = kind; w_key = key; w_open_us = now; w_close_us = None } in
  t.windows_rev <- w :: t.windows_rev;
  t.totals.(kind_index kind) <- t.totals.(kind_index kind) + 1;
  let span =
    match t.tracer with
    | None -> None
    | Some tr ->
        Some
          (Tracer.span_start tr
             ~attrs:[ ("kind", kind_to_string kind); ("key", key) ]
             "audit.violation")
  in
  (match t.inst with
  | Some i -> Metrics.incr i.i_violations.(kind_index kind)
  | None -> ());
  Hashtbl.replace t.open_wins (kind, key) (w, span)

let close_window t kind key =
  match Hashtbl.find_opt t.open_wins (kind, key) with
  | None -> ()
  | Some (w, span) ->
      w.w_close_us <- Some (t.clock ());
      (match (span, t.tracer) with
      | Some id, Some tr -> Tracer.span_end tr id
      | _ -> ());
      Hashtbl.remove t.open_wins (kind, key)

let bump t kind key delta =
  let k = (kind, key) in
  let cur = Option.value (Hashtbl.find_opt t.active k) ~default:0 in
  let nxt = max 0 (cur + delta) in
  if cur = 0 && nxt > 0 then open_window t kind key;
  if cur > 0 && nxt = 0 then close_window t kind key;
  if nxt = 0 then Hashtbl.remove t.active k else Hashtbl.replace t.active k nxt

(* {2 Equivalence classes and walks} *)

let class_keys_sorted t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.classes []
  |> List.sort String.compare

let switches_sorted t =
  Hashtbl.fold (fun d _ acc -> d :: acc) t.known [] |> List.sort Int64.compare

let count_dropped t =
  t.dropped <- t.dropped + 1;
  match t.inst with Some i -> Metrics.incr i.i_dropped | None -> ()

let compute_rep t cls =
  let p = cls.c_prefix in
  let len = Prefix.length p in
  if len = 32 then Some (Prefix.network p)
  else
    let size = if len >= 24 then 1 lsl (32 - len) else 256 in
    let more_specific =
      Hashtbl.fold
        (fun _ c acc ->
          if
            (not (String.equal c.c_key cls.c_key))
            && Prefix.length c.c_prefix > len
            && Prefix.subset c.c_prefix p
          then c.c_prefix :: acc
          else acc)
        t.classes []
    in
    let rec scan i =
      if i >= size then None
      else
        let a = Prefix.host p i in
        if List.exists (fun q -> Prefix.mem a q) more_specific then scan (i + 1)
        else Some a
    in
    scan 0

let covered_of t = function
  | None -> false
  | Some a -> List.exists (fun hp -> Prefix.mem a hp) t.host_prefixes

let probe_key ~in_port rep =
  {
    Of_match.in_port;
    dl_src = Mac.zero;
    dl_dst = Mac.zero;
    dl_vlan = 0xffff;
    dl_pcp = 0;
    dl_type = 0x800;
    nw_tos = 0;
    nw_proto = 17;
    nw_src = Ipv4_addr.any;
    nw_dst = rep;
    tp_src = 0;
    tp_dst = 0;
  }

let contribution cls = function
  | Fwd_model.Loop -> Some (Loop, cls.c_key)
  | Fwd_model.Blackhole ->
      if cls.c_covered then Some (Blackhole, cls.c_key) else None
  | Fwd_model.Delivered -> None

let index_remove t (ckey, src) path =
  List.iter
    (fun d ->
      match Hashtbl.find_opt t.touched (d, ckey) with
      | Some srcs ->
          Hashtbl.remove srcs src;
          if Hashtbl.length srcs = 0 then Hashtbl.remove t.touched (d, ckey)
      | None -> ())
    path

let index_add t (ckey, src) path =
  List.iter
    (fun d ->
      let srcs =
        match Hashtbl.find_opt t.touched (d, ckey) with
        | Some srcs -> srcs
        | None ->
            let srcs = Hashtbl.create 8 in
            Hashtbl.replace t.touched (d, ckey) srcs;
            srcs
      in
      Hashtbl.replace srcs src ())
    path

let update_walk t cls dpid =
  let wk = (cls.c_key, dpid) in
  let old_contrib =
    match Hashtbl.find_opt t.verdicts wk with Some (_, c) -> c | None -> None
  in
  let vstr, contrib, path =
    match cls.c_rep with
    | None -> ("unprobed", None, [])
    | Some rep ->
        let in_port =
          match Fwd_model.host_port t.model dpid with
          | Some (p, _) -> p
          | None -> 0
        in
        let verdict, path =
          Fwd_model.walk t.model ~dpid ~in_port (probe_key ~in_port rep)
        in
        (Fwd_model.verdict_to_string verdict, contribution cls verdict, path)
  in
  (match Hashtbl.find_opt t.paths wk with
  | Some old_path -> index_remove t wk old_path
  | None -> ());
  index_add t wk path;
  Hashtbl.replace t.paths wk path;
  Hashtbl.replace t.verdicts wk (vstr, contrib);
  if old_contrib <> contrib then begin
    (match old_contrib with Some (k, key) -> bump t k key (-1) | None -> ());
    match contrib with Some (k, key) -> bump t k key 1 | None -> ()
  end

let remove_walk t cls dpid =
  let wk = (cls.c_key, dpid) in
  (match Hashtbl.find_opt t.verdicts wk with
  | Some (_, Some (k, key)) -> bump t k key (-1)
  | _ -> ());
  (match Hashtbl.find_opt t.paths wk with
  | Some path -> index_remove t wk path
  | None -> ());
  Hashtbl.remove t.paths wk;
  Hashtbl.remove t.verdicts wk

let walk_class t cls =
  List.iter (fun d -> update_walk t cls d) (switches_sorted t)

(* Re-derive the representative (and coverage) of a class; on change,
   every walk of the class is stale. *)
let refresh_class t cls =
  let rep = compute_rep t cls in
  let covered = covered_of t rep in
  let changed =
    (not (Option.equal Ipv4_addr.equal rep cls.c_rep))
    || covered <> cls.c_covered
  in
  if changed then begin
    if cls.c_rep <> None && rep = None then count_dropped t;
    cls.c_rep <- rep;
    cls.c_covered <- covered;
    walk_class t cls
  end

let enclosing_classes t prefix =
  let len = Prefix.length prefix in
  Hashtbl.fold
    (fun _ c acc ->
      if Prefix.length c.c_prefix < len && Prefix.subset prefix c.c_prefix then
        c :: acc
      else acc)
    t.classes []
  |> List.sort (fun a b -> String.compare a.c_key b.c_key)

let incr_class t prefix =
  let key = Prefix.to_string prefix in
  match Hashtbl.find_opt t.classes key with
  | Some c -> c.c_refs <- c.c_refs + 1
  | None ->
      let cls =
        { c_key = key; c_prefix = prefix; c_refs = 1; c_rep = None; c_covered = false }
      in
      Hashtbl.replace t.classes key cls;
      let rep = compute_rep t cls in
      cls.c_rep <- rep;
      cls.c_covered <- covered_of t rep;
      if rep = None then count_dropped t;
      walk_class t cls;
      List.iter (fun c -> refresh_class t c) (enclosing_classes t prefix)

let decr_class t prefix =
  let key = Prefix.to_string prefix in
  match Hashtbl.find_opt t.classes key with
  | None -> ()
  | Some c ->
      c.c_refs <- c.c_refs - 1;
      if c.c_refs <= 0 then begin
        List.iter (fun d -> remove_walk t c d) (switches_sorted t);
        Hashtbl.remove t.classes key;
        List.iter (fun c -> refresh_class t c) (enclosing_classes t prefix)
      end

(* The walks of [ckeys] that visit one of [dpids], sorted by (class,
   ingress) so that windows open in a fixed order. *)
let affected_walks t ckeys dpids =
  let acc = Hashtbl.create 64 in
  List.iter
    (fun d ->
      List.iter
        (fun ckey ->
          match Hashtbl.find_opt t.touched (d, ckey) with
          | Some srcs -> Hashtbl.iter (fun s () -> Hashtbl.replace acc (ckey, s) ()) srcs
          | None -> ())
        ckeys)
    dpids;
  Hashtbl.fold (fun wk () l -> wk :: l) acc []
  |> List.sort (fun (k1, d1) (k2, d2) ->
         match String.compare k1 k2 with 0 -> Int64.compare d1 d2 | c -> c)

let rerun_walks t ckeys dpids =
  List.iter
    (fun (ckey, dpid) ->
      match Hashtbl.find_opt t.classes ckey with
      | Some cls -> update_walk t cls dpid
      | None -> ())
    (affected_walks t ckeys dpids)

(* {2 Per-switch checks} *)

let rib_key dpid = Printf.sprintf "sw%Ld" dpid

let rf_priority_floor = 0x4000

(* [f] of each of the switch's entries that it keeps, in no particular
   order: both checks below sort or dedupe what they keep. *)
let filter_entries t dpid f =
  match Fwd_model.table t.model dpid with
  | Some table ->
      let kept = ref [] in
      Flow_table.iter table (fun e ->
          match f e with Some x -> kept := x :: !kept | None -> ());
      !kept
  | None -> []

let installed_fib t dpid =
  filter_entries t dpid (fun (e : Flow_table.entry) ->
      if e.e_priority < rf_priority_floor then None
      else if e.e_match.Of_match.m_dl_type <> Some 0x800 then None
      else
        match e.e_match.Of_match.m_nw_dst with
        | None -> None
        | Some p -> (
            match
              List.find_opt Rf_openflow.Of_port.is_physical
                (Of_action.outputs e.e_actions)
            with
            | Some port -> Some (p, port)
            | None -> None))
  |> List.sort (fun (p1, o1) (p2, o2) ->
         match Prefix.compare p1 p2 with 0 -> compare o1 o2 | c -> c)

let recheck_rib t dpid =
  let desired = Option.value (Hashtbl.find_opt t.rib dpid) ~default:[] in
  let installed = installed_fib t dpid in
  let bad =
    not
      (List.length desired = List.length installed
      && List.for_all2
           (fun (p1, o1) (p2, o2) -> Prefix.equal p1 p2 && o1 = o2)
           desired installed)
  in
  let was = Hashtbl.mem t.rib_bad dpid in
  if bad && not was then begin
    Hashtbl.replace t.rib_bad dpid ();
    bump t Rib_fib (rib_key dpid) 1
  end
  else if (not bad) && was then begin
    Hashtbl.remove t.rib_bad dpid;
    bump t Rib_fib (rib_key dpid) (-1)
  end

let attribution_key dpid (m : Of_match.t) priority =
  (dpid, priority, m.Of_match.m_nw_dst)

let recheck_slice t dpid =
  let viol =
    filter_entries t dpid (fun (e : Flow_table.entry) ->
        match
          Hashtbl.find_opt t.attribution
            (attribution_key dpid e.e_match e.e_priority)
        with
        | None -> None
        | Some flows -> (
            match
              List.find_opt (fun (m, _) -> Of_match.equal m e.e_match) flows
            with
            | None -> None
            | Some (_, slice) ->
                let permitted =
                  match Hashtbl.find_opt t.slices slice with
                  | Some patterns ->
                      List.exists
                        (fun pat -> Of_match.subsumes pat e.e_match)
                        patterns
                  | None -> false
                in
                if permitted then None else Some slice))
    |> List.sort_uniq String.compare
  in
  let old = Option.value (Hashtbl.find_opt t.slice_bad dpid) ~default:[] in
  List.iter
    (fun s -> if not (List.mem s viol) then bump t Slice s (-1))
    old;
  List.iter (fun s -> if not (List.mem s old) then bump t Slice s 1) viol;
  if viol = [] then Hashtbl.remove t.slice_bad dpid
  else Hashtbl.replace t.slice_bad dpid viol

(* {2 Update wrapper} *)

let with_update t f =
  match t.inst with
  | None ->
      f ();
      t.updates <- t.updates + 1
  | Some i ->
      let t0 = Unix.gettimeofday () in
      f ();
      t.updates <- t.updates + 1;
      Metrics.observe i.i_check (Unix.gettimeofday () -. t0);
      Metrics.set i.i_eq_classes (float_of_int (Hashtbl.length t.classes))

(* {2 Topology feed} *)

let register_switch t dpid =
  if not (Hashtbl.mem t.known dpid) then begin
    Hashtbl.replace t.known dpid ();
    List.iter
      (fun key ->
        match Hashtbl.find_opt t.classes key with
        | Some cls -> update_walk t cls dpid
        | None -> ())
      (class_keys_sorted t)
  end

let add_link t ~a ~b =
  with_update t (fun () ->
      register_switch t (fst a);
      register_switch t (fst b);
      Fwd_model.add_link t.model ~a ~b;
      rerun_walks t (class_keys_sorted t) [ fst a; fst b ])

let add_host t ~dpid ~port prefix =
  with_update t (fun () ->
      register_switch t dpid;
      Fwd_model.add_host t.model ~dpid ~port prefix;
      t.host_prefixes <- prefix :: t.host_prefixes;
      incr_class t prefix;
      (* Coverage of every class may change; refresh re-walks only on
         actual change, and the new attachment point invalidates the
         walks that touch this switch. *)
      List.iter
        (fun key ->
          match Hashtbl.find_opt t.classes key with
          | Some cls -> refresh_class t cls
          | None -> ())
        (class_keys_sorted t);
      rerun_walks t (class_keys_sorted t) [ dpid ])

let set_slice t name patterns =
  with_update t (fun () ->
      Hashtbl.replace t.slices name patterns;
      List.iter (fun d -> recheck_slice t d) (switches_sorted t))

(* {2 Update feed} *)

let prefixes_of (entries : Flow_table.entry list) =
  List.filter_map
    (fun (e : Flow_table.entry) ->
      match e.e_match.Of_match.m_nw_dst with
      | Some p -> Some (Prefix.to_string p, p)
      | None -> None)
    entries
  |> List.sort (fun (k1, _) (k2, _) -> String.compare k1 k2)

(* Multiset diff of two key-sorted lists: (only in old, only in new). *)
let rec diff_sorted old fresh =
  match (old, fresh) with
  | [], fresh -> ([], fresh)
  | old, [] -> (old, [])
  | ((k1, _) as x) :: o', ((k2, _) as y) :: f' ->
      let c = String.compare k1 k2 in
      if c = 0 then diff_sorted o' f'
      else if c < 0 then
        let removed, added = diff_sorted o' fresh in
        (x :: removed, added)
      else
        let removed, added = diff_sorted old f' in
        (removed, y :: added)

(* A walk's key varies along its path only in [in_port] and the two
   MACs (rewrites); every other field is fixed by the probe. An entry
   that matches none of a class's headers at this switch cannot change
   its lookup there, so a change re-walks only the classes whose
   representative some left or entered entry matches with those three
   fields wildcarded: a superset of the classes whose lookup result
   changed. *)
let touches (e : Flow_table.entry) =
  let m =
    { e.e_match with Of_match.m_in_port = None; m_dl_src = None; m_dl_dst = None }
  in
  fun rep -> Of_match.matches m (probe_key ~in_port:0 rep)

let changed t dpid ~left ~entered =
  register_switch t dpid;
  (* Equal prefixes cancel before any refcount moves, so no class is
     deleted and recreated within one change. *)
  let removed, added = diff_sorted (prefixes_of left) (prefixes_of entered) in
  List.iter (fun (_, p) -> decr_class t p) removed;
  List.iter (fun (_, p) -> incr_class t p) added;
  let hits = List.map touches (left @ entered) in
  let ckeys =
    Hashtbl.fold
      (fun key cls acc ->
        match cls.c_rep with
        | Some rep when List.exists (fun hit -> hit rep) hits -> key :: acc
        | Some _ | None -> acc)
      t.classes []
  in
  rerun_walks t ckeys [ dpid ];
  recheck_rib t dpid;
  recheck_slice t dpid

let add_switch t dpid table =
  with_update t (fun () ->
      Fwd_model.add_switch t.model dpid table;
      changed t dpid ~left:[] ~entered:(Flow_table.entries table))

let table_changed t dpid ~left ~entered =
  with_update t (fun () -> changed t dpid ~left ~entered)

let set_link_state t ~a ~b up =
  with_update t (fun () ->
      register_switch t (fst a);
      register_switch t (fst b);
      Fwd_model.set_link_state t.model ~a ~b up;
      rerun_walks t (class_keys_sorted t) [ fst a; fst b ])

let set_rib t dpid routes =
  with_update t (fun () ->
      register_switch t dpid;
      let routes =
        List.sort
          (fun (p1, o1) (p2, o2) ->
            match Prefix.compare p1 p2 with 0 -> compare o1 o2 | c -> c)
          routes
      in
      Hashtbl.replace t.rib dpid routes;
      recheck_rib t dpid)

let attribute t ~dpid ~match_ ~priority slice =
  with_update t (fun () ->
      let key = attribution_key dpid match_ priority in
      let others =
        List.filter
          (fun (m, _) -> not (Of_match.equal m match_))
          (Option.value (Hashtbl.find_opt t.attribution key) ~default:[])
      in
      Hashtbl.replace t.attribution key ((match_, slice) :: others);
      recheck_slice t dpid)

let full_recheck t =
  with_update t (fun () ->
      let sws = switches_sorted t in
      List.iter
        (fun key ->
          match Hashtbl.find_opt t.classes key with
          | Some cls ->
              refresh_class t cls;
              List.iter (fun d -> update_walk t cls d) sws
          | None -> ())
        (class_keys_sorted t);
      List.iter
        (fun d ->
          recheck_rib t d;
          recheck_slice t d)
        sws)

(* {2 Results} *)

let windows t = List.rev t.windows_rev

let open_violations t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.open_wins []
  |> List.sort (fun (k1, s1) (k2, s2) ->
         match compare (kind_index k1) (kind_index k2) with
         | 0 -> String.compare s1 s2
         | c -> c)

let overlapping t ~start_us ~stop_us =
  List.filter
    (fun w ->
      w.w_open_us <= stop_us
      && match w.w_close_us with None -> true | Some c -> c >= start_us)
    (windows t)

let reachability t =
  Hashtbl.fold (fun (ck, d) (v, _) acc -> (ck, d, v) :: acc) t.verdicts []
  |> List.sort (fun (k1, d1, _) (k2, d2, _) ->
         match String.compare k1 k2 with 0 -> Int64.compare d1 d2 | c -> c)

let updates t = t.updates
let eq_classes t = Hashtbl.length t.classes
let walks t = Hashtbl.length t.verdicts
let dropped t = t.dropped
let violations_total t kind = t.totals.(kind_index kind)
