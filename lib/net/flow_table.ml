open Rf_openflow
open Rf_packet

type entry = {
  e_match : Of_match.t;
  e_priority : int;
  e_cookie : int64;
  e_idle_timeout : int;
  e_hard_timeout : int;
  e_notify_removed : bool;
  e_seq : int;
  mutable e_actions : Of_action.t list;
  mutable e_packets : int64;
  mutable e_bytes : int64;
  e_installed : Rf_sim.Vtime.t;
  mutable e_last_used : Rf_sim.Vtime.t;
}

type removal_reason = Expired_idle | Expired_hard | Deleted

(* Lookup index: entries partitioned by wildcard signature (which
   fields are exact, plus the two prefix lengths). Within a signature
   every entry constrains the same projection of the key, so the bucket
   is an exact-match hash table from projected key to the best (first
   in table order) entry for that projection. A lookup probes one hash
   table per distinct signature instead of scanning every entry. *)
type bucket = {
  b_mask : int;  (* presence bits for the ten scalar fields *)
  b_src : int;  (* nw_src prefix length; -1 = wildcarded *)
  b_dst : int;
  b_tbl : (Of_match.key, entry) Hashtbl.t;
}

type t = {
  mutable entries : entry list;
  capacity : int;
  mutable next_seq : int;
  mutable index : bucket list option;  (* None = stale, rebuilt lazily *)
}
(* Entries kept sorted by priority descending; stable within equal
   priority (insertion order, i.e. [e_seq] ascending). A plain add
   updates [index] in place; other mutations invalidate it and
   [lookup] rebuilds it on demand. *)

let create ?(capacity = 65536) () =
  { entries = []; capacity; next_seq = 0; index = None }

let size t = List.length t.entries

let entries t = t.entries

let lookup_linear t key =
  List.find_opt (fun e -> Of_match.matches e.e_match key) t.entries

let bit_in_port = 1 lsl 0

let bit_dl_src = 1 lsl 1

let bit_dl_dst = 1 lsl 2

let bit_dl_vlan = 1 lsl 3

let bit_dl_pcp = 1 lsl 4

let bit_dl_type = 1 lsl 5

let bit_nw_tos = 1 lsl 6

let bit_nw_proto = 1 lsl 7

let bit_tp_src = 1 lsl 8

let bit_tp_dst = 1 lsl 9

let mask_of_match (m : Of_match.t) =
  let bit b = function Some _ -> b | None -> 0 in
  bit bit_in_port m.m_in_port
  lor bit bit_dl_src m.m_dl_src
  lor bit bit_dl_dst m.m_dl_dst
  lor bit bit_dl_vlan m.m_dl_vlan
  lor bit bit_dl_pcp m.m_dl_pcp
  lor bit bit_dl_type m.m_dl_type
  lor bit bit_nw_tos m.m_nw_tos
  lor bit bit_nw_proto m.m_nw_proto
  lor bit bit_tp_src m.m_tp_src
  lor bit bit_tp_dst m.m_tp_dst

let prefix_len = function
  | None -> -1
  | Some p -> Ipv4_addr.Prefix.length p

let mask_addr a len =
  if len <= 0 then Ipv4_addr.any
  else
    Ipv4_addr.of_int32
      (Int32.logand (Ipv4_addr.to_int32 a) (Int32.shift_left (-1l) (32 - len)))

(* The exact-match key an entry of this bucket constrains: wildcarded
   fields zeroed, prefix fields masked to the bucket's lengths. *)
let project b (k : Of_match.key) =
  {
    Of_match.in_port = (if b.b_mask land bit_in_port <> 0 then k.in_port else 0);
    dl_src = (if b.b_mask land bit_dl_src <> 0 then k.dl_src else Mac.zero);
    dl_dst = (if b.b_mask land bit_dl_dst <> 0 then k.dl_dst else Mac.zero);
    dl_vlan = (if b.b_mask land bit_dl_vlan <> 0 then k.dl_vlan else 0);
    dl_pcp = (if b.b_mask land bit_dl_pcp <> 0 then k.dl_pcp else 0);
    dl_type = (if b.b_mask land bit_dl_type <> 0 then k.dl_type else 0);
    nw_tos = (if b.b_mask land bit_nw_tos <> 0 then k.nw_tos else 0);
    nw_proto = (if b.b_mask land bit_nw_proto <> 0 then k.nw_proto else 0);
    nw_src = mask_addr k.nw_src b.b_src;
    nw_dst = mask_addr k.nw_dst b.b_dst;
    tp_src = (if b.b_mask land bit_tp_src <> 0 then k.tp_src else 0);
    tp_dst = (if b.b_mask land bit_tp_dst <> 0 then k.tp_dst else 0);
  }

let key_of_match (m : Of_match.t) =
  let addr = function
    | None -> Ipv4_addr.any
    | Some p -> Ipv4_addr.Prefix.network p
  in
  {
    Of_match.in_port = Option.value m.m_in_port ~default:0;
    dl_src = Option.value m.m_dl_src ~default:Mac.zero;
    dl_dst = Option.value m.m_dl_dst ~default:Mac.zero;
    dl_vlan = Option.value m.m_dl_vlan ~default:0;
    dl_pcp = Option.value m.m_dl_pcp ~default:0;
    dl_type = Option.value m.m_dl_type ~default:0;
    nw_tos = Option.value m.m_nw_tos ~default:0;
    nw_proto = Option.value m.m_nw_proto ~default:0;
    nw_src = addr m.m_nw_src;
    nw_dst = addr m.m_nw_dst;
    tp_src = Option.value m.m_tp_src ~default:0;
    tp_dst = Option.value m.m_tp_dst ~default:0;
  }

(* Enters [e] as its projected key's winner unless an entry already
   there precedes it in table order (priority desc, seq asc); [e] is the
   newest entry or, during a rebuild, visited in table order. Returns
   the bucket list, extended when [e] opens a new signature. *)
let index_add buckets e =
  let mask = mask_of_match e.e_match in
  let src = prefix_len e.e_match.Of_match.m_nw_src in
  let dst = prefix_len e.e_match.Of_match.m_nw_dst in
  let b, buckets =
    match
      List.find_opt
        (fun b -> b.b_mask = mask && b.b_src = src && b.b_dst = dst)
        buckets
    with
    | Some b -> (b, buckets)
    | None ->
        let b =
          { b_mask = mask; b_src = src; b_dst = dst; b_tbl = Hashtbl.create 64 }
        in
        (b, b :: buckets)
  in
  let pk = key_of_match e.e_match in
  (match Hashtbl.find_opt b.b_tbl pk with
  | Some w when w.e_priority >= e.e_priority -> ()
  | Some _ | None -> Hashtbl.replace b.b_tbl pk e);
  buckets

let rebuild t =
  let index = List.fold_left index_add [] t.entries in
  t.index <- Some index;
  index

(* Highest priority across buckets wins; within equal priority the
   earliest-installed entry ([e_seq]) — exactly the entry the linear
   scan over the sorted list would find first. *)
let lookup t key =
  let buckets = match t.index with Some i -> i | None -> rebuild t in
  let rec go best = function
    | [] -> best
    | b :: rest ->
        let best =
          match Hashtbl.find_opt b.b_tbl (project b key) with
          | None -> best
          | Some e -> (
              match best with
              | Some be
                when be.e_priority > e.e_priority
                     || (be.e_priority = e.e_priority && be.e_seq < e.e_seq) ->
                  best
              | Some _ | None -> Some e)
        in
        go best rest
  in
  go None buckets

let account e ~now ~bytes =
  e.e_packets <- Int64.succ e.e_packets;
  e.e_bytes <- Int64.add e.e_bytes (Int64.of_int bytes);
  e.e_last_used <- now

let insert_sorted t entry =
  let rec go = function
    | [] -> [ entry ]
    | e :: rest ->
        if entry.e_priority > e.e_priority then entry :: e :: rest
        else e :: go rest
  in
  t.entries <- go t.entries

let entry_outputs_to port e =
  List.exists
    (fun a ->
      match a with
      | Of_action.Output { port = p; _ } -> p = port
      | Of_action.Set_dl_src _ | Of_action.Set_dl_dst _ | Of_action.Set_nw_src _
      | Of_action.Set_nw_dst _ | Of_action.Set_nw_tos _ | Of_action.Set_tp_src _
      | Of_action.Set_tp_dst _ | Of_action.Strip_vlan ->
          false)
    e.e_actions

let matches_for_delete ~strict (fm : Of_msg.flow_mod) e =
  let match_ok =
    if strict then
      Of_match.equal fm.fm_match e.e_match && fm.fm_priority = e.e_priority
    else Of_match.subsumes fm.fm_match e.e_match
  in
  let out_port_ok =
    match fm.fm_out_port with
    | None -> true
    | Some port -> entry_outputs_to port e
  in
  match_ok && out_port_ok

let rec apply_flow_mod t ~now (fm : Of_msg.flow_mod) =
  match fm.fm_command with
  | Of_msg.Add ->
      let replaced = ref false in
      let without =
        List.filter
          (fun e ->
            let identical =
              Of_match.equal fm.fm_match e.e_match
              && fm.fm_priority = e.e_priority
            in
            if identical then replaced := true;
            not identical)
          t.entries
      in
      if List.length without >= t.capacity then Error "all tables full"
      else begin
        t.entries <- without;
        t.next_seq <- t.next_seq + 1;
        let entry =
          {
            e_match = fm.fm_match;
            e_priority = fm.fm_priority;
            e_cookie = fm.fm_cookie;
            e_idle_timeout = fm.fm_idle_timeout;
            e_hard_timeout = fm.fm_hard_timeout;
            e_notify_removed = fm.fm_notify_removed;
            e_seq = t.next_seq;
            e_actions = fm.fm_actions;
            e_packets = 0L;
            e_bytes = 0L;
            e_installed = now;
            e_last_used = now;
          }
        in
        insert_sorted t entry;
        (* The newest entry wins its projected key only on a strictly
           higher priority. An entry it replaced may have been a winner,
           so that case rebuilds. *)
        (match t.index with
        | Some index when not !replaced ->
            t.index <- Some (index_add index entry)
        | Some _ | None -> t.index <- None);
        Ok []
      end
  | Of_msg.Modify | Of_msg.Modify_strict ->
      let strict = fm.fm_command = Of_msg.Modify_strict in
      let touched = ref false in
      List.iter
        (fun e ->
          let hit =
            if strict then
              Of_match.equal fm.fm_match e.e_match && fm.fm_priority = e.e_priority
            else Of_match.subsumes fm.fm_match e.e_match
          in
          if hit then begin
            e.e_actions <- fm.fm_actions;
            touched := true
          end)
        t.entries;
      if !touched then begin
        t.index <- None;
        Ok []
      end
      else
        (* OF 1.0: a modify that matches nothing behaves as an add. *)
        apply_flow_mod t ~now { fm with fm_command = Of_msg.Add }
  | Of_msg.Delete | Of_msg.Delete_strict ->
      let strict = fm.fm_command = Of_msg.Delete_strict in
      let removed, kept =
        List.partition (matches_for_delete ~strict fm) t.entries
      in
      t.entries <- kept;
      if removed <> [] then t.index <- None;
      Ok removed

let expire t ~now =
  let expired e =
    let age_since from limit =
      limit > 0
      && Rf_sim.Vtime.(add from (Rf_sim.Vtime.span_s (float_of_int limit)) <= now)
    in
    if age_since e.e_installed e.e_hard_timeout then Some Expired_hard
    else if age_since e.e_last_used e.e_idle_timeout then Some Expired_idle
    else None
  in
  let gone, kept =
    List.fold_left
      (fun (gone, kept) e ->
        match expired e with
        | Some reason -> ((e, reason) :: gone, kept)
        | None -> (gone, e :: kept))
      ([], []) t.entries
  in
  t.entries <- List.rev kept;
  if gone <> [] then t.index <- None;
  (* Canonical eviction order, independent of insertion history: higher
     priority first, then lowest cookie, with table order as the final
     (stable) tie-break. Keeps the Flow_removed sequence deterministic
     when several entries expire at the same vtime. *)
  List.stable_sort
    (fun ((a : entry), _) ((b : entry), _) ->
      match compare b.e_priority a.e_priority with
      | 0 -> Int64.compare a.e_cookie b.e_cookie
      | c -> c)
    (List.rev gone)

let stats t ~match_ ~out_port ~now =
  List.filter_map
    (fun e ->
      let match_ok = Of_match.subsumes match_ e.e_match in
      let out_ok =
        match out_port with None -> true | Some p -> entry_outputs_to p e
      in
      if match_ok && out_ok then
        Some
          {
            Of_msg.fs_match = e.e_match;
            fs_priority = e.e_priority;
            fs_cookie = e.e_cookie;
            fs_duration_s =
              int_of_float
                (Rf_sim.Vtime.span_to_s (Rf_sim.Vtime.diff now e.e_installed));
            fs_packet_count = e.e_packets;
            fs_byte_count = e.e_bytes;
            fs_actions = e.e_actions;
          }
      else None)
    t.entries
