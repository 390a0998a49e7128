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
  mutable e_packets : int;
  mutable e_bytes : int;
  e_installed : Rf_sim.Vtime.t;
  mutable e_last_used : Rf_sim.Vtime.t;
}

type removal_reason = Expired_idle | Expired_hard

(* The store: entries partitioned by wildcard signature (which fields
   are exact, plus the two prefix lengths). Within a signature every
   entry constrains the same projection of the key, so the bucket is an
   exact-match hash table over that projection. It chains the entries
   themselves: a slot holds every entry whose projection hashes there,
   in table order (priority descending, then [e_seq] ascending). All
   entries of one signature accept a key exactly when their projection
   equals the key's, so the first entry of the key's slot whose match
   accepts the key is the best entry for it; removing that entry
   uncovers the next. An entry costs one list cell beyond its record:
   no projected key and no table node is stored per entry. A lookup
   probes one slot per distinct signature instead of scanning every
   entry. *)
type bucket = {
  b_mask : int;  (* presence bits for the ten scalar fields *)
  b_src : int;  (* nw_src prefix length; -1 = wildcarded *)
  b_dst : int;
  b_hash : Of_match.key -> int;
  mutable b_slots : entry list array;  (* length a power of two *)
  mutable b_count : int;
}

(* A chain of remembered lookups: each key asked for, with its answer. *)
type chain = Nil | Cached of Of_match.key * entry option * chain

(* The lookup cache answers a key from an earlier key with the same
   projection onto the union of the buckets' signatures: every field any
   bucket pins, and the longest source and destination prefixes. Each
   bucket reads only its own signature's fields, so keys that agree on
   the union reach the same slots and pass the same matches, and get
   the same answer. [cache] is [||] until the first lookup and doubles
   once it holds more answers than slots; an add or a remove empties it
   in place, and it is emptied when it holds [cache_cap] answers. *)
type t = {
  mutable buckets : bucket list;
  capacity : int;
  mutable next_seq : int;
  mutable size : int;
  mutable timed : int;  (* entries with an idle or hard timeout *)
  mutable union_hash : Of_match.key -> int;
  mutable union_equal : Of_match.key -> Of_match.key -> bool;
  mutable cache : chain array;  (* length a power of two, or 0 *)
  mutable cached : int;
}

let is_timed e = e.e_idle_timeout > 0 || e.e_hard_timeout > 0

let timed_entries t = t.timed

let size t = t.size

(* Table order: priority descending, then installation order. *)
let before a b =
  a.e_priority > b.e_priority
  || (a.e_priority = b.e_priority && a.e_seq < b.e_seq)

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

module type SIGNATURE = sig
  val mask : int

  val src : int

  val dst : int
end

let prefix_bits len =
  if len <= 0 then 0 else (0xFFFF_FFFF lsl (32 - len)) land 0xFFFF_FFFF

(* A key as one signature's bucket sees it: the fields the signature
   pins, every other field as zero, and both addresses cut to its
   prefix lengths. Hashing through this view lets a lookup probe with
   the frame's own key; building the projected key would allocate a
   record on every probe. The hash is a multiply-add over every field,
   then murmur3's 64-bit finalizer (constants cut to OCaml's 63-bit
   ints). Without the finalizer the slot bits barely depend on an
   address's network octets, and the /24s of one bucket pile into a
   few slots. *)
module View (S : SIGNATURE) = struct
  type t = Of_match.key

  (* All ones for a pinned field, zero for a wildcarded one. *)
  let keep bit = if S.mask land bit <> 0 then -1 else 0

  let in_port = keep bit_in_port

  let dl_src = keep bit_dl_src

  let dl_dst = keep bit_dl_dst

  let dl_vlan = keep bit_dl_vlan

  let dl_pcp = keep bit_dl_pcp

  let dl_type = keep bit_dl_type

  let nw_tos = keep bit_nw_tos

  let nw_proto = keep bit_nw_proto

  let nw_src = prefix_bits S.src

  let nw_dst = prefix_bits S.dst

  let tp_src = keep bit_tp_src

  let tp_dst = keep bit_tp_dst

  let hash (k : t) =
    let p = 0x100000001b3 in
    let h = k.in_port land in_port in
    let h = (h * p) + (Mac.to_int k.dl_src land dl_src) in
    let h = (h * p) + (Mac.to_int k.dl_dst land dl_dst) in
    let h = (h * p) + (k.dl_vlan land dl_vlan) in
    let h = (h * p) + (k.dl_pcp land dl_pcp) in
    let h = (h * p) + (k.dl_type land dl_type) in
    let h = (h * p) + (k.nw_tos land nw_tos) in
    let h = (h * p) + (k.nw_proto land nw_proto) in
    let h = (h * p) + (Ipv4_addr.to_int k.nw_src land nw_src) in
    let h = (h * p) + (Ipv4_addr.to_int k.nw_dst land nw_dst) in
    let h = (h * p) + (k.tp_src land tp_src) in
    let h = (h * p) + (k.tp_dst land tp_dst) in
    let h = (h lxor (h lsr 33)) * 0x3f51afd7ed558ccd in
    let h = (h lxor (h lsr 33)) * 0x34ceb9fe1a85ec53 in
    (h lxor (h lsr 33)) land max_int

  (* Equal projections: every pinned field and prefix bit agrees. *)
  let equal (a : t) (b : t) =
    (a.in_port lxor b.in_port) land in_port = 0
    && (Mac.to_int a.dl_src lxor Mac.to_int b.dl_src) land dl_src = 0
    && (Mac.to_int a.dl_dst lxor Mac.to_int b.dl_dst) land dl_dst = 0
    && (a.dl_vlan lxor b.dl_vlan) land dl_vlan = 0
    && (a.dl_pcp lxor b.dl_pcp) land dl_pcp = 0
    && (a.dl_type lxor b.dl_type) land dl_type = 0
    && (a.nw_tos lxor b.nw_tos) land nw_tos = 0
    && (a.nw_proto lxor b.nw_proto) land nw_proto = 0
    && (Ipv4_addr.to_int a.nw_src lxor Ipv4_addr.to_int b.nw_src) land nw_src
       = 0
    && (Ipv4_addr.to_int a.nw_dst lxor Ipv4_addr.to_int b.nw_dst) land nw_dst
       = 0
    && (a.tp_src lxor b.tp_src) land tp_src = 0
    && (a.tp_dst lxor b.tp_dst) land tp_dst = 0
end

let signature_of (m : Of_match.t) =
  (module struct
    let mask = mask_of_match m

    let src = prefix_len m.m_nw_src

    let dst = prefix_len m.m_nw_dst
  end : SIGNATURE)

(* The hash and equality of keys projected onto the union of the
   buckets' signatures. *)
let union_view buckets =
  let module V = View (struct
    let mask = List.fold_left (fun m b -> m lor b.b_mask) 0 buckets

    let src = List.fold_left (fun l b -> max l b.b_src) (-1) buckets

    let dst = List.fold_left (fun l b -> max l b.b_dst) (-1) buckets
  end) in
  (V.hash, V.equal)

let create ?(capacity = 65536) () =
  let union_hash, union_equal = union_view [] in
  {
    buckets = [];
    capacity;
    next_seq = 0;
    size = 0;
    timed = 0;
    union_hash;
    union_equal;
    cache = [||];
    cached = 0;
  }

(* Called when a bucket appears or goes. *)
let set_union t =
  let union_hash, union_equal = union_view t.buckets in
  t.union_hash <- union_hash;
  t.union_equal <- union_equal

let bucket_hash m key =
  let module V = View ((val signature_of m)) in
  V.hash key

let new_bucket m =
  let module S = (val signature_of m) in
  let module V = View (S) in
  {
    b_mask = S.mask;
    b_src = S.src;
    b_dst = S.dst;
    b_hash = V.hash;
    b_slots = Array.make 16 [];
    b_count = 0;
  }

let find_bucket t (m : Of_match.t) =
  let mask = mask_of_match m in
  let src = prefix_len m.m_nw_src and dst = prefix_len m.m_nw_dst in
  List.find_opt
    (fun b -> b.b_mask = mask && b.b_src = src && b.b_dst = dst)
    t.buckets

let slot_of b key = b.b_hash key land (Array.length b.b_slots - 1)

let entry_slot b e = slot_of b (key_of_match e.e_match)

(* Doubles the slot array once the bucket holds more entries than
   slots. Doubling splits old slot [i] into new slots [i] and
   [i + old length]; the stable partition keeps table order in both. *)
let grow b =
  let old = b.b_slots in
  let n = Array.length old in
  if b.b_count > n then begin
    let slots = Array.make (2 * n) [] in
    b.b_slots <- slots;
    Array.iteri
      (fun i chain ->
        let low, high = List.partition (fun e -> entry_slot b e = i) chain in
        slots.(i) <- low;
        slots.(i + n) <- high)
      old
  end

(* The slot of [m]'s projection: a superset of the entries with [m]'s
   match, in table order. *)
let key_entries t m =
  match find_bucket t m with
  | None -> []
  | Some b -> b.b_slots.(slot_of b (key_of_match m))

let iter t f =
  List.iter (fun b -> Array.iter (List.iter f) b.b_slots) t.buckets

let entries t =
  let all = ref [] in
  iter t (fun e -> all := e :: !all);
  List.sort (fun a b -> if before a b then -1 else 1) !all

let lookup_linear t key =
  let best = ref None in
  iter t (fun e ->
      if Of_match.matches e.e_match key then
        match !best with
        | Some b when before b e -> ()
        | Some _ | None -> best := Some e);
  !best

(* Stands for "no entry" in [first_match], so a probe allocates
   nothing; it is never stored or returned. *)
let absent =
  {
    e_match = Of_match.wildcard_all;
    e_priority = 0;
    e_cookie = 0L;
    e_idle_timeout = 0;
    e_hard_timeout = 0;
    e_notify_removed = false;
    e_seq = 0;
    e_actions = [];
    e_packets = 0;
    e_bytes = 0;
    e_installed = Rf_sim.Vtime.zero;
    e_last_used = Rf_sim.Vtime.zero;
  }

(* The first entry of a slot whose match accepts [key], or [absent]. *)
let rec first_match key = function
  | [] -> absent
  | e :: rest ->
      if Of_match.matches e.e_match key then e else first_match key rest

(* Highest priority across buckets wins; within equal priority the
   earliest-installed entry ([e_seq]) — exactly the entry the linear
   scan finds. *)
let walk t key =
  let rec go best = function
    | [] -> best
    | b :: rest -> (
        let e = first_match key b.b_slots.(slot_of b key) in
        if e == absent then go best rest
        else
          match best with
          | Some be when before be e -> go best rest
          | Some _ | None -> go (Some e) rest)
  in
  go None t.buckets

let cache_cap = 1024

let empty_cache t =
  if t.cached > 0 then begin
    Array.fill t.cache 0 (Array.length t.cache) Nil;
    t.cached <- 0
  end

let cache_slot t key = t.union_hash key land (Array.length t.cache - 1)

let grow_cache t =
  let old = t.cache in
  if t.cached > Array.length old then begin
    t.cache <- Array.make (2 * Array.length old) Nil;
    let rec move = function
      | Nil -> ()
      | Cached (key, hit, rest) ->
          let i = cache_slot t key in
          t.cache.(i) <- Cached (key, hit, t.cache.(i));
          move rest
    in
    Array.iter move old
  end

let remember t key =
  let hit = walk t key in
  if t.cached >= cache_cap then empty_cache t;
  let i = cache_slot t key in
  t.cache.(i) <- Cached (key, hit, t.cache.(i));
  t.cached <- t.cached + 1;
  grow_cache t;
  hit

let rec probe t key = function
  | Nil -> remember t key
  | Cached (k, hit, rest) ->
      if t.union_equal k key then hit else probe t key rest

let lookup t key =
  if Array.length t.cache = 0 then t.cache <- Array.make 8 Nil;
  probe t key t.cache.(cache_slot t key)

let account e ~now ~bytes =
  e.e_packets <- e.e_packets + 1;
  e.e_bytes <- e.e_bytes + bytes;
  e.e_last_used <- now

(* Every change to the store goes through this pair, and each empties
   the lookup cache. *)
let add_entry t e =
  empty_cache t;
  let b =
    match find_bucket t e.e_match with
    | Some b -> b
    | None ->
        let b = new_bucket e.e_match in
        t.buckets <- b :: t.buckets;
        set_union t;
        b
  in
  let rec insert = function
    | x :: rest when before x e -> x :: insert rest
    | l -> e :: l
  in
  let i = entry_slot b e in
  b.b_slots.(i) <- insert b.b_slots.(i);
  b.b_count <- b.b_count + 1;
  grow b;
  t.size <- t.size + 1;
  if is_timed e then t.timed <- t.timed + 1

let remove_entry t e =
  match find_bucket t e.e_match with
  | None -> ()
  | Some b ->
      empty_cache t;
      let i = entry_slot b e in
      b.b_slots.(i) <- List.filter (fun x -> x != e) b.b_slots.(i);
      b.b_count <- b.b_count - 1;
      if b.b_count = 0 then begin
        t.buckets <- List.filter (( != ) b) t.buckets;
        set_union t
      end;
      t.size <- t.size - 1;
      if is_timed e then t.timed <- t.timed - 1

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

(* The entries a command's match selects, in table order: strict
   commands require an equal match and priority, so they read only
   their own key's list; the others subsume by match. *)
let selected t ~strict (fm : Of_msg.flow_mod) =
  if strict then
    List.filter
      (fun e ->
        Of_match.equal fm.fm_match e.e_match && fm.fm_priority = e.e_priority)
      (key_entries t fm.fm_match)
  else
    List.filter (fun e -> Of_match.subsumes fm.fm_match e.e_match) (entries t)

let rec apply_flow_mod t ~now (fm : Of_msg.flow_mod) =
  match fm.fm_command with
  | Of_msg.Add ->
      let replaced = selected t ~strict:true fm in
      if t.size - List.length replaced >= t.capacity then
        Error "all tables full"
      else begin
        List.iter (remove_entry t) replaced;
        t.next_seq <- t.next_seq + 1;
        let e =
          {
            e_match = fm.fm_match;
            e_priority = fm.fm_priority;
            e_cookie = fm.fm_cookie;
            e_idle_timeout = fm.fm_idle_timeout;
            e_hard_timeout = fm.fm_hard_timeout;
            e_notify_removed = fm.fm_notify_removed;
            e_seq = t.next_seq;
            e_actions = fm.fm_actions;
            e_packets = 0;
            e_bytes = 0;
            e_installed = now;
            e_last_used = now;
          }
        in
        add_entry t e;
        Ok (replaced, [ e ])
      end
  | Of_msg.Modify | Of_msg.Modify_strict -> (
      match selected t ~strict:(fm.fm_command = Of_msg.Modify_strict) fm with
      | [] ->
          (* OF 1.0: a modify that matches nothing behaves as an add. *)
          apply_flow_mod t ~now { fm with fm_command = Of_msg.Add }
      | hits ->
          List.iter (fun e -> e.e_actions <- fm.fm_actions) hits;
          Ok (hits, hits))
  | Of_msg.Delete | Of_msg.Delete_strict ->
      let removed =
        List.filter
          (fun e ->
            match fm.fm_out_port with
            | None -> true
            | Some port -> entry_outputs_to port e)
          (selected t ~strict:(fm.fm_command = Of_msg.Delete_strict) fm)
      in
      List.iter (remove_entry t) removed;
      Ok (removed, [])

let expired ~now e =
  let age_since from limit =
    limit > 0
    && Rf_sim.Vtime.(add from (Rf_sim.Vtime.span_s (float_of_int limit)) <= now)
  in
  if age_since e.e_installed e.e_hard_timeout then Some (e, Expired_hard)
  else if age_since e.e_last_used e.e_idle_timeout then Some (e, Expired_idle)
  else None

(* RouteFlow installs every flow without timeouts, so the once-a-second
   sweep is usually a counter test. *)
let expire t ~now =
  if t.timed = 0 then []
  else begin
    let gone = List.filter_map (expired ~now) (entries t) in
    List.iter (fun (e, _) -> remove_entry t e) gone;
    (* Canonical eviction order, independent of insertion history: higher
       priority first, then lowest cookie, with table order as the final
       (stable) tie-break. Keeps the Flow_removed sequence deterministic
       when several entries expire at the same vtime. *)
    List.stable_sort
      (fun ((a : entry), _) ((b : entry), _) ->
        match compare b.e_priority a.e_priority with
        | 0 -> Int64.compare a.e_cookie b.e_cookie
        | c -> c)
      gone
  end

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
            fs_packet_count = Int64.of_int e.e_packets;
            fs_byte_count = Int64.of_int e.e_bytes;
            fs_actions = e.e_actions;
          }
      else None)
    (entries t)
