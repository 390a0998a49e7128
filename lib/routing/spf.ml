open Rf_packet
module Tbl = Ipv4_addr.Tbl

(* A router id as the int it is, for comparisons and packing. *)
let key (rid : Ipv4_addr.t) = (rid :> int)

type node = { n_out : Ipv4_addr.t array; n_metric : int array }

type graph = node Tbl.t

let graph_create () : graph = Tbl.create 64

let graph_set_links (g : graph) rid ~out ~metric =
  if Array.length out <> Array.length metric then
    invalid_arg "Spf.graph_set_links: out and metric lengths differ";
  Tbl.replace g rid { n_out = out; n_metric = metric }

let graph_remove (g : graph) rid = Tbl.remove g rid

let graph_reset (g : graph) = Tbl.reset g

(* A router without links and a router absent from the graph look the
   same to every walk below: neither has an edge. *)
let no_node = { n_out = [||]; n_metric = [||] }

let find_node (g : graph) rid =
  match Tbl.find g rid with n -> n | exception Not_found -> no_node

(* The index of [rid] in [out] from [i] on, or [max_int]. *)
let rec index_from out rid i =
  if i >= Array.length out then max_int
  else if out.(i) == rid then i
  else index_from out rid (i + 1)

let links_back node rid = index_from node.n_out rid 0 < max_int

(* Cheapest of [node]'s links to [rid] from index [i] on, or [best]. *)
let rec cheapest_from node rid i best =
  if i >= Array.length node.n_out then best
  else if node.n_out.(i) == rid then
    let m = node.n_metric.(i) in
    cheapest_from node rid (i + 1) (if best < 0 || m < best then m else best)
  else cheapest_from node rid (i + 1) best

(* Cheapest of [node]'s links to [rid], or -1. Duplicate links can carry
   different metrics; only the cheapest can be tight. *)
let metric_to node rid = cheapest_from node rid 0 (-1)

(* One router's place in the tree. Every field is an immediate or a
   pointer to another record, so a run updates them in place; a router
   keeps its record once seen, unreachable while [dist] is -1. *)
type st = {
  rid : Ipv4_addr.t;
  (* Its graph node as of the last run, [no_node] when it has none, and
     the records of its out-neighbours, index for index: the walks
     below follow these instead of looking routers up. Only a dirty
     router's node changes between runs, so an update refreshes those
     alone. *)
  mutable node : node;
  mutable nbrs : st array;
  mutable dist : int;  (* -1: unreachable *)
  mutable parent : st option;
  (* Inverse of [parent], kept across runs so an update finds the
     subtree hanging off a changed router without rebuilding it. *)
  mutable children : st list;
  mutable fh : int;  (* first-hop router id; -1 = no derivable hop; -2 = none *)
  (* Root-link index of the first hop (see [select_parent]), -2 when
     none; persisted so incremental runs can reuse the inherited
     preference of untouched nodes. *)
  mutable pref : int;
  mutable settled : int;  (* the [relax_run] that settled it *)
  mutable queued : int;  (* the [repair] that queued it *)
  (* During an update: the distance before it (-1 = none) once the
     update changed it, -2 while it has not. *)
  mutable old_dist : int;
}

let new_st rid =
  {
    rid;
    node = no_node;
    nbrs = [||];
    dist = -1;
    parent = None;
    children = [];
    fh = -2;
    pref = -2;
    settled = 0;
    queued = 0;
    old_dist = -2;
  }

type t = {
  root : Ipv4_addr.t;
  nodes : st Tbl.t;
  (* Stands for every router without a record; never written. *)
  absent : st;
  mutable heap_d : int array;
  mutable heap_s : st array;
  mutable heap_len : int;
  (* The routers whose distance this update changed, first [old_len]. *)
  mutable old : st array;
  mutable old_len : int;
  mutable gen : int;  (* numbers relax runs and repairs *)
  mutable root_out : Ipv4_addr.t array;  (* the root's out-links this run *)
  mutable sel_pref : int;  (* [select_parent]'s second result *)
  mutable computed : bool;
}

type outcome = Full | Repaired of Ipv4_addr.t list

let create ~root =
  let absent = new_st Ipv4_addr.any in
  {
    root;
    nodes = Tbl.create 64;
    absent;
    heap_d = Array.make 64 0;
    heap_s = Array.make 64 absent;
    heap_len = 0;
    old = Array.make 16 absent;
    old_len = 0;
    gen = 0;
    root_out = [||];
    sel_pref = max_int;
    computed = false;
  }

let find_st t rid =
  match Tbl.find t.nodes rid with s -> s | exception Not_found -> t.absent

let st t rid =
  match Tbl.find t.nodes rid with
  | s -> s
  | exception Not_found ->
      let s = new_st rid in
      Tbl.add t.nodes rid s;
      s

(* Points [s] at [node] and its neighbours' records, making any that
   are missing. *)
let set_node t s node =
  s.node <- node;
  s.nbrs <- Array.map (st t) node.n_out

let grow a len fill =
  let b = Array.make (2 * len) fill in
  Array.blit a 0 b 0 len;
  b

(* Binary min-heap over [heap_d] with the router in [heap_s], as two
   parallel arrays. Relaxation keys it by distance, with lazy deletion
   (stale entries are skipped when popped); the repair worklist keys it
   by packed (dist, key). *)

let heap_push t d s =
  if t.heap_len = Array.length t.heap_d then begin
    t.heap_d <- grow t.heap_d t.heap_len 0;
    t.heap_s <- grow t.heap_s t.heap_len t.absent
  end;
  let hd = t.heap_d and hs = t.heap_s in
  let i = ref t.heap_len in
  t.heap_len <- t.heap_len + 1;
  hd.(!i) <- d;
  hs.(!i) <- s;
  while !i > 0 && hd.((!i - 1) / 2) > hd.(!i) do
    let p = (!i - 1) / 2 in
    let td = hd.(p) and ts = hs.(p) in
    hd.(p) <- hd.(!i);
    hs.(p) <- hs.(!i);
    hd.(!i) <- td;
    hs.(!i) <- ts;
    i := p
  done

(* Removes the minimum; callers read [heap_d.(0)] / [heap_s.(0)] first. *)
let heap_pop t =
  let hd = t.heap_d and hs = t.heap_s in
  t.heap_len <- t.heap_len - 1;
  hd.(0) <- hd.(t.heap_len);
  hs.(0) <- hs.(t.heap_len);
  hs.(t.heap_len) <- t.absent;
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let smallest = ref !i in
    if l < t.heap_len && hd.(l) < hd.(!smallest) then smallest := l;
    if r < t.heap_len && hd.(r) < hd.(!smallest) then smallest := r;
    if !smallest <> !i then begin
      let td = hd.(!smallest) and ts = hs.(!smallest) in
      hd.(!smallest) <- hd.(!i);
      hs.(!smallest) <- hs.(!i);
      hd.(!i) <- td;
      hs.(!i) <- ts;
      i := !smallest
    end
    else continue := false
  done

(* Notes [s]'s distance before this update, the first time it changes. *)
let note_old t s =
  if s.old_dist = -2 then begin
    s.old_dist <- s.dist;
    if t.old_len = Array.length t.old then
      t.old <- grow t.old t.old_len t.absent;
    t.old.(t.old_len) <- s;
    t.old_len <- t.old_len + 1
  end

(* With [~track], every router whose distance this run sets or improves
   is noted in [old] (see [note_old]): the change set driving the
   incremental repair. *)
let relax_run t ~track =
  t.gen <- t.gen + 1;
  let gen = t.gen in
  while t.heap_len > 0 do
    let d = t.heap_d.(0) and u = t.heap_s.(0) in
    heap_pop t;
    if u.settled <> gen && u.dist = d then begin
      u.settled <- gen;
      for idx = 0 to Array.length u.nbrs - 1 do
        let sv = u.nbrs.(idx) in
        if links_back sv.node u.rid then begin
          let nd = d + u.node.n_metric.(idx) in
          if sv.dist < 0 || nd < sv.dist then begin
            if track then note_old t sv;
            sv.dist <- nd;
            heap_push t nd sv
          end
        end
      done
    end
  done

let root_idx t rid = index_from t.root_out rid 0

(* Distances stay well under 2^30 (16-bit link metrics times the node
   count), so (dist, key) packs exactly into one int whose order is the
   lexicographic (dist, key) order. *)
let pack d rid = (d lsl 32) lor key rid

(* Canonical parent of [v]: the tight in-neighbor [u] (dist u + metric
   = dist v, (dist u, u) lexicographically before (dist v, v)) whose
   first hop appears earliest among the root's own out-links, breaking
   remaining ties on the smaller key. In-neighbors of [v] all appear
   among [v]'s own out-links: a validated edge u->v requires v to link
   back to u. Returns the parent, or [t.absent] when none, and leaves
   its preference in [t.sel_pref]. *)
let select_parent t v =
  let dv = v.dist and vk = key v.rid in
  let best = ref t.absent and best_pref = ref max_int in
  for i = 0 to Array.length v.nbrs - 1 do
    let u = v.nbrs.(i) in
    let uk = key u.rid in
    if uk <> vk then begin
      let du = u.dist in
      if du >= 0 && (du < dv || (du = dv && uk < vk)) then begin
        let c = metric_to u.node v.rid in
        if c >= 0 && du + c = dv then begin
          let p =
            if u.rid == t.root then root_idx t v.rid
            else if u.pref = -2 then max_int
            else u.pref
          in
          if
            p < !best_pref
            || (p = !best_pref && (!best == t.absent || uk < key !best.rid))
          then begin
            best := u;
            best_pref := p
          end
        end
      end
    end
  done;
  t.sel_pref <- !best_pref;
  !best

let unlink v =
  match v.parent with
  | None -> ()
  | Some p ->
      v.parent <- None;
      p.children <- List.filter (fun c -> c != v) p.children

let clear_node v =
  unlink v;
  v.fh <- -2;
  v.pref <- -2

let link v p =
  v.parent <- Some p;
  p.children <- v :: p.children

let set_hop t v best best_pref =
  v.pref <- best_pref;
  if best.rid == t.root then v.fh <- key v.rid
  else v.fh <- (if best.fh = -2 then -1 else best.fh)

let store_parent t v best best_pref =
  (match v.parent with
  | Some p when p == best -> ()
  | Some _ | None ->
      unlink v;
      link v best);
  set_hop t v best best_pref

let set_root_out t = t.root_out <- (st t t.root).node.n_out

(* Parents and first hops as a pure function of the distance map, so
   full and incremental runs derive identical trees whatever order they
   relaxed edges in. Nodes are processed in (dist, key) order — every
   candidate parent precedes the node it serves, so inherited
   preferences are final when read. Preferring the earliest root link
   reproduces the equal-cost choices of the classic
   relax-order-dependent Dijkstra on symmetric topologies (the first
   link originated is the first relaxed), keeping route fingerprints
   stable across the rewrite. *)
let canonical_pass t =
  let order = Array.make (Tbl.length t.nodes) 0 in
  let n = ref 0 in
  Tbl.iter
    (fun rid s ->
      s.parent <- None;
      s.children <- [];
      s.fh <- -2;
      s.pref <- -2;
      if s.dist >= 0 && rid != t.root then begin
        order.(!n) <- pack s.dist rid;
        incr n
      end)
    t.nodes;
  let order = Array.sub order 0 !n in
  Array.sort Int.compare order;
  set_root_out t;
  Array.iter
    (fun packed ->
      let v = find_st t (Ipv4_addr.of_int (packed land 0xFFFFFFFF)) in
      if v.node != no_node then begin
        let best = select_parent t v in
        if best != t.absent then begin
          link v best;
          set_hop t v best t.sel_pref
        end
      end)
    order

let full t g =
  Tbl.iter
    (fun rid s ->
      s.dist <- -1;
      if not (Tbl.mem g rid) then begin
        s.node <- no_node;
        s.nbrs <- [||]
      end)
    t.nodes;
  Tbl.iter
    (fun rid node ->
      let s = st t rid in
      if s.node != node then set_node t s node)
    g;
  t.heap_len <- 0;
  let root = st t t.root in
  root.dist <- 0;
  heap_push t 0 root;
  relax_run t ~track:false;
  canonical_pass t;
  t.computed <- true

(* The canonical parent of [v] reads [v]'s distance and links, and the
   distance, links and inherited preference of each neighbour ordered
   before it. So after a change only these nodes need a new parent: the
   routers in [old] (distance or links changed), their neighbours, and —
   as the repair goes — the later neighbours of any node whose
   preference or first hop moved. Dropping a candidate that was not
   chosen never changes the choice; a dropped chosen parent means [v]
   was its child and is in [old]. The worklist runs in (dist, key)
   order, like [canonical_pass], so every preference is final when
   read. Returns the routers whose (dist, first hop) changed. *)
let enqueue t v =
  if v.rid != t.root && v.dist >= 0 && v.queued <> t.gen then begin
    v.queued <- t.gen;
    heap_push t (pack v.dist v.rid) v
  end

let repair t =
  set_root_out t;
  t.gen <- t.gen + 1;
  let changed = ref [] in
  for i = 0 to t.old_len - 1 do
    let s = t.old.(i) in
    if s.dist < 0 then begin
      clear_node s;
      if s.old_dist >= 0 then changed := s.rid :: !changed
    end
    else enqueue t s;
    for j = 0 to Array.length s.nbrs - 1 do
      enqueue t s.nbrs.(j)
    done
  done;
  while t.heap_len > 0 do
    let v = t.heap_s.(0) in
    heap_pop t;
    if v.node != no_node then begin
      let dv = v.dist and vk = key v.rid in
      let old_fh = v.fh and old_pref = v.pref in
      let best = select_parent t v in
      if best != t.absent then store_parent t v best t.sel_pref
      else clear_node v;
      if v.fh <> old_fh || v.pref <> old_pref then
        for j = 0 to Array.length v.nbrs - 1 do
          let u = v.nbrs.(j) in
          if u.dist > dv || (u.dist = dv && key u.rid > vk) then enqueue t u
        done;
      if v.fh <> old_fh || (v.old_dist <> -2 && v.old_dist <> dv) then
        changed := v.rid :: !changed
    end
  done;
  !changed

(* Whether a link of [s]'s last-seen node is gone from [node] or dearer
   there. A link's cost is its cheapest duplicate's, so every old entry
   must find one at most as dear. *)
let rec worse_from old node i =
  i < Array.length old.n_out
  && (let m = metric_to node old.n_out.(i) in
      m < 0 || m > old.n_metric.(i) || worse_from old node (i + 1))

let worsened s node = worse_from s.node node 0

let rec invalidate t s =
  if s.old_dist = -2 then begin
    note_old t s;
    s.dist <- -1;
    invalidate_all t s.children
  end

and invalidate_all t = function
  | [] -> ()
  | s :: rest ->
      invalidate t s;
      invalidate_all t rest

(* Points each dirty router at its new node, first invalidating those
   whose links got worse. *)
let rec refresh_dirty t g = function
  | [] -> ()
  | rid :: rest ->
      let s = st t rid and node = find_node g rid in
      if worsened s node then invalidate t s;
      set_node t s node;
      refresh_dirty t g rest

let rec note_dirty t = function
  | [] -> ()
  | rid :: rest ->
      note_old t (st t rid);
      note_dirty t rest

let rec root_worsened t g = function
  | [] -> false
  | rid :: rest ->
      (rid == t.root && worsened (st t rid) (find_node g rid))
      || root_worsened t g rest

let update t g ~dirty =
  if (not t.computed) || root_worsened t g dirty then begin
    full t g;
    Full
  end
  else if dirty = [] then Repaired []
  else begin
    (* Invalidate the dirty routers that removed or dearer a link, plus
       everything the old tree reached through them; what is left keeps
       correct distances or upper bounds of them (their canonical paths
       avoid every such router, edges between two unchanged routers
       cannot have changed, and the other dirty routers only added or
       cheapened links). Every dirty router then goes to the repair:
       its links moved. *)
    t.old_len <- 0;
    refresh_dirty t g dirty;
    note_dirty t dirty;
    t.heap_len <- 0;
    (* Seed the frontier with the best edge from each still-valid node
       into the invalidated hole, and each dirty router still reached
       with its distance, so its new links relax; then Dijkstra repairs
       the hole. Improvements to valid nodes through the changed region
       propagate by ordinary relaxation once the hole nodes settle. *)
    for i = 0 to t.old_len - 1 do
      let w = t.old.(i) in
      if w.dist >= 0 then heap_push t w.dist w;
      for j = 0 to Array.length w.nbrs - 1 do
        let u = w.nbrs.(j) in
        let du = u.dist in
        if du >= 0 then begin
          let c = metric_to u.node w.rid in
          if c >= 0 then begin
            let nd = du + c in
            if w.dist < 0 || nd < w.dist then begin
              w.dist <- nd;
              heap_push t nd w
            end
          end
        end
      done
    done;
    relax_run t ~track:true;
    let changed = repair t in
    for i = 0 to t.old_len - 1 do
      t.old.(i).old_dist <- -2;
      t.old.(i) <- t.absent
    done;
    t.old_len <- 0;
    Repaired changed
  end

let dist t rid = (find_st t rid).dist

let first_hop t rid =
  let s = find_st t rid in
  if s.fh >= 0 then Some (Ipv4_addr.of_int s.fh) else None

let reachable t =
  Tbl.fold
    (fun rid s acc ->
      if rid != t.root && s.dist >= 0 && s.fh >= 0 then
        (rid, s.dist, Ipv4_addr.of_int s.fh) :: acc
      else acc)
    t.nodes []
  |> List.sort (fun (a, _, _) (b, _, _) -> Ipv4_addr.compare a b)
