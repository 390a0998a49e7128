open Rf_packet

(* Router ids as plain ints make cheap hash keys and keep the heap
   allocation-free. *)
let key = Ipv4_addr.to_int

type node = { n_rid : Ipv4_addr.t; n_out : int array; n_metric : int array }

type graph = (int, node) Hashtbl.t

let graph_create () : graph = Hashtbl.create 64

let graph_set_links (g : graph) rid links =
  let n = List.length links in
  let out = Array.make n 0 and metric = Array.make n 0 in
  List.iteri
    (fun i (nbr, m) ->
      out.(i) <- key nbr;
      metric.(i) <- m)
    links;
  Hashtbl.replace g (key rid) { n_rid = rid; n_out = out; n_metric = metric }

let graph_remove (g : graph) rid = Hashtbl.remove g (key rid)

let graph_reset (g : graph) = Hashtbl.reset g

let links_back node k =
  let n = Array.length node.n_out in
  let rec go i = i < n && (Array.unsafe_get node.n_out i = k || go (i + 1)) in
  go 0

(* Cheapest of [node]'s links to [k], or -1. Duplicate links can carry
   different metrics; only the cheapest can be tight. *)
let metric_to node k =
  let best = ref (-1) in
  Array.iteri
    (fun i nk ->
      if nk = k then begin
        let m = node.n_metric.(i) in
        if !best < 0 || m < !best then best := m
      end)
    node.n_out;
  !best

type t = {
  root : Ipv4_addr.t;
  root_key : int;
  dist : (int, int) Hashtbl.t;
  parent : (int, int) Hashtbl.t;
  (* Inverse of [parent], kept across runs so an update finds the
     subtree hanging off a changed router without rebuilding it. *)
  children : (int, int list) Hashtbl.t;
  fh : (int, int) Hashtbl.t;  (* first-hop key; -1 = no derivable hop *)
  (* pref = root-link index of the node's first hop (see
     [select_parent]); persisted so incremental runs can reuse the
     inherited preference of untouched nodes. *)
  pref : (int, int) Hashtbl.t;
  rids : (int, Ipv4_addr.t) Hashtbl.t;
  visited : (int, unit) Hashtbl.t;  (* relax_run scratch *)
  mutable heap_d : int array;
  mutable heap_k : int array;
  mutable heap_len : int;
  mutable computed : bool;
}

type outcome = Full | Repaired of Ipv4_addr.t list

let create ~root =
  {
    root;
    root_key = key root;
    dist = Hashtbl.create 64;
    parent = Hashtbl.create 64;
    children = Hashtbl.create 64;
    fh = Hashtbl.create 64;
    pref = Hashtbl.create 64;
    rids = Hashtbl.create 64;
    visited = Hashtbl.create 64;
    heap_d = Array.make 64 0;
    heap_k = Array.make 64 0;
    heap_len = 0;
    computed = false;
  }

(* Binary min-heap over [heap_d] with a payload in [heap_k], as two
   parallel int arrays. Relaxation keys it by distance, with lazy
   deletion (stale entries are skipped when popped); the repair
   worklist keys it by packed (dist, key). *)

let heap_push t d k =
  if t.heap_len = Array.length t.heap_d then begin
    let cap = 2 * t.heap_len in
    let nd = Array.make cap 0 and nk = Array.make cap 0 in
    Array.blit t.heap_d 0 nd 0 t.heap_len;
    Array.blit t.heap_k 0 nk 0 t.heap_len;
    t.heap_d <- nd;
    t.heap_k <- nk
  end;
  let hd = t.heap_d and hk = t.heap_k in
  let i = ref t.heap_len in
  t.heap_len <- t.heap_len + 1;
  hd.(!i) <- d;
  hk.(!i) <- k;
  while !i > 0 && hd.((!i - 1) / 2) > hd.(!i) do
    let p = (!i - 1) / 2 in
    let td = hd.(p) and tk = hk.(p) in
    hd.(p) <- hd.(!i);
    hk.(p) <- hk.(!i);
    hd.(!i) <- td;
    hk.(!i) <- tk;
    i := p
  done

(* Removes the minimum; callers read [heap_d.(0)] / [heap_k.(0)] first. *)
let heap_pop t =
  let hd = t.heap_d and hk = t.heap_k in
  t.heap_len <- t.heap_len - 1;
  hd.(0) <- hd.(t.heap_len);
  hk.(0) <- hk.(t.heap_len);
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let smallest = ref !i in
    if l < t.heap_len && hd.(l) < hd.(!smallest) then smallest := l;
    if r < t.heap_len && hd.(r) < hd.(!smallest) then smallest := r;
    if !smallest <> !i then begin
      let td = hd.(!smallest) and tk = hk.(!smallest) in
      hd.(!smallest) <- hd.(!i);
      hk.(!smallest) <- hk.(!i);
      hd.(!i) <- td;
      hk.(!i) <- tk;
      i := !smallest
    end
    else continue := false
  done

(* [old] (when given) receives the previous distance (-1 = none) of
   every key whose distance this run sets or improves for the first
   time: the change set driving the incremental repair. *)
let relax_run t g ~old =
  let visited = t.visited in
  Hashtbl.reset visited;
  while t.heap_len > 0 do
    let d = t.heap_d.(0) and u = t.heap_k.(0) in
    heap_pop t;
    let live =
      (not (Hashtbl.mem visited u))
      &&
      match Hashtbl.find_opt t.dist u with Some cur -> cur = d | None -> false
    in
    if live then begin
      Hashtbl.replace visited u ();
      match Hashtbl.find_opt g u with
      | None -> ()
      | Some unode ->
          Array.iteri
            (fun idx v ->
              match Hashtbl.find_opt g v with
              | Some vnode when links_back vnode u ->
                  let nd = d + unode.n_metric.(idx) in
                  let prev = Hashtbl.find_opt t.dist v in
                  let better =
                    match prev with Some p -> nd < p | None -> true
                  in
                  if better then begin
                    (match old with
                    | Some tbl when not (Hashtbl.mem tbl v) ->
                        Hashtbl.add tbl v
                          (match prev with Some p -> p | None -> -1)
                    | Some _ | None -> ());
                    Hashtbl.replace t.dist v nd;
                    Hashtbl.replace t.rids v vnode.n_rid;
                    heap_push t nd v
                  end
              | Some _ | None -> ())
            unode.n_out
    end
  done

let root_idx_fn t g =
  let root_out =
    match Hashtbl.find_opt g t.root_key with
    | Some n -> n.n_out
    | None -> [||]
  in
  fun k ->
    let n = Array.length root_out in
    let rec go i =
      if i >= n then max_int else if root_out.(i) = k then i else go (i + 1)
    in
    go 0

(* Distances stay well under 2^30 (16-bit link metrics times the node
   count), so (dist, key) packs exactly into one int whose order is the
   lexicographic (dist, key) order. *)
let pack d k = (d lsl 32) lor k

(* Reachable non-root nodes in (dist, key) order, as packed ints. *)
let ordered_nodes t =
  let n = Hashtbl.length t.dist in
  let a = Array.make (max n 1) 0 in
  let i = ref 0 in
  Hashtbl.iter
    (fun v d ->
      if v <> t.root_key then begin
        a.(!i) <- pack d v;
        incr i
      end)
    t.dist;
  let a = if !i = n then a else Array.sub a 0 !i in
  Array.sort (fun (x : int) y -> compare x y) a;
  a

(* Canonical parent of [v]: the tight in-neighbor [u] (dist u + metric
   = dist v, (dist u, u) lexicographically before (dist v, v)) whose
   first hop appears earliest among the root's own out-links, breaking
   remaining ties on the smaller key. In-neighbors of [v] all appear
   among [v]'s own out-links: a validated edge u->v requires v to link
   back to u. Returns (parent, pref); (-1, max_int) when none. *)
let select_parent t g root_idx vnode v dv =
  let best = ref (-1) and best_pref = ref max_int in
  Array.iter
    (fun u ->
      if u <> v then begin
        match Hashtbl.find_opt t.dist u with
        | Some du when du < dv || (du = dv && u < v) -> (
            match Hashtbl.find_opt g u with
            | Some unode ->
                let c = metric_to unode v in
                if c >= 0 && du + c = dv then begin
                  let p =
                    if u = t.root_key then root_idx v
                    else
                      match Hashtbl.find_opt t.pref u with
                      | Some p -> p
                      | None -> max_int
                  in
                  if
                    p < !best_pref || (p = !best_pref && (!best < 0 || u < !best))
                  then begin
                    best := u;
                    best_pref := p
                  end
                end
            | None -> ())
        | Some _ | None -> ()
      end)
    vnode.n_out;
  (!best, !best_pref)

let unlink t v =
  match Hashtbl.find_opt t.parent v with
  | None -> ()
  | Some p -> (
      Hashtbl.remove t.parent v;
      match Hashtbl.find_opt t.children p with
      | Some kids -> (
          match List.filter (fun c -> c <> v) kids with
          | [] -> Hashtbl.remove t.children p
          | rest -> Hashtbl.replace t.children p rest)
      | None -> ())

let clear_node t v =
  unlink t v;
  Hashtbl.remove t.fh v;
  Hashtbl.remove t.pref v

let link t v p =
  Hashtbl.replace t.parent v p;
  Hashtbl.replace t.children p
    (v :: Option.value (Hashtbl.find_opt t.children p) ~default:[])

let set_hop t v best best_pref =
  Hashtbl.replace t.pref v best_pref;
  if best = t.root_key then Hashtbl.replace t.fh v v
  else
    let h = match Hashtbl.find_opt t.fh best with Some h -> h | None -> -1 in
    Hashtbl.replace t.fh v h

let store_parent t v best best_pref =
  (match Hashtbl.find_opt t.parent v with
  | Some p when p = best -> ()
  | Some _ | None ->
      unlink t v;
      link t v best);
  set_hop t v best best_pref

(* Parents and first hops as a pure function of the distance map, so
   full and incremental runs derive identical trees whatever order they
   relaxed edges in. Nodes are processed in (dist, key) order — every
   candidate parent precedes the node it serves, so inherited
   preferences are final when read. Preferring the earliest root link
   reproduces the equal-cost choices of the classic
   relax-order-dependent Dijkstra on symmetric topologies (the first
   link originated is the first relaxed), keeping route fingerprints
   stable across the rewrite. *)
let canonical_pass t g =
  Hashtbl.reset t.parent;
  Hashtbl.reset t.children;
  Hashtbl.reset t.fh;
  Hashtbl.reset t.pref;
  let root_idx = root_idx_fn t g in
  Array.iter
    (fun packed ->
      let dv = packed lsr 32 and v = packed land 0xFFFFFFFF in
      match Hashtbl.find_opt g v with
      | None -> ()
      | Some vnode ->
          let best, best_pref = select_parent t g root_idx vnode v dv in
          if best >= 0 then begin
            link t v best;
            set_hop t v best best_pref
          end)
    (ordered_nodes t)

let full t g =
  Hashtbl.reset t.dist;
  Hashtbl.reset t.rids;
  t.heap_len <- 0;
  Hashtbl.replace t.dist t.root_key 0;
  Hashtbl.replace t.rids t.root_key t.root;
  heap_push t 0 t.root_key;
  relax_run t g ~old:None;
  canonical_pass t g;
  t.computed <- true

let find_or tbl k default =
  match Hashtbl.find_opt tbl k with Some v -> v | None -> default

(* The canonical parent of [v] reads [v]'s distance and links, and the
   distance, links and inherited preference of each neighbour ordered
   before it. So after a change only these nodes need a new parent: the
   keys in [old] (distance or links changed), their neighbours, and —
   as the repair goes — the later neighbours of any node whose
   preference or first hop moved. Dropping a candidate that was not
   chosen never changes the choice; a dropped chosen parent means [v]
   was its child and is in [old]. The worklist runs in (dist, key)
   order, like [canonical_pass], so every preference is final when
   read. Returns the keys whose (dist, first hop) changed. *)
let repair t g old =
  let root_idx = root_idx_fn t g in
  let queued : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  let enqueue v =
    if v <> t.root_key && not (Hashtbl.mem queued v) then
      match Hashtbl.find_opt t.dist v with
      | Some d ->
          Hashtbl.add queued v ();
          heap_push t (pack d v) v
      | None -> ()
  in
  let changed = ref [] in
  Hashtbl.iter
    (fun k old_d ->
      if not (Hashtbl.mem t.dist k) then begin
        clear_node t k;
        if old_d >= 0 then changed := k :: !changed
      end
      else enqueue k;
      match Hashtbl.find_opt g k with
      | Some node -> Array.iter enqueue node.n_out
      | None -> ())
    old;
  while t.heap_len > 0 do
    let packed = t.heap_d.(0) in
    heap_pop t;
    let dv = packed lsr 32 and v = packed land 0xFFFFFFFF in
    match Hashtbl.find_opt g v with
    | None -> ()
    | Some vnode ->
        let old_fh = find_or t.fh v (-2) and old_pref = find_or t.pref v (-2) in
        let best, best_pref = select_parent t g root_idx vnode v dv in
        if best >= 0 then store_parent t v best best_pref else clear_node t v;
        let new_fh = find_or t.fh v (-2) in
        if new_fh <> old_fh || find_or t.pref v (-2) <> old_pref then
          Array.iter
            (fun u ->
              match Hashtbl.find_opt t.dist u with
              | Some du when du > dv || (du = dv && u > v) -> enqueue u
              | Some _ | None -> ())
            vnode.n_out;
        if new_fh <> old_fh || find_or old v dv <> dv then
          changed := v :: !changed
  done;
  !changed

let update t g ~dirty =
  if (not t.computed) || List.exists (fun rid -> key rid = t.root_key) dirty
  then begin
    full t g;
    Full
  end
  else if dirty = [] then Repaired []
  else begin
    (* Invalidate the dirty routers plus everything the old tree
       reached through them; what is left keeps correct distances
       (their canonical paths avoid every changed router, and edges
       between two unchanged routers cannot have changed). *)
    let old : (int, int) Hashtbl.t = Hashtbl.create 16 in
    let rec invalidate k =
      if not (Hashtbl.mem old k) then begin
        Hashtbl.add old k (find_or t.dist k (-1));
        Hashtbl.remove t.dist k;
        match Hashtbl.find_opt t.children k with
        | Some kids -> List.iter invalidate kids
        | None -> ()
      end
    in
    List.iter (fun rid -> invalidate (key rid)) dirty;
    t.heap_len <- 0;
    (* Seed the frontier with the best edge from each still-valid node
       into the invalidated hole, then let Dijkstra repair the hole.
       Improvements to valid nodes through the changed region propagate
       by ordinary relaxation once the hole nodes settle. *)
    Hashtbl.iter
      (fun w _ ->
        match Hashtbl.find_opt g w with
        | None -> ()
        | Some wnode ->
            Array.iter
              (fun u ->
                match Hashtbl.find_opt t.dist u with
                | None -> ()
                | Some du -> (
                    match Hashtbl.find_opt g u with
                    | Some unode ->
                        let c = metric_to unode w in
                        if c >= 0 then begin
                          let nd = du + c in
                          let better =
                            match Hashtbl.find_opt t.dist w with
                            | Some prev -> nd < prev
                            | None -> true
                          in
                          if better then begin
                            Hashtbl.replace t.dist w nd;
                            Hashtbl.replace t.rids w wnode.n_rid;
                            heap_push t nd w
                          end
                        end
                    | None -> ()))
              wnode.n_out)
      old;
    relax_run t g ~old:(Some old);
    Repaired (List.map (fun k -> Hashtbl.find t.rids k) (repair t g old))
  end

let dist t rid = Hashtbl.find_opt t.dist (key rid)

let first_hop t rid =
  match Hashtbl.find_opt t.fh (key rid) with
  | Some h when h >= 0 -> Hashtbl.find_opt t.rids h
  | Some _ | None -> None

let iter t f =
  Hashtbl.iter
    (fun v d ->
      if v <> t.root_key then
        match Hashtbl.find_opt t.fh v with
        | Some h when h >= 0 ->
            f (Hashtbl.find t.rids v) d (Hashtbl.find t.rids h)
        | Some _ | None -> ())
    t.dist

let reachable t =
  let acc = ref [] in
  iter t (fun rid d h -> acc := (rid, d, h) :: !acc);
  List.sort (fun (a, _, _) (b, _, _) -> Ipv4_addr.compare a b) !acc
