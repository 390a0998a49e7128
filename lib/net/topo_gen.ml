let ring n =
  if n < 3 then invalid_arg "Topo_gen.ring: need at least 3 switches";
  let t = Topology.create () in
  for i = 1 to n do
    Topology.add_switch t (Int64.of_int i)
  done;
  for i = 1 to n do
    let next = if i = n then 1 else i + 1 in
    ignore
      (Topology.connect t
         (Topology.Switch (Int64.of_int i))
         (Topology.Switch (Int64.of_int next)))
  done;
  t

let line n =
  if n < 2 then invalid_arg "Topo_gen.line: need at least 2 switches";
  let t = Topology.create () in
  for i = 1 to n - 1 do
    ignore
      (Topology.connect t
         (Topology.Switch (Int64.of_int i))
         (Topology.Switch (Int64.of_int (i + 1))))
  done;
  t

let star n =
  if n < 2 then invalid_arg "Topo_gen.star: need at least 2 switches";
  let t = Topology.create () in
  for i = 2 to n do
    ignore
      (Topology.connect t (Topology.Switch 1L)
         (Topology.Switch (Int64.of_int i)))
  done;
  t

let grid w h =
  if w < 1 || h < 1 || w * h < 2 then invalid_arg "Topo_gen.grid";
  let t = Topology.create () in
  let dpid x y = Int64.of_int ((y * w) + x + 1) in
  for y = 0 to h - 1 do
    for x = 0 to w - 1 do
      if x + 1 < w then
        ignore
          (Topology.connect t
             (Topology.Switch (dpid x y))
             (Topology.Switch (dpid (x + 1) y)));
      if y + 1 < h then
        ignore
          (Topology.connect t
             (Topology.Switch (dpid x y))
             (Topology.Switch (dpid x (y + 1))))
    done
  done;
  t

let random ~seed ~n ~extra_edges () =
  if n < 2 then invalid_arg "Topo_gen.random: need at least 2 switches";
  let rng = Rf_sim.Rng.create seed in
  let t = Topology.create () in
  (* Random spanning tree: attach each new node to a uniformly chosen
     existing node, after a random relabeling. *)
  let order = Array.init n (fun i -> Int64.of_int (i + 1)) in
  Rf_sim.Rng.shuffle rng order;
  for i = 1 to n - 1 do
    let parent = order.(Rf_sim.Rng.int rng i) in
    ignore
      (Topology.connect t (Topology.Switch order.(i))
         (Topology.Switch parent))
  done;
  let attempts = ref (20 * extra_edges) in
  let added = ref 0 in
  while !added < extra_edges && !attempts > 0 do
    decr attempts;
    let a = order.(Rf_sim.Rng.int rng n) in
    let b = order.(Rf_sim.Rng.int rng n) in
    if
      (not (Int64.equal a b))
      && Topology.edge_between t (Topology.Switch a) (Topology.Switch b) = None
    then begin
      ignore
        (Topology.connect t (Topology.Switch a) (Topology.Switch b));
      incr added
    end
  done;
  t

(* The 28-node pan-European reference network (de Maesschalck et al.
   2003). Latencies are one-way propagation delays (~5 us/km) rounded
   to the millisecond, floor 1 ms. *)
let cities =
  [|
    "Amsterdam" (* 1 *);
    "Athens" (* 2 *);
    "Barcelona" (* 3 *);
    "Belgrade" (* 4 *);
    "Berlin" (* 5 *);
    "Bordeaux" (* 6 *);
    "Brussels" (* 7 *);
    "Budapest" (* 8 *);
    "Copenhagen" (* 9 *);
    "Dublin" (* 10 *);
    "Dusseldorf" (* 11 *);
    "Frankfurt" (* 12 *);
    "Glasgow" (* 13 *);
    "Hamburg" (* 14 *);
    "Helsinki" (* 15 *);
    "Krakow" (* 16 *);
    "London" (* 17 *);
    "Lyon" (* 18 *);
    "Madrid" (* 19 *);
    "Milan" (* 20 *);
    "Munich" (* 21 *);
    "Oslo" (* 22 *);
    "Paris" (* 23 *);
    "Prague" (* 24 *);
    "Rome" (* 25 *);
    "Stockholm" (* 26 *);
    "Vienna" (* 27 *);
    "Zurich" (* 28 *);
  |]

let pan_european_city dpid =
  let i = Int64.to_int dpid in
  if i < 1 || i > Array.length cities then raise Not_found;
  cities.(i - 1)

let pan_european_links =
  (* (a, b, one-way latency in ms) by city index, 41 links *)
  [
    (13, 10, 2) (* Glasgow-Dublin *);
    (13, 17, 3) (* Glasgow-London *);
    (10, 17, 2) (* Dublin-London *);
    (17, 1, 2) (* London-Amsterdam *);
    (17, 23, 2) (* London-Paris *);
    (1, 7, 1) (* Amsterdam-Brussels *);
    (1, 14, 2) (* Amsterdam-Hamburg *);
    (7, 11, 1) (* Brussels-Dusseldorf *);
    (7, 23, 2) (* Brussels-Paris *);
    (23, 6, 3) (* Paris-Bordeaux *);
    (23, 18, 2) (* Paris-Lyon *);
    (6, 19, 3) (* Bordeaux-Madrid *);
    (19, 3, 3) (* Madrid-Barcelona *);
    (3, 18, 3) (* Barcelona-Lyon *);
    (18, 28, 2) (* Lyon-Zurich *);
    (28, 20, 2) (* Zurich-Milan *);
    (28, 12, 2) (* Zurich-Frankfurt *);
    (20, 25, 3) (* Milan-Rome *);
    (25, 2, 5) (* Rome-Athens *);
    (2, 4, 4) (* Athens-Belgrade *);
    (4, 8, 2) (* Belgrade-Budapest *);
    (8, 27, 2) (* Budapest-Vienna *);
    (27, 21, 2) (* Vienna-Munich *);
    (27, 24, 2) (* Vienna-Prague *);
    (21, 12, 2) (* Munich-Frankfurt *);
    (21, 20, 3) (* Munich-Milan *);
    (12, 11, 1) (* Frankfurt-Dusseldorf *);
    (11, 14, 2) (* Dusseldorf-Hamburg *);
    (14, 5, 2) (* Hamburg-Berlin *);
    (5, 9, 2) (* Berlin-Copenhagen *);
    (5, 24, 2) (* Berlin-Prague *);
    (24, 16, 2) (* Prague-Krakow *);
    (16, 8, 2) (* Krakow-Budapest *);
    (9, 22, 3) (* Copenhagen-Oslo *);
    (9, 26, 3) (* Copenhagen-Stockholm *);
    (22, 26, 3) (* Oslo-Stockholm *);
    (26, 15, 2) (* Stockholm-Helsinki *);
    (15, 5, 6) (* Helsinki-Berlin *);
    (12, 5, 3) (* Frankfurt-Berlin *);
    (3, 25, 5) (* Barcelona-Rome *);
    (2, 20, 6) (* Athens-Milan *);
  ]

(* k-ary fat-tree (Al-Fares et al., SIGCOMM 2008): (k/2)^2 core
   switches, k pods of k/2 aggregation + k/2 edge switches, and k/2
   hosts per edge switch — 5k^2/4 switches, k^3/4 hosts, every switch
   of degree k. Dpids: cores first (1..(k/2)^2), then per pod the
   aggregation switches followed by the edge switches. *)

let fat_tree_host_name idx = Printf.sprintf "h%04d" idx

let fat_tree_host_count k = k * k * k / 4

let fat_tree_hops ~k a b =
  let half = k / 2 in
  if a = b then 0
  else if a / half = b / half then 2 (* same edge switch *)
  else if a / (half * half) = b / (half * half) then 4 (* same pod *)
  else 6

let fat_tree k =
  if k < 2 || k mod 2 <> 0 then
    invalid_arg "Topo_gen.fat_tree: k must be even and >= 2";
  let half = k / 2 in
  let cores = half * half in
  let t = Topology.create () in
  let core i = Int64.of_int (i + 1) in
  let agg p j = Int64.of_int (cores + (p * k) + j + 1) in
  let edge p e = Int64.of_int (cores + (p * k) + half + e + 1) in
  for i = 0 to cores - 1 do
    Topology.add_switch t (core i)
  done;
  for p = 0 to k - 1 do
    for j = 0 to half - 1 do
      Topology.add_switch t (agg p j)
    done;
    for e = 0 to half - 1 do
      Topology.add_switch t (edge p e)
    done
  done;
  for p = 0 to k - 1 do
    for j = 0 to half - 1 do
      (* Aggregation switch j of every pod reaches core group j. *)
      for i = 0 to half - 1 do
        ignore
          (Topology.connect t
             (Topology.Switch (agg p j))
             (Topology.Switch (core ((j * half) + i))))
      done;
      for e = 0 to half - 1 do
        ignore
          (Topology.connect t
             (Topology.Switch (agg p j))
             (Topology.Switch (edge p e)))
      done
    done
  done;
  for p = 0 to k - 1 do
    for e = 0 to half - 1 do
      for i = 0 to half - 1 do
        let idx = (((p * half) + e) * half) + i in
        let name = fat_tree_host_name idx in
        Topology.add_host t name;
        ignore
          (Topology.connect t
             (Topology.Switch (edge p e))
             (Topology.Host name))
      done
    done
  done;
  t

let pan_european () =
  let t = Topology.create () in
  for i = 1 to Array.length cities do
    Topology.add_switch t (Int64.of_int i)
  done;
  List.iter
    (fun (a, b, ms) ->
      ignore
        (Topology.connect t
           ~latency:(Rf_sim.Vtime.span_ms ms)
           (Topology.Switch (Int64.of_int a))
           (Topology.Switch (Int64.of_int b))))
    pan_european_links;
  t
