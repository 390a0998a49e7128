(* OSPF daemon tests: adjacency bring-up, flooding, SPF routes,
   failure reconvergence. Routers are wired back-to-back through
   Iface pairs with a small propagation delay. *)

open Rf_packet
module Engine = Rf_sim.Engine
module Vtime = Rf_sim.Vtime
module Iface = Rf_routing.Iface
module Ospfd = Rf_routing.Ospfd
module Rib = Rf_routing.Rib
module Zebra = Rf_routing.Zebra

let ip = Ipv4_addr.of_string_exn

let pfx = Ipv4_addr.Prefix.of_string_exn

(* Wire two ifaces as a point-to-point link with [ms] one-way delay. *)
let join engine ?(ms = 1) a b =
  Iface.set_transmit a (fun frame ->
      ignore
        (Engine.schedule engine (Vtime.span_ms ms) (fun () -> Iface.deliver b frame)));
  Iface.set_transmit b (fun frame ->
      ignore
        (Engine.schedule engine (Vtime.span_ms ms) (fun () -> Iface.deliver a frame)))

type router = {
  rid : Ipv4_addr.t;
  zebra : Zebra.t;
  rib : Rib.t;
  ospf : Ospfd.t;
}

(* Zebra owns the connected routes, as in a RouteFlow VM. *)
let make_router engine i =
  let rid = ip (Printf.sprintf "10.255.0.%d" i) in
  let zebra = Zebra.create ~hostname:(Ipv4_addr.to_string rid) () in
  let rib = Zebra.rib zebra in
  let cfg = Ospfd.default_config ~router_id:rid in
  let ospf = Ospfd.create engine cfg rib in
  { rid; zebra; rib; ospf }

let add_iface r ?passive ifc =
  Zebra.add_interface r.zebra ifc;
  Ospfd.add_interface r.ospf ?passive ifc

(* A line of n routers: r1 -- r2 -- ... -- rn, transfer nets
   172.16.k.0/30, each router also has a passive stub 10.0.i.0/24. *)
let build_line engine n =
  let routers = Array.init n (fun i -> make_router engine (i + 1)) in
  Array.iteri
    (fun i r ->
      let stub =
        Iface.create
          ~name:(Printf.sprintf "stub%d" (i + 1))
          ~mac:(Mac.make_local (1000 + i))
          ~ip:(ip (Printf.sprintf "10.0.%d.1" (i + 1)))
          ~prefix_len:24 ()
      in
      add_iface r ~passive:true stub)
    routers;
  for i = 0 to n - 2 do
    let left = routers.(i) and right = routers.(i + 1) in
    let ia =
      Iface.create
        ~name:(Printf.sprintf "eth%d_r" (i + 1))
        ~mac:(Mac.make_local (2000 + (2 * i)))
        ~ip:(ip (Printf.sprintf "172.16.%d.1" i))
        ~prefix_len:30 ()
    in
    let ib =
      Iface.create
        ~name:(Printf.sprintf "eth%d_l" (i + 2))
        ~mac:(Mac.make_local (2001 + (2 * i)))
        ~ip:(ip (Printf.sprintf "172.16.%d.2" i))
        ~prefix_len:30 ()
    in
    join engine ia ib;
    add_iface left ia;
    add_iface right ib
  done;
  Array.iter (fun r -> Ospfd.start r.ospf) routers;
  routers

let run_for engine s =
  ignore (Engine.run ~until:(Vtime.add (Engine.now engine) (Vtime.span_s s)) engine)

let test_two_routers_full () =
  let engine = Engine.create () in
  let routers = build_line engine 2 in
  run_for engine 10.;
  Alcotest.(check bool)
    "r1 adjacent to r2" true
    (Ospfd.is_adjacent_to routers.(0).ospf routers.(1).rid);
  Alcotest.(check bool)
    "r2 adjacent to r1" true
    (Ospfd.is_adjacent_to routers.(1).ospf routers.(0).rid)

let test_two_routers_routes () =
  let engine = Engine.create () in
  let routers = build_line engine 2 in
  run_for engine 10.;
  (* r1 must learn r2's stub 10.0.2.0/24 via OSPF. *)
  match Rib.best routers.(0).rib (pfx "10.0.2.0/24") with
  | None -> Alcotest.fail "no route to 10.0.2.0/24"
  | Some r ->
      Alcotest.(check string) "proto" "ospf" (Rib.proto_name r.Rib.r_proto);
      Alcotest.(check (option string))
        "next hop" (Some "172.16.0.2")
        (Option.map Ipv4_addr.to_string r.Rib.r_next_hop)

let test_line_five_convergence () =
  let engine = Engine.create () in
  let routers = build_line engine 5 in
  run_for engine 30.;
  (* Every router sees every stub; 5 routers x 5 stubs. *)
  Array.iteri
    (fun i r ->
      for j = 1 to 5 do
        let p = pfx (Printf.sprintf "10.0.%d.0/24" j) in
        match Rib.best r.rib p with
        | Some _ -> ()
        | None ->
            Alcotest.fail
              (Printf.sprintf "router %d missing route to 10.0.%d.0/24" (i + 1) j)
      done)
    routers;
  (* End-to-end metric check: r1 -> 10.0.5.0/24 crosses 4 transfer
     links (cost 10 each) plus the stub cost 10. *)
  match Rib.best routers.(0).rib (pfx "10.0.5.0/24") with
  | Some r -> Alcotest.(check int) "metric" 50 r.Rib.r_metric
  | None -> Alcotest.fail "unreachable"

let test_lsdb_sizes () =
  let engine = Engine.create () in
  let routers = build_line engine 4 in
  run_for engine 30.;
  Array.iter
    (fun r -> Alcotest.(check int) "lsdb size" 4 (Ospfd.lsdb_size r.ospf))
    routers

(* LSAs are shared: an instance is interned under its wire bytes, so
   after a 4-ring converges every router holds the very same value for
   each LSA, the originator's own included. *)
let test_lsdbs_share_lsa_values () =
  let engine = Engine.create () in
  let n = 4 in
  let routers = Array.init n (fun i -> make_router engine (i + 1)) in
  for i = 0 to n - 1 do
    let nic side k =
      Iface.create
        ~name:(Printf.sprintf "eth%d%s" i side)
        ~mac:(Mac.make_local (3000 + (2 * i) + k))
        ~ip:(ip (Printf.sprintf "172.16.%d.%d" i (k + 1)))
        ~prefix_len:30 ()
    in
    let a = nic "a" 0 and b = nic "b" 1 in
    join engine a b;
    add_iface routers.(i) a;
    add_iface routers.((i + 1) mod n) b
  done;
  Array.iter (fun r -> Ospfd.start r.ospf) routers;
  run_for engine 30.;
  let key = Ospf_pkt.key_of_lsa in
  let reference = Ospfd.lsdb routers.(0).ospf in
  Alcotest.(check int) "one LSA per router" n (List.length reference);
  Array.iteri
    (fun i r ->
      let lsdb = Ospfd.lsdb r.ospf in
      Alcotest.(check int) (Printf.sprintf "router %d lsdb size" (i + 1)) n
        (List.length lsdb);
      List.iter
        (fun lsa ->
          let mine = List.find (fun l -> key l = key lsa) lsdb in
          Alcotest.(check bool)
            (Printf.sprintf "router %d shares the LSA of %s" (i + 1)
               (Ipv4_addr.to_string lsa.Ospf_pkt.adv_router))
            true (mine == lsa))
        reference)
    routers

(* A ring of [n] routers, router [i] wired to router [i + 1] over
   172.16.[i].0/30, converged after 60 s. *)
let converged_ring n =
  let engine = Engine.create () in
  let routers = Array.init n (fun i -> make_router engine (i + 1)) in
  for i = 0 to n - 1 do
    let nic side k =
      Iface.create
        ~name:(Printf.sprintf "eth%d%s" i side)
        ~mac:(Mac.make_local (5000 + (2 * i) + k))
        ~ip:(ip (Printf.sprintf "172.16.%d.%d" i (k + 1)))
        ~prefix_len:30 ()
    in
    let a = nic "a" 0 and b = nic "b" 1 in
    join engine a b;
    add_iface routers.(i) a;
    add_iface routers.((i + 1) mod n) b
  done;
  Array.iter (fun r -> Ospfd.start r.ospf) routers;
  run_for engine 60.;
  routers

(* What SPF reads of a router LSA is derived once per instance: every
   daemon holding the instance reads the very same arrays. *)
let test_lsdbs_share_spf_input () =
  let routers = converged_ring 4 in
  let reference = Ospfd.lsdb routers.(0).ospf in
  Array.iter
    (fun r ->
      List.iter
        (fun (lsa : Ospf_pkt.lsa) ->
          let mine =
            List.find
              (fun (l : Ospf_pkt.lsa) ->
                Ipv4_addr.equal l.adv_router lsa.adv_router)
              (Ospfd.lsdb r.ospf)
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s reads the SPF input of %s"
               (Ipv4_addr.to_string r.rid)
               (Ipv4_addr.to_string lsa.adv_router))
            true
            (mine.spf.p2p == lsa.spf.p2p
            && mine.spf.p2p_metric == lsa.spf.p2p_metric
            && mine.spf.stubs == lsa.spf.stubs))
        reference)
    routers

(* An incremental SPF run at router 0 of a 24-router ring, as a far
   router's LSA flaps its link metrics between 10 and 11: refreshing
   the dirty router, repairing the tree and publishing the changed
   routes costs at most 650 minor words a run. *)
let test_incremental_spf_word_budget () =
  let n = 24 in
  let routers = converged_ring n in
  let d = routers.(0).ospf in
  let far = routers.(n / 2).rid in
  let lsa =
    List.find
      (fun (l : Ospf_pkt.lsa) -> Ipv4_addr.equal l.adv_router far)
      (Ospfd.lsdb d)
  in
  let instance seq metric =
    let links =
      match lsa.body with
      | Ospf_pkt.Router { links } ->
          List.map
            (fun (l : Ospf_pkt.router_link) ->
              if l.link_type = Ospf_pkt.Point_to_point then { l with metric }
              else l)
            links
      | Ospf_pkt.Network _ | Ospf_pkt.Opaque _ -> []
    in
    Ospf_pkt.make_lsa ~age:lsa.age ~options:lsa.options
      ~link_state_id:lsa.link_state_id ~adv_router:lsa.adv_router
      ~seq:(Int32.add lsa.seq seq) (Ospf_pkt.Router { links })
  in
  let flaps = [| instance 1l 11; instance 2l 10 |] in
  let runs = 200 and words = ref 0. in
  for i = -2 to runs - 1 do
    Ospfd.install_lsa d flaps.((i + 2) mod 2);
    let before = Gc.minor_words () in
    ignore (Ospfd.spf_now d);
    if i >= 0 then words := !words +. (Gc.minor_words () -. before)
  done;
  let words = !words /. float_of_int runs in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words per incremental SPF run" words)
    true (words <= 650.)

let test_neighbor_death_reconvergence () =
  let engine = Engine.create () in
  let routers = build_line engine 3 in
  run_for engine 20.;
  Alcotest.(check bool)
    "initially reachable" true
    (Rib.best routers.(0).rib (pfx "10.0.3.0/24") <> None);
  (* Kill r3 entirely: its hellos stop, r2 ages it out after the dead
     interval and withdraws the route network-wide. *)
  Ospfd.stop routers.(2).ospf;
  run_for engine 60.;
  Alcotest.(check bool)
    "withdrawn after death" true
    (Rib.best routers.(0).rib (pfx "10.0.3.0/24") = None)

(* Two routers on a link whose directions pass only the OSPF packets
   [a_to_b] and [b_to_a] keep (1 ms one way, as [join]). Neither is
   started. *)
let filtered_pair engine ~a_to_b ~b_to_a =
  let r1 = make_router engine 1 and r2 = make_router engine 2 in
  let ia =
    Iface.create ~name:"p1" ~mac:(Mac.make_local 1401) ~ip:(ip "172.16.98.1")
      ~prefix_len:30 ()
  in
  let ib =
    Iface.create ~name:"p2" ~mac:(Mac.make_local 1402) ~ip:(ip "172.16.98.2")
      ~prefix_len:30 ()
  in
  let wire keep dst frame =
    match Packet.parse frame with
    | Ok { l3 = Packet.Ipv4 (_, Packet.Ospf pkt); _ }
      when not (keep pkt.Ospf_pkt.payload) ->
        ()
    | Ok _ | Error _ ->
        ignore
          (Engine.schedule engine (Vtime.span_ms 1) (fun () ->
               Iface.deliver dst frame))
  in
  Iface.set_transmit ia (wire a_to_b ib);
  Iface.set_transmit ib (wire b_to_a ia);
  add_iface r1 ia;
  add_iface r2 ib;
  (r1, r2)

(* A neighbour that falls silent while its interface stays up dies on
   the 1 s grid from its router's start (0.3 s here), at the first grid
   point after its last hello plus the 40 s dead interval. Its last
   hello reaches r1 between 20.0 and 20.3 s (hellos are jittered), so
   it dies at 60.3 s: the instant a 1 Hz scan of the neighbour table
   from the same start would first find it dead. *)
let test_silent_neighbor_dies_on_grid () =
  let engine = Engine.create () in
  let silent = ref false in
  let r1, r2 =
    filtered_pair engine
      ~a_to_b:(fun _ -> true)
      ~b_to_a:(function Ospf_pkt.Hello _ -> not !silent | _ -> true)
  in
  Ospfd.start r2.ospf;
  run_for engine 0.3;
  Ospfd.start r1.ospf;
  run_for engine 24.7;
  Alcotest.(check bool) "adjacent before" true
    (Ospfd.is_adjacent_to r1.ospf r2.rid);
  silent := true;
  let neighbors_at us =
    ignore (Engine.run ~until:(Vtime.of_us us) engine);
    List.length (Ospfd.neighbors r1.ospf)
  in
  Alcotest.(check int) "alive 1 us before 60.3 s" 1 (neighbors_at 60_299_999);
  Alcotest.(check int) "dead at 60.3 s" 0 (neighbors_at 60_300_000)

(* The retransmit timer runs only while an LSA waits for its ack: a
   firing that finds the list empty disarms it, and the next flood
   arms it again one interval after that flood. With r2's acks
   dropped, r1's new stub at 47.3 s is flooded and resent exactly at
   52.3 s, not on a grid kept from the adjacency's first flood. That
   resend is acked, and nothing more is sent. *)
let test_rxmt_runs_only_while_pending () =
  let engine = Engine.create () in
  let drop_acks = ref false in
  let updates = ref [] in
  let r1, r2 =
    filtered_pair engine
      ~a_to_b:(fun p ->
        (match p with
        | Ospf_pkt.Ls_update _ ->
            updates := Vtime.to_us (Engine.now engine) :: !updates
        | _ -> ());
        true)
      ~b_to_a:(function Ospf_pkt.Ls_ack _ -> not !drop_acks | _ -> true)
  in
  Ospfd.start r1.ospf;
  Ospfd.start r2.ospf;
  run_for engine 47.3;
  Alcotest.(check bool) "adjacent" true (Ospfd.is_adjacent_to r1.ospf r2.rid);
  updates := [];
  drop_acks := true;
  add_iface r1 ~passive:true
    (Iface.create ~name:"stub9" ~mac:(Mac.make_local 1409)
       ~ip:(ip "10.0.9.1") ~prefix_len:24 ());
  run_for engine 2.7;
  drop_acks := false;
  run_for engine 60.;
  Alcotest.(check (list int)) "LS updates from r1"
    [ 47_300_000; 52_300_000 ] (List.rev !updates);
  Alcotest.(check bool) "r2 has the stub" true
    (Rib.best r2.rib (pfx "10.0.9.0/24") <> None)

let test_connected_preferred_over_ospf () =
  let engine = Engine.create () in
  let routers = build_line engine 2 in
  run_for engine 10.;
  (* The transfer net exists as connected on both; OSPF also hears of
     it from the peer's stub advertisement, but connected must win. *)
  match Rib.best routers.(0).rib (pfx "172.16.0.0/30") with
  | Some r -> Alcotest.(check string) "proto" "connected" (Rib.proto_name r.Rib.r_proto)
  | None -> Alcotest.fail "no transfer-net route"

let test_spf_runs_bounded () =
  let engine = Engine.create () in
  let routers = build_line engine 5 in
  run_for engine 120.;
  (* SPF holddown batches LSDB churn; a stable 5-line must not run SPF
     hundreds of times. *)
  Array.iter
    (fun r ->
      let runs = Ospfd.spf_runs r.ospf in
      if runs > 30 then
        Alcotest.fail (Printf.sprintf "too many SPF runs: %d" runs))
    routers

(* A router joining long after the others converged must obtain the
   full LSDB through the DD / LS-request / LS-update exchange. *)
let test_late_joiner_syncs_database () =
  let engine = Engine.create () in
  let routers = build_line engine 3 in
  run_for engine 30.;
  (* Build a fourth router and splice it onto r3. *)
  let r4 = make_router engine 4 in
  let stub =
    Iface.create ~name:"stub4" ~mac:(Mac.make_local 1100)
      ~ip:(ip "10.0.4.1") ~prefix_len:24 ()
  in
  add_iface r4 ~passive:true stub;
  let ia =
    Iface.create ~name:"eth3_r" ~mac:(Mac.make_local 1101)
      ~ip:(ip "172.16.50.1") ~prefix_len:30 ()
  in
  let ib =
    Iface.create ~name:"eth4_l" ~mac:(Mac.make_local 1102)
      ~ip:(ip "172.16.50.2") ~prefix_len:30 ()
  in
  join engine ia ib;
  add_iface routers.(2) ia;
  add_iface r4 ib;
  Ospfd.start r4.ospf;
  run_for engine 30.;
  (* r4 holds all four router LSAs and routes to every old stub. *)
  Alcotest.(check int) "full lsdb" 4 (Ospfd.lsdb_size r4.ospf);
  for j = 1 to 3 do
    let p = pfx (Printf.sprintf "10.0.%d.0/24" j) in
    if Rib.best r4.rib p = None then
      Alcotest.fail (Printf.sprintf "late joiner missing 10.0.%d.0/24" j)
  done;
  (* And the old routers learned r4's stub. *)
  Alcotest.(check bool) "r1 reaches new stub" true
    (Rib.best routers.(0).rib (pfx "10.0.4.0/24") <> None)

(* A late joiner's LS Request for a 30-router line's database asks for
   more LSAs than one packet can carry within the 1,500-byte MTU. The
   answer comes as several LS Updates, each IP packet within the MTU
   (so each frame within 1,514 bytes), that together carry every LSA
   requested (RFC 2328 §13.3). *)
let test_lsr_answer_split_at_mtu () =
  let engine = Engine.create () in
  let routers = build_line engine 30 in
  run_for engine 60.;
  let r30 = routers.(29) and joiner = make_router engine 31 in
  let ia =
    Iface.create ~name:"eth30_r" ~mac:(Mac.make_local 1201)
      ~ip:(ip "172.16.60.1") ~prefix_len:30 ()
  in
  let ib =
    Iface.create ~name:"eth31_l" ~mac:(Mac.make_local 1202)
      ~ip:(ip "172.16.60.2") ~prefix_len:30 ()
  in
  let requested = ref [] and updates = ref [] in
  let wire dst frame =
    (match Packet.parse frame with
    | Ok { l3 = Packet.Ipv4 (_, Packet.Ospf { payload; _ }); _ } -> (
        match payload with
        | Ospf_pkt.Ls_request keys when dst == ia ->
            requested := keys @ !requested
        | Ospf_pkt.Ls_update lsas when dst == ib ->
            updates := (String.length frame, lsas) :: !updates
        | _ -> ())
    | Ok _ | Error _ -> ());
    ignore
      (Engine.schedule engine (Vtime.span_ms 1) (fun () ->
           Iface.deliver dst frame))
  in
  Iface.set_transmit ia (wire ib);
  Iface.set_transmit ib (wire ia);
  add_iface r30 ia;
  add_iface joiner ib;
  Ospfd.start joiner.ospf;
  run_for engine 30.;
  let requested_bytes =
    List.fold_left
      (fun n key ->
        match
          List.find_opt
            (fun lsa -> Ospf_pkt.key_of_lsa lsa = key)
            (Ospfd.lsdb r30.ospf)
        with
        | Some lsa -> n + String.length (Ospf_pkt.lsa_to_wire lsa)
        | None -> n)
      0 !requested
  in
  Alcotest.(check bool)
    (Printf.sprintf "%d LSAs requested, %d bytes: more than one MTU"
       (List.length !requested) requested_bytes)
    true (requested_bytes > 1500);
  List.iter
    (fun (frame_len, lsas) ->
      Alcotest.(check bool)
        (Printf.sprintf "%d-LSA LS Update: %d-byte IP packet" (List.length lsas)
           (frame_len - 14))
        true (frame_len - 14 <= 1500))
    !updates;
  Alcotest.(check bool) "several multi-LSA LS Updates" true
    (List.length (List.filter (fun (_, l) -> List.length l > 1) !updates) >= 2);
  let sent = List.concat_map (fun (_, lsas) -> lsas) !updates in
  List.iter
    (fun key ->
      if not (List.exists (fun lsa -> Ospf_pkt.key_of_lsa lsa = key) sent) then
        Alcotest.fail "a requested LSA was never sent")
    !requested;
  Alcotest.(check int) "joiner holds every router LSA" 31
    (Ospfd.lsdb_size joiner.ospf)

(* A Database Description listing 130 LSAs that an empty router lacks:
   the router asks for them in several LS Requests, each IP packet
   within the 1,500-byte MTU (RFC 2328 §10.9), that together name every
   key. In one packet they would take 20 + 24 + 130 * 12 = 1,604
   bytes. *)
let test_ls_request_split_at_mtu () =
  let engine = Engine.create () in
  let r1 = make_router engine 1 in
  let nbr = ip "10.255.0.2" and nbr_ip = ip "172.16.0.2" in
  let ifc =
    Iface.create ~name:"eth1" ~mac:(Mac.make_local 1501)
      ~ip:(ip "172.16.0.1") ~prefix_len:30 ()
  in
  let requests = ref [] in
  Iface.set_transmit ifc (fun frame ->
      match Packet.parse frame with
      | Ok { l3 = Packet.Ipv4 (_, Packet.Ospf pkt); _ } -> (
          match pkt.payload with
          | Ospf_pkt.Ls_request keys ->
              requests := (String.length frame - 14, keys) :: !requests
          | _ -> ())
      | Ok _ | Error _ -> ());
  add_iface r1 ifc;
  Ospfd.start r1.ospf;
  let from_nbr payload =
    Iface.deliver ifc
      (Packet.ospf ~src_mac:(Mac.make_local 1502) ~dst_mac:(Iface.mac ifc)
         ~src_ip:nbr_ip ~dst_ip:(Iface.ip ifc)
         { Ospf_pkt.router_id = nbr; area_id = Ipv4_addr.any; payload })
  in
  from_nbr
    (Ospf_pkt.Hello
       {
         netmask = ip "255.255.255.252";
         hello_interval = 10;
         dead_interval = 40;
         priority = 1;
         dr = Ipv4_addr.any;
         bdr = Ipv4_addr.any;
         neighbors = [ r1.rid ];
       });
  let headers =
    List.init 130 (fun i ->
        let rid = Ipv4_addr.of_octets 10 254 (i / 200) (1 + (i mod 200)) in
        Ospf_pkt.header_of_lsa
          (Ospf_pkt.make_lsa ~age:1 ~options:2 ~link_state_id:rid
             ~adv_router:rid ~seq:Ospf_pkt.initial_seq
             (Ospf_pkt.Router { links = [] })))
  in
  from_nbr
    (Ospf_pkt.Db_desc
       {
         mtu = 1500;
         dd_init = false;
         dd_more = false;
         dd_master = true;
         dd_seq = 1l;
         headers;
       });
  run_for engine 1.;
  Alcotest.(check bool)
    (Printf.sprintf "%d LS Requests" (List.length !requests))
    true
    (List.length !requests > 1);
  List.iter
    (fun (len, keys) ->
      Alcotest.(check bool)
        (Printf.sprintf "%d-key LS Request: %d-byte IP packet"
           (List.length keys) len)
        true (len <= 1500))
    !requests;
  let asked = List.concat_map snd (List.rev !requests) in
  Alcotest.(check bool) "every key asked for, once, in order" true
    (asked = List.map (fun (h : Ospf_pkt.lsa_header) -> h.h_key) headers)

(* Property: on random connected topologies, once converged, each
   router's OSPF metric to each stub equals (BFS hops x 10) + 10 —
   uniform link costs make shortest-path checking exact. *)
let test_random_topology_spf_matches_bfs () =
  List.iter
    (fun seed ->
      let n = 8 in
      let topo = Rf_net.Topo_gen.random ~seed ~n ~extra_edges:4 () in
      let engine = Engine.create () in
      let routers = Array.init n (fun i -> make_router engine (i + 1)) in
      Array.iteri
        (fun i r ->
          let stub =
            Iface.create
              ~name:(Printf.sprintf "stub%d" (i + 1))
              ~mac:(Mac.make_local (5000 + (100 * seed) + i))
              ~ip:(ip (Printf.sprintf "10.0.%d.1" (i + 1)))
              ~prefix_len:24 ()
          in
          add_iface r ~passive:true stub)
        routers;
      List.iteri
        (fun k (e : Rf_net.Topology.edge) ->
          match (e.a, e.b) with
          | Rf_net.Topology.Switch a, Rf_net.Topology.Switch b ->
              let ia =
                Iface.create
                  ~name:(Printf.sprintf "l%d_a" k)
                  ~mac:(Mac.make_local (6000 + (200 * seed) + (2 * k)))
                  ~ip:(ip (Printf.sprintf "172.19.%d.1" k))
                  ~prefix_len:30 ()
              in
              let ib =
                Iface.create
                  ~name:(Printf.sprintf "l%d_b" k)
                  ~mac:(Mac.make_local (6001 + (200 * seed) + (2 * k)))
                  ~ip:(ip (Printf.sprintf "172.19.%d.2" k))
                  ~prefix_len:30 ()
              in
              join engine ia ib;
              add_iface routers.(Int64.to_int a - 1) ia;
              add_iface routers.(Int64.to_int b - 1) ib
          | _ -> ())
        (Rf_net.Topology.edges topo);
      Array.iter (fun r -> Ospfd.start r.ospf) routers;
      run_for engine 60.;
      Array.iteri
        (fun i r ->
          for j = 1 to n do
            if j <> i + 1 then begin
              let p = pfx (Printf.sprintf "10.0.%d.0/24" j) in
              let hops =
                match
                  Rf_net.Topology.hop_distance topo
                    (Rf_net.Topology.Switch (Int64.of_int (i + 1)))
                    (Rf_net.Topology.Switch (Int64.of_int j))
                with
                | Some h -> h
                | None -> Alcotest.fail "disconnected topology"
              in
              match Rib.best r.rib p with
              | Some route ->
                  Alcotest.(check int)
                    (Printf.sprintf "seed %d: r%d -> 10.0.%d metric" seed (i + 1) j)
                    ((hops * 10) + 10)
                    route.Rib.r_metric
              | None ->
                  Alcotest.fail
                    (Printf.sprintf "seed %d: r%d missing route to 10.0.%d.0/24"
                       seed (i + 1) j)
            end
          done)
        routers)
    [ 1; 7; 13 ]

let test_graceful_shutdown_fast_withdraw () =
  let engine = Engine.create () in
  let routers = build_line engine 3 in
  run_for engine 20.;
  Alcotest.(check bool) "reachable" true
    (Rib.best routers.(0).rib (pfx "10.0.3.0/24") <> None);
  (* Graceful stop floods a MaxAge flush: withdrawal must happen well
     inside the 40 s dead interval. *)
  Ospfd.stop routers.(2).ospf;
  run_for engine 5.;
  Alcotest.(check bool) "withdrawn within 5 s" true
    (Rib.best routers.(0).rib (pfx "10.0.3.0/24") = None);
  Alcotest.(check int) "flushed from r1's LSDB" 2 (Ospfd.lsdb_size routers.(0).ospf)

let test_hello_mismatch_blocks_adjacency () =
  let engine = Engine.create () in
  let r1 = make_router engine 1 in
  (* r2 runs non-default timers: no adjacency may form. *)
  let rid2 = ip "10.255.0.2" in
  let cfg2 =
    { (Ospfd.default_config ~router_id:rid2) with Ospfd.hello_interval = 5;
      dead_interval = 20 }
  in
  let r2_rib = Rib.create () in
  let r2 = Ospfd.create engine cfg2 r2_rib in
  let ia =
    Iface.create ~name:"m1" ~mac:(Mac.make_local 1301) ~ip:(ip "172.16.99.1")
      ~prefix_len:30 ()
  in
  let ib =
    Iface.create ~name:"m2" ~mac:(Mac.make_local 1302) ~ip:(ip "172.16.99.2")
      ~prefix_len:30 ()
  in
  join engine ia ib;
  add_iface r1 ia;
  Ospfd.add_interface r2 ib;
  Ospfd.start r1.ospf;
  Ospfd.start r2;
  run_for engine 60.;
  Alcotest.(check int) "no full neighbors on r1" 0
    (Ospfd.full_neighbor_count r1.ospf);
  Alcotest.(check int) "no full neighbors on r2" 0 (Ospfd.full_neighbor_count r2)

let test_show_rendering () =
  let engine = Engine.create () in
  let routers = build_line engine 2 in
  run_for engine 15.;
  let route_text = Rf_routing.Show.ip_route routers.(0).rib in
  Alcotest.(check bool) "connected line" true
    (Astring_contains.contains route_text "is directly connected");
  Alcotest.(check bool) "ospf line" true
    (Astring_contains.contains route_text "O>* 10.0.2.0/24");
  let nbr_text = Rf_routing.Show.ip_ospf_neighbor routers.(0).ospf in
  Alcotest.(check bool) "neighbor full" true
    (Astring_contains.contains nbr_text "Full");
  let db_text = Rf_routing.Show.ip_ospf_database routers.(0).ospf in
  Alcotest.(check bool) "lsdb rows" true
    (Astring_contains.contains db_text "10.255.0.2")

let suite =
  [
    Alcotest.test_case "two routers reach Full" `Quick test_two_routers_full;
    Alcotest.test_case "two routers exchange stub routes" `Quick test_two_routers_routes;
    Alcotest.test_case "five-router line converges" `Quick test_line_five_convergence;
    Alcotest.test_case "LSDB has one LSA per router" `Quick test_lsdb_sizes;
    Alcotest.test_case "every LSDB holds the same LSA value" `Quick
      test_lsdbs_share_lsa_values;
    Alcotest.test_case "neighbor death reconverges" `Quick test_neighbor_death_reconvergence;
    Alcotest.test_case "silent neighbor dies on the 1 s grid" `Quick
      test_silent_neighbor_dies_on_grid;
    Alcotest.test_case "retransmit timer runs only while pending" `Quick
      test_rxmt_runs_only_while_pending;
    Alcotest.test_case "connected preferred over OSPF" `Quick test_connected_preferred_over_ospf;
    Alcotest.test_case "SPF run count bounded" `Quick test_spf_runs_bounded;
    Alcotest.test_case "late joiner syncs the database" `Quick
      test_late_joiner_syncs_database;
    Alcotest.test_case "an LS Request answer is split at the MTU" `Quick
      test_lsr_answer_split_at_mtu;
    Alcotest.test_case "LS Request split at the MTU" `Quick
      test_ls_request_split_at_mtu;
    Alcotest.test_case "SPF matches BFS on random topologies" `Quick
      test_random_topology_spf_matches_bfs;
    Alcotest.test_case "vtysh show rendering" `Quick test_show_rendering;
    Alcotest.test_case "graceful shutdown withdraws fast (MaxAge flush)" `Quick
      test_graceful_shutdown_fast_withdraw;
    Alcotest.test_case "hello parameter mismatch blocks adjacency" `Quick
      test_hello_mismatch_blocks_adjacency;
    Alcotest.test_case "daemons holding one LSA read one SPF input" `Quick
      test_lsdbs_share_spf_input;
    Alcotest.test_case "an incremental SPF run within its word budget" `Quick
      test_incremental_spf_word_budget;
  ]
