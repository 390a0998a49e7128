(* Microbenchmark harness: bechamel Test.make timings of the hot
   substrate operations (SPF, LPM, OF codec, flow-table lookup, switch
   hop, LLDP codec, LSA Fletcher checksum, RIB churn, flow export,
   telemetry, traffic measurement, auditor, engine dispatch). CI's perf
   gate diffs them against ci/bench-baseline.json.

   The paper's experiments are not run here: `rfauto <experiment>`
   prints their tables, and bench/e2e times the workloads end to end.

   Usage: main.exe [--json PATH] [--baseline PATH] [--save-baseline PATH] *)

open Rf_packet

let std = Format.std_formatter

(* ------------------------------------------------------------------ *)
(* Microbenchmark fixtures                                             *)
(* ------------------------------------------------------------------ *)

let ip = Ipv4_addr.of_string_exn

let pfx = Ipv4_addr.Prefix.of_string_exn

(* A converged 24-router OSPF line; its first daemon then re-runs SPF
   under the timer. *)
let spf_fixture () =
  let engine = Rf_sim.Engine.create () in
  let join a b =
    Rf_routing.Iface.set_transmit a (fun f ->
        ignore
          (Rf_sim.Engine.schedule engine (Rf_sim.Vtime.span_ms 1) (fun () ->
               Rf_routing.Iface.deliver b f)));
    Rf_routing.Iface.set_transmit b (fun f ->
        ignore
          (Rf_sim.Engine.schedule engine (Rf_sim.Vtime.span_ms 1) (fun () ->
               Rf_routing.Iface.deliver a f)))
  in
  (* Zebra owns each router's connected routes, as in a RouteFlow VM. *)
  let zebras =
    Array.init 24 (fun i ->
        Rf_routing.Zebra.create ~hostname:(Printf.sprintf "r%d" i) ())
  in
  let routers =
    Array.init 24 (fun i ->
        let rid = ip (Printf.sprintf "10.255.0.%d" (i + 1)) in
        Rf_routing.Ospfd.create engine
          (Rf_routing.Ospfd.default_config ~router_id:rid)
          (Rf_routing.Zebra.rib zebras.(i)))
  in
  let add i ?passive ifc =
    Rf_routing.Zebra.add_interface zebras.(i) ifc;
    Rf_routing.Ospfd.add_interface routers.(i) ?passive ifc
  in
  Array.iteri
    (fun i _ ->
      let stub =
        Rf_routing.Iface.create
          ~name:(Printf.sprintf "stub%d" i)
          ~mac:(Mac.make_local (9000 + i))
          ~ip:(ip (Printf.sprintf "10.9.%d.1" i))
          ~prefix_len:24 ()
      in
      add i ~passive:true stub)
    routers;
  for i = 0 to Array.length routers - 2 do
    let ia =
      Rf_routing.Iface.create
        ~name:(Printf.sprintf "r%d" i)
        ~mac:(Mac.make_local (9100 + (2 * i)))
        ~ip:(ip (Printf.sprintf "172.20.%d.1" i))
        ~prefix_len:30 ()
    in
    let ib =
      Rf_routing.Iface.create
        ~name:(Printf.sprintf "l%d" (i + 1))
        ~mac:(Mac.make_local (9101 + (2 * i)))
        ~ip:(ip (Printf.sprintf "172.20.%d.2" i))
        ~prefix_len:30 ()
    in
    join ia ib;
    add i ia;
    add (i + 1) ib
  done;
  Array.iter Rf_routing.Ospfd.start routers;
  ignore (Rf_sim.Engine.run ~until:(Rf_sim.Vtime.of_s 60.) engine);
  routers.(0)

(* Router 0 of a converged two-router OSPF pair, whose LSDB then gets
   synthetic router LSAs extending the pair into an [n]-router path,
   each router with its own stub subnet. Returns the daemon and a step
   that alternately links a leaf router to the end of the path and
   unlinks it, so each step changes one LSA at the far end of an
   [n]-router tree. *)
let leaf_join_fixture n =
  let engine = Rf_sim.Engine.create () in
  let rid i = Ipv4_addr.of_octets 10 254 (i / 256) (i mod 256) in
  (* A daemon, and an adder that gives an interface to it and to the
     zebra that owns its connected routes. *)
  let daemon i =
    let z = Rf_routing.Zebra.create ~hostname:(Printf.sprintf "r%d" i) () in
    let d =
      Rf_routing.Ospfd.create engine
        (Rf_routing.Ospfd.default_config ~router_id:(rid (i + 1)))
        (Rf_routing.Zebra.rib z)
    in
    let add ?passive ifc =
      Rf_routing.Zebra.add_interface z ifc;
      Rf_routing.Ospfd.add_interface d ?passive ifc
    in
    add ~passive:true
      (Rf_routing.Iface.create
         ~name:(Printf.sprintf "stub%d" i)
         ~mac:(Mac.make_local (9500 + i))
         ~ip:(Ipv4_addr.of_octets 10 5 i 1)
         ~prefix_len:24 ());
    (d, add)
  in
  let d0, add0 = daemon 0 and d1, add1 = daemon 1 in
  let a =
    Rf_routing.Iface.create ~name:"p0" ~mac:(Mac.make_local 9600)
      ~ip:(ip "172.22.0.1") ~prefix_len:30 ()
  and b =
    Rf_routing.Iface.create ~name:"p1" ~mac:(Mac.make_local 9601)
      ~ip:(ip "172.22.0.2") ~prefix_len:30 ()
  in
  let wire x y =
    Rf_routing.Iface.set_transmit x (fun f ->
        ignore
          (Rf_sim.Engine.schedule engine (Rf_sim.Vtime.span_ms 1) (fun () ->
               Rf_routing.Iface.deliver y f)))
  in
  wire a b;
  wire b a;
  add0 a;
  add1 b;
  Rf_routing.Ospfd.start d0;
  Rf_routing.Ospfd.start d1;
  ignore (Rf_sim.Engine.run ~until:(Rf_sim.Vtime.of_s 60.) engine);
  let p2p i metric =
    {
      Ospf_pkt.link_id = rid i;
      link_data = rid i;
      link_type = Ospf_pkt.Point_to_point;
      metric;
    }
  in
  let stub i =
    {
      Ospf_pkt.link_id = Ipv4_addr.of_octets 10 (6 + (i / 256)) (i mod 256) 0;
      link_data = ip "255.255.255.0";
      link_type = Ospf_pkt.Stub;
      metric = 1;
    }
  in
  let seq = ref (Int32.add Ospf_pkt.initial_seq 100l) in
  let install i links =
    seq := Int32.succ !seq;
    Rf_routing.Ospfd.install_lsa d0
      (Ospf_pkt.make_lsa ~age:1 ~options:0x02 ~link_state_id:(rid i)
         ~adv_router:(rid i) ~seq:!seq (Ospf_pkt.Router { links }))
  in
  (* Router 2 keeps its real LSA's links and gains the path. *)
  let r2_links =
    match
      List.find
        (fun (l : Ospf_pkt.lsa) -> Ipv4_addr.equal l.adv_router (rid 2))
        (Rf_routing.Ospfd.lsdb d0)
    with
    | { Ospf_pkt.body = Ospf_pkt.Router { links }; _ } -> links
    | _ -> failwith "leaf_join_fixture: no router LSA for router 2"
  in
  install 2 (p2p 3 10 :: r2_links);
  for i = 3 to n - 1 do
    install i [ p2p (i - 1) 10; p2p (i + 1) 10; stub i ]
  done;
  (* Router n ends the path; the leaf n + 1 links back to it. *)
  let tail_links = [ p2p (n - 1) 10; stub n ] in
  install n tail_links;
  install (n + 1) [ p2p n 10; stub (n + 1) ];
  ignore (Rf_routing.Ospfd.spf_now d0);
  let joined = ref false in
  fun () ->
    joined := not !joined;
    install n (if !joined then p2p (n + 1) 10 :: tail_links else tail_links);
    ignore (Rf_routing.Ospfd.spf_now d0)

(* A VM exporting 1,000 OSPF routes to an RF-controller app whose switch
   is connected through a tap that drops flow-mods, so the step times
   the export and the diff rather than the switch's table. Each step
   moves one route between two resolved next hops and runs past the
   export debounce: one flow delete plus one add. *)
let flow_export_fixture () =
  let engine = Rf_sim.Engine.create () in
  let app =
    Rf_routeflow.Rf_controller_app.create engine
      (Rf_routeflow.Rf_vs.create engine)
  in
  let dp = Rf_net.Datapath.create engine ~dpid:1L ~n_ports:2 in
  let app_end, tap_a = Rf_net.Channel.create engine () in
  let tap_b, sw_end = Rf_net.Channel.create engine () in
  let ofpt_flow_mod = 14 in
  Rf_net.Channel.set_receiver tap_a (fun m ->
      if Char.code m.[1] <> ofpt_flow_mod then Rf_net.Channel.send tap_b m);
  Rf_net.Channel.set_receiver tap_b (Rf_net.Channel.send tap_a);
  ignore (Rf_net.Of_agent.create engine dp sw_end);
  Rf_routeflow.Rf_controller_app.attach app ~dpid:1L app_end;
  let run_for s =
    ignore
      (Rf_sim.Engine.run
         ~until:
           (Rf_sim.Vtime.add (Rf_sim.Engine.now engine) (Rf_sim.Vtime.span_s s))
         engine)
  in
  run_for 1.0;
  let vm = Rf_routeflow.Vm.create engine ~dpid:1L ~n_ports:2 () in
  Rf_routeflow.Vm.add_on_flows_changed vm
    (Rf_routeflow.Rf_controller_app.sync_flows app ~dpid:1L vm);
  let eth1 = Rf_routeflow.Vm.nic vm 1 in
  Rf_routing.Iface.set_transmit eth1 (fun _ -> ());
  Rf_routing.Iface.set_transmit (Rf_routeflow.Vm.nic vm 2) (fun _ -> ());
  (match
     Rf_routeflow.Vm.apply_zebra_config vm
       "hostname vm-1\npassword x\n!\ninterface eth1\n ip address \
        172.16.0.1/24\n!\ninterface eth2\n ip address 172.16.1.1/24\n!\n"
   with
  | Ok () -> ()
  | Error e -> failwith e);
  let hop h = ip (Printf.sprintf "172.16.0.%d" h) in
  List.iter
    (fun h ->
      let mac = Mac.make_local (9700 + h) in
      Rf_routing.Iface.deliver eth1
        (Packet.arp ~src:mac ~dst:(Rf_routing.Iface.mac eth1)
           (Arp.reply ~sender_mac:mac ~sender_ip:(hop h)
              ~target_mac:(Rf_routing.Iface.mac eth1)
              ~target_ip:(ip "172.16.0.1"))))
    [ 2; 3 ];
  let route i h =
    {
      Rf_routing.Rib.r_prefix =
        Ipv4_addr.Prefix.make (Ipv4_addr.of_octets 10 (i / 256) (i mod 256) 0) 24;
      r_proto = Rf_routing.Rib.Ospf;
      r_distance = 110;
      r_metric = 20;
      r_next_hop = Some (hop h);
      r_iface = "eth1";
    }
  in
  let rib = Rf_routeflow.Vm.rib vm in
  for i = 0 to 999 do
    Rf_routing.Rib.update rib (route i 2)
  done;
  run_for 1.0;
  let flip = ref false in
  fun () ->
    flip := not !flip;
    Rf_routing.Rib.update rib (route 500 (if !flip then 3 else 2));
    run_for 0.02

(* A data slice's flow-mod relayed by FlowVisor toward a switch behind
   a tap that drops flow-mods, so the step times FlowVisor's relay (the
   slice channel's delivery, the policy check on the match, the xid
   rewrite and the send) rather than the switch's table. *)
let flowvisor_relay_fixture () =
  let engine = Rf_sim.Engine.create () in
  let fv = Rf_flowvisor.Flowvisor.create engine in
  let slice = ref None in
  Rf_flowvisor.Flowvisor.add_slice fv
    (Rf_flowvisor.Flowspace.data_slice ~name:"data")
    ~attach:(fun ~dpid:_ endpoint ->
      Rf_net.Channel.set_receiver endpoint ignore;
      slice := Some endpoint);
  let dp = Rf_net.Datapath.create engine ~dpid:1L ~n_ports:2 in
  let fv_end, tap_a = Rf_net.Channel.create engine () in
  let tap_b, sw_end = Rf_net.Channel.create engine () in
  let ofpt_flow_mod = 14 in
  Rf_net.Channel.set_receiver tap_a (fun m ->
      if Char.code m.[1] <> ofpt_flow_mod then Rf_net.Channel.send tap_b m);
  Rf_net.Channel.set_receiver tap_b (Rf_net.Channel.send tap_a);
  ignore (Rf_net.Of_agent.create engine dp sw_end);
  Rf_flowvisor.Flowvisor.switch_attach fv ~dpid:1L fv_end;
  ignore (Rf_sim.Engine.run ~until:(Rf_sim.Vtime.of_s 1.0) engine);
  let slice =
    match !slice with
    | Some s -> s
    | None -> failwith "flowvisor_relay_fixture: no slice connection"
  in
  let wire =
    Rf_openflow.Of_codec.to_wire
      (Rf_openflow.Of_msg.msg ~xid:7l
         (Rf_openflow.Of_msg.Flow_mod
            (Rf_openflow.Of_msg.flow_add
               ~priority:(0x4000 + (24 * 64))
               (Rf_openflow.Of_match.nw_dst_prefix (pfx "10.1.0.0/24"))
               [
                 Rf_openflow.Of_action.Set_dl_src (Mac.make_local 1);
                 Rf_openflow.Of_action.Set_dl_dst (Mac.make_local 2);
                 Rf_openflow.Of_action.output 2;
               ])))
  in
  fun () ->
    Rf_net.Channel.send slice wire;
    ignore
      (Rf_sim.Engine.run
         ~until:
           (Rf_sim.Vtime.add (Rf_sim.Engine.now engine)
              (Rf_sim.Vtime.span_ms 5))
         engine)

let trie_fixture () =
  let trie = Rf_routing.Prefix_trie.create () in
  let rng = Rf_sim.Rng.create 11 in
  for _ = 1 to 10_000 do
    let addr = Ipv4_addr.of_int32 (Int32.of_int (Rf_sim.Rng.int rng 0x3FFFFFFF)) in
    let len = 8 + Rf_sim.Rng.int rng 17 in
    Rf_routing.Prefix_trie.insert trie (Ipv4_addr.Prefix.make addr len) len
  done;
  trie

let flow_table_fixture () =
  let engine = Rf_sim.Engine.create () in
  let table = Rf_net.Flow_table.create () in
  let now = Rf_sim.Engine.now engine in
  for i = 0 to 999 do
    let prefix =
      Ipv4_addr.Prefix.make (Ipv4_addr.of_octets 10 (i lsr 8) (i land 0xff) 0) 24
    in
    let fm =
      Rf_openflow.Of_msg.flow_add
        ~priority:(0x4000 + (i land 0xff))
        (Rf_openflow.Of_match.nw_dst_prefix prefix)
        [ Rf_openflow.Of_action.output ((i mod 16) + 1) ]
    in
    ignore (Rf_net.Flow_table.apply_flow_mod table ~now fm)
  done;
  table

let sample_udp_frame =
  Packet.udp ~src_mac:(Mac.make_local 1) ~dst_mac:(Mac.make_local 2)
    ~src_ip:(ip "10.0.1.2") ~dst_ip:(ip "10.0.200.2")
    (Udp.make ~src_port:5004 ~dst_port:1234 (String.make 1200 'v'))

(* One switch hop as a RouteFlow ring switch makes it: a 54-entry table
   (28 host /24s and 26 link /30s, the routes of one switch on a
   28-ring), every entry rewriting both MACs and forwarding, and a
   no-op link on the output port. *)
let forward_hop_fixture () =
  let engine = Rf_sim.Engine.create () in
  let dp = Rf_net.Datapath.create engine ~dpid:1L ~n_ports:3 in
  List.iter
    (fun port -> Rf_net.Datapath.set_transmit dp ~port (fun _ -> ()))
    [ 2; 3 ];
  let route prefix port =
    Rf_openflow.Of_msg.flow_add
      (Rf_openflow.Of_match.nw_dst_prefix (pfx prefix))
      [
        Rf_openflow.Of_action.Set_dl_src (Mac.make_local 100);
        Rf_openflow.Of_action.Set_dl_dst (Mac.make_local 200);
        Rf_openflow.Of_action.output port;
      ]
  in
  let install fm =
    match Rf_net.Datapath.handle_flow_mod dp fm with
    | Ok () -> ()
    | Error _ -> failwith "forward_hop_fixture: flow-mod refused"
  in
  for i = 1 to 28 do
    install (route (Printf.sprintf "10.0.%d.0/24" i) (2 + (i mod 2)))
  done;
  for i = 1 to 26 do
    install (route (Printf.sprintf "172.16.%d.0/30" (4 * i)) (2 + (i mod 2)))
  done;
  let frame =
    Packet.udp ~src_mac:(Mac.make_local 1) ~dst_mac:(Mac.make_local 2)
      ~src_ip:(ip "10.0.1.2") ~dst_ip:(ip "10.0.14.2")
      (Udp.make ~src_port:5004 ~dst_port:1234 (String.make 18 'p'))
  in
  fun () -> Rf_net.Datapath.receive_frame dp ~in_port:1 frame

let sample_flow_mod_wire =
  Rf_openflow.Of_codec.to_wire
    (Rf_openflow.Of_msg.msg
       (Rf_openflow.Of_msg.Flow_mod
          (Rf_openflow.Of_msg.flow_add
             (Rf_openflow.Of_match.nw_dst_prefix (pfx "10.0.7.0/24"))
             [
               Rf_openflow.Of_action.Set_dl_src (Mac.make_local 77);
               Rf_openflow.Of_action.Set_dl_dst (Mac.make_local 78);
               Rf_openflow.Of_action.output 3;
             ])))

let sample_lldp_wire =
  let w = Wire.Writer.create () in
  Lldp.write w (Lldp.discovery_probe ~dpid:42L ~port:7);
  Wire.Writer.contents w

let sample_lsa_body =
  Ospf_pkt.Router
    {
      links =
        List.init 8 (fun i ->
            {
              Ospf_pkt.link_id = ip (Printf.sprintf "10.255.0.%d" (i + 2));
              link_data = ip (Printf.sprintf "172.16.%d.1" i);
              link_type = Ospf_pkt.Point_to_point;
              metric = 10;
            });
    }

(* Encodes and checksums the LSA, then finds the shared instance. *)
let make_sample_lsa () =
  Ospf_pkt.make_lsa ~age:1 ~options:2 ~link_state_id:(ip "10.255.0.1")
    ~adv_router:(ip "10.255.0.1") ~seq:Ospf_pkt.initial_seq sample_lsa_body

(* Telemetry substrate: spans, counters and histogram observes sit on
   every hot path now, so their cost must stay in the noise. *)
let obs_fixture () =
  let m = Rf_obs.Metrics.create () in
  let tracer = Rf_obs.Tracer.create () in
  let c = Rf_obs.Metrics.counter m "bench_counter_total" in
  let h = Rf_obs.Metrics.histogram m "bench_seconds" in
  (m, tracer, c, h)

(* Forwarding-state auditor on a 28-switch ring (the E9 scale): one
   host subnet per switch, RouteFlow-style flow tables (dl_type 0x800 +
   nw_dst /24, MAC rewrites, one output) pointing the short way round.
   The steady-state unit of work is one flow-mod that reroutes a single
   remote prefix between the two ring directions (an add replacing the
   identical entry): both variants deliver, so the incremental path
   re-walks only the affected (class, switch) pairs and opens no
   windows. *)
let audit_ring = 28

(* Switch [i]'s flow for the prefix of switch [j]; [flip] sends it the
   long way round when [j] is [i]'s clockwise neighbour. *)
let audit_flow ~flip i j =
  let n = audit_ring in
  let fwd = (j - i + n) mod n and bwd = (i - j + n) mod n in
  let port = if fwd <= bwd then 1 else 2 in
  let port = if flip && j = (i mod n) + 1 then 3 - port else port in
  Rf_openflow.Of_msg.flow_add
    ~priority:(0x4000 + (24 * 64))
    (Rf_openflow.Of_match.nw_dst_prefix (pfx (Printf.sprintf "10.0.%d.0/24" j)))
    [
      Rf_openflow.Of_action.Set_dl_src Mac.zero;
      Rf_openflow.Of_action.Set_dl_dst Mac.zero;
      Rf_openflow.Of_action.output port;
    ]

let apply_flow table fm =
  match Rf_net.Flow_table.apply_flow_mod table ~now:Rf_sim.Vtime.zero fm with
  | Ok change -> change
  | Error e -> failwith e

(* The auditor and switch 1's table. *)
let audit_fixture () =
  let au = Rf_net.Auditor.create () in
  let n = audit_ring in
  let tables =
    Array.init n (fun k ->
        let i = k + 1 and table = Rf_net.Flow_table.create () in
        for j = 1 to n do
          if j <> i then ignore (apply_flow table (audit_flow ~flip:false i j))
        done;
        table)
  in
  Array.iteri
    (fun k table -> Rf_net.Auditor.add_switch au (Int64.of_int (k + 1)) table)
    tables;
  for i = 1 to n do
    let j = (i mod n) + 1 in
    Rf_net.Auditor.add_link au
      ~a:(Int64.of_int i, 1)
      ~b:(Int64.of_int j, 2)
  done;
  for i = 1 to n do
    Rf_net.Auditor.add_host au ~dpid:(Int64.of_int i) ~port:3
      (pfx (Printf.sprintf "10.0.%d.0/24" i))
  done;
  (au, tables.(0))

(* One probe round trip, [sent] then [delivered], on a measurement
   plane holding [n] registered flows. *)
let measure_roundtrip_fixture n =
  let module Measure = Rf_traffic.Measure in
  let engine = Rf_sim.Engine.create () in
  let m = Measure.create engine ~loss_timeout_s:1.0 () in
  let flows =
    Array.init n (fun _ -> Measure.register_flow m ~cls:"web" ~src:"a" ~dst:"b")
  in
  let f = flows.(n / 2) in
  let flow_id = Measure.flow_id f in
  let seq = ref 0 in
  fun () ->
    incr seq;
    Measure.sent m f ~seq:!seq ~weight:1 ~bytes:100;
    Measure.delivered m ~flow_id ~seq:!seq

let micro_tests () =
  let open Bechamel in
  let _obs_m, obs_tracer, obs_c, obs_h = obs_fixture () in
  let spf_daemon = spf_fixture () in
  (* Steady-state SPF work unit: a far-end router's LSA flaps between
     two link metrics each iteration, so the incremental path repairs a
     small subtree while the full-recompute oracle row rebuilds the
     whole 24-router tree from the LSDB. *)
  let flap_rid = ip "10.255.0.22" in
  let flap_lsa =
    List.find
      (fun (l : Ospf_pkt.lsa) -> Ipv4_addr.compare l.adv_router flap_rid = 0)
      (Rf_routing.Ospfd.lsdb spf_daemon)
  in
  (* Both instances are built once, so the rows time SPF, not the LSA
     encoder; [install_lsa] takes an instance whatever its sequence. *)
  let flap_instance seq metric =
    let body =
      match flap_lsa.Ospf_pkt.body with
      | Ospf_pkt.Router { links } ->
          Ospf_pkt.Router
            {
              links =
                List.map
                  (fun (l : Ospf_pkt.router_link) ->
                    match l.link_type with
                    | Ospf_pkt.Point_to_point -> { l with metric }
                    | _ -> l)
                  links;
            }
      | b -> b
    in
    Ospf_pkt.make_lsa ~age:flap_lsa.age ~options:flap_lsa.options
      ~link_state_id:flap_lsa.link_state_id ~adv_router:flap_lsa.adv_router
      ~seq:(Int32.add flap_lsa.seq seq) body
  in
  let flap_lsas = [| flap_instance 1l 11; flap_instance 2l 10 |] in
  let flap_up = ref false in
  let flap_install () =
    flap_up := not !flap_up;
    Rf_routing.Ospfd.install_lsa spf_daemon
      flap_lsas.(if !flap_up then 0 else 1)
  in
  let trie = trie_fixture () in
  let table = flow_table_fixture () in
  let key =
    match Rf_openflow.Of_match.key_of_frame ~in_port:1 sample_udp_frame with
    | Some k -> k
    | None -> failwith "sample_udp_frame: no key"
  in
  (* One route's churn on the 1k table: add a new /24, delete it. *)
  let churn_now = Rf_sim.Vtime.zero in
  let churn_match = Rf_openflow.Of_match.nw_dst_prefix (pfx "10.4.0.0/24") in
  let churn_add =
    Rf_openflow.Of_msg.flow_add churn_match
      [ Rf_openflow.Of_action.output 1 ]
  in
  let churn_delete =
    Rf_openflow.Of_msg.flow_delete ~strict:true
      ~priority:churn_add.fm_priority churn_match
  in
  let rib = Rf_routing.Rib.create () in
  let churn_route =
    {
      Rf_routing.Rib.r_prefix = pfx "10.1.2.0/24";
      r_proto = Rf_routing.Rib.Ospf;
      r_distance = 110;
      r_metric = 30;
      r_next_hop = Some (ip "172.16.0.2");
      r_iface = "eth1";
    }
  in
  [
    Test.make ~name:"spf_24_routers"
      (Staged.stage (fun () ->
           flap_install ();
           ignore (Rf_routing.Ospfd.spf_now spf_daemon)));
    Test.make ~name:"spf_24_routers_full"
      (Staged.stage (fun () ->
           flap_install ();
           ignore (Rf_routing.Ospfd.spf_now_full spf_daemon)));
    Test.make ~name:"spf_incr_leaf_join_50"
      (Staged.stage (leaf_join_fixture 50));
    Test.make ~name:"spf_incr_leaf_join_250"
      (Staged.stage (leaf_join_fixture 250));
    Test.make ~name:"flow_export_1k_one_change"
      (Staged.stage (flow_export_fixture ()));
    Test.make ~name:"flowvisor_relay_flow_mod"
      (Staged.stage (flowvisor_relay_fixture ()));
    Test.make ~name:"lpm_lookup_10k_prefixes"
      (Staged.stage (fun () ->
           ignore (Rf_routing.Prefix_trie.lookup trie (ip "10.57.3.9"))));
    Test.make ~name:"flow_table_lookup_1k_entries"
      (Staged.stage (fun () -> ignore (Rf_net.Flow_table.lookup table key)));
    Test.make ~name:"flow_table_lookup_1k_linear"
      (Staged.stage (fun () ->
           ignore (Rf_net.Flow_table.lookup_linear table key)));
    Test.make ~name:"flow_mod_churn_1k"
      (Staged.stage (fun () ->
           ignore
             (Rf_net.Flow_table.apply_flow_mod table ~now:churn_now churn_add);
           ignore
             (Rf_net.Flow_table.apply_flow_mod table ~now:churn_now
                churn_delete)));
    Test.make ~name:"datapath_forward_hop"
      (Staged.stage (forward_hop_fixture ()));
    Test.make ~name:"of_flow_mod_decode_alloc"
      (Staged.stage (fun () ->
           match Rf_openflow.Of_codec.of_wire sample_flow_mod_wire with
           | Ok _ -> ()
           | Error e -> failwith e));
    Test.make ~name:"packet_parse_udp_1200B_alloc"
      (Staged.stage (fun () ->
           match Packet.parse sample_udp_frame with
           | Ok _ -> ()
           | Error e -> failwith e));
    Test.make ~name:"lldp_probe_decode"
      (Staged.stage (fun () ->
           match Lldp.read (Wire.Reader.of_string sample_lldp_wire) with
           | Ok l -> ignore (Lldp.parse_discovery l)
           | Error e -> failwith e));
    Test.make ~name:"lsa_encode_fletcher"
      (Staged.stage (fun () -> ignore (make_sample_lsa ())));
    Test.make ~name:"rib_update_withdraw"
      (Staged.stage (fun () ->
           Rf_routing.Rib.update rib churn_route;
           Rf_routing.Rib.withdraw rib Rf_routing.Rib.Ospf churn_route.Rf_routing.Rib.r_prefix));
    Test.make ~name:"measure_probe_roundtrip_100k"
      (Staged.stage (measure_roundtrip_fixture 100_000));
    Test.make ~name:"obs_counter_incr"
      (Staged.stage (fun () -> Rf_obs.Metrics.incr obs_c));
    Test.make ~name:"obs_histogram_observe"
      (Staged.stage (fun () -> Rf_obs.Metrics.observe obs_h 0.042));
    Test.make ~name:"obs_span_start_end"
      (Staged.stage (fun () ->
           let sp = Rf_obs.Tracer.span_start obs_tracer "bench.span" in
           Rf_obs.Tracer.span_end obs_tracer sp));
    Test.make ~name:"audit_update_incremental"
      (Staged.stage
         (let au, table = audit_fixture () in
          let flip = ref false in
          fun () ->
            flip := not !flip;
            let left, entered = apply_flow table (audit_flow ~flip:!flip 1 2) in
            Rf_net.Auditor.table_changed au 1L ~left ~entered));
    Test.make ~name:"audit_full_recheck"
      (Staged.stage
         (let au, _ = audit_fixture () in
          fun () -> Rf_net.Auditor.full_recheck au));
    (* Engine dispatch with and without a profiler installed. Each run
       is a single event, so the profiled row carries the whole run
       envelope (run_begin/run_end, final GC sample) on top of the
       per-event tick — an upper bound, not the amortized cost. *)
    Test.make ~name:"engine_dispatch"
      (Staged.stage
         (let e = Rf_sim.Engine.create () in
          let nop () = () in
          fun () ->
            ignore (Rf_sim.Engine.schedule e (Rf_sim.Vtime.span_us 1) nop);
            ignore (Rf_sim.Engine.run e)));
    (* Dispatch against a 1,000-deep queue: every event reschedules
       itself at the next of 4,096 seeded random delays and stops the
       run, so each run is one pop and one push at constant depth. *)
    Test.make ~name:"engine_dispatch_depth_1k"
      (Staged.stage
         (let e = Rf_sim.Engine.create () in
          let rng = Rf_sim.Engine.rng e in
          let delays =
            Array.init 4096 (fun _ ->
                Rf_sim.Vtime.span_us (1 + Rf_sim.Rng.int rng 10_000))
          in
          let next = ref 0 in
          let delay () =
            next := (!next + 1) land 4095;
            delays.(!next)
          in
          let rec tick () =
            ignore (Rf_sim.Engine.schedule e (delay ()) tick);
            Rf_sim.Engine.stop e
          in
          for _ = 1 to 1000 do
            ignore (Rf_sim.Engine.schedule e (delay ()) tick)
          done;
          fun () -> ignore (Rf_sim.Engine.run e)));
    Test.make ~name:"engine_dispatch_profiled"
      (Staged.stage
         (let e = Rf_sim.Engine.create () in
          Rf_sim.Engine.set_profiler e (Some (Rf_obs.Profiler.create ()));
          let ent = Rf_obs.Profiler.component "bench" in
          let nop () = () in
          fun () ->
            ignore
              (Rf_sim.Engine.schedule ~entity:ent e (Rf_sim.Vtime.span_us 1)
                 nop);
            ignore (Rf_sim.Engine.run e)));
  ]

(* Machine-readable results, schema "rfauto-bench-v1" (documented in
   README): {"schema", "meta": {"schema_version","seed","suite"},
   "suites": {"micro": [{"name","mean_ns","runs"}]}}. mean_ns is the
   OLS ns/run estimate (null if the fit failed), runs the number of
   raw samples bechamel collected. The meta block pins provenance so a
   baseline diff can refuse to compare apples to oranges. *)
let bench_schema_version = 1

(* Engine fixtures use Engine.create's default seed; rng-driven
   fixtures derive from it. *)
let bench_seed = 42

let write_bench_json path ~suite rows samples_of =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\"schema\":\"rfauto-bench-v1\",";
  Buffer.add_string buf
    (Printf.sprintf
       "\"meta\":{\"schema_version\":%d,\"seed\":%d,\"suite\":\"%s\"},"
       bench_schema_version bench_seed suite);
  Buffer.add_string buf "\"suites\":{\"micro\":[";
  List.iteri
    (fun i (name, est) ->
      if i > 0 then Buffer.add_char buf ',';
      let short =
        match String.index_opt name '/' with
        | Some j -> String.sub name (j + 1) (String.length name - j - 1)
        | None -> name
      in
      let mean =
        match est with
        | Some v when Float.is_finite v -> Printf.sprintf "%.1f" v
        | Some _ | None -> "null"
      in
      Buffer.add_string buf
        (Printf.sprintf "{\"name\":\"%s\",\"mean_ns\":%s,\"runs\":%d}" short
           mean (samples_of name)))
    rows;
  Buffer.add_string buf "]}}\n";
  Out_channel.with_open_text path (fun oc -> Buffer.output_buffer oc buf);
  Format.fprintf std "bench json written to %s@." path

let short_name name =
  match String.index_opt name '/' with
  | Some j -> String.sub name (j + 1) (String.length name - j - 1)
  | None -> name

(* CI gate tolerance: microbenchmark OLS estimates on shared runners
   jitter well beyond the 10% experiment default, so the band is wide
   (35% relative, 200 ns absolute floor); only real slowdowns — like a
   fast path silently falling back to its oracle — clear it. *)
let bench_tolerance = { Rf_obs.Baseline.tol_rel = 0.35; tol_abs = 200.0 }

let baseline_run_of_estimates estimates =
  {
    Rf_obs.Baseline.run_label = "bench-micro";
    indicators =
      List.filter_map
        (fun (name, est) ->
          match est with
          | Some v when Float.is_finite v ->
              Some
                {
                  Rf_obs.Baseline.i_name = short_name name;
                  i_value = v;
                  i_unit = "ns";
                  i_lower_is_better = true;
                }
          | Some _ | None -> None)
        estimates;
  }

let run_micro ?json_out ?baseline ?save_baseline () =
  let open Bechamel in
  Format.fprintf std "=== Microbenchmarks (bechamel) ===@.";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let tests = Test.make_grouped ~name:"micro" ~fmt:"%s/%s" (micro_tests ()) in
  (* Jitter control: one short discarded pass first (pages in code,
     warms caches and the minor heap), then measure, retrying with a
     doubled quota until every row has a sample floor to regress the
     OLS fit on. *)
  let warm_cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 0.05) () in
  ignore (Benchmark.all warm_cfg instances tests);
  let min_samples = 25 in
  let rec measure attempt quota =
    let cfg =
      Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~kde:(Some 1000) ()
    in
    let raw = Benchmark.all cfg instances tests in
    let enough =
      Hashtbl.fold
        (fun _ (b : Benchmark.t) acc -> acc && b.stats.samples >= min_samples)
        raw true
    in
    if enough || attempt >= 3 then raw else measure (attempt + 1) (2.0 *. quota)
  in
  let raw = measure 1 0.5 in
  let results = List.map (fun instance -> Analyze.all ols instance raw) instances in
  let merged = Analyze.merge ols instances results in
  let clock =
    Hashtbl.find merged (Measure.label Toolkit.Instance.monotonic_clock)
  in
  let rows =
    Hashtbl.fold (fun name v acc -> (name, v) :: acc) clock []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  Format.fprintf std "%-40s %16s@." "benchmark" "ns/run";
  let estimates =
    List.map
      (fun (name, v) ->
        let est =
          match Analyze.OLS.estimates v with
          | Some [ est ] ->
              Format.fprintf std "%-40s %16.1f@." name est;
              Some est
          | Some _ | None ->
              Format.fprintf std "%-40s %16s@." name "-";
              None
        in
        (name, est))
      rows
  in
  (match json_out with
  | None -> ()
  | Some path ->
      let samples_of name =
        match Hashtbl.find_opt raw name with
        | Some (b : Benchmark.t) -> b.stats.samples
        | None -> 0
      in
      write_bench_json path ~suite:"micro" estimates samples_of);
  let current = baseline_run_of_estimates estimates in
  (match save_baseline with
  | None -> ()
  | Some path ->
      Rf_obs.Baseline.save path current;
      Format.fprintf std "bench baseline written to %s@." path);
  match baseline with
  | None -> ()
  | Some path ->
      let base = Rf_obs.Baseline.load path in
      let entries =
        Rf_obs.Baseline.diff ~tol:bench_tolerance ~base ~current ()
      in
      Format.fprintf std "@.=== Perf gate vs %s ===@." path;
      Rf_obs.Baseline.pp_diff std entries;
      (* A row on one side only means the suite and the baseline have
         drifted apart; that fails the gate like a regression does. *)
      let stale =
        List.exists
          (fun (e : Rf_obs.Baseline.entry) ->
            match e.e_status with
            | Rf_obs.Baseline.Added | Removed -> true
            | Ok | Improved | Regressed -> false)
          entries
      in
      if Rf_obs.Baseline.has_regression entries then begin
        Format.fprintf std "perf gate: REGRESSED@.";
        exit 3
      end
      else if stale then begin
        Format.fprintf std
          "perf gate: STALE (suite and baseline rows differ; refresh with \
           --save-baseline)@.";
        exit 3
      end
      else Format.fprintf std "perf gate: ok@."

let () =
  (* --json writes the run's estimates, --baseline diffs the run against
     a saved rfauto-baseline-v1 file and exits 3 on a regression or on
     a row present on one side only, --save-baseline refreshes that
     file. *)
  let json_out = ref None in
  let baseline = ref None in
  let save_baseline = ref None in
  let argc = Array.length Sys.argv in
  let rec parse i =
    if i < argc then
      match Sys.argv.(i) with
      | "--json" when i + 1 < argc ->
          json_out := Some Sys.argv.(i + 1);
          parse (i + 2)
      | "--baseline" when i + 1 < argc ->
          baseline := Some Sys.argv.(i + 1);
          parse (i + 2)
      | "--save-baseline" when i + 1 < argc ->
          save_baseline := Some Sys.argv.(i + 1);
          parse (i + 2)
      | other ->
          Format.eprintf
            "unknown argument %S (use --json PATH, --baseline PATH, \
             --save-baseline PATH)@."
            other;
          exit 2
  in
  parse 1;
  run_micro ?json_out:!json_out ?baseline:!baseline
    ?save_baseline:!save_baseline ()
