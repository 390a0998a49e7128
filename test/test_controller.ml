(* Controller-side tests: the Of_conn handshake driver and the LLDP
   discovery module, exercised against real emulated switches. *)

open Rf_openflow
module Topology = Rf_net.Topology
module Topo_gen = Rf_net.Topo_gen
module Network = Rf_net.Network
module Channel = Rf_net.Channel
module Datapath = Rf_net.Datapath
module Of_agent = Rf_net.Of_agent
module Of_conn = Rf_controller.Of_conn
module Discovery = Rf_controller.Discovery
module Engine = Rf_sim.Engine
module Vtime = Rf_sim.Vtime

let attach_switch engine dpid n_ports =
  let dp = Datapath.create engine ~dpid ~n_ports in
  let sw_end, ctl_end = Channel.create engine () in
  let _agent = Of_agent.create engine dp sw_end in
  (dp, ctl_end)

let test_of_conn_handshake () =
  let engine = Engine.create () in
  let _dp, ctl_end = attach_switch engine 7L 4 in
  let conn = Of_conn.create engine ctl_end in
  let done_ = ref None in
  Of_conn.set_on_handshake conn (fun f -> done_ := Some f);
  ignore (Engine.run ~until:(Vtime.of_s 2.0) engine);
  match !done_ with
  | Some f ->
      Alcotest.(check int64) "dpid" 7L f.Of_msg.datapath_id;
      Alcotest.(check bool) "dpid accessor" true (Of_conn.dpid conn = Some 7L)
  | None -> Alcotest.fail "handshake did not complete"

let test_of_conn_late_handshake_callback () =
  let engine = Engine.create () in
  let _dp, ctl_end = attach_switch engine 9L 2 in
  let conn = Of_conn.create engine ctl_end in
  ignore (Engine.run ~until:(Vtime.of_s 2.0) engine);
  (* Installing the callback after completion still fires it. *)
  let fired = ref false in
  Of_conn.set_on_handshake conn (fun _ -> fired := true);
  Alcotest.(check bool) "late callback fired" true !fired

(* A connection sends no keepalive: once the handshake is done an idle
   connection sends nothing, and its liveness is the channel's close.
   It still answers a peer's echo request, echoing xid and payload. *)
let test_of_conn_echo_keepalive () =
  let engine = Engine.create () in
  let _dp, ctl_end = attach_switch engine 3L 1 in
  let conn = Of_conn.create engine ctl_end in
  let sent =
    Rf_obs.Metrics.counter (Engine.metrics engine) "of_messages_sent_total"
  in
  ignore (Engine.run ~until:(Vtime.of_s 2.0) engine);
  Alcotest.(check bool) "handshake done" true (Of_conn.dpid conn = Some 3L);
  let after_handshake = Rf_obs.Metrics.counter_value sent in
  ignore (Engine.run ~until:(Vtime.of_s 60.0) engine);
  Alcotest.(check int) "idle connection sends nothing" after_handshake
    (Rf_obs.Metrics.counter_value sent);
  Alcotest.(check bool) "still open" true (Of_conn.is_open conn);
  let engine = Engine.create () in
  let peer, ctl_end = Channel.create engine () in
  let _conn = Of_conn.create engine ctl_end in
  let received = ref [] in
  Channel.set_receiver peer (fun bytes ->
      match Of_codec.of_wire bytes with
      | Ok m -> received := m :: !received
      | Error e -> Alcotest.fail e);
  Channel.send peer
    (Of_codec.to_wire (Of_msg.msg ~xid:42l (Of_msg.Echo_request "ping")));
  ignore (Engine.run ~until:(Vtime.of_s 1.0) engine);
  let replies =
    List.filter_map
      (fun (m : Of_msg.t) ->
        match m.payload with
        | Of_msg.Echo_reply data -> Some (m.xid, data)
        | _ -> None)
      !received
  in
  Alcotest.(check (list (pair int32 string)))
    "echo answered" [ (42l, "ping") ] replies

(* Build a discovery instance watching a whole emulated network,
   without FlowVisor (direct attachment). *)
let discovery_over engine topo =
  let disc = Discovery.create engine ~probe_interval:(Vtime.span_s 2.0) () in
  let net =
    Network.build engine topo
      ~host_config:(fun _ -> Alcotest.fail "no hosts here")
      ~attach_controller:(fun ~dpid:_ endpoint ->
        Discovery.attach disc (Of_conn.create engine endpoint))
      ()
  in
  (disc, net)

let test_discovery_full_topology () =
  let engine = Engine.create () in
  let topo = Topo_gen.grid 3 3 in
  let disc, _net = discovery_over engine topo in
  ignore (Engine.run ~until:(Vtime.of_s 10.0) engine);
  Alcotest.(check int) "switches" 9 (List.length (Discovery.switches disc));
  Alcotest.(check int) "links" 12 (List.length (Discovery.links disc));
  (* Each discovered link corresponds to a topology edge. *)
  List.iter
    (fun (l : Discovery.link) ->
      match
        Topology.edge_between topo (Topology.Switch l.Discovery.la_dpid)
          (Topology.Switch l.Discovery.lb_dpid)
      with
      | Some _ -> ()
      | None ->
          Alcotest.fail
            (Format.asprintf "phantom link %a" Discovery.pp_link l))
    (Discovery.links disc)

let test_discovery_events_fire_once () =
  let engine = Engine.create () in
  let topo = Topo_gen.ring 5 in
  let disc = Discovery.create engine ~probe_interval:(Vtime.span_s 2.0) () in
  let sw_events = ref 0 and link_events = ref 0 in
  Discovery.set_on_switch_up disc (fun _ _ -> incr sw_events);
  Discovery.set_on_link_up disc (fun _ -> incr link_events);
  let _net =
    Network.build engine topo
      ~host_config:(fun _ -> Alcotest.fail "no hosts")
      ~attach_controller:(fun ~dpid:_ endpoint ->
        Discovery.attach disc (Of_conn.create engine endpoint))
      ()
  in
  ignore (Engine.run ~until:(Vtime.of_s 30.0) engine);
  (* Despite many probe rounds, each link is reported exactly once. *)
  Alcotest.(check int) "switch events" 5 !sw_events;
  Alcotest.(check int) "link events" 5 !link_events

let test_discovery_link_ages_out () =
  let engine = Engine.create () in
  let topo = Topo_gen.ring 4 in
  let disc = Discovery.create engine ~probe_interval:(Vtime.span_s 2.0) () in
  let downs = ref [] in
  Discovery.set_on_link_down disc (fun l -> downs := l :: !downs);
  let net =
    Network.build engine topo
      ~host_config:(fun _ -> Alcotest.fail "no hosts")
      ~attach_controller:(fun ~dpid:_ endpoint ->
        Discovery.attach disc (Of_conn.create engine endpoint))
      ()
  in
  ignore (Engine.run ~until:(Vtime.of_s 10.0) engine);
  Alcotest.(check int) "all links" 4 (List.length (Discovery.links disc));
  Network.set_link_up net (Topology.Switch 1L) (Topology.Switch 2L) false;
  ignore (Engine.run ~until:(Vtime.of_s 30.0) engine);
  Alcotest.(check int) "one fewer" 3 (List.length (Discovery.links disc));
  match !downs with
  | [ l ] ->
      Alcotest.(check int64) "a side" 1L l.Discovery.la_dpid;
      Alcotest.(check int64) "b side" 2L l.Discovery.lb_dpid
  | _ -> Alcotest.fail "expected exactly one link-down"

let test_discovery_link_recovers () =
  let engine = Engine.create () in
  let topo = Topo_gen.ring 4 in
  let disc = Discovery.create engine ~probe_interval:(Vtime.span_s 2.0) () in
  let ups = ref 0 in
  Discovery.set_on_link_up disc (fun _ -> incr ups);
  let net =
    Network.build engine topo
      ~host_config:(fun _ -> Alcotest.fail "no hosts")
      ~attach_controller:(fun ~dpid:_ endpoint ->
        Discovery.attach disc (Of_conn.create engine endpoint))
      ()
  in
  ignore (Engine.run ~until:(Vtime.of_s 10.0) engine);
  Network.set_link_up net (Topology.Switch 1L) (Topology.Switch 2L) false;
  ignore (Engine.run ~until:(Vtime.of_s 30.0) engine);
  Network.set_link_up net (Topology.Switch 1L) (Topology.Switch 2L) true;
  ignore (Engine.run ~until:(Vtime.of_s 45.0) engine);
  Alcotest.(check int) "links back" 4 (List.length (Discovery.links disc));
  Alcotest.(check int) "re-reported" 5 !ups

(* The link timeout follows the probe interval: at 30 s probes a
   healthy link must never age out between two probe rounds. *)
let test_discovery_slow_probes_no_flap () =
  let engine = Engine.create () in
  let topo = Topo_gen.ring 6 in
  let disc = Discovery.create engine ~probe_interval:(Vtime.span_s 30.0) () in
  let downs = ref 0 in
  Discovery.set_on_link_down disc (fun _ -> incr downs);
  let _net =
    Network.build engine topo
      ~host_config:(fun _ -> Alcotest.fail "no hosts")
      ~attach_controller:(fun ~dpid:_ endpoint ->
        Discovery.attach disc (Of_conn.create engine endpoint))
      ()
  in
  ignore (Engine.run ~until:(Vtime.of_s 40.0) engine);
  Alcotest.(check int) "all links" 6 (List.length (Discovery.links disc));
  let probes = Discovery.probes_sent disc in
  ignore (Engine.run ~until:(Vtime.of_s 200.0) engine);
  (* 6 switches x 2 ports per round *)
  Alcotest.(check bool) "at least 4 more probe rounds" true
    (Discovery.probes_sent disc - probes >= 4 * 12);
  Alcotest.(check int) "no link-down" 0 !downs;
  Alcotest.(check int) "links kept" 6 (List.length (Discovery.links disc))

let test_discovery_counters () =
  let engine = Engine.create () in
  let topo = Topo_gen.ring 3 in
  let disc, _net = discovery_over engine topo in
  ignore (Engine.run ~until:(Vtime.of_s 20.0) engine);
  Alcotest.(check bool) "probes sent" true (Discovery.probes_sent disc > 10);
  Alcotest.(check bool) "lldp received" true (Discovery.lldp_received disc > 10);
  (* Timestamps available for every switch and link. *)
  List.iter
    (fun (d, _) ->
      Alcotest.(check bool) "switch ts" true (Discovery.switch_seen_at disc d <> None))
    (Discovery.switches disc);
  List.iter
    (fun l ->
      Alcotest.(check bool) "link ts" true (Discovery.link_seen_at disc l <> None))
    (Discovery.links disc)

let test_port_stats_through_flowvisor () =
  (* A third, packetless "monitor" slice carrying only port-stats
     requests: FlowVisor's xid translation must route every reply back,
     and to the right switch, so each switch's counters stay attributed
     even when two datapaths answer interleaved requests. *)
  let engine = Engine.create () in
  let fv = Rf_flowvisor.Flowvisor.create engine in
  let requests = ref 0 in
  let replies = Hashtbl.create 2 in
  Rf_flowvisor.Flowvisor.add_slice fv
    (Rf_flowvisor.Flowspace.make ~name:"monitor" [])
    ~attach:(fun ~dpid:_ endpoint ->
      let conn = Of_conn.create engine endpoint in
      Of_conn.set_on_handshake conn (fun feats ->
          let dpid = feats.Of_msg.datapath_id in
          Of_conn.set_on_message conn (fun (m : Of_msg.t) _wire ->
              match m.Of_msg.payload with
              | Of_msg.Stats_reply (Of_msg.Port_reply stats) ->
                  Hashtbl.add replies dpid stats
              | _ -> ());
          ignore
            (Engine.periodic engine (Vtime.span_s 5.0) (fun () ->
                 incr requests;
                 ignore
                   (Of_conn.send conn
                      (Of_msg.Stats_request (Of_msg.Port_req Of_port.none)))))));
  let mk_switch dpid traffic =
    let dp = Datapath.create engine ~dpid ~n_ports:2 in
    let sw_end, ctl_end = Channel.create engine () in
    let _agent = Of_agent.create engine dp sw_end in
    Rf_flowvisor.Flowvisor.switch_attach fv ~dpid ctl_end;
    (match
       Datapath.handle_flow_mod dp
         (Of_msg.flow_add Rf_openflow.Of_match.wildcard_all
            [ Rf_openflow.Of_action.output 2 ])
     with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "flow mod");
    Datapath.set_transmit dp ~port:2 (fun _ -> ());
    let frame =
      Rf_packet.Packet.udp ~src_mac:(Rf_packet.Mac.make_local 1)
        ~dst_mac:(Rf_packet.Mac.make_local 2)
        ~src_ip:(Rf_packet.Ipv4_addr.of_string_exn "1.1.1.1")
        ~dst_ip:(Rf_packet.Ipv4_addr.of_string_exn "2.2.2.2")
        (Rf_packet.Udp.make ~src_port:1 ~dst_port:2 (String.make 100 'x'))
    in
    for _ = 1 to traffic do
      Datapath.receive_frame dp ~in_port:1 frame
    done
  in
  mk_switch 21L 7;
  mk_switch 22L 3;
  ignore (Engine.run ~until:(Vtime.of_s 30.0) engine);
  Alcotest.(check bool) "requests through proxy" true (!requests >= 8);
  Alcotest.(check int) "all replies translated back" !requests
    (Hashtbl.length replies);
  (* xid translation preserved attribution: each switch's latest reply
     carries its own traffic, not the other's. *)
  let sum field dpid =
    List.fold_left
      (fun acc ps -> Int64.add acc (field ps))
      0L
      (Hashtbl.find replies dpid)
  in
  let rx (ps : Of_msg.port_stats) = ps.ps_rx_packets in
  let tx (ps : Of_msg.port_stats) = ps.ps_tx_packets in
  let rx_bytes (ps : Of_msg.port_stats) = ps.ps_rx_bytes in
  Alcotest.(check int64) "sw21 rx attributed" 7L (sum rx 21L);
  Alcotest.(check int64) "sw21 tx attributed" 7L (sum tx 21L);
  Alcotest.(check int64) "sw22 rx attributed" 3L (sum rx 22L);
  Alcotest.(check int64) "sw22 tx attributed" 3L (sum tx 22L);
  Alcotest.(check bool) "bytes counted" true (sum rx_bytes 22L > 300L)

let suite =
  [
    Alcotest.test_case "of_conn handshake" `Quick test_of_conn_handshake;
    Alcotest.test_case "of_conn late handshake callback" `Quick
      test_of_conn_late_handshake_callback;
    Alcotest.test_case "of_conn echo keepalive" `Quick test_of_conn_echo_keepalive;
    Alcotest.test_case "discovery maps a 3x3 grid" `Quick test_discovery_full_topology;
    Alcotest.test_case "discovery events fire once" `Quick
      test_discovery_events_fire_once;
    Alcotest.test_case "discovery ages out dead links" `Quick
      test_discovery_link_ages_out;
    Alcotest.test_case "discovery re-learns recovered links" `Quick
      test_discovery_link_recovers;
    Alcotest.test_case "discovery keeps links at 30 s probes" `Quick
      test_discovery_slow_probes_no_flap;
    Alcotest.test_case "discovery counters and timestamps" `Quick
      test_discovery_counters;
    Alcotest.test_case "port stats relayed through FlowVisor" `Quick
      test_port_stats_through_flowvisor;
  ]
