(* End-to-end tests of the full framework: emulated switches behind
   FlowVisor, LLDP discovery, RPC, VM creation, Quagga config files,
   OSPF convergence in the virtual environment, and flow programming
   down to real packet delivery between hosts. *)

module Topology = Rf_net.Topology
module Topo_gen = Rf_net.Topo_gen
module Host = Rf_net.Host
module Scenario = Rf_core.Scenario
module Rf_system = Rf_routeflow.Rf_system
module Vm = Rf_routeflow.Vm
module Vtime = Rf_sim.Vtime

(* Ring of n switches with a host on switch 1 and another on switch
   [far]. *)
let ring_with_hosts n far =
  let topo = Topo_gen.ring n in
  Topology.add_host topo "server";
  Topology.add_host topo "client";
  ignore (Topology.connect topo (Topology.Host "server") (Topology.Switch 1L));
  ignore
    (Topology.connect topo (Topology.Host "client")
       (Topology.Switch (Int64.of_int far)));
  topo

let quick_params =
  {
    Rf_system.vm_boot_time = Vtime.span_s 2.0;
    parallel_boot = 1;
    config_apply_delay = Vtime.span_ms 200;
    routing_protocol = Rf_system.Proto_ospf;
  }

let quick_options =
  { Scenario.default_options with rf_params = quick_params }

let test_discovery_finds_everything () =
  let topo = Topo_gen.ring 6 in
  let s = Scenario.build ~options:quick_options topo in
  Scenario.run_for s (Vtime.span_s 10.0);
  let disc = Scenario.discovery s in
  Alcotest.(check int)
    "switches" 6
    (List.length (Rf_controller.Discovery.switches disc));
  Alcotest.(check int) "links" 6 (List.length (Rf_controller.Discovery.links disc))

let test_all_switches_turn_green () =
  let topo = Topo_gen.ring 4 in
  let s = Scenario.build ~options:quick_options topo in
  Scenario.run_for s (Vtime.span_s 60.0);
  Alcotest.(check bool) "all green" true (Rf_core.Gui.all_green (Scenario.gui s));
  match Scenario.all_configured_at s with
  | None -> Alcotest.fail "no all-green time"
  | Some at ->
      (* 4 serialized boots at 2 s plus discovery and RPC overhead. *)
      if Vtime.to_s at < 8.0 || Vtime.to_s at > 30.0 then
        Alcotest.fail (Printf.sprintf "implausible config time %.1fs" (Vtime.to_s at))

let test_vm_mirrors_switch () =
  let topo = Topo_gen.ring 4 in
  let s = Scenario.build ~options:quick_options topo in
  Scenario.run_for s (Vtime.span_s 60.0);
  let rf = Scenario.rf_system s in
  List.iter
    (fun dpid ->
      match Rf_system.vm rf dpid with
      | None -> Alcotest.fail (Printf.sprintf "no VM for switch %Ld" dpid)
      | Some vm ->
          Alcotest.(check string)
            "hostname" (Printf.sprintf "vm-%Ld" dpid) (Vm.hostname vm);
          Alcotest.(check int) "port count" 2 (Vm.n_ports vm))
    (Topology.switches topo)

let test_config_files_written () =
  let topo = Topo_gen.ring 4 in
  let s = Scenario.build ~options:quick_options topo in
  Scenario.run_for s (Vtime.span_s 60.0);
  match Rf_system.vm (Scenario.rf_system s) 1L with
  | None -> Alcotest.fail "no VM"
  | Some vm -> (
      match (Vm.config_file vm "zebra.conf", Vm.config_file vm "ospfd.conf") with
      | Some z, Some o ->
          Alcotest.(check bool) "zebra has interface" true
            (Astring_contains.contains z "interface eth");
          Alcotest.(check bool) "ospfd has router" true
            (Astring_contains.contains o "router ospf");
          (* Round-trip through the parser. *)
          (match Rf_routing.Quagga_conf.parse_zebra z with
          | Ok c ->
              Alcotest.(check int) "parsed ifaces" 2
                (List.length c.Rf_routing.Quagga_conf.z_ifaces)
          | Error e -> Alcotest.fail e);
          (match Rf_routing.Quagga_conf.parse_ospfd o with
          | Ok c ->
              Alcotest.(check bool) "parsed networks" true
                (List.length c.Rf_routing.Quagga_conf.o_networks >= 2)
          | Error e -> Alcotest.fail e)
      | _ -> Alcotest.fail "config files missing")

let test_ospf_converges_in_virtual_env () =
  let topo = Topo_gen.ring 4 in
  let s = Scenario.build ~options:quick_options topo in
  Scenario.run_for s (Vtime.span_s 120.0);
  (match Scenario.routing_converged_at s with
  | None -> Alcotest.fail "routing never converged"
  | Some _ -> ());
  List.iter
    (fun (_, vm) ->
      match Vm.ospfd vm with
      | None -> Alcotest.fail "no ospfd"
      | Some d ->
          Alcotest.(check int) "full neighbors" 2 (Rf_routing.Ospfd.full_neighbor_count d))
    (Rf_system.vms (Scenario.rf_system s))

let test_video_stream_delivered () =
  let topo = ring_with_hosts 6 4 in
  let s = Scenario.build ~options:quick_options topo in
  let server = Scenario.host s "server" in
  let client = Scenario.host s "client" in
  let stream =
    Host.start_udp_stream server ~dst:(Scenario.host_ip s "client")
      ~dst_port:1234 ~period:(Vtime.span_ms 500) ~payload_size:200 ()
  in
  Scenario.run_for s (Vtime.span_s 180.0);
  Host.stop_stream stream;
  Alcotest.(check bool) "client got data" true (Host.udp_received client > 0);
  match Host.first_udp_rx_time client with
  | None -> Alcotest.fail "no first packet time"
  | Some at ->
      let secs = Vtime.to_s at in
      if secs > 120.0 then
        Alcotest.fail (Printf.sprintf "video took too long: %.1fs" secs)

let test_flows_installed_on_switches () =
  let topo = ring_with_hosts 4 3 in
  let s = Scenario.build ~options:quick_options topo in
  let server = Scenario.host s "server" in
  ignore
    (Host.start_udp_stream server ~dst:(Scenario.host_ip s "client")
       ~dst_port:1234 ~period:(Vtime.span_ms 500) ~payload_size:100 ());
  Scenario.run_for s (Vtime.span_s 120.0);
  (* Every switch must carry OSPF-derived flow entries by now. *)
  List.iter
    (fun (dpid, dp) ->
      let entries = Rf_net.Flow_table.size (Rf_net.Datapath.flow_table dp) in
      if entries = 0 then
        Alcotest.fail (Printf.sprintf "switch %Ld has no flows" dpid))
    (Rf_net.Network.datapaths (Scenario.network s))

let test_rpc_traffic_flows () =
  let topo = Topo_gen.ring 4 in
  let s = Scenario.build ~options:quick_options topo in
  Scenario.run_for s (Vtime.span_s 60.0);
  let sent = Rf_rpc.Rpc_client.sent (Scenario.rpc_client s) in
  let handled = Rf_rpc.Rpc_server.requests_handled (Scenario.rpc_server s) in
  (* 4 switch-up + 4 link-up at minimum. *)
  Alcotest.(check bool) "client sent >= 8" true (sent >= 8);
  Alcotest.(check int) "server handled all" sent handled;
  Alcotest.(check int) "nothing unacked" 0
    (Rf_rpc.Rpc_client.unacked (Scenario.rpc_client s))

let test_flowvisor_isolates_slices () =
  let topo = Topo_gen.ring 4 in
  let s = Scenario.build ~options:quick_options topo in
  Scenario.run_for s (Vtime.span_s 60.0);
  let fv = Scenario.flowvisor s in
  Alcotest.(check (list string))
    "slices" [ "topology"; "routeflow" ]
    (Rf_flowvisor.Flowvisor.slices fv);
  Alcotest.(check int) "no denied flow-mods" 0
    (Rf_flowvisor.Flowvisor.denied_flow_mods fv "routeflow");
  Alcotest.(check bool) "topology slice traffic" true
    (Rf_flowvisor.Flowvisor.messages_to_slice fv "topology" > 0);
  Alcotest.(check bool) "routeflow slice traffic" true
    (Rf_flowvisor.Flowvisor.messages_to_slice fv "routeflow" > 0)

let test_link_failure_detected () =
  let topo = Topo_gen.ring 5 in
  let s = Scenario.build ~options:quick_options topo in
  Scenario.run_for s (Vtime.span_s 60.0);
  let links_before =
    List.length (Rf_controller.Discovery.links (Scenario.discovery s))
  in
  Rf_net.Network.set_link_up (Scenario.network s) (Topology.Switch 1L)
    (Topology.Switch 2L) false;
  Scenario.run_for s (Vtime.span_s 60.0);
  let links_after =
    List.length (Rf_controller.Discovery.links (Scenario.discovery s))
  in
  Alcotest.(check int) "one link aged out" (links_before - 1) links_after

let test_ping_through_configured_network () =
  let topo = ring_with_hosts 5 3 in
  let s = Scenario.build ~options:quick_options topo in
  Scenario.run_for s (Vtime.span_s 60.0);
  (* Network is configured; now ping end to end. The echo request and
     reply both cross rewritten hardware flows (after the slow path
     resolves the hosts). *)
  let server = Scenario.host s "server" in
  let replies = ref 0 in
  Host.set_echo_handler server (fun ~src:_ ~seq:_ -> incr replies);
  for seq = 1 to 5 do
    ignore
      (Rf_sim.Engine.schedule (Scenario.engine s)
         (Vtime.span_s (float_of_int seq))
         (fun () -> Host.ping server ~dst:(Scenario.host_ip s "client") ~seq))
  done;
  Scenario.run_for s (Vtime.span_s 60.0);
  Alcotest.(check bool) "echo replies received" true (!replies >= 4)

let test_demo_scale_pan_european () =
  (* The full E2 configuration run (no video) on the real demo topology
     with paper-speed boots, as a regression guard on the headline
     number: all green within 4 minutes. *)
  let topo = Rf_net.Topo_gen.pan_european () in
  let s = Scenario.build topo in
  Scenario.run_for s (Vtime.span_s 300.0);
  match Scenario.all_configured_at s with
  | Some at ->
      if Vtime.to_s at > 240.0 then
        Alcotest.fail (Printf.sprintf "too slow: %.0fs" (Vtime.to_s at))
  | None -> Alcotest.fail "did not configure in 5 minutes"

let test_switch_crash_destroys_vm () =
  let topo = Topo_gen.ring 4 in
  let s = Scenario.build ~options:quick_options topo in
  Scenario.run_for s (Vtime.span_s 30.0);
  Alcotest.(check bool) "vm exists" true
    (Rf_system.is_configured (Scenario.rf_system s) 2L);
  (* Crash switch 2's control connection: FlowVisor tears down the
     slice connections, discovery reports switch-down, the RPC carries
     it, and the RF-server destroys the VM. *)
  Rf_net.Network.disconnect_switch (Scenario.network s) 2L;
  Scenario.run_for s (Vtime.span_s 30.0);
  Alcotest.(check bool) "vm destroyed" false
    (Rf_system.is_configured (Scenario.rf_system s) 2L);
  (* Its links age out of the discovered topology too. *)
  let links = Rf_controller.Discovery.links (Scenario.discovery s) in
  Alcotest.(check int) "links without sw2" 2 (List.length links)

let test_switch_reconnect_heals () =
  let topo = Topo_gen.ring 4 in
  let s = Scenario.build ~options:quick_options topo in
  Scenario.run_for s (Vtime.span_s 30.0);
  Rf_net.Network.disconnect_switch (Scenario.network s) 3L;
  Scenario.run_for s (Vtime.span_s 30.0);
  Alcotest.(check bool) "vm gone" false
    (Rf_system.is_configured (Scenario.rf_system s) 3L);
  (* The switch comes back: rediscovery treats it as a new join and the
     whole pipeline reruns — VM recreated, links re-reported, OSPF
     reconverges. *)
  Rf_net.Network.reconnect_switch (Scenario.network s) 3L;
  Scenario.run_for s (Vtime.span_s 60.0);
  Alcotest.(check bool) "vm recreated" true
    (Rf_system.is_configured (Scenario.rf_system s) 3L);
  Alcotest.(check int) "all links rediscovered" 4
    (List.length (Rf_controller.Discovery.links (Scenario.discovery s)));
  match Rf_system.vm (Scenario.rf_system s) 3L with
  | Some vm ->
      (* The recreated VM converges again. *)
      Alcotest.(check bool) "routes back" true
        (Rf_routing.Rib.size (Rf_routeflow.Vm.rib vm) >= Scenario.total_subnets s)
  | None -> Alcotest.fail "vm missing"

let test_fast_reroute_on_link_failure () =
  let topo = ring_with_hosts 6 4 in
  let s = Scenario.build ~options:quick_options topo in
  let server = Scenario.host s "server" in
  let client = Scenario.host s "client" in
  ignore
    (Host.start_udp_stream server ~dst:(Scenario.host_ip s "client")
       ~dst_port:5004 ~period:(Vtime.span_ms 100) ~payload_size:200 ());
  Scenario.run_for s (Vtime.span_s 60.0);
  let before = Host.udp_received client in
  Alcotest.(check bool) "flowing" true (before > 0);
  (* Fail a core link. Port-status reaches discovery instantly, the
     Link_down RPC downs the VM NICs, OSPF re-originates, and traffic
     must shift to the other ring arc well inside the 40 s dead
     interval. *)
  Rf_net.Network.set_link_up (Scenario.network s) (Topology.Switch 2L)
    (Topology.Switch 3L) false;
  Scenario.run_for s (Vtime.span_s 15.0);
  let after_window = Host.udp_received client in
  (* 150 datagrams were sent in the window; at least half must arrive
     (loss limited to the reconvergence seconds). *)
  Alcotest.(check bool) "rerouted quickly" true (after_window - before >= 75)

(* X1's state is O(N^2): N routers hold about N routes each. A 20-switch
   ring, set up as X1 sets up its rings, runs to convergence; the words
   the scenario keeps reachable (its live data, whatever else the test
   process holds) are divided by its (router, route) pairs. The count
   depends on what the run keeps, not on the host, so the bound sits
   just above the measured 475.4 words (626.6 before LSAs were shared,
   addresses made immediate and flow entries compacted) and the
   per-route constant cannot creep back. *)
let test_live_words_per_route () =
  let n = 20 in
  let options =
    { Scenario.default_options with probe_interval = Vtime.span_s 30.0 }
  in
  let s = Scenario.build ~options (Topo_gen.ring n) in
  Scenario.run_for s (Vtime.span_s ((8.0 *. float_of_int n) +. 180.));
  Alcotest.(check bool) "converged" true
    (Scenario.routing_converged_at s <> None);
  let pairs =
    List.fold_left
      (fun acc (_, vm) -> acc + Rf_routing.Rib.size (Vm.rib vm))
      0
      (Rf_system.vms (Scenario.rf_system s))
  in
  Alcotest.(check int) "every router routes to every link" (n * n) pairs;
  let words =
    float_of_int (Obj.reachable_words (Obj.repr s)) /. float_of_int pairs
  in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f live words per (router, route) pair" words)
    true (words < 487.)

let suite =
  [
    Alcotest.test_case "discovery finds all switches and links" `Quick
      test_discovery_finds_everything;
    Alcotest.test_case "all switches turn green" `Quick test_all_switches_turn_green;
    Alcotest.test_case "VM mirrors switch identity and ports" `Quick
      test_vm_mirrors_switch;
    Alcotest.test_case "Quagga config files written and parseable" `Quick
      test_config_files_written;
    Alcotest.test_case "OSPF converges in the virtual environment" `Quick
      test_ospf_converges_in_virtual_env;
    Alcotest.test_case "video stream reaches the remote client" `Quick
      test_video_stream_delivered;
    Alcotest.test_case "flows installed on all switches" `Quick
      test_flows_installed_on_switches;
    Alcotest.test_case "RPC messages sent, handled, acked" `Quick
      test_rpc_traffic_flows;
    Alcotest.test_case "FlowVisor slices isolated" `Quick
      test_flowvisor_isolates_slices;
    Alcotest.test_case "link failure ages out of discovery" `Quick
      test_link_failure_detected;
    Alcotest.test_case "ping works through the configured network" `Quick
      test_ping_through_configured_network;
    Alcotest.test_case "pan-European configures within 4 minutes" `Quick
      test_demo_scale_pan_european;
    Alcotest.test_case "switch crash destroys its VM" `Quick
      test_switch_crash_destroys_vm;
    Alcotest.test_case "switch reconnect heals automatically" `Quick
      test_switch_reconnect_heals;
    Alcotest.test_case "link failure reroutes inside the dead interval" `Quick
      test_fast_reroute_on_link_failure;
    Alcotest.test_case "live words per (router, route) pair" `Quick
      test_live_words_per_route;
  ]
