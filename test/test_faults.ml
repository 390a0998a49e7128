(* The deterministic fault-injection layer: planned link cuts, switch
   crashes and VM clone failures driven through a full scenario, the
   lossy control-channel profile at the Of_conn level, and the
   replayability guarantee (same seed, byte-identical trace). *)

module Topology = Rf_net.Topology
module Topo_gen = Rf_net.Topo_gen
module Host = Rf_net.Host
module Scenario = Rf_core.Scenario
module Rf_system = Rf_routeflow.Rf_system
module Vm = Rf_routeflow.Vm
module Faults = Rf_sim.Faults
module Vtime = Rf_sim.Vtime
module Engine = Rf_sim.Engine

let ring_with_hosts n far =
  let topo = Topo_gen.ring n in
  Topology.add_host topo "server";
  Topology.add_host topo "client";
  ignore (Topology.connect topo (Topology.Host "server") (Topology.Switch 1L));
  ignore
    (Topology.connect topo (Topology.Host "client")
       (Topology.Switch (Int64.of_int far)));
  topo

let fast_params =
  {
    Rf_system.vm_boot_time = Vtime.span_s 2.0;
    parallel_boot = 4;
    config_apply_delay = Vtime.span_ms 200;
    routing_protocol = Rf_system.Proto_ospf;
  }

let options ?(seed = 42) ?rpc_params faults =
  let base =
    { Scenario.default_options with seed; rf_params = fast_params; faults }
  in
  match rpc_params with
  | None -> base
  | Some rpc_params -> { base with rpc_params }

(* Iface facing the other end of a switch-switch edge, as the VM names
   it. *)
let facing_iface topo a b =
  match Topology.edge_between topo (Topology.Switch a) (Topology.Switch b) with
  | None -> Alcotest.fail (Printf.sprintf "no edge sw%Ld-sw%Ld" a b)
  | Some e -> (
      match e.Topology.a with
      | Topology.Switch d when Int64.equal d a ->
          (Printf.sprintf "eth%d" e.Topology.a_port, Printf.sprintf "eth%d" e.Topology.b_port)
      | Topology.Switch _ | Topology.Host _ ->
          (Printf.sprintf "eth%d" e.Topology.b_port, Printf.sprintf "eth%d" e.Topology.a_port))

let vm_uses_iface s dpid iface =
  match Rf_system.vm (Scenario.rf_system s) dpid with
  | None -> Alcotest.fail (Printf.sprintf "no VM for sw%Ld" dpid)
  | Some vm ->
      List.exists
        (fun (r : Rf_routing.Rib.route) -> String.equal r.r_iface iface)
        (Rf_routing.Rib.selected (Vm.rib vm))

(* --- planned link failure ------------------------------------------- *)

let test_link_down_reconverges () =
  let topo = ring_with_hosts 6 4 in
  let opts = options Faults.(plan [ link_down ~at_s:30.0 2L 3L ]) in
  let s = Scenario.build ~options:opts topo in
  let server = Scenario.host s "server" in
  let client = Scenario.host s "client" in
  ignore
    (Host.start_udp_stream server ~dst:(Scenario.host_ip s "client")
       ~dst_port:5004 ~period:(Vtime.span_ms 100) ~payload_size:500 ());
  Scenario.run_for s (Vtime.span_s 90.0);
  Alcotest.(check int) "one fault fired" 1 (Scenario.fault_events_fired s);
  (match Scenario.last_fault_at s with
  | Some at -> Alcotest.(check (float 0.001)) "fired on time" 30.0 (Vtime.to_s at)
  | None -> Alcotest.fail "fault did not fire");
  (match Scenario.reconverged_at s with
  | None -> Alcotest.fail "routes never settled after the cut"
  | Some at ->
      if Vtime.to_s at < 30.0 || Vtime.to_s at > 60.0 then
        Alcotest.fail
          (Printf.sprintf "implausible reconvergence time %.1fs" (Vtime.to_s at)));
  (* The surviving routes must not point into the dead link. *)
  let iface_2, iface_3 = facing_iface topo 2L 3L in
  Alcotest.(check bool) "vm-2 avoids dead link" false (vm_uses_iface s 2L iface_2);
  Alcotest.(check bool) "vm-3 avoids dead link" false (vm_uses_iface s 3L iface_3);
  (* Traffic found the backup arc. *)
  let received = Host.udp_received client in
  Scenario.run_for s (Vtime.span_s 10.0);
  let delta = Host.udp_received client - received in
  if delta < 80 then
    Alcotest.fail (Printf.sprintf "stream did not recover (%d/100 datagrams)" delta)

let test_link_flap_recovers () =
  let topo = ring_with_hosts 6 4 in
  let opts =
    options
      Faults.(plan [ link_down ~at_s:30.0 2L 3L; link_up ~at_s:45.0 2L 3L ])
  in
  let s = Scenario.build ~options:opts topo in
  Scenario.run_for s (Vtime.span_s 120.0);
  Alcotest.(check int) "both faults fired" 2 (Scenario.fault_events_fired s);
  (* After the link returns, every VM sees the full set of subnets
     again and sw2 routes across the restored link once more. *)
  let subnets = Scenario.total_subnets s in
  List.iter
    (fun (dpid, vm) ->
      let n = Rf_routing.Rib.size (Vm.rib vm) in
      if n < subnets then
        Alcotest.fail
          (Printf.sprintf "vm-%Ld has %d/%d routes after recovery" dpid n subnets))
    (Rf_system.vms (Scenario.rf_system s));
  let iface_2, _ = facing_iface topo 2L 3L in
  Alcotest.(check bool) "vm-2 routes via restored link" true
    (vm_uses_iface s 2L iface_2)

(* --- switch crash and recovery --------------------------------------- *)

let test_switch_crash_recover () =
  let topo = Topo_gen.ring 4 in
  let opts =
    options Faults.(plan [ switch_crash ~at_s:30.0 3L; switch_recover ~at_s:40.0 3L ])
  in
  let s = Scenario.build ~options:opts topo in
  Scenario.run_for s (Vtime.span_s 120.0);
  Alcotest.(check int) "both faults fired" 2 (Scenario.fault_events_fired s);
  Alcotest.(check int) "all switches configured" 4
    (Rf_system.configured_count (Scenario.rf_system s));
  Alcotest.(check bool) "sw3 has a VM again" true
    (Rf_system.is_configured (Scenario.rf_system s) 3L);
  let subnets = Scenario.total_subnets s in
  List.iter
    (fun (dpid, vm) ->
      let n = Rf_routing.Rib.size (Vm.rib vm) in
      if n < subnets then
        Alcotest.fail
          (Printf.sprintf "vm-%Ld has %d/%d routes after recovery" dpid n subnets))
    (Rf_system.vms (Scenario.rf_system s))

(* --- VM clone failures ------------------------------------------------ *)

let test_vm_boot_failure_retries () =
  let topo = Topo_gen.ring 4 in
  let opts =
    options Faults.(plan [ vm_boot_failure ~at_s:0.0 ~dpid:2L ~failures:2 ])
  in
  let s = Scenario.build ~options:opts topo in
  Scenario.run_for s (Vtime.span_s 90.0);
  Alcotest.(check int) "two clone failures injected" 2
    (Rf_system.boot_failures_injected (Scenario.rf_system s));
  (match Scenario.all_configured_at s with
  | None -> Alcotest.fail "retries never produced a VM for sw2"
  | Some _ -> ());
  Alcotest.(check bool) "sw2 configured despite failures" true
    (Rf_system.is_configured (Scenario.rf_system s) 2L)

(* --- controller crash, restart and anti-entropy ----------------------- *)

(* Supervision tuned so the whole park/revive cycle fits a short run. *)
let restart_rpc_params resync =
  {
    Rf_rpc.Rpc_client.rto = Vtime.span_s 0.5;
    rto_max = Vtime.span_s 4.0;
    max_retries = 3;
    heartbeat_every = Vtime.span_s 1.0;
    heartbeat_jitter = 0.0;
    dead_after = 3;
    resync;
  }

(* The RF-controller is down for t=4s..20s and the sw2-sw3 link dies at
   t=8s, so the Link_down config event has no live session to land in. *)
let controller_outage_faults =
  Faults.(
    plan
      [
        controller_crash ~at_s:4.0 ();
        link_down ~at_s:8.0 2L 3L;
        controller_recover ~at_s:20.0 ();
      ])

let run_outage ~resync =
  let topo = ring_with_hosts 6 4 in
  let opts =
    options ~rpc_params:(restart_rpc_params resync) controller_outage_faults
  in
  let s = Scenario.build ~options:opts topo in
  Scenario.run_for s (Vtime.span_s 60.0);
  (topo, s)

let test_controller_crash_reconciles () =
  let topo, s = run_outage ~resync:true in
  Alcotest.(check int) "all faults fired" 3 (Scenario.fault_events_fired s);
  let client = Scenario.rpc_client s in
  let server = Scenario.rpc_server s in
  Alcotest.(check int32) "server restarted once" 2l
    (Rf_rpc.Rpc_server.incarnation server);
  Alcotest.(check int) "one snapshot received" 1
    (Rf_rpc.Rpc_server.snapshots_received server);
  Alcotest.(check int) "nothing left unacknowledged" 0
    (Rf_rpc.Rpc_client.unacked client);
  Alcotest.(check int) "no frames stuck in the reorder buffer" 0
    (Rf_rpc.Rpc_server.dedup_size server);
  (* The snapshot told the reborn controller about the dead link: both
     ends stopped routing into it. *)
  let iface_2, iface_3 = facing_iface topo 2L 3L in
  Alcotest.(check bool) "vm-2 avoids dead link" false (vm_uses_iface s 2L iface_2);
  Alcotest.(check bool) "vm-3 avoids dead link" false (vm_uses_iface s 3L iface_3);
  (* Every VM still reaches every surviving subnet (the dead link's /30
     is legitimately gone). *)
  let want = Scenario.total_subnets s - 1 in
  List.iter
    (fun (dpid, vm) ->
      let n = Rf_routing.Rib.size (Vm.rib vm) in
      if n < want then
        Alcotest.fail
          (Printf.sprintf "vm-%Ld has %d/%d routes after reconciliation" dpid n
             want))
    (Rf_system.vms (Scenario.rf_system s))

let test_controller_crash_legacy_loses () =
  let topo, s = run_outage ~resync:false in
  let client = Scenario.rpc_client s in
  (* The legacy session never resyncs: the parked Link_down is lost and
     the reborn controller keeps routing over a link that no longer
     exists. *)
  Alcotest.(check bool) "link-down frame abandoned" true
    (Rf_rpc.Rpc_client.unacked client > 0);
  Alcotest.(check int) "no snapshot without resync" 0
    (Rf_rpc.Rpc_server.snapshots_received (Scenario.rpc_server s));
  let iface_2, _ = facing_iface topo 2L 3L in
  Alcotest.(check bool) "vm-2 still routes into the dead link" true
    (vm_uses_iface s 2L iface_2)

let trace_of_outage_run seed =
  let topo = ring_with_hosts 6 4 in
  let faults =
    Faults.(
      plan
        ~rpc_faults:(lossy ~drop:0.1 ~duplicate:0.05 ~delay:0.05 ())
        [
          controller_crash ~at_s:4.0 ();
          link_down ~at_s:8.0 2L 3L;
          controller_recover ~at_s:20.0 ();
        ])
  in
  let s =
    Scenario.build
      ~options:(options ~seed ~rpc_params:(restart_rpc_params true) faults)
      topo
  in
  Scenario.run_for s (Vtime.span_s 60.0);
  Format.asprintf "%a" Engine.pp_trace (Scenario.engine s)

let test_controller_crash_replays () =
  let a = trace_of_outage_run 9 in
  let b = trace_of_outage_run 9 in
  Alcotest.(check bool) "trace is non-trivial" true (String.length a > 1000);
  Alcotest.(check bool) "byte-identical replay" true (String.equal a b);
  let c = trace_of_outage_run 10 in
  Alcotest.(check bool) "different seeds diverge" false (String.equal a c)

(* --- lossy control channel at the Of_conn level ----------------------- *)

(* An Of_conn talking to a raw peer endpoint; the peer counts the
   messages it receives. *)
let conn_with_peer engine =
  let conn_end, peer_end =
    Rf_net.Channel.create engine ~latency:(Vtime.span_ms 1) ()
  in
  let conn = Rf_controller.Of_conn.create engine conn_end in
  let received = ref [] in
  Rf_net.Channel.set_receiver peer_end (fun bytes ->
      match Rf_openflow.Of_codec.of_wire bytes with
      | Ok m -> received := !received @ [ m ]
      | Error e -> Alcotest.fail e);
  (conn, received)

let run_ms engine ms =
  ignore (Engine.run ~until:(Vtime.add (Engine.now engine) (Vtime.span_ms ms)) engine)

let count_payload received p =
  List.length
    (List.filter (fun (m : Rf_openflow.Of_msg.t) -> m.payload = p) !received)

let test_chan_drop_all () =
  let engine = Engine.create ~seed:1 () in
  let conn, received = conn_with_peer engine in
  run_ms engine 10;
  (* Hello went out before the profile was armed. *)
  Alcotest.(check int) "hello arrives" 1
    (count_payload received Rf_openflow.Of_msg.Hello);
  Rf_controller.Of_conn.set_fault_profile conn
    (Rf_sim.Rng.create 7)
    (Faults.lossy ~drop:1.0 ~duplicate:0.0 ~delay:0.0 ());
  Rf_controller.Of_conn.send_msg conn
    (Rf_openflow.Of_msg.msg Rf_openflow.Of_msg.Barrier_request);
  Rf_controller.Of_conn.send_msg conn
    (Rf_openflow.Of_msg.msg Rf_openflow.Of_msg.Barrier_request);
  (* Handshake openers are exempt from drop. *)
  Rf_controller.Of_conn.send_msg conn
    (Rf_openflow.Of_msg.msg Rf_openflow.Of_msg.Features_request);
  run_ms engine 10;
  Alcotest.(check int) "barriers dropped" 0
    (count_payload received Rf_openflow.Of_msg.Barrier_request);
  Alcotest.(check int) "features-request exempt" 1
    (count_payload received Rf_openflow.Of_msg.Features_request);
  Alcotest.(check int) "drop counter" 2
    (Rf_controller.Of_conn.messages_dropped conn)

let test_chan_duplicate_all () =
  let engine = Engine.create ~seed:1 () in
  let conn, received = conn_with_peer engine in
  run_ms engine 10;
  Rf_controller.Of_conn.set_fault_profile conn
    (Rf_sim.Rng.create 7)
    (Faults.lossy ~drop:0.0 ~duplicate:1.0 ~delay:0.0 ());
  Rf_controller.Of_conn.send_msg conn
    (Rf_openflow.Of_msg.msg Rf_openflow.Of_msg.Barrier_request);
  run_ms engine 10;
  Alcotest.(check int) "barrier duplicated" 2
    (count_payload received Rf_openflow.Of_msg.Barrier_request);
  Alcotest.(check int) "duplicate counter" 1
    (Rf_controller.Of_conn.messages_duplicated conn)

let test_chan_delay_all () =
  let engine = Engine.create ~seed:1 () in
  let conn, received = conn_with_peer engine in
  run_ms engine 10;
  Rf_controller.Of_conn.set_fault_profile conn
    (Rf_sim.Rng.create 7)
    (Faults.lossy ~drop:0.0 ~duplicate:0.0 ~delay:1.0 ~max_delay:(Vtime.span_ms 50) ());
  Rf_controller.Of_conn.send_msg conn
    (Rf_openflow.Of_msg.msg Rf_openflow.Of_msg.Barrier_request);
  (* The delay span is drawn from [0, 50ms); after the full window plus
     channel latency the message must have arrived exactly once. *)
  run_ms engine 60;
  Alcotest.(check int) "delivered exactly once, late" 1
    (count_payload received Rf_openflow.Of_msg.Barrier_request);
  Alcotest.(check int) "delay counter" 1
    (Rf_controller.Of_conn.messages_delayed conn)

(* --- replayability ----------------------------------------------------- *)

let trace_of_run seed =
  let topo = ring_with_hosts 4 3 in
  let faults =
    Faults.(
      plan
        ~control_faults:(lossy ~drop:0.15 ~duplicate:0.05 ~delay:0.1 ())
        [ link_down ~at_s:25.0 1L 2L; link_up ~at_s:35.0 1L 2L ])
  in
  let s = Scenario.build ~options:(options ~seed faults) topo in
  let server = Scenario.host s "server" in
  ignore
    (Host.start_udp_stream server ~dst:(Scenario.host_ip s "client")
       ~dst_port:5004 ~period:(Vtime.span_ms 200) ~payload_size:200 ());
  Scenario.run_for s (Vtime.span_s 50.0);
  Format.asprintf "%a" Engine.pp_trace (Scenario.engine s)

let test_same_seed_same_trace () =
  let a = trace_of_run 5 in
  let b = trace_of_run 5 in
  Alcotest.(check bool) "trace is non-trivial" true (String.length a > 1000);
  Alcotest.(check bool) "byte-identical replay" true (String.equal a b)

let test_different_seed_diverges () =
  let a = trace_of_run 5 in
  let b = trace_of_run 6 in
  Alcotest.(check bool) "different seeds diverge" false (String.equal a b)

(* No pinned experiment arms a channel profile, so these MD5s are what
   hold the per-frame fault path byte-stable: the order of draws, and
   when a duplicated or delayed frame goes out. *)
let test_lossy_traces_pinned () =
  let md5 s = Digest.to_hex (Digest.string s) in
  Alcotest.(check string) "lossy rpc outage, seed 9" "fc4d225c0181d579271b0a931f8bc464"
    (md5 (trace_of_outage_run 9));
  Alcotest.(check string) "lossy control channel, seed 5"
    "a718e50e61809609a3a48f3d2eb065cc"
    (md5 (trace_of_run 5))

(* --- fate draws -------------------------------------------------------- *)

let test_fate_distribution_deterministic () =
  let profile = Faults.lossy ~drop:0.3 ~duplicate:0.2 ~delay:0.2 () in
  let draws seed =
    let rng = Rf_sim.Rng.create seed in
    List.init 200 (fun _ -> Faults.fate rng profile)
  in
  Alcotest.(check bool) "same seed, same fates" true (draws 11 = draws 11);
  Alcotest.(check bool) "different seed, different fates" false
    (draws 11 = draws 12);
  let counts fates =
    List.fold_left
      (fun (d, du, de, ok) -> function
        | Faults.Drop -> (d + 1, du, de, ok)
        | Faults.Duplicate -> (d, du + 1, de, ok)
        | Faults.Delay _ -> (d, du, de + 1, ok)
        | Faults.Deliver -> (d, du, de, ok + 1))
      (0, 0, 0, 0) fates
  in
  let d, du, de, ok = counts (draws 11) in
  (* 200 draws at 30/20/20/30%: each bucket must at least show up. *)
  Alcotest.(check bool) "all fates occur" true (d > 0 && du > 0 && de > 0 && ok > 0);
  Alcotest.(check int) "draws partition" 200 (d + du + de + ok)

let suite =
  [
    Alcotest.test_case "link down: stream reroutes, routes avoid link" `Slow
      test_link_down_reconverges;
    Alcotest.test_case "link flap: full route coverage returns" `Slow
      test_link_flap_recovers;
    Alcotest.test_case "switch crash + recover reconfigures" `Slow
      test_switch_crash_recover;
    Alcotest.test_case "vm clone failures are retried" `Quick
      test_vm_boot_failure_retries;
    Alcotest.test_case "controller crash: snapshot reconciles lost events" `Slow
      test_controller_crash_reconciles;
    Alcotest.test_case "controller crash: legacy rpc loses the link-down" `Slow
      test_controller_crash_legacy_loses;
    Alcotest.test_case "controller crash replays byte-identically" `Slow
      test_controller_crash_replays;
    Alcotest.test_case "of_conn drop profile" `Quick test_chan_drop_all;
    Alcotest.test_case "of_conn duplicate profile" `Quick test_chan_duplicate_all;
    Alcotest.test_case "of_conn delay profile" `Quick test_chan_delay_all;
    Alcotest.test_case "same seed replays byte-identical trace" `Slow
      test_same_seed_same_trace;
    Alcotest.test_case "lossy channel traces are pinned" `Slow
      test_lossy_traces_pinned;
    Alcotest.test_case "different seeds diverge" `Slow
      test_different_seed_diverges;
    Alcotest.test_case "fate draws are seeded and exhaustive" `Quick
      test_fate_distribution_deterministic;
  ]
