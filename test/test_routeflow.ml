(* RouteFlow substrate tests: VM behaviour, the virtual switch, the
   RF-controller app, and the RF-server's ordering guarantees. *)

open Rf_packet
open Rf_routeflow
module Iface = Rf_routing.Iface
module Rib = Rf_routing.Rib
module Engine = Rf_sim.Engine
module Vtime = Rf_sim.Vtime

let ip = Ipv4_addr.of_string_exn

let pfx = Ipv4_addr.Prefix.of_string_exn

let zebra_conf_text =
  "hostname vm-1\npassword x\n!\ninterface eth1\n ip address 172.16.0.1/30\n!\n\
   interface eth2\n ip address 10.0.1.1/24\n!\nline vty\n"

let ospfd_conf_text =
  "hostname vm-1\npassword x\n!\nrouter ospf\n ospf router-id 10.255.0.1\n\
   passive-interface eth2\n network 172.16.0.0/30 area 0.0.0.0\n\
   network 10.0.1.0/24 area 0.0.0.0\n timers ospf hello 10 dead 40\n!\nline vty\n"

let make_vm ?(n_ports = 2) engine =
  let vm = Vm.create engine ~dpid:1L ~n_ports () in
  (match Vm.apply_zebra_config vm zebra_conf_text with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (match Vm.apply_ospfd_config vm ospfd_conf_text with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  vm

let test_vm_identity () =
  let engine = Engine.create () in
  let vm = Vm.create engine ~dpid:9L ~n_ports:3 () in
  Alcotest.(check string) "hostname" "vm-9" (Vm.hostname vm);
  Alcotest.(check int) "ports" 3 (Vm.n_ports vm);
  Alcotest.(check string) "nic name" "eth2" (Iface.name (Vm.nic vm 2));
  Alcotest.(check bool) "unnumbered at boot" false (Iface.is_addressed (Vm.nic vm 1));
  Alcotest.check_raises "bad port" (Invalid_argument "Vm.nic: port 4 out of range")
    (fun () -> ignore (Vm.nic vm 4))

let test_vm_config_addresses_nics () =
  let engine = Engine.create () in
  let vm = make_vm engine in
  Alcotest.(check bool) "eth1 addressed" true
    (Ipv4_addr.equal (Iface.ip (Vm.nic vm 1)) (ip "172.16.0.1"));
  Alcotest.(check int) "eth1 len" 30 (Iface.prefix_len (Vm.nic vm 1));
  Alcotest.(check bool) "eth2 addressed" true
    (Ipv4_addr.equal (Iface.ip (Vm.nic vm 2)) (ip "10.0.1.1"));
  (* Connected routes present; ospfd booted. *)
  Alcotest.(check int) "two connected" 2 (Rib.size (Vm.rib vm));
  Alcotest.(check bool) "ospfd up" true (Vm.ospfd vm <> None);
  Alcotest.(check bool) "configs retrievable" true
    (Vm.config_file vm "zebra.conf" <> None && Vm.config_file vm "ospfd.conf" <> None)

let test_vm_answers_arp () =
  let engine = Engine.create () in
  let vm = make_vm engine in
  let nic2 = Vm.nic vm 2 in
  let replies = ref [] in
  Iface.set_transmit nic2 (fun f -> replies := f :: !replies);
  (* A host asks who-has 10.0.1.1. *)
  Iface.deliver nic2
    (Packet.arp ~src:(Mac.make_local 99) ~dst:Mac.broadcast
       (Arp.request ~sender_mac:(Mac.make_local 99) ~sender_ip:(ip "10.0.1.2")
          ~target_ip:(ip "10.0.1.1")));
  ignore (Engine.run ~until:(Vtime.of_s 1.0) engine);
  match !replies with
  | [ frame ] -> (
      match Packet.parse frame with
      | Ok { l3 = Packet.Arp a; _ } ->
          Alcotest.(check bool) "reply" true (a.Arp.op = Arp.Reply);
          Alcotest.(check bool) "vm mac" true
            (Mac.equal a.Arp.sender_mac (Iface.mac nic2));
          (* And the host was learned. *)
          Alcotest.(check bool) "learned host" true
            (List.exists
               (fun (p, i, _) -> p = 2 && Ipv4_addr.equal i (ip "10.0.1.2"))
               (Vm.arp_entries vm))
      | Ok _ | Error _ -> Alcotest.fail "not an arp reply")
  | _ -> Alcotest.fail "expected one reply"

let test_vm_answers_ping () =
  let engine = Engine.create () in
  let vm = make_vm engine in
  let nic2 = Vm.nic vm 2 in
  let out = ref [] in
  Iface.set_transmit nic2 (fun f -> out := f :: !out);
  Iface.deliver nic2
    (Packet.icmp ~src_mac:(Mac.make_local 99) ~dst_mac:(Iface.mac nic2)
       ~src_ip:(ip "10.0.1.2") ~dst_ip:(ip "10.0.1.1")
       (Icmp.Echo_request { ident = 1; seq = 2; payload = "hi" }));
  ignore (Engine.run ~until:(Vtime.of_s 1.0) engine);
  match !out with
  | [ frame ] -> (
      match Packet.parse frame with
      | Ok { l3 = Packet.Ipv4 (_, Packet.Icmp (Icmp.Echo_reply { seq; _ })); _ } ->
          Alcotest.(check int) "seq echoed" 2 seq
      | Ok _ | Error _ -> Alcotest.fail "not an echo reply")
  | _ -> Alcotest.fail "expected one reply"

let test_vm_slow_path_forwarding () =
  let engine = Engine.create () in
  let vm = make_vm engine in
  (* Static route so the RIB can route 10.0.2.0/24 via eth1 peer. *)
  Rf_routing.Zebra.add_static (Vm.zebra vm) (pfx "10.0.2.0/24") (ip "172.16.0.2");
  let nic1 = Vm.nic vm 1 and nic2 = Vm.nic vm 2 in
  let out1 = ref [] in
  Iface.set_transmit nic1 (fun f -> out1 := f :: !out1);
  Iface.set_transmit nic2 (fun _ -> ());
  (* Teach the VM its next hop's MAC by sending any IP frame from it. *)
  Iface.deliver nic1
    (Packet.udp ~src_mac:(Mac.make_local 50) ~dst_mac:(Iface.mac nic1)
       ~src_ip:(ip "172.16.0.2") ~dst_ip:(ip "172.16.0.1")
       (Udp.make ~src_port:1 ~dst_port:2 "teach"));
  (* A data packet arrives on eth2 for 10.0.2.5. *)
  Iface.deliver nic2
    (Packet.udp ~src_mac:(Mac.make_local 99) ~dst_mac:(Iface.mac nic2)
       ~src_ip:(ip "10.0.1.2") ~dst_ip:(ip "10.0.2.5")
       (Udp.make ~src_port:1 ~dst_port:2 "data"));
  ignore (Engine.run ~until:(Vtime.of_s 2.0) engine);
  let forwarded =
    List.filter
      (fun f ->
        match Packet.parse f with
        | Ok { l3 = Packet.Ipv4 (iph, _); _ } ->
            Ipv4_addr.equal iph.Ipv4.dst (ip "10.0.2.5")
        | Ok _ | Error _ -> false)
      !out1
  in
  match forwarded with
  | [ f ] -> (
      Alcotest.(check int) "slow path counter" 1 (Vm.packets_forwarded_slow_path vm);
      match Packet.parse f with
      | Ok { eth; l3 = Packet.Ipv4 (iph, _); _ } ->
          Alcotest.(check bool) "rewritten dst mac" true
            (Mac.equal eth.Ethernet.dst (Mac.make_local 50));
          Alcotest.(check bool) "rewritten src mac" true
            (Mac.equal eth.Ethernet.src (Iface.mac nic1));
          Alcotest.(check int) "ttl decremented" 63 iph.Ipv4.ttl
      | Ok _ | Error _ -> Alcotest.fail "corrupt forward")
  | _ -> Alcotest.fail "expected exactly one forwarded packet"

let test_vm_slow_path_arps_when_unknown () =
  let engine = Engine.create () in
  let vm = make_vm engine in
  Rf_routing.Zebra.add_static (Vm.zebra vm) (pfx "10.0.2.0/24") (ip "172.16.0.2");
  let nic1 = Vm.nic vm 1 and nic2 = Vm.nic vm 2 in
  let out1 = ref [] in
  Iface.set_transmit nic1 (fun f -> out1 := f :: !out1);
  Iface.set_transmit nic2 (fun _ -> ());
  (* No MAC known: a data packet must trigger an ARP request and be
     queued, then released when the reply arrives. *)
  Iface.deliver nic2
    (Packet.udp ~src_mac:(Mac.make_local 99) ~dst_mac:(Iface.mac nic2)
       ~src_ip:(ip "10.0.1.2") ~dst_ip:(ip "10.0.2.5")
       (Udp.make ~src_port:1 ~dst_port:2 "queued"));
  ignore (Engine.run ~until:(Vtime.of_s 0.5) engine);
  let arps =
    List.filter
      (fun f ->
        match Packet.parse f with
        | Ok { l3 = Packet.Arp { Arp.op = Arp.Request; target_ip; _ }; _ } ->
            Ipv4_addr.equal target_ip (ip "172.16.0.2")
        | Ok _ | Error _ -> false)
      !out1
  in
  Alcotest.(check bool) "arp sent" true (List.length arps >= 1);
  (* Reply and expect the queued datagram. *)
  Iface.deliver nic1
    (Packet.arp ~src:(Mac.make_local 50) ~dst:(Iface.mac nic1)
       (Arp.reply ~sender_mac:(Mac.make_local 50) ~sender_ip:(ip "172.16.0.2")
          ~target_mac:(Iface.mac nic1) ~target_ip:(ip "172.16.0.1")));
  ignore (Engine.run ~until:(Vtime.of_s 1.0) engine);
  let data =
    List.filter
      (fun f ->
        match Packet.parse f with
        | Ok { l3 = Packet.Ipv4 (iph, _); _ } ->
            Ipv4_addr.equal iph.Ipv4.dst (ip "10.0.2.5")
        | Ok _ | Error _ -> false)
      !out1
  in
  Alcotest.(check int) "queued packet released" 1 (List.length data)

let test_vm_flow_export () =
  let engine = Engine.create () in
  let vm = make_vm engine in
  Rf_routing.Zebra.add_static (Vm.zebra vm) (pfx "10.0.2.0/24") (ip "172.16.0.2");
  let changed = ref 0 in
  Vm.add_on_flows_changed vm (fun ~removed:_ ~added:_ -> incr changed);
  Iface.set_transmit (Vm.nic vm 1) (fun _ -> ());
  Iface.set_transmit (Vm.nic vm 2) (fun _ -> ());
  (* Teach next-hop and host MACs. *)
  Iface.deliver (Vm.nic vm 1)
    (Packet.udp ~src_mac:(Mac.make_local 50) ~dst_mac:(Iface.mac (Vm.nic vm 1))
       ~src_ip:(ip "172.16.0.2") ~dst_ip:(ip "172.16.0.1")
       (Udp.make ~src_port:1 ~dst_port:2 ""));
  Iface.deliver (Vm.nic vm 2)
    (Packet.arp ~src:(Mac.make_local 99) ~dst:Mac.broadcast
       (Arp.request ~sender_mac:(Mac.make_local 99) ~sender_ip:(ip "10.0.1.2")
          ~target_ip:(ip "10.0.1.1")));
  ignore (Engine.run ~until:(Vtime.of_s 2.0) engine);
  let flows = Vm.flow_routes vm in
  Alcotest.(check bool) "listener fired" true (!changed > 0);
  (* Expect: static route flow to 10.0.2.0/24 via port 1, and a /32
     host flow for 10.0.1.2 via port 2. *)
  let find p = List.find_opt (fun fr -> Ipv4_addr.Prefix.equal fr.Vm.fr_prefix (pfx p)) flows in
  (match find "10.0.2.0/24" with
  | Some fr ->
      Alcotest.(check int) "static out port" 1 fr.Vm.fr_port;
      Alcotest.(check bool) "dst mac = next hop" true
        (Mac.equal fr.Vm.fr_dst_mac (Mac.make_local 50))
  | None -> Alcotest.fail "no static flow");
  match find "10.0.1.2/32" with
  | Some fr ->
      Alcotest.(check int) "host out port" 2 fr.Vm.fr_port;
      Alcotest.(check bool) "dst mac = host" true
        (Mac.equal fr.Vm.fr_dst_mac (Mac.make_local 99))
  | None -> Alcotest.fail "no host flow"

let test_vm_arp_aging_drops_silent_neighbor () =
  let engine = Engine.create () in
  let vm = make_vm engine in
  let nic2 = Vm.nic vm 2 in
  Iface.set_transmit nic2 (fun _ -> ());
  Iface.set_transmit (Vm.nic vm 1) (fun _ -> ());
  (* Learn a host, then go silent: after the reachable window plus the
     probe rounds the entry must disappear. *)
  Iface.deliver nic2
    (Packet.arp ~src:(Mac.make_local 99) ~dst:Mac.broadcast
       (Arp.request ~sender_mac:(Mac.make_local 99) ~sender_ip:(ip "10.0.1.2")
          ~target_ip:(ip "10.0.1.1")));
  ignore (Engine.run ~until:(Vtime.of_s 1.0) engine);
  Alcotest.(check int) "learned" 1 (List.length (Vm.arp_entries vm));
  ignore (Engine.run ~until:(Vtime.of_s 600.0) engine);
  Alcotest.(check int) "aged out" 0 (List.length (Vm.arp_entries vm))

let test_vm_arp_aging_keeps_responsive_neighbor () =
  let engine = Engine.create () in
  let vm = make_vm engine in
  let nic2 = Vm.nic vm 2 in
  Iface.set_transmit (Vm.nic vm 1) (fun _ -> ());
  (* A host that answers every probe. *)
  Iface.set_transmit nic2 (fun frame ->
      match Packet.parse frame with
      | Ok { l3 = Packet.Arp { Arp.op = Arp.Request; target_ip; _ }; _ }
        when Ipv4_addr.equal target_ip (ip "10.0.1.2") ->
          ignore
            (Engine.schedule engine (Vtime.span_ms 1) (fun () ->
                 Iface.deliver nic2
                   (Packet.arp ~src:(Mac.make_local 99) ~dst:(Iface.mac nic2)
                      (Arp.reply ~sender_mac:(Mac.make_local 99)
                         ~sender_ip:(ip "10.0.1.2")
                         ~target_mac:(Iface.mac nic2)
                         ~target_ip:(Iface.ip nic2)))))
      | Ok _ | Error _ -> ());
  Iface.deliver nic2
    (Packet.arp ~src:(Mac.make_local 99) ~dst:Mac.broadcast
       (Arp.request ~sender_mac:(Mac.make_local 99) ~sender_ip:(ip "10.0.1.2")
          ~target_ip:(ip "10.0.1.1")));
  ignore (Engine.run ~until:(Vtime.of_s 900.0) engine);
  Alcotest.(check int) "still cached" 1 (List.length (Vm.arp_entries vm))

let test_vm_bgpd_config () =
  let engine = Engine.create () in
  (* Two border VMs peering over 192.168.0.0/30 (their eth1). *)
  let vm_a = Vm.create engine ~dpid:1L ~n_ports:2 () in
  let vm_b = Vm.create engine ~dpid:2L ~n_ports:2 () in
  let zebra_a =
    "hostname vm-1\n!\ninterface eth1\n ip address 192.168.0.1/30\n!\n\
     interface eth2\n ip address 10.1.0.1/24\n!\nline vty\n"
  in
  let zebra_b =
    "hostname vm-2\n!\ninterface eth1\n ip address 192.168.0.2/30\n!\n\
     interface eth2\n ip address 10.2.0.1/24\n!\nline vty\n"
  in
  (match (Vm.apply_zebra_config vm_a zebra_a, Vm.apply_zebra_config vm_b zebra_b) with
  | Ok (), Ok () -> ()
  | _ -> Alcotest.fail "zebra configs");
  let ea, eb = Rf_net.Channel.create engine () in
  let chan_for endpoint addr_expected addr =
    if Ipv4_addr.equal addr (ip addr_expected) then
      Some
        ( Rf_net.Channel.send endpoint,
          fun recv -> Rf_net.Channel.set_receiver endpoint recv )
    else None
  in
  let bgpd_a =
    "hostname vm-1\n!\nrouter bgp 65001\n bgp router-id 10.255.0.1\n\
     neighbor 192.168.0.2 remote-as 65002\n network 10.1.0.0/24\n!\nline vty\n"
  in
  let bgpd_b =
    "hostname vm-2\n!\nrouter bgp 65002\n bgp router-id 10.255.0.2\n\
     neighbor 192.168.0.1 remote-as 65001\n network 10.2.0.0/24\n!\nline vty\n"
  in
  (match Vm.apply_bgpd_config vm_a ~peer_channel:(chan_for ea "192.168.0.2") bgpd_a with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (match Vm.apply_bgpd_config vm_b ~peer_channel:(chan_for eb "192.168.0.1") bgpd_b with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  ignore (Engine.run ~until:(Vtime.of_s 10.0) engine);
  (match Vm.bgpd vm_a with
  | Some d ->
      Alcotest.(check int) "session established" 1
        (Rf_routing.Bgpd.established_peers d)
  | None -> Alcotest.fail "no bgpd");
  (* Inter-domain routes landed in each VM's RIB. *)
  (match Rib.best (Vm.rib vm_a) (pfx "10.2.0.0/24") with
  | Some r -> Alcotest.(check string) "proto" "bgp" (Rib.proto_name r.Rib.r_proto)
  | None -> Alcotest.fail "vm_a missing BGP route");
  Alcotest.(check bool) "vm_b learned too" true
    (Rib.best (Vm.rib vm_b) (pfx "10.1.0.0/24") <> None);
  Alcotest.(check bool) "bgpd.conf retrievable" true
    (Vm.config_file vm_a "bgpd.conf" <> None)

(* --- Rf_vs ------------------------------------------------------------------ *)

let test_rf_vs_virtual_link_and_physical_out () =
  let engine = Engine.create () in
  let vs = Rf_vs.create engine in
  let vm1 = Vm.create engine ~dpid:1L ~n_ports:2 () in
  let vm2 = Vm.create engine ~dpid:2L ~n_ports:2 () in
  Rf_vs.register_vm vs vm1;
  Rf_vs.register_vm vs vm2;
  Rf_vs.connect_ports vs ~a:(1L, 1) ~b:(2L, 1);
  let physical = ref [] in
  Rf_vs.set_physical_out vs (fun ~dpid ~port frame ->
      physical := (dpid, port, frame) :: !physical);
  let got2 = ref [] in
  Iface.add_receiver (Vm.nic vm2 1) (fun f -> got2 := f :: !got2);
  (* Port 1 has a virtual peer: frame goes VM-to-VM. *)
  Iface.send (Vm.nic vm1 1) "vframe";
  (* Port 2 has none: frame exits to the physical network. *)
  Iface.send (Vm.nic vm1 2) "pframe";
  ignore (Engine.run ~until:(Vtime.of_s 1.0) engine);
  Alcotest.(check (list string)) "virtual delivery" [ "vframe" ] !got2;
  (match !physical with
  | [ (1L, 2, "pframe") ] -> ()
  | _ -> Alcotest.fail "physical out mismatch");
  Alcotest.(check int) "virtual count" 1 (Rf_vs.virtual_frames vs);
  Alcotest.(check int) "physical count" 1 (Rf_vs.physical_out_frames vs);
  (* Injection from physical reaches the NIC. *)
  let got1 = ref [] in
  Iface.add_receiver (Vm.nic vm1 2) (fun f -> got1 := f :: !got1);
  Rf_vs.inject_from_physical vs ~dpid:1L ~port:2 "inject";
  Alcotest.(check (list string)) "inject" [ "inject" ] !got1;
  (* Disconnect: traffic falls back to physical. *)
  Rf_vs.disconnect_ports vs ~a:(1L, 1) ~b:(2L, 1);
  Iface.send (Vm.nic vm1 1) "after";
  ignore (Engine.run ~until:(Vtime.of_s 2.0) engine);
  Alcotest.(check int) "no more virtual" 1 (Rf_vs.virtual_frames vs)

(* --- Rf_system ordering ------------------------------------------------------- *)

let make_rf engine params =
  let vs = Rf_vs.create engine in
  let app = Rf_controller_app.create engine vs in
  (Rf_system.create engine app vs params, vs, app)

let test_rf_system_serialized_boot () =
  let engine = Engine.create () in
  let rf, _, _ =
    make_rf engine
      { Rf_system.vm_boot_time = Vtime.span_s 5.0; parallel_boot = 1;
        config_apply_delay = Vtime.span_ms 100;
        routing_protocol = Rf_system.Proto_ospf }
  in
  let ready = ref [] in
  Rf_system.set_on_vm_ready rf (fun d ->
      ready := (d, Vtime.to_s (Engine.now engine)) :: !ready);
  Rf_system.switch_up rf ~dpid:1L ~n_ports:2;
  Rf_system.switch_up rf ~dpid:2L ~n_ports:2;
  Rf_system.switch_up rf ~dpid:3L ~n_ports:2;
  ignore (Engine.run ~until:(Vtime.of_s 60.0) engine);
  match List.rev !ready with
  | [ (1L, t1); (2L, t2); (3L, t3) ] ->
      Alcotest.(check (float 0.01)) "first at 5s" 5.0 t1;
      Alcotest.(check (float 0.01)) "second at 10s" 10.0 t2;
      Alcotest.(check (float 0.01)) "third at 15s" 15.0 t3
  | _ -> Alcotest.fail "wrong boot order"

let test_rf_system_parallel_boot () =
  let engine = Engine.create () in
  let rf, _, _ =
    make_rf engine
      { Rf_system.vm_boot_time = Vtime.span_s 5.0; parallel_boot = 4;
        config_apply_delay = Vtime.span_ms 100;
        routing_protocol = Rf_system.Proto_ospf }
  in
  for i = 1 to 4 do
    Rf_system.switch_up rf ~dpid:(Int64.of_int i) ~n_ports:2
  done;
  ignore (Engine.run ~until:(Vtime.of_s 6.0) engine);
  Alcotest.(check int) "all booted concurrently" 4 (Rf_system.configured_count rf)

let test_rf_system_link_before_vm () =
  let engine = Engine.create () in
  let rf, vs, _ =
    make_rf engine
      { Rf_system.vm_boot_time = Vtime.span_s 3.0; parallel_boot = 1;
        config_apply_delay = Vtime.span_ms 100;
        routing_protocol = Rf_system.Proto_ospf }
  in
  (* Link config arrives before either VM exists — the paper's normal
     case, since discovery beats VM cloning. *)
  Rf_system.switch_up rf ~dpid:1L ~n_ports:2;
  Rf_system.switch_up rf ~dpid:2L ~n_ports:2;
  Rf_system.link_config rf
    ~a:(1L, 1, ip "172.16.0.1", 30)
    ~b:(2L, 1, ip "172.16.0.2", 30);
  ignore (Engine.run ~until:(Vtime.of_s 30.0) engine);
  (match Rf_system.vm rf 1L with
  | Some vm ->
      Alcotest.(check bool) "nic addressed after boot" true
        (Ipv4_addr.equal (Iface.ip (Vm.nic vm 1)) (ip "172.16.0.1"))
  | None -> Alcotest.fail "vm missing");
  Alcotest.(check bool) "virtual link mirrored" true
    (Rf_vs.has_virtual_link vs (1L, 1))

let test_rf_system_switch_down () =
  let engine = Engine.create () in
  let rf, _, _ =
    make_rf engine
      { Rf_system.vm_boot_time = Vtime.span_s 1.0; parallel_boot = 1;
        config_apply_delay = Vtime.span_ms 100;
        routing_protocol = Rf_system.Proto_ospf }
  in
  Rf_system.switch_up rf ~dpid:1L ~n_ports:2;
  ignore (Engine.run ~until:(Vtime.of_s 5.0) engine);
  Alcotest.(check bool) "configured" true (Rf_system.is_configured rf 1L);
  Rf_system.switch_down rf ~dpid:1L;
  Alcotest.(check bool) "gone" false (Rf_system.is_configured rf 1L);
  (* Re-adding creates a fresh VM. *)
  Rf_system.switch_up rf ~dpid:1L ~n_ports:2;
  ignore (Engine.run ~until:(Vtime.of_s 10.0) engine);
  Alcotest.(check bool) "recreated" true (Rf_system.is_configured rf 1L);
  Alcotest.(check int) "two creations total" 2 (Rf_system.vms_created rf)

let test_rf_system_router_ids_unique () =
  let seen = Hashtbl.create 16 in
  for d = 1 to 1000 do
    let rid = Rf_system.router_id_of (Int64.of_int d) in
    if Hashtbl.mem seen rid then Alcotest.fail "duplicate router id";
    Hashtbl.replace seen rid ()
  done

(* --- Rf_controller_app -------------------------------------------------------- *)

let test_priority_grows_with_prefix_len () =
  Alcotest.(check bool) "host beats subnet" true
    (Rf_controller_app.priority_of_prefix_len 32
    > Rf_controller_app.priority_of_prefix_len 24);
  Alcotest.(check bool) "bounded" true
    (Rf_controller_app.priority_of_prefix_len 32 < 0xFFFF)

(* --- flow export vs the full-recompute reference ---------------------- *)

(* The export as it was before it went per-prefix: every selected route
   re-derived from the RIB and the ARP table, and one ARP request per
   route whose next hop has no entry, in prefix order. Returns the
   sorted flows and the (port, target) requests. *)
let reference_flows vm =
  let rib = Vm.rib vm in
  let arp = Vm.arp_entries vm in
  let port_of name =
    let rec go i =
      if i > Vm.n_ports vm then None
      else if String.equal (Iface.name (Vm.nic vm i)) name then Some i
      else go (i + 1)
    in
    go 1
  in
  let arp_find port nh =
    List.find_map
      (fun (p, a, mac) -> if p = port && Ipv4_addr.equal a nh then Some mac else None)
      arp
  in
  let resolve (r : Rib.route) =
    match r.Rib.r_next_hop with
    | None -> Option.map (fun p -> (p, None)) (port_of r.Rib.r_iface)
    | Some nh -> (
        if not (String.equal r.Rib.r_iface "") then
          Option.map (fun p -> (p, Some nh)) (port_of r.Rib.r_iface)
        else
          match Rib.lookup rib nh with
          | Some { Rib.r_proto = Rib.Connected; r_iface; _ } ->
              Option.map (fun p -> (p, Some nh)) (port_of r_iface)
          | Some _ | None -> None)
  in
  let flows = ref [] and requests = ref [] in
  List.iter
    (fun (r : Rib.route) ->
      match r.r_proto with
      | Rib.Connected -> (
          match port_of r.r_iface with
          | None -> ()
          | Some port ->
              let ifc = Vm.nic vm port in
              List.iter
                (fun (p, a, mac) ->
                  if
                    p = port
                    && Ipv4_addr.Prefix.mem a r.r_prefix
                    && not (Ipv4_addr.equal a (Iface.ip ifc))
                  then
                    flows :=
                      {
                        Vm.fr_prefix = Ipv4_addr.Prefix.make a 32;
                        fr_port = port;
                        fr_src_mac = Iface.mac ifc;
                        fr_dst_mac = mac;
                      }
                      :: !flows)
                arp)
      | Rib.Static | Rib.Ospf | Rib.Rip | Rib.Bgp -> (
          match resolve r with
          | Some (port, Some nh) -> (
              match arp_find port nh with
              | Some mac ->
                  flows :=
                    {
                      Vm.fr_prefix = r.r_prefix;
                      fr_port = port;
                      fr_src_mac = Iface.mac (Vm.nic vm port);
                      fr_dst_mac = mac;
                    }
                    :: !flows
              | None ->
                  let ifc = Vm.nic vm port in
                  if Iface.is_addressed ifc && Iface.is_up ifc then
                    requests := (port, nh) :: !requests)
          | Some (_, None) | None -> ()))
    (Rib.selected rib);
  let compare_ref (a : Vm.flow_route) (b : Vm.flow_route) =
    match Ipv4_addr.Prefix.compare a.fr_prefix b.fr_prefix with
    | 0 ->
        Stdlib.compare
          (a.fr_port, a.fr_src_mac, a.fr_dst_mac)
          (b.fr_port, b.fr_src_mac, b.fr_dst_mac)
    | c -> c
  in
  (List.sort_uniq compare_ref !flows, List.rev !requests)

(* A flow-mod as (add?, priority, match, actions), from the wire or
   from the reference diff. *)
let mod_of_route ~add (fr : Vm.flow_route) =
  ( add,
    Rf_controller_app.priority_of_prefix_len
      (Ipv4_addr.Prefix.length fr.Vm.fr_prefix),
    Rf_controller_app.match_of_route fr,
    if add then
      [
        Rf_openflow.Of_action.Set_dl_src fr.Vm.fr_src_mac;
        Rf_openflow.Of_action.Set_dl_dst fr.Vm.fr_dst_mac;
        Rf_openflow.Of_action.output fr.Vm.fr_port;
      ]
    else [] )

type flow_op =
  | Route of int * int * int  (* prefix, next hop, protocol *)
  | Withdraw of int * int  (* prefix, protocol *)
  | Learn of int * int * int  (* port, host, MAC generation *)
  | Age
  | Flip_eth3

let flow_op_gen =
  QCheck.Gen.(
    frequency
      [
        (6, map3 (fun p h k -> Route (p, h, k)) (int_bound 7) (int_bound 9) (int_bound 2));
        (3, map2 (fun p k -> Withdraw (p, k)) (int_bound 7) (int_bound 2));
        (4, map3 (fun p h g -> Learn (p, h, g)) (int_range 1 3) (int_range 2 4) (int_bound 1));
        (1, return Age);
        (1, return Flip_eth3);
      ])

let print_flow_op = function
  | Route (p, h, k) -> Printf.sprintf "route(%d,%d,%d)" p h k
  | Withdraw (p, k) -> Printf.sprintf "withdraw(%d,%d)" p k
  | Learn (p, h, g) -> Printf.sprintf "learn(%d,%d,%d)" p h g
  | Age -> "age"
  | Flip_eth3 -> "flip-eth3"

(* Random RIB churn (OSPF, BGP and static routes, host routes inside a
   connected subnet, statics resolved through a connected route, next
   hops with and without ARP entries), ARP learning and aging, and a
   NIC flapping its connected route. After every step the VM's flows
   equal the reference, the export sent exactly the reference's ARP
   requests, and every sync sent the List.mem reference diff. *)
let prop_flow_export_matches_reference =
  QCheck.Test.make ~name:"flow export equals the full recompute" ~count:60
    QCheck.(make ~print:(Print.list print_flow_op) Gen.(list_size (int_bound 40) flow_op_gen))
    (fun ops ->
      let engine = Engine.create () in
      let vs = Rf_vs.create engine in
      let app = Rf_controller_app.create engine vs in
      (* The switch behind the app sees its flow-mods through a tap. *)
      let dp = Rf_net.Datapath.create engine ~dpid:7L ~n_ports:3 in
      let app_end, tap_a = Rf_net.Channel.create engine () in
      let tap_b, sw_end = Rf_net.Channel.create engine () in
      let wire_mods = ref [] in
      Rf_net.Channel.set_receiver tap_a (fun m ->
          (match Rf_openflow.Of_codec.of_wire m with
          | Ok { Rf_openflow.Of_msg.payload = Rf_openflow.Of_msg.Flow_mod fm; _ } ->
              wire_mods :=
                ( fm.fm_command = Rf_openflow.Of_msg.Add,
                  fm.fm_priority,
                  fm.fm_match,
                  fm.fm_actions )
                :: !wire_mods
          | Ok _ | Error _ -> ());
          Rf_net.Channel.send tap_b m);
      Rf_net.Channel.set_receiver tap_b (Rf_net.Channel.send tap_a);
      let _agent = Rf_net.Of_agent.create engine dp sw_end in
      Rf_controller_app.attach app ~dpid:7L app_end;
      ignore (Engine.run ~until:(Vtime.of_s 1.0) engine);
      let vm = Vm.create engine ~dpid:7L ~n_ports:3 () in
      let sent = ref [] in
      for port = 1 to 3 do
        Iface.set_transmit (Vm.nic vm port) (fun f ->
            match Packet.parse f with
            | Ok { l3 = Packet.Arp a; _ } when a.Arp.op = Arp.Request ->
                sent := (port, a.Arp.target_ip) :: !sent
            | Ok _ | Error _ -> ())
      done;
      let expected_mods = ref [] and last_exported = ref [] in
      Vm.add_on_flows_changed vm (fun ~removed:_ ~added:_ ->
          let installed = !last_exported in
          let flows = Vm.flow_routes vm in
          let stale = List.filter (fun f -> not (List.mem f flows)) installed in
          let fresh = List.filter (fun f -> not (List.mem f installed)) flows in
          expected_mods :=
            List.rev_append
              (List.map (mod_of_route ~add:false) stale
              @ List.map (mod_of_route ~add:true) fresh)
              !expected_mods;
          last_exported := flows);
      Vm.add_on_flows_changed vm (Rf_controller_app.sync_flows app ~dpid:7L vm);
      let conf =
        "hostname vm-7\npassword x\n!\n"
        ^ String.concat ""
            (List.init 3 (fun i ->
                 Printf.sprintf "interface eth%d\n ip address 10.0.%d.1/24\n!\n"
                   (i + 1) (i + 1)))
        ^ "line vty\n"
      in
      (match Vm.apply_zebra_config vm conf with
      | Ok () -> ()
      | Error e -> failwith e);
      let advance s =
        ignore
          (Engine.run
             ~until:(Vtime.add (Engine.now engine) (Vtime.span_s s))
             engine)
      in
      advance 0.02;
      let prefixes =
        [| "10.9.1.0/24"; "10.9.2.0/24"; "10.9.0.0/16"; "10.9.1.128/25";
           "10.0.1.3/32"; "10.0.2.4/32"; "10.0.3.0/24"; "192.168.7.0/24" |]
      in
      let route p h k =
        let port = 1 + (h mod 3) in
        let nh = ip (Printf.sprintf "10.0.%d.%d" port (2 + (h mod 4))) in
        let proto, iface =
          match k with
          | 0 -> (Rib.Ospf, Printf.sprintf "eth%d" port)
          | 1 -> (Rib.Bgp, Printf.sprintf "eth%d" port)
          | _ -> (Rib.Static, if h >= 6 then "" else Printf.sprintf "eth%d" port)
        in
        {
          Rib.r_prefix = pfx prefixes.(p);
          r_proto = proto;
          r_distance = Rib.default_distance proto;
          r_metric = h;
          r_next_hop = Some nh;
          r_iface = iface;
        }
      in
      let proto_of k = match k with 0 -> Rib.Ospf | 1 -> Rib.Bgp | _ -> Rib.Static in
      let ok = ref true in
      let check what b =
        if not b then begin
          ok := false;
          QCheck.Test.fail_reportf "%s" what
        end
      in
      List.iter
        (fun op ->
          sent := [];
          let gen = Rib.generation (Vm.rib vm) in
          let arp = Vm.arp_entries vm in
          (match op with
          | Route (p, h, k) -> Rib.update (Vm.rib vm) (route p h k)
          | Withdraw (p, k) -> Rib.withdraw (Vm.rib vm) (proto_of k) (pfx prefixes.(p))
          | Learn (port, h, g) ->
              let mac = Mac.make_local ((port * 100) + (h * 10) + g) in
              Iface.deliver (Vm.nic vm port)
                (Packet.arp ~src:mac ~dst:(Iface.mac (Vm.nic vm port))
                   (Arp.reply ~sender_mac:mac
                      ~sender_ip:(ip (Printf.sprintf "10.0.%d.%d" port h))
                      ~target_mac:(Iface.mac (Vm.nic vm port))
                      ~target_ip:(ip (Printf.sprintf "10.0.%d.1" port))))
          | Age -> ()
          | Flip_eth3 ->
              let nic = Vm.nic vm 3 in
              Iface.set_up nic (not (Iface.is_up nic)));
          let exported =
            Rib.generation (Vm.rib vm) <> gen || Vm.arp_entries vm <> arp
          in
          advance (match op with Age -> 150. | _ -> 0.02);
          let flows, requests = reference_flows vm in
          check "flows equal the reference" (Vm.flow_routes vm = flows);
          (match op with
          | Age -> ()
          | Route _ | Withdraw _ | Learn _ | Flip_eth3 ->
              check "ARP requests equal the reference"
                (List.rev !sent = if exported then requests else []));
          check "flow-mods equal the List.mem diff"
            (List.rev !wire_mods = List.rev !expected_mods))
        ops;
      !ok)

(* --- Rf_controller_app.sync_flows over real exports ------------------ *)

(* A datapath with dpid 7 behind [app], on its own channel. *)
let switch_behind engine app =
  let dp = Rf_net.Datapath.create engine ~dpid:7L ~n_ports:3 in
  let sw_end, ctl_end = Rf_net.Channel.create engine () in
  let _agent = Rf_net.Of_agent.create engine dp sw_end in
  Rf_controller_app.attach app ~dpid:7L ctl_end;
  dp

(* A VM for dpid 7 exporting to [app] through the listener Rf_system
   registers, with eth[p] addressed 10.0.[p].1/24 and the neighbour
   10.0.[p].2 learned on each port of [learn]. *)
let exporting_vm engine app learn =
  let vm = Vm.create engine ~dpid:7L ~n_ports:3 () in
  Vm.add_on_flows_changed vm (Rf_controller_app.sync_flows app ~dpid:7L vm);
  let conf =
    "hostname vm-7\npassword x\n!\n"
    ^ String.concat ""
        (List.init 3 (fun i ->
             Printf.sprintf "interface eth%d\n ip address 10.0.%d.1/24\n!\n"
               (i + 1) (i + 1)))
  in
  (match Vm.apply_zebra_config vm conf with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  List.iter
    (fun port ->
      let nic = Vm.nic vm port in
      Iface.set_transmit nic (fun _ -> ());
      let mac = Mac.make_local (port * 100) in
      Iface.deliver nic
        (Packet.arp ~src:mac ~dst:(Iface.mac nic)
           (Arp.reply ~sender_mac:mac
              ~sender_ip:(ip (Printf.sprintf "10.0.%d.2" port))
              ~target_mac:(Iface.mac nic)
              ~target_ip:(ip (Printf.sprintf "10.0.%d.1" port)))))
    learn;
  vm

let ospf_via vm prefix port =
  Rib.update (Vm.rib vm)
    {
      Rib.r_prefix = pfx prefix;
      r_proto = Rib.Ospf;
      r_distance = Rib.default_distance Rib.Ospf;
      r_metric = 1;
      r_next_hop = Some (ip (Printf.sprintf "10.0.%d.2" port));
      r_iface = Printf.sprintf "eth%d" port;
    }

(* What a switch holds and what a VM's table asks for, as sorted
   (priority, match, actions) triples. *)
let switch_flows dp =
  Rf_net.Flow_table.entries (Rf_net.Datapath.flow_table dp)
  |> List.map (fun (e : Rf_net.Flow_table.entry) ->
         (e.e_priority, e.e_match, e.e_actions))
  |> List.sort compare

let vm_flows vm =
  Vm.flow_routes vm
  |> List.map (fun fr ->
         let _, priority, m, actions = mod_of_route ~add:true fr in
         (priority, m, actions))
  |> List.sort compare

let run_to engine s = ignore (Engine.run ~until:(Vtime.of_s s) engine)

let test_sync_flows_diff () =
  let engine = Engine.create () in
  let app = Rf_controller_app.create engine (Rf_vs.create engine) in
  let dp = switch_behind engine app in
  run_to engine 1.0;
  let vm = exporting_vm engine app [ 1; 2 ] in
  ospf_via vm "10.9.1.0/24" 1;
  ospf_via vm "10.9.2.0/24" 2;
  run_to engine 2.0;
  (* Two host flows from ARP and two routes. *)
  Alcotest.(check int) "four installed" 4
    (Rf_net.Flow_table.size (Rf_net.Datapath.flow_table dp));
  Alcotest.(check bool) "switch holds the table" true
    (switch_flows dp = vm_flows vm);
  let mods = Rf_controller_app.flow_mods_sent app in
  (* Re-route one prefix: one delete and one add. *)
  ospf_via vm "10.9.2.0/24" 1;
  run_to engine 3.0;
  Alcotest.(check int) "one delete, one add" (mods + 2)
    (Rf_controller_app.flow_mods_sent app);
  Alcotest.(check bool) "switch follows" true (switch_flows dp = vm_flows vm);
  (* An empty delta sends nothing. *)
  Rf_controller_app.sync_flows app ~dpid:7L vm ~removed:[] ~added:[];
  Alcotest.(check int) "no-op sync" (mods + 2)
    (Rf_controller_app.flow_mods_sent app)

let test_sync_flows_rehandshake () =
  let engine = Engine.create () in
  let app = Rf_controller_app.create engine (Rf_vs.create engine) in
  let _first = switch_behind engine app in
  run_to engine 1.0;
  let vm = exporting_vm engine app [ 1; 2 ] in
  ospf_via vm "10.9.1.0/24" 1;
  run_to engine 2.0;
  (* The switch comes back on a new connection: the handshake replaces
     the app's session for dpid 7. *)
  let dp = switch_behind engine app in
  run_to engine 3.0;
  Alcotest.(check int) "new switch empty" 0
    (Rf_net.Flow_table.size (Rf_net.Datapath.flow_table dp));
  let mods = Rf_controller_app.flow_mods_sent app in
  ospf_via vm "10.9.2.0/24" 2;
  run_to engine 4.0;
  Alcotest.(check int) "whole table added" (mods + 4)
    (Rf_controller_app.flow_mods_sent app);
  Alcotest.(check bool) "switch holds the table" true
    (switch_flows dp = vm_flows vm)

let test_sync_flows_second_vm () =
  let engine = Engine.create () in
  let app = Rf_controller_app.create engine (Rf_vs.create engine) in
  let dp = switch_behind engine app in
  run_to engine 1.0;
  let first = exporting_vm engine app [ 1; 2 ] in
  ospf_via first "10.9.1.0/24" 1;
  ospf_via first "10.9.2.0/24" 2;
  run_to engine 2.0;
  let mods = Rf_controller_app.flow_mods_sent app in
  (* A replacement VM on the same connection shares the port-1 host
     flow and route, and has a new port-3 neighbour instead of port 2. *)
  let second = exporting_vm engine app [ 1; 3 ] in
  ospf_via second "10.9.1.0/24" 1;
  ospf_via second "10.9.3.0/24" 3;
  run_to engine 3.0;
  Alcotest.(check bool) "switch holds the second table" true
    (switch_flows dp = vm_flows second);
  Alcotest.(check int) "two stale deleted, two added" (mods + 4)
    (Rf_controller_app.flow_mods_sent app)

let suite =
  [
    Alcotest.test_case "vm identity and NICs" `Quick test_vm_identity;
    Alcotest.test_case "configs address NICs and boot daemons" `Quick
      test_vm_config_addresses_nics;
    Alcotest.test_case "vm answers ARP and learns" `Quick test_vm_answers_arp;
    Alcotest.test_case "vm answers ping" `Quick test_vm_answers_ping;
    Alcotest.test_case "vm slow-path forwarding rewrites and decrements TTL"
      `Quick test_vm_slow_path_forwarding;
    Alcotest.test_case "vm slow path ARPs and queues" `Quick
      test_vm_slow_path_arps_when_unknown;
    Alcotest.test_case "vm exports flow routes" `Quick test_vm_flow_export;
    QCheck_alcotest.to_alcotest prop_flow_export_matches_reference;
    Alcotest.test_case "ARP aging drops silent neighbours" `Quick
      test_vm_arp_aging_drops_silent_neighbor;
    Alcotest.test_case "ARP aging keeps responsive neighbours" `Quick
      test_vm_arp_aging_keeps_responsive_neighbor;
    Alcotest.test_case "bgpd.conf boots a BGP session between VMs" `Quick
      test_vm_bgpd_config;
    Alcotest.test_case "virtual switch routing" `Quick
      test_rf_vs_virtual_link_and_physical_out;
    Alcotest.test_case "serialized VM boot queue" `Quick
      test_rf_system_serialized_boot;
    Alcotest.test_case "parallel VM boot" `Quick test_rf_system_parallel_boot;
    Alcotest.test_case "link config before VM exists" `Quick
      test_rf_system_link_before_vm;
    Alcotest.test_case "switch down destroys and recreates" `Quick
      test_rf_system_switch_down;
    Alcotest.test_case "router ids unique" `Quick test_rf_system_router_ids_unique;
    Alcotest.test_case "flow priority by prefix length" `Quick
      test_priority_grows_with_prefix_len;
    Alcotest.test_case "sync_flows installs diffs only" `Quick test_sync_flows_diff;
    Alcotest.test_case "a re-handshaken connection gets the VM's whole table"
      `Quick test_sync_flows_rehandshake;
    Alcotest.test_case "a second VM on an open connection deletes stale flows"
      `Quick test_sync_flows_second_vm;
  ]
