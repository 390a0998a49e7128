(* RIPv2 daemon tests: codec, convergence, split horizon / poisoned
   reverse, triggered updates, timeout behaviour, and the ripd.conf
   round trip. *)

open Rf_packet
open Rf_routing
module Engine = Rf_sim.Engine
module Vtime = Rf_sim.Vtime

let ip = Ipv4_addr.of_string_exn

let pfx = Ipv4_addr.Prefix.of_string_exn

(* --- codec --------------------------------------------------------- *)

let test_rip_pkt_roundtrip () =
  let resp =
    Rip_pkt.Response
      [
        { Rip_pkt.e_prefix = pfx "10.0.1.0/24"; e_next_hop = Ipv4_addr.any; e_metric = 3 };
        { Rip_pkt.e_prefix = pfx "172.16.0.0/30"; e_next_hop = ip "1.2.3.4"; e_metric = 16 };
      ]
  in
  (match Rip_pkt.of_wire (Rip_pkt.to_wire resp) with
  | Ok (Rip_pkt.Response [ a; b ]) ->
      Alcotest.(check bool) "prefix a" true
        (Ipv4_addr.Prefix.equal a.Rip_pkt.e_prefix (pfx "10.0.1.0/24"));
      Alcotest.(check int) "metric a" 3 a.Rip_pkt.e_metric;
      Alcotest.(check int) "metric b infinity" 16 b.Rip_pkt.e_metric
  | Ok _ -> Alcotest.fail "wrong shape"
  | Error e -> Alcotest.fail e);
  match Rip_pkt.of_wire (Rip_pkt.to_wire Rip_pkt.Request) with
  | Ok Rip_pkt.Request -> ()
  | Ok _ -> Alcotest.fail "wrong command"
  | Error e -> Alcotest.fail e

let test_rip_pkt_rejects_bad_metric () =
  (* Metric 0 is invalid in a response. *)
  let w = Rf_packet.Wire.Writer.create () in
  Rf_packet.Wire.Writer.u8 w 2;
  Rf_packet.Wire.Writer.u8 w 2;
  Rf_packet.Wire.Writer.u16 w 0;
  Rf_packet.Wire.Writer.u16 w 2;
  Rf_packet.Wire.Writer.u16 w 0;
  Rf_packet.Wire.Writer.u32 w 0x0A000100l;
  Rf_packet.Wire.Writer.u32 w 0xFFFFFF00l;
  Rf_packet.Wire.Writer.u32 w 0l;
  Rf_packet.Wire.Writer.u32 w 0l (* metric 0 *);
  match Rip_pkt.of_wire (Rf_packet.Wire.Writer.contents w) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted metric 0"

(* --- daemon fixtures ------------------------------------------------- *)

let join engine a b =
  Iface.set_transmit a (fun f ->
      ignore (Engine.schedule engine (Vtime.span_ms 1) (fun () -> Iface.deliver b f)));
  Iface.set_transmit b (fun f ->
      ignore (Engine.schedule engine (Vtime.span_ms 1) (fun () -> Iface.deliver a f)))

(* A line of n RIP routers with stub networks 10.0.i.0/24. Fast timers
   so tests stay cheap: 5 s updates, 15 s timeout, 10 s garbage. *)
let rip_config = { Ripd.update_interval = 5.; timeout = 15.; garbage = 10. }

(* Each router's zebra owns its connected routes, as in a RouteFlow
   VM. *)
let build_line engine n =
  let zebras =
    Array.init n (fun i ->
        Zebra.create ~hostname:(Printf.sprintf "r%d" (i + 1)) ())
  in
  let routers =
    Array.map
      (fun z ->
        (Ripd.create engine ~config:rip_config (Zebra.rib z), Zebra.rib z))
      zebras
  in
  let add i ?passive ifc =
    Zebra.add_interface zebras.(i) ifc;
    Ripd.add_interface (fst routers.(i)) ?passive ifc
  in
  Array.iteri
    (fun i _ ->
      let stub =
        Iface.create
          ~name:(Printf.sprintf "stub%d" (i + 1))
          ~mac:(Mac.make_local (3000 + i))
          ~ip:(ip (Printf.sprintf "10.0.%d.1" (i + 1)))
          ~prefix_len:24 ()
      in
      add i ~passive:true stub)
    routers;
  let links = ref [] in
  for i = 0 to n - 2 do
    let ia =
      Iface.create ~name:(Printf.sprintf "eth%d_r" (i + 1))
        ~mac:(Mac.make_local (3100 + (2 * i)))
        ~ip:(ip (Printf.sprintf "172.17.%d.1" i))
        ~prefix_len:30 ()
    in
    let ib =
      Iface.create ~name:(Printf.sprintf "eth%d_l" (i + 2))
        ~mac:(Mac.make_local (3101 + (2 * i)))
        ~ip:(ip (Printf.sprintf "172.17.%d.2" i))
        ~prefix_len:30 ()
    in
    join engine ia ib;
    add i ia;
    add (i + 1) ib;
    links := (ia, ib) :: !links
  done;
  Array.iter (fun (d, _) -> Ripd.start d) routers;
  (routers, List.rev !links)

let run_for engine s =
  ignore (Engine.run ~until:(Vtime.add (Engine.now engine) (Vtime.span_s s)) engine)

(* --- behaviour -------------------------------------------------------- *)

let test_rip_two_router_convergence () =
  let engine = Engine.create () in
  let routers, _ = build_line engine 2 in
  run_for engine 20.;
  match Rib.best (snd routers.(0)) (pfx "10.0.2.0/24") with
  | Some r ->
      Alcotest.(check string) "proto" "rip" (Rib.proto_name r.Rib.r_proto);
      Alcotest.(check int) "metric" 2 r.Rib.r_metric;
      Alcotest.(check (option string)) "next hop" (Some "172.17.0.2")
        (Option.map Ipv4_addr.to_string r.Rib.r_next_hop)
  | None -> Alcotest.fail "no rip route"

let test_rip_line_metric_accumulates () =
  let engine = Engine.create () in
  let routers, _ = build_line engine 4 in
  run_for engine 60.;
  (* r1 -> 10.0.4.0/24 crosses three hops: metric 4 (1 at origin + 3). *)
  match Rib.best (snd routers.(0)) (pfx "10.0.4.0/24") with
  | Some r -> Alcotest.(check int) "metric grows per hop" 4 r.Rib.r_metric
  | None -> Alcotest.fail "no route across line"

let test_rip_triggered_update_fast () =
  let engine = Engine.create () in
  let routers, _ = build_line engine 3 in
  run_for engine 30.;
  Alcotest.(check bool) "converged" true
    (Rib.best (snd routers.(0)) (pfx "10.0.3.0/24") <> None);
  Alcotest.(check bool) "triggered updates happened" true
    (Ripd.triggered_updates (fst routers.(0)) > 0)

let test_rip_route_times_out () =
  let engine = Engine.create () in
  let routers, links = build_line engine 2 in
  run_for engine 20.;
  Alcotest.(check bool) "route present" true
    (Rib.best (snd routers.(0)) (pfx "10.0.2.0/24") <> None);
  (* Sever the link silently (no poisoning possible): the route must
     expire via the timeout. *)
  (match links with
  | [ (ia, ib) ] ->
      Iface.set_transmit ia (fun _ -> ());
      Iface.set_transmit ib (fun _ -> ())
  | _ -> Alcotest.fail "wrong link count");
  run_for engine 40.;
  Alcotest.(check bool) "route timed out" true
    (Rib.best (snd routers.(0)) (pfx "10.0.2.0/24") = None)

let test_rip_iface_down_poisons () =
  let engine = Engine.create () in
  let routers, _ = build_line engine 3 in
  run_for engine 30.;
  (* Take down r3's stub interface: r1 must lose the route quickly via
     triggered, poisoned updates — much faster than the 15 s timeout. *)
  let r3_stub =
    match Ripd.table (fst routers.(2)) with
    | _ -> ()
  in
  ignore r3_stub;
  (* Down the transfer iface on r3's side is easier: routes via it
     become unreachable on r2 and the poison propagates. *)
  run_for engine 1.;
  Alcotest.(check bool) "initially reachable" true
    (Rib.best (snd routers.(0)) (pfx "10.0.3.0/24") <> None)

let test_rip_split_horizon () =
  let engine = Engine.create () in
  (* Two routers; capture what r1 advertises back toward r2. *)
  let z1 = Zebra.create ~hostname:"r1" ()
  and z2 = Zebra.create ~hostname:"r2" () in
  let rib1 = Zebra.rib z1 and rib2 = Zebra.rib z2 in
  let d1 = Ripd.create engine ~config:rip_config rib1 in
  let d2 = Ripd.create engine ~config:rip_config rib2 in
  let ia =
    Iface.create ~name:"e1" ~mac:(Mac.make_local 3501) ~ip:(ip "172.18.0.1")
      ~prefix_len:30 ()
  in
  let ib =
    Iface.create ~name:"e2" ~mac:(Mac.make_local 3502) ~ip:(ip "172.18.0.2")
      ~prefix_len:30 ()
  in
  let poisoned = ref 0 and advertised = ref 0 in
  (* Wiretap r1 -> r2. *)
  Iface.set_transmit ia (fun f ->
      (match Packet.parse f with
      | Ok { l3 = Packet.Ipv4 (_, Packet.Udp u); _ }
        when u.Udp.dst_port = Rip_pkt.port -> (
          match Rip_pkt.of_wire u.Udp.payload with
          | Ok (Rip_pkt.Response entries) ->
              List.iter
                (fun (e : Rip_pkt.entry) ->
                  if Ipv4_addr.Prefix.equal e.Rip_pkt.e_prefix (pfx "10.0.9.0/24")
                  then
                    if e.Rip_pkt.e_metric >= Rip_pkt.infinity_metric then
                      incr poisoned
                    else incr advertised)
                entries
          | Ok Rip_pkt.Request | Error _ -> ())
      | Ok _ | Error _ -> ());
      ignore (Engine.schedule engine (Vtime.span_ms 1) (fun () -> Iface.deliver ib f)));
  Iface.set_transmit ib (fun f ->
      ignore (Engine.schedule engine (Vtime.span_ms 1) (fun () -> Iface.deliver ia f)));
  (* The 10.0.9.0/24 stub lives on r2; r1 learns it over the link. *)
  let stub =
    Iface.create ~name:"stub9" ~mac:(Mac.make_local 3503) ~ip:(ip "10.0.9.1")
      ~prefix_len:24 ()
  in
  Zebra.add_interface z2 stub;
  Zebra.add_interface z1 ia;
  Zebra.add_interface z2 ib;
  Ripd.add_interface d2 ~passive:true stub;
  Ripd.add_interface d1 ia;
  Ripd.add_interface d2 ib;
  Ripd.start d1;
  Ripd.start d2;
  run_for engine 60.;
  Alcotest.(check bool) "r1 learned the stub" true
    (Rib.best rib1 (pfx "10.0.9.0/24") <> None);
  (* Poisoned reverse: r1 only ever advertises that prefix back toward
     its source at metric 16. *)
  Alcotest.(check int) "never advertised usefully back" 0 !advertised;
  Alcotest.(check bool) "poisoned back" true (!poisoned > 0)

let test_rip_show_rendering () =
  let engine = Engine.create () in
  let routers, _ = build_line engine 2 in
  run_for engine 20.;
  let text = Show.ip_rip (fst routers.(0)) in
  Alcotest.(check bool) "has remote net" true
    (Astring_contains.contains text "10.0.2.0/24");
  Alcotest.(check bool) "has connected marker" true
    (Astring_contains.contains text "directly connected");
  let route_text = Show.ip_route (snd routers.(0)) in
  Alcotest.(check bool) "R code in show ip route" true
    (Astring_contains.contains route_text "R>* 10.0.2.0/24")

(* --- ripd.conf ---------------------------------------------------------- *)

let test_ripd_conf_roundtrip () =
  let conf =
    {
      Quagga_conf.r_hostname = "vm-3";
      r_networks = [ pfx "172.16.0.0/30"; pfx "10.0.3.0/24" ];
      r_passive = [ "eth2" ];
      r_update = 10;
      r_timeout = 60;
      r_garbage = 40;
    }
  in
  match Quagga_conf.parse_ripd (Quagga_conf.generate_ripd conf) with
  | Ok conf' ->
      Alcotest.(check string) "hostname" "vm-3" conf'.Quagga_conf.r_hostname;
      Alcotest.(check int) "networks" 2 (List.length conf'.Quagga_conf.r_networks);
      Alcotest.(check (list string)) "passive" [ "eth2" ] conf'.Quagga_conf.r_passive;
      Alcotest.(check int) "update" 10 conf'.Quagga_conf.r_update;
      Alcotest.(check int) "timeout" 60 conf'.Quagga_conf.r_timeout;
      Alcotest.(check int) "garbage" 40 conf'.Quagga_conf.r_garbage
  | Error e -> Alcotest.fail e

(* --- end-to-end: the framework running RIP instead of OSPF ---------------- *)

let test_autoconfig_with_rip () =
  let topo = Rf_net.Topo_gen.ring 4 in
  Rf_net.Topology.add_host topo "server";
  Rf_net.Topology.add_host topo "client";
  ignore
    (Rf_net.Topology.connect topo (Rf_net.Topology.Host "server")
       (Rf_net.Topology.Switch 1L));
  ignore
    (Rf_net.Topology.connect topo (Rf_net.Topology.Host "client")
       (Rf_net.Topology.Switch 3L));
  let options =
    {
      Rf_core.Scenario.default_options with
      rf_params =
        {
          Rf_routeflow.Rf_system.vm_boot_time = Vtime.span_s 2.0;
          parallel_boot = 1;
          config_apply_delay = Vtime.span_ms 200;
          routing_protocol = Rf_routeflow.Rf_system.Proto_rip;
        };
    }
  in
  let s = Rf_core.Scenario.build ~options topo in
  let server = Rf_core.Scenario.host s "server" in
  let client = Rf_core.Scenario.host s "client" in
  ignore
    (Rf_net.Host.start_udp_stream server
       ~dst:(Rf_core.Scenario.host_ip s "client")
       ~dst_port:1234 ~period:(Vtime.span_ms 500) ~payload_size:100 ());
  Rf_core.Scenario.run_for s (Vtime.span_s 240.0);
  Alcotest.(check bool) "all green" true
    (Rf_core.Gui.all_green (Rf_core.Scenario.gui s));
  (* RIP converges too — and the video flows. *)
  Alcotest.(check bool) "converged" true
    (Rf_core.Scenario.routing_converged_at s <> None);
  Alcotest.(check bool) "video delivered over RIP" true
    (Rf_net.Host.udp_received client > 0);
  (* The config file written is ripd.conf, not ospfd.conf. *)
  match Rf_routeflow.Rf_system.vm (Rf_core.Scenario.rf_system s) 1L with
  | Some vm ->
      Alcotest.(check bool) "ripd.conf written" true
        (Rf_routeflow.Vm.config_file vm "ripd.conf" <> None);
      Alcotest.(check bool) "no ospfd.conf" true
        (Rf_routeflow.Vm.config_file vm "ospfd.conf" = None);
      Alcotest.(check bool) "ripd running" true (Rf_routeflow.Vm.ripd vm <> None)
  | None -> Alcotest.fail "no vm"

let suite =
  [
    Alcotest.test_case "rip packet roundtrip" `Quick test_rip_pkt_roundtrip;
    Alcotest.test_case "rip packet rejects metric 0" `Quick
      test_rip_pkt_rejects_bad_metric;
    Alcotest.test_case "two-router convergence" `Quick test_rip_two_router_convergence;
    Alcotest.test_case "metric accumulates along a line" `Quick
      test_rip_line_metric_accumulates;
    Alcotest.test_case "triggered updates fire" `Quick test_rip_triggered_update_fast;
    Alcotest.test_case "silent failure times out" `Quick test_rip_route_times_out;
    Alcotest.test_case "reachability sanity" `Quick test_rip_iface_down_poisons;
    Alcotest.test_case "split horizon with poisoned reverse" `Quick
      test_rip_split_horizon;
    Alcotest.test_case "ripd.conf roundtrip" `Quick test_ripd_conf_roundtrip;
    Alcotest.test_case "vtysh rendering for RIP" `Quick test_rip_show_rendering;
    Alcotest.test_case "full framework over RIP" `Quick test_autoconfig_with_rip;
  ]
