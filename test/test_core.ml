(* Core framework tests: IP allocation, the manual-cost model, the GUI
   model, autoconfig bookkeeping, and small experiment sanity runs. *)

open Rf_packet
module Ip_alloc = Rf_core.Ip_alloc
module Manual_model = Rf_core.Manual_model
module Gui = Rf_core.Gui
module Scenario = Rf_core.Scenario
module Autoconfig = Rf_core.Autoconfig
module Experiment = Rf_core.Experiment
module Topo_gen = Rf_net.Topo_gen
module Engine = Rf_sim.Engine
module Vtime = Rf_sim.Vtime

let pfx = Ipv4_addr.Prefix.of_string_exn

let ip = Ipv4_addr.of_string_exn

(* --- ip allocation -------------------------------------------------------- *)

let alloc_exn a =
  match Ip_alloc.alloc_p2p a with
  | Some block -> block
  | None -> Alcotest.fail "range exhausted"

let test_alloc_disjoint_blocks () =
  let a = Ip_alloc.create (pfx "172.16.0.0/24") in
  let x1, y1, len1 = alloc_exn a in
  let x2, y2, _ = alloc_exn a in
  Alcotest.(check int) "len 30" 30 len1;
  Alcotest.(check string) "first .1" "172.16.0.1" (Ipv4_addr.to_string x1);
  Alcotest.(check string) "first .2" "172.16.0.2" (Ipv4_addr.to_string y1);
  Alcotest.(check string) "second .5" "172.16.0.5" (Ipv4_addr.to_string x2);
  Alcotest.(check string) "second .6" "172.16.0.6" (Ipv4_addr.to_string y2);
  Alcotest.(check int) "two blocks" 2 (Ip_alloc.allocated_blocks a);
  Alcotest.(check bool) "contains" true (Ip_alloc.contains a x2);
  Alcotest.(check bool) "excludes" false (Ip_alloc.contains a (ip "172.17.0.1"))

let test_alloc_exhaustion () =
  let a = Ip_alloc.create (pfx "10.0.0.0/28") in
  Alcotest.(check int) "capacity" 4 (Ip_alloc.capacity_blocks a);
  for _ = 1 to 4 do
    ignore (alloc_exn a)
  done;
  Alcotest.(check bool) "exhausted" true (Ip_alloc.alloc_p2p a = None);
  Alcotest.(check int) "no block past capacity" 4 (Ip_alloc.allocated_blocks a)

let test_alloc_rejects_tiny_range () =
  Alcotest.check_raises "too small"
    (Invalid_argument "Ip_alloc.create: range shorter than /28") (fun () ->
      ignore (Ip_alloc.create (pfx "10.0.0.0/30")))

(* --- manual model ------------------------------------------------------------ *)

let test_manual_model_paper_numbers () =
  let c = Manual_model.paper_costs in
  Alcotest.(check (float 1e-9)) "15 min per switch" 15.
    (Manual_model.per_switch_minutes c);
  (* The paper's headline: 7 hours for 28 switches. *)
  Alcotest.(check (float 1e-9)) "7 hours at 28" 420.
    (Manual_model.total_minutes c ~switches:28);
  (* "Many days" at 1000 switches. *)
  let thousand = Manual_model.total_minutes c ~switches:1000 in
  Alcotest.(check bool) "many days" true (thousand > 6. *. 24. *. 60.);
  Alcotest.(check string) "pretty hours" "7h 00m"
    (Format.asprintf "%a" Manual_model.pp_duration 420.);
  Alcotest.(check string) "pretty days" "10d 10h"
    (Format.asprintf "%a" Manual_model.pp_duration thousand)

(* --- gui ----------------------------------------------------------------------- *)

let test_gui_transitions () =
  let engine = Engine.create () in
  let gui = Gui.create engine () in
  Gui.add_switch gui 1L;
  Gui.add_switch gui 2L;
  Alcotest.(check int) "total" 2 (Gui.total gui);
  Alcotest.(check bool) "red" true (Gui.color_of gui 1L = Some Gui.Red);
  Alcotest.(check bool) "not all green" false (Gui.all_green gui);
  ignore (Engine.schedule engine (Vtime.span_s 5.0) (fun () -> Gui.set_green gui 1L));
  ignore (Engine.schedule engine (Vtime.span_s 9.0) (fun () -> Gui.set_green gui 2L));
  ignore (Engine.run engine);
  Alcotest.(check bool) "green" true (Gui.color_of gui 1L = Some Gui.Green);
  Alcotest.(check bool) "all green" true (Gui.all_green gui);
  (match Gui.all_green_at gui with
  | Some t -> Alcotest.(check (float 1e-6)) "last transition" 9.0 (Vtime.to_s t)
  | None -> Alcotest.fail "no completion time");
  match Gui.timeline gui with
  | [ (1L, t1); (2L, t2) ] ->
      Alcotest.(check (float 1e-6)) "first" 5.0 (Vtime.to_s t1);
      Alcotest.(check (float 1e-6)) "second" 9.0 (Vtime.to_s t2)
  | _ -> Alcotest.fail "bad timeline"

let test_gui_render_marks () =
  let engine = Engine.create () in
  let gui = Gui.create engine () in
  Gui.add_switch gui 1L;
  Gui.add_switch gui 2L;
  Gui.set_green gui 1L;
  let frame = Gui.render gui in
  Alcotest.(check bool) "has green mark" true (Astring_contains.contains frame "# sw1");
  Alcotest.(check bool) "has red mark" true (Astring_contains.contains frame ". sw2");
  Alcotest.(check bool) "has counter" true (Astring_contains.contains frame "1/2")

let test_gui_set_green_idempotent () =
  let engine = Engine.create () in
  let gui = Gui.create engine () in
  Gui.add_switch gui 1L;
  Gui.set_green gui 1L;
  Gui.set_green gui 1L;
  Alcotest.(check int) "one transition" 1 (List.length (Gui.timeline gui))

(* --- autoconfig bookkeeping ------------------------------------------------------ *)

let quick_options =
  {
    Scenario.default_options with
    rf_params =
      { Rf_routeflow.Rf_system.vm_boot_time = Vtime.span_s 1.0; parallel_boot = 1;
        config_apply_delay = Vtime.span_ms 100;
        routing_protocol = Rf_routeflow.Rf_system.Proto_ospf };
  }

let test_autoconfig_reports_everything () =
  let topo = Topo_gen.ring 5 in
  let s = Scenario.build ~options:quick_options topo in
  Scenario.run_for s (Vtime.span_s 30.0);
  let ac = Scenario.autoconfig s in
  Alcotest.(check int) "switches" 5 (Autoconfig.switches_reported ac);
  Alcotest.(check int) "links" 5 (Autoconfig.links_reported ac);
  Alcotest.(check int) "blocks = links" 5
    (Ip_alloc.allocated_blocks (Autoconfig.allocator ac))

(* A /28 holds four /30 blocks, so a 6-ring leaves two links without
   addresses: reported, skipped, and the run carries on. *)
let test_autoconfig_exhaustion_is_reported () =
  let options =
    { quick_options with Scenario.ip_range = pfx "10.9.0.0/28" }
  in
  let s = Scenario.build ~options (Topo_gen.ring 6) in
  Scenario.run_for s (Vtime.span_s 60.0);
  let ac = Scenario.autoconfig s in
  Alcotest.(check int) "exhausted links" 2 (Autoconfig.links_exhausted ac);
  Alcotest.(check int) "configured links" 4 (Autoconfig.links_reported ac);
  Alcotest.(check int) "blocks" 4
    (Ip_alloc.allocated_blocks (Autoconfig.allocator ac));
  let metrics = Engine.metrics (Scenario.engine s) in
  Alcotest.(check int) "exhaustion counter" 2
    (Rf_obs.Metrics.counter_value
       (Rf_obs.Metrics.counter metrics "autoconf_alloc_exhausted_total"));
  let link_ups =
    List.filter
      (function Rf_rpc.Rpc_msg.Link_up _ -> true | _ -> false)
      (Autoconfig.snapshot ac)
  in
  Alcotest.(check int) "snapshot skips unconfigured links" 4
    (List.length link_ups);
  Alcotest.(check int) "every switch still configured" 6
    (Rf_routeflow.Rf_system.configured_count (Scenario.rf_system s))

let test_autoconfig_link_flap_reuses_addresses () =
  let topo = Topo_gen.ring 4 in
  let options =
    { quick_options with Scenario.probe_interval = Vtime.span_s 2.0 }
  in
  let s = Scenario.build ~options topo in
  Scenario.run_for s (Vtime.span_s 20.0);
  let blocks_before =
    Ip_alloc.allocated_blocks (Autoconfig.allocator (Scenario.autoconfig s))
  in
  (* Flap a link; rediscovery must not burn a new block. *)
  Rf_net.Network.set_link_up (Scenario.network s) (Rf_net.Topology.Switch 1L)
    (Rf_net.Topology.Switch 2L) false;
  Scenario.run_for s (Vtime.span_s 30.0);
  Rf_net.Network.set_link_up (Scenario.network s) (Rf_net.Topology.Switch 1L)
    (Rf_net.Topology.Switch 2L) true;
  Scenario.run_for s (Vtime.span_s 30.0);
  let blocks_after =
    Ip_alloc.allocated_blocks (Autoconfig.allocator (Scenario.autoconfig s))
  in
  Alcotest.(check int) "no new allocation" blocks_before blocks_after

(* --- host subnets --------------------------------------------------------------- *)

let test_host_subnets_distinct () =
  let topo = Topo_gen.ring 3 in
  let names = List.init 300 (Printf.sprintf "h%03d") in
  List.iter
    (fun name ->
      Rf_net.Topology.add_host topo name;
      ignore
        (Rf_net.Topology.connect topo (Rf_net.Topology.Host name)
           (Rf_net.Topology.Switch 1L)))
    names;
  let s = Scenario.build ~options:quick_options topo in
  let subnets =
    List.sort_uniq compare
      (List.map
         (fun name ->
           Ipv4_addr.Prefix.to_string
             (Ipv4_addr.Prefix.make (Scenario.host_ip s name) 24))
         names)
  in
  Alcotest.(check int) "300 distinct subnets" 300 (List.length subnets);
  Alcotest.(check string) "host 1 keeps 10.0.1.0/24" "10.0.1.0/24"
    (Ipv4_addr.Prefix.to_string (Scenario.host_subnet 1));
  Alcotest.(check string) "host 257" "10.1.1.0/24"
    (Ipv4_addr.Prefix.to_string (Scenario.host_subnet 257));
  Alcotest.(check string) "host 65535" "10.255.255.0/24"
    (Ipv4_addr.Prefix.to_string (Scenario.host_subnet 65535));
  Alcotest.check_raises "past 65535 hosts"
    (Invalid_argument "Scenario.host_subnet: host 65536 out of 1..65535")
    (fun () -> ignore (Scenario.host_subnet 65536))

(* --- experiments (small instances) ------------------------------------------------- *)

let test_fig3_rows_sane () =
  let rows = Experiment.fig3 ~sizes:[ 3; 5 ] ~vm_boot_s:1.0 () in
  match rows with
  | [ r3; r5 ] ->
      Alcotest.(check int) "sizes" 3 r3.Experiment.f3_switches;
      Alcotest.(check bool) "monotone auto" true
        (r5.Experiment.f3_auto_s > r3.Experiment.f3_auto_s);
      Alcotest.(check (float 1e-9)) "manual model" 45. r3.Experiment.f3_manual_min;
      Alcotest.(check bool) "auto beats manual" true
        (r3.Experiment.f3_auto_s < r3.Experiment.f3_manual_min *. 60.);
      Alcotest.(check bool) "converged recorded" true
        (r3.Experiment.f3_converged_s <> None)
  | _ -> Alcotest.fail "wrong row count"

let test_ablation_parallel_boot_helps () =
  match Experiment.ablation_parallel_boot ~switches:6 () with
  | [ r1; _; r4; _ ] -> (
      match (r1.Experiment.ab_all_green_s, r4.Experiment.ab_all_green_s) with
      | Some serial, Some parallel ->
          Alcotest.(check bool) "4-way faster than serial" true (parallel < serial)
      | _ -> Alcotest.fail "missing results")
  | _ -> Alcotest.fail "wrong variants"

let test_timeline_reconstruction () =
  let topo = Topo_gen.ring 3 in
  let s = Scenario.build ~options:quick_options topo in
  Scenario.run_for s (Vtime.span_s 30.0);
  let entries = Rf_core.Timeline.of_scenario s in
  let sum = Rf_core.Timeline.summarize entries in
  Alcotest.(check int) "switches detected" 3 sum.Rf_core.Timeline.switches_detected;
  Alcotest.(check int) "links detected" 3 sum.Rf_core.Timeline.links_detected;
  Alcotest.(check int) "vms ready" 3 sum.Rf_core.Timeline.vms_ready;
  Alcotest.(check int) "vms configured" 3 sum.Rf_core.Timeline.vms_configured;
  (* Milestones are chronological. *)
  let rec monotone = function
    | a :: (b :: _ as rest) ->
        Rf_sim.Vtime.compare a.Rf_core.Timeline.at b.Rf_core.Timeline.at <= 0
        && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "chronological" true (monotone entries);
  Alcotest.(check bool) "render mentions green" true
    (Astring_contains.contains (Rf_core.Timeline.render entries) "switch green")

let test_runs_are_deterministic () =
  let run () =
    let rows = Experiment.fig3 ~sizes:[ 3 ] ~vm_boot_s:1.0 () in
    match rows with
    | [ r ] -> (r.Experiment.f3_auto_s, r.Experiment.f3_converged_s)
    | _ -> Alcotest.fail "wrong rows"
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "bit-identical results" true (a = b)

let test_census_rpc_economy () =
  (* The framework's footprint is exactly two RPC messages per network
     element (one switch-up per switch, one link-up per link). *)
  let c = Experiment.census ~switches:6 () in
  Alcotest.(check int) "rpc messages" 12 c.Experiment.cn_rpc_messages;
  Alcotest.(check bool) "probes flowed" true (c.Experiment.cn_lldp_probes > 0);
  Alcotest.(check bool) "flow mods installed" true (c.Experiment.cn_flow_mods > 0)

let suite =
  [
    Alcotest.test_case "allocator yields disjoint /30s" `Quick
      test_alloc_disjoint_blocks;
    Alcotest.test_case "allocator exhaustion" `Quick test_alloc_exhaustion;
    Alcotest.test_case "allocator rejects tiny ranges" `Quick
      test_alloc_rejects_tiny_range;
    Alcotest.test_case "manual model matches the paper" `Quick
      test_manual_model_paper_numbers;
    Alcotest.test_case "gui transitions and timeline" `Quick test_gui_transitions;
    Alcotest.test_case "gui render marks" `Quick test_gui_render_marks;
    Alcotest.test_case "gui set_green idempotent" `Quick
      test_gui_set_green_idempotent;
    Alcotest.test_case "autoconfig reports switches/links/blocks" `Quick
      test_autoconfig_reports_everything;
    Alcotest.test_case "link flap reuses addresses" `Quick
      test_autoconfig_link_flap_reuses_addresses;
    Alcotest.test_case "address exhaustion is a reported fault" `Quick
      test_autoconfig_exhaustion_is_reported;
    Alcotest.test_case "300 hosts get 300 distinct subnets" `Quick
      test_host_subnets_distinct;
    Alcotest.test_case "fig3 rows sane on small rings" `Quick test_fig3_rows_sane;
    Alcotest.test_case "parallel boot ablation helps" `Quick
      test_ablation_parallel_boot_helps;
    Alcotest.test_case "timeline reconstruction from trace" `Quick
      test_timeline_reconstruction;
    Alcotest.test_case "experiment runs are deterministic" `Quick
      test_runs_are_deterministic;
    Alcotest.test_case "census: two RPC messages per element" `Quick
      test_census_rpc_economy;
  ]
