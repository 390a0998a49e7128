(* Reconvergence tracking: the RIB generation counter that gates it,
   the seed-42 reconvergence times of the E3, E4 and E9 fault
   experiments, and a property pinning the generation-gated tracker to
   a brute-force reference that digests every VM's selected routes
   every simulated second. *)

open Rf_packet
module Rib = Rf_routing.Rib
module Topo_gen = Rf_net.Topo_gen
module Scenario = Rf_core.Scenario
module Experiment = Rf_core.Experiment
module Rf_system = Rf_routeflow.Rf_system
module Vm = Rf_routeflow.Vm
module Faults = Rf_sim.Faults
module Engine = Rf_sim.Engine
module Vtime = Rf_sim.Vtime

let pfx = Ipv4_addr.Prefix.of_string_exn

(* --- Rib.generation ---------------------------------------------------- *)

let route ?(proto = Rib.Ospf) ?(metric = 10) ~next_hop prefix =
  {
    Rib.r_prefix = pfx prefix;
    r_proto = proto;
    r_distance = Rib.default_distance proto;
    r_metric = metric;
    r_next_hop = Some (Ipv4_addr.of_string_exn next_hop);
    r_iface = "eth1";
  }

let test_generation_bumps_on_selection_change () =
  let rib = Rib.create () in
  let gen () = Rib.generation rib in
  Alcotest.(check int) "fresh" 0 (gen ());
  Rib.update rib (route ~next_hop:"1.1.1.1" "10.0.0.0/24");
  Alcotest.(check int) "added" 1 (gen ());
  Rib.update rib (route ~next_hop:"1.1.1.1" "10.0.0.0/24");
  Alcotest.(check int) "identical re-announcement" 1 (gen ());
  Rib.update rib (route ~metric:5 ~next_hop:"2.2.2.2" "10.0.0.0/24");
  Alcotest.(check int) "changed" 2 (gen ());
  Rib.withdraw rib Rib.Ospf (pfx "10.0.0.0/24");
  Alcotest.(check int) "removed" 3 (gen ())

let test_generation_ignores_losing_candidates () =
  let rib = Rib.create () in
  Rib.update rib (route ~proto:Rib.Static ~next_hop:"2.2.2.2" "10.0.0.0/24");
  let before = Rib.generation rib in
  (* OSPF loses to static on distance: a new losing candidate and its
     withdrawal leave the selection, and the generation, untouched. *)
  Rib.update rib (route ~proto:Rib.Ospf ~next_hop:"1.1.1.1" "10.0.0.0/24");
  Alcotest.(check int) "losing candidate added" before (Rib.generation rib);
  Rib.withdraw rib Rib.Ospf (pfx "10.0.0.0/24");
  Alcotest.(check int) "losing candidate withdrawn" before (Rib.generation rib);
  Rib.withdraw rib Rib.Rip (pfx "10.0.0.0/24");
  Alcotest.(check int) "absent candidate withdrawn" before (Rib.generation rib);
  Rib.withdraw rib Rib.Static (pfx "10.0.0.0/24");
  Alcotest.(check int) "winner withdrawn" (before + 1) (Rib.generation rib)

(* --- seed-42 reconvergence times --------------------------------------- *)

let s_opt = Alcotest.(option (float 1e-9))

let test_e3_link_cut_pinned () =
  let r = Experiment.failure_recovery () in
  Alcotest.check s_opt "E3 reconverged" (Some 62.0)
    r.Experiment.fr_reconverged_s

let test_e4_restart_pinned () =
  let r = Experiment.restart () in
  Alcotest.check s_opt "E4 no-fault baseline" (Some 10.0)
    r.Experiment.rs_baseline.Experiment.rr_reconverged_s;
  Alcotest.check s_opt "E4 crash + reconciliation" (Some 22.0)
    r.Experiment.rs_supervised.Experiment.rr_reconverged_s;
  (* The legacy session never hears of the cut, so no route changes
     after the last fault (the restart at 20 s). *)
  Alcotest.check s_opt "E4 legacy" None
    r.Experiment.rs_legacy.Experiment.rr_reconverged_s

let test_e9_leader_crash_pinned () =
  let r = Experiment.cluster_failover () in
  (* The cluster reroutes around the 36 s cut long before replica 0
     rejoins at 60 s; the rejoin itself changes no route. *)
  Alcotest.check s_opt "E9 replicated" None
    r.Experiment.cf_auto.Experiment.cw_traffic.Experiment.tw_reconverged_s;
  Alcotest.check s_opt "E9 single controller" (Some 57.0)
    r.Experiment.cf_legacy.Experiment.cw_traffic.Experiment.tw_reconverged_s

(* --- tracker vs brute-force reference ----------------------------------- *)

let long_factor =
  match Sys.getenv_opt "QCHECK_LONG" with
  | Some ("" | "0") | None -> 1
  | Some _ -> 10

(* The reference: every VM's selected routes printed in full, every
   second, compared as text. *)
let digest_routes rf_sys =
  let buf = Buffer.create 256 in
  List.iter
    (fun (dpid, vm) ->
      Buffer.add_string buf (Printf.sprintf "vm-%Ld:" dpid);
      List.iter
        (fun (r : Rib.route) ->
          Buffer.add_string buf
            (Printf.sprintf "%s/%s/%s;"
               (Ipv4_addr.Prefix.to_string r.r_prefix)
               (match r.r_next_hop with
               | Some nh -> Ipv4_addr.to_string nh
               | None -> "direct")
               r.r_iface))
        (Rib.selected (Vm.rib vm));
      Buffer.add_char buf '\n')
    (Rf_system.vms rf_sys);
  Buffer.contents buf

type fault =
  | Cut of int * float
  | Flap of int * float * float
  | Crash of int * float * float
  | Boot_failures of int * int

let timed_of n = function
  | Cut (i, at_s) ->
      let a = Int64.of_int i and b = Int64.of_int ((i mod n) + 1) in
      [ Faults.link_down ~at_s a b ]
  | Flap (i, at_s, down_s) ->
      let a = Int64.of_int i and b = Int64.of_int ((i mod n) + 1) in
      [ Faults.link_down ~at_s a b; Faults.link_up ~at_s:(at_s +. down_s) a b ]
  | Crash (i, at_s, down_s) ->
      let d = Int64.of_int i in
      [
        Faults.switch_crash ~at_s d;
        Faults.switch_recover ~at_s:(at_s +. down_s) d;
      ]
  | Boot_failures (i, failures) ->
      [ Faults.vm_boot_failure ~at_s:0.0 ~dpid:(Int64.of_int i) ~failures ]

let print_fault = function
  | Cut (i, at) -> Printf.sprintf "cut sw%d-next @%.2f" i at
  | Flap (i, at, d) -> Printf.sprintf "flap sw%d-next @%.2f for %.2f" i at d
  | Crash (i, at, d) -> Printf.sprintf "crash sw%d @%.2f for %.2f" i at d
  | Boot_failures (i, k) -> Printf.sprintf "sw%d clone fails %dx" i k

let gen_case =
  let open QCheck.Gen in
  let* n = int_range 4 8 in
  let* seed = int_bound 1000 in
  (* quarter-second fault times exercise sub-second offsets *)
  let time = map (fun q -> float_of_int q /. 4.0) (int_range 40 240) in
  let span = map (fun q -> float_of_int q /. 4.0) (int_range 1 80) in
  let sw = int_range 1 n in
  let fault =
    frequency
      [
        (2, map2 (fun i t -> Cut (i, t)) sw time);
        (3, map3 (fun i t d -> Flap (i, t, d)) sw time span);
        (2, map3 (fun i t d -> Crash (i, t, d)) sw time span);
        (1, map2 (fun i k -> Boot_failures (i, k)) sw (int_range 1 2));
      ]
  in
  let* faults = list_size (int_range 1 4) fault in
  return (n, seed, faults)

let print_case (n, seed, faults) =
  Printf.sprintf "ring %d, seed %d: [%s]" n seed
    (String.concat "; " (List.map print_fault faults))

let fast_params =
  {
    Rf_system.vm_boot_time = Vtime.span_s 2.0;
    parallel_boot = 4;
    config_apply_delay = Vtime.span_ms 200;
    routing_protocol = Rf_system.Proto_ospf;
  }

(* Runs the case with the reference probe sampling right after the
   scenario's own each second (it is armed right after [build], so the
   two periodic events stay adjacent in the queue), and returns the
   seconds at which the two disagreed about [reconverged_at]. *)
let disagreements (n, seed, faults) =
  let options =
    {
      Scenario.default_options with
      seed;
      rf_params = fast_params;
      faults = Faults.plan (List.concat_map (timed_of n) faults);
    }
  in
  let s = Scenario.build ~options (Topo_gen.ring n) in
  let engine = Scenario.engine s in
  let digest = ref "" and last_change = ref None and bad = ref [] in
  ignore
    (Engine.periodic engine (Vtime.span_s 1.0) (fun () ->
         let d = digest_routes (Scenario.rf_system s) in
         if not (String.equal d !digest) then begin
           digest := d;
           last_change := Some (Engine.now engine)
         end;
         let expected =
           match (Scenario.last_fault_at s, !last_change) with
           | Some fault_at, Some change_at
             when Vtime.compare fault_at change_at <= 0 ->
               Some change_at
           | (Some _ | None), (Some _ | None) -> None
         in
         if not (Option.equal Vtime.equal expected (Scenario.reconverged_at s))
         then bad := Vtime.to_s (Engine.now engine) :: !bad));
  Scenario.run_for s (Vtime.span_s 100.0);
  List.rev !bad

(* Without a fault plan the once-a-second probe has nothing left to do
   after convergence, and stops. *)
let test_probe_stops_after_convergence () =
  let s = Scenario.build (Topo_gen.ring 4) in
  let profiler = Rf_obs.Profiler.create ~clock_ns:(fun () -> 0) () in
  Engine.set_profiler (Scenario.engine s) (Some profiler);
  while Scenario.routing_converged_at s = None do
    Scenario.run_for s (Vtime.span_s 1.0)
  done;
  let probe_events () =
    List.fold_left
      (fun acc (st : Rf_obs.Profiler.entity_stat) ->
        if String.equal st.es_id "comp:scenario" then st.es_events else acc)
      0 (Rf_obs.Profiler.snapshot profiler).sn_entities
  in
  let at_convergence = probe_events () in
  Scenario.run_for s (Vtime.span_s 100.0);
  Alcotest.(check bool) "the probe ran" true (at_convergence > 0);
  Alcotest.(check int) "no probe event after convergence" at_convergence
    (probe_events ())

let prop_tracker_matches_reference =
  QCheck.Test.make ~count:(100 * long_factor)
    ~name:"generation-gated tracker = per-second full digest"
    (QCheck.make ~print:print_case gen_case)
    (fun case ->
      match disagreements case with
      | [] -> true
      | at :: _ -> QCheck.Test.fail_reportf "first disagreement at %.0fs" at)

let suite =
  [
    Alcotest.test_case "rib generation bumps on selection changes" `Quick
      test_generation_bumps_on_selection_change;
    Alcotest.test_case "rib generation ignores losing candidates" `Quick
      test_generation_ignores_losing_candidates;
    Alcotest.test_case "E3 link cut reconverges at 62 s" `Quick
      test_e3_link_cut_pinned;
    Alcotest.test_case "E4 restart reconvergence pinned" `Quick
      test_e4_restart_pinned;
    Alcotest.test_case "the convergence probe stops without faults" `Quick
      test_probe_stops_after_convergence;
    Alcotest.test_case "E9 leader crash reconvergence pinned" `Slow
      test_e9_leader_crash_pinned;
    QCheck_alcotest.to_alcotest prop_tracker_matches_reference;
  ]
