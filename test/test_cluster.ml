(* The replicated RF-controller cluster: deterministic bootstrap
   election, failover after leader crash and partition, replication
   through the committed log, the leader fence over the RouteFlow
   state, switch-session failover, and the qcheck safety properties —
   at most one leader per epoch under crash/partition/message-loss
   schedules, digest-identical replicas after convergence, and
   same-seed replayability. *)

module Engine = Rf_sim.Engine
module Vtime = Rf_sim.Vtime
module Rng = Rf_sim.Rng
module Faults = Rf_sim.Faults
module Cluster = Rf_rpc.Cluster
module Replica = Rf_rpc.Replica
module Rpc_msg = Rf_rpc.Rpc_msg
module Topology = Rf_net.Topology
module Topo_gen = Rf_net.Topo_gen
module Scenario = Rf_core.Scenario
module Rf_system = Rf_routeflow.Rf_system
module Rf_controller_app = Rf_routeflow.Rf_controller_app
module G = QCheck.Gen

let long_factor =
  match Sys.getenv_opt "QCHECK_LONG" with
  | None | Some "" | Some "0" -> 1
  | Some _ -> 10

let prop ?(count = 60) name gen print f =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count:(count * long_factor)
       (QCheck.make ~print gen) f)

let check = Alcotest.(check bool)

let checki = Alcotest.(check int)

let mk ?(seed = 42) ?(replicas = 3) () =
  let engine = Engine.create ~seed () in
  let cl =
    Cluster.create engine
      ~rng:(Rng.derive (Engine.rng engine) 0x636c)
      ~replicas ()
  in
  (engine, cl)

let run_until engine s = ignore (Engine.run ~until:(Vtime.of_s s) engine)

let msg k = Rpc_msg.Switch_up { dpid = Int64.of_int k; n_ports = 4 }

(* --- unit: election and replication --------------------------------- *)

let test_bootstrap () =
  let engine, cl = mk () in
  run_until engine 10.0;
  Alcotest.(check (option int)) "replica 0 bootstraps" (Some 0)
    (Cluster.leader cl);
  Alcotest.(check int32) "first epoch" 1l (Cluster.leader_epoch cl);
  checki "one election" 1 (Cluster.elections cl);
  checki "no failover" 0 (Cluster.failovers cl);
  check "replicas agree" true (Cluster.converged cl)

let test_replication_in_order () =
  let engine, cl = mk () in
  let seen = ref [] in
  Cluster.set_on_apply cl (fun m -> seen := m :: !seen);
  run_until engine 10.0;
  let msgs = List.init 5 (fun k -> msg (k + 1)) in
  List.iter (Cluster.submit cl) msgs;
  run_until engine 20.0;
  checki "all applied" 5 (Cluster.applied cl);
  checki "nothing pending" 0 (Cluster.pending cl);
  check "applied in submission order" true (List.rev !seen = msgs);
  check "replicas agree" true (Cluster.converged cl);
  check "digests identical" true
    (String.equal (Cluster.log_digest cl 0) (Cluster.log_digest cl 1)
    && String.equal (Cluster.log_digest cl 1) (Cluster.log_digest cl 2))

let test_failover_after_crash () =
  let engine, cl = mk () in
  run_until engine 10.0;
  Cluster.crash cl 0;
  run_until engine 25.0;
  Alcotest.(check (option int)) "next-biased replica takes over" (Some 1)
    (Cluster.leader cl);
  Alcotest.(check int32) "epoch advanced" 2l (Cluster.leader_epoch cl);
  checki "one completed failover" 1 (Cluster.failovers cl);
  (match Cluster.last_failover_s cl with
  | Some s -> check "re-election under 10 s" true (s < 10.0)
  | None -> Alcotest.fail "no failover duration recorded");
  Cluster.restart cl 0;
  run_until engine 40.0;
  Alcotest.(check (option int)) "rejoiner stays follower" (Some 1)
    (Cluster.leader cl);
  check "rejoined replica synced" true (Cluster.converged cl)

let test_leaderless_submissions_queue () =
  let engine, cl = mk () in
  let applied = ref 0 in
  Cluster.set_on_apply cl (fun _ -> incr applied);
  run_until engine 10.0;
  Cluster.crash cl 0;
  List.iter (Cluster.submit cl) [ msg 1; msg 2; msg 3 ];
  checki "queued while leaderless" 3 (Cluster.pending cl);
  run_until engine 30.0;
  checki "drained after re-election" 0 (Cluster.pending cl);
  checki "all surfaced" 3 !applied

let test_partition_majority_elects () =
  let engine, cl = mk () in
  run_until engine 10.0;
  Cluster.partition cl [ 0 ] [ 1; 2 ];
  run_until engine 25.0;
  (match Cluster.leader cl with
  | Some l -> check "leader in the majority side" true (l = 1 || l = 2)
  | None -> Alcotest.fail "majority side never elected");
  check "partition dropped frames" true (Cluster.partition_drops cl > 0);
  Cluster.heal cl;
  run_until engine 40.0;
  check "healed cluster agrees" true (Cluster.converged cl);
  (* election safety over the whole history *)
  let epochs = List.map fst (Cluster.leadership_history cl) in
  checki "no epoch won twice"
    (List.length epochs)
    (List.length (List.sort_uniq compare epochs))

(* --- unit: the scenario integration --------------------------------- *)

let fast_params =
  {
    Rf_system.vm_boot_time = Vtime.span_s 2.0;
    parallel_boot = 4;
    config_apply_delay = Vtime.span_ms 200;
    routing_protocol = Rf_system.Proto_ospf;
  }

let scenario_opts ?(seed = 42) ?(replicas = 3) faults =
  {
    Scenario.default_options with
    seed;
    rf_params = fast_params;
    faults;
    cluster_replicas = replicas;
  }

let selected_routes s =
  List.map
    (fun (dpid, vm) ->
      ( dpid,
        List.sort compare
          (List.map
             (fun (r : Rf_routing.Rib.route) ->
               ( Rf_packet.Ipv4_addr.Prefix.to_string r.r_prefix,
                 r.r_iface ))
             (Rf_routing.Rib.selected (Rf_routeflow.Vm.rib vm))) ))
    (Rf_system.vms (Scenario.rf_system s))
  |> List.sort compare

let test_scenario_cluster_configures () =
  let build replicas =
    let s =
      Scenario.build
        ~options:(scenario_opts ~replicas Faults.empty)
        (Topo_gen.ring 4)
    in
    Scenario.run_for s (Vtime.span_s 60.0);
    s
  in
  let clustered = build 3 in
  let legacy = build 1 in
  check "clustered run turns all-green" true
    (Scenario.all_configured_at clustered <> None);
  check "legacy scenario has no cluster" true (Scenario.cluster legacy = None);
  let cl =
    match Scenario.cluster clustered with
    | Some cl -> cl
    | None -> Alcotest.fail "clustered scenario lost its cluster"
  in
  check "replicas agree" true (Cluster.converged cl);
  check "commits surfaced" true (Cluster.applied cl > 0);
  check "same routes as the single controller" true
    (selected_routes clustered = selected_routes legacy)

let test_scenario_mutation_fence () =
  let s =
    Scenario.build ~options:(scenario_opts Faults.empty) (Topo_gen.ring 4)
  in
  Scenario.run_for s (Vtime.span_s 60.0);
  let rf = Scenario.rf_system s in
  checki "nothing fenced during normal operation" 0
    (Rf_system.mutations_rejected rf);
  let vms_before = List.length (Rf_system.vms rf) in
  (* out-of-band mutation, i.e. not from inside a commit callback *)
  Rf_system.switch_down rf ~dpid:1L;
  checki "rejected by the leader fence" 1 (Rf_system.mutations_rejected rf);
  checki "state untouched" vms_before (List.length (Rf_system.vms rf))

let test_scenario_failover_reassigns_switches () =
  let faults =
    Faults.(plan [ controller_crash ~at_s:40.0 ~replica:0 () ])
  in
  let s = Scenario.build ~options:(scenario_opts faults) (Topo_gen.ring 4) in
  Scenario.run_for s (Vtime.span_s 90.0);
  let cl =
    match Scenario.cluster s with
    | Some cl -> cl
    | None -> Alcotest.fail "no cluster"
  in
  checki "one failover" 1 (Cluster.failovers cl);
  Alcotest.(check (option int)) "replica 1 leads" (Some 1) (Cluster.leader cl);
  let app = Scenario.rf_app s in
  check "sessions back under a master" true (Rf_controller_app.is_master app);
  (* every switch demoted on the crash, promoted on the re-election *)
  checki "role flips" 8 (Rf_controller_app.reassignments app);
  check "fence never leaked a mutation" true
    (Rf_system.mutations_rejected (Scenario.rf_system s) = 0)

(* --- qcheck: chaos schedules ---------------------------------------- *)

type step = Crash of int | Restart of int | Partition of int | Heal

let pp_step = function
  | Crash i -> Printf.sprintf "crash %d" i
  | Restart i -> Printf.sprintf "restart %d" i
  | Partition i -> Printf.sprintf "isolate %d" i
  | Heal -> "heal"

let gen_chaos =
  let open G in
  let gen_step =
    frequency
      [
        (3, map (fun i -> Crash i) (int_range 0 2));
        (3, map (fun i -> Restart i) (int_range 0 2));
        (2, map (fun i -> Partition i) (int_range 0 2));
        (1, return Heal);
      ]
  in
  let* seed = int_range 0 9999 in
  let* steps = list_size (int_range 1 8) gen_step in
  return (seed, steps)

let print_chaos (seed, steps) =
  Printf.sprintf "seed %d: %s" seed
    (String.concat "; " (List.map pp_step steps))

type chaos_outcome = {
  co_violation : (int32 * int * int) option;
      (** epoch claimed by two distinct leaders *)
  co_history : (int32 * int) list;
  co_digests : string list;
  co_applied : int;
  co_pending : int;
  co_converged : bool;
}

(* Drives a random crash/restart/partition schedule over a 3-replica
   cluster with a lossy mesh, a trickle of submissions throughout,
   then heals, restarts everyone and lets it settle. Leadership claims
   are sampled every 200 ms: two live replicas asserting leadership of
   the same epoch is the safety violation Raft-style elections
   exclude. *)
let run_chaos (seed, steps) =
  let engine, cl = mk ~seed () in
  Cluster.set_fault_profile cl
    (Rng.create (seed + 77))
    (Faults.lossy ~drop:0.05 ~duplicate:0.02 ~delay:0.05 ());
  let violation = ref None in
  let claims = Hashtbl.create 16 in
  let rec sample () =
    for i = 0 to 2 do
      let r = Cluster.member cl i in
      if (not (Replica.crashed r)) && Replica.role r = Replica.Leader then begin
        let epoch = Replica.term r in
        match Hashtbl.find_opt claims epoch with
        | Some id when id <> i ->
            if !violation = None then violation := Some (epoch, id, i)
        | Some _ -> ()
        | None -> Hashtbl.add claims epoch i
      end
    done;
    ignore (Engine.schedule engine (Vtime.span_ms 200) sample)
  in
  ignore (Engine.schedule engine (Vtime.span_ms 200) sample);
  for k = 0 to 14 do
    ignore
      (Engine.schedule_at engine
         (Vtime.of_s (2.0 +. (2.0 *. float_of_int k)))
         (fun () -> Cluster.submit cl (msg (k + 1))))
  done;
  List.iteri
    (fun k s ->
      ignore
        (Engine.schedule_at engine
           (Vtime.of_s (5.0 +. (4.0 *. float_of_int k)))
           (fun () ->
             match s with
             | Crash i -> Cluster.crash cl i
             | Restart i -> Cluster.restart cl i
             | Partition i ->
                 Cluster.partition cl [ i ]
                   (List.filter (fun j -> j <> i) [ 0; 1; 2 ])
             | Heal -> Cluster.heal cl)))
    steps;
  let chaos_end = 5.0 +. (4.0 *. float_of_int (List.length steps)) in
  ignore
    (Engine.schedule_at engine (Vtime.of_s chaos_end) (fun () ->
         Cluster.heal cl;
         for i = 0 to 2 do
           Cluster.restart cl i
         done));
  run_until engine (chaos_end +. 40.0);
  {
    co_violation = !violation;
    co_history = Cluster.leadership_history cl;
    co_digests = List.init 3 (Cluster.log_digest cl);
    co_applied = Cluster.applied cl;
    co_pending = Cluster.pending cl;
    co_converged = Cluster.converged cl;
  }

(* One lossy-mesh chaos run, pinned by the MD5 of its replica log
   digests: the mesh's per-frame fault path must replay the same drops,
   duplicates and delays. *)
let test_lossy_mesh_pinned () =
  let o = run_chaos (4242, [ Crash 0; Partition 1; Restart 0; Heal ]) in
  check "converged" true o.co_converged;
  checki "nothing pending" 0 o.co_pending;
  check "replicas agree" true
    (List.for_all (String.equal (List.hd o.co_digests)) o.co_digests);
  Alcotest.(check string) "replica log digests" "9b1f83224d0237a299014a812c2c3e8b"
    (Digest.to_hex (Digest.string (String.concat "," o.co_digests)))

let election_safety_prop =
  prop "election safety: at most one leader per epoch" gen_chaos print_chaos
    (fun input ->
      let o = run_chaos input in
      (match o.co_violation with
      | Some (epoch, a, b) ->
          QCheck.Test.fail_reportf
            "replicas %d and %d both led epoch %ld (%s)" a b epoch
            (print_chaos input)
      | None -> ());
      let epochs = List.map fst o.co_history in
      List.length epochs = List.length (List.sort_uniq compare epochs))

let convergence_prop =
  prop "replicas end digest-identical after convergence" gen_chaos print_chaos
    (fun input ->
      let o = run_chaos input in
      if not o.co_converged then
        QCheck.Test.fail_reportf "cluster never reconverged (%s)"
          (print_chaos input);
      if o.co_pending <> 0 then
        QCheck.Test.fail_reportf "%d submissions never committed (%s)"
          o.co_pending (print_chaos input);
      match o.co_digests with
      | d :: rest -> List.for_all (String.equal d) rest && o.co_applied >= 15
      | [] -> false)

let determinism_prop =
  prop ~count:20 "same seed and schedule replay bit-identically" gen_chaos
    print_chaos (fun input ->
      let a = run_chaos input in
      let b = run_chaos input in
      a.co_history = b.co_history
      && a.co_digests = b.co_digests
      && a.co_applied = b.co_applied)

let suite =
  [
    Alcotest.test_case "bootstrap: replica 0 leads epoch 1" `Quick
      test_bootstrap;
    Alcotest.test_case "replication applies once, in order" `Quick
      test_replication_in_order;
    Alcotest.test_case "leader crash: deterministic failover" `Quick
      test_failover_after_crash;
    Alcotest.test_case "leaderless submissions queue and drain" `Quick
      test_leaderless_submissions_queue;
    Alcotest.test_case "partitioned majority elects, heals, agrees" `Quick
      test_partition_majority_elects;
    Alcotest.test_case "scenario: cluster configures like the legacy path"
      `Slow test_scenario_cluster_configures;
    Alcotest.test_case "scenario: leader fence rejects out-of-band mutation"
      `Quick test_scenario_mutation_fence;
    Alcotest.test_case "scenario: failover reassigns switch sessions" `Quick
      test_scenario_failover_reassigns_switches;
    Alcotest.test_case "lossy mesh chaos run is pinned" `Quick
      test_lossy_mesh_pinned;
    election_safety_prop;
    convergence_prop;
    determinism_prop;
  ]
