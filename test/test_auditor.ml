(* Tests for the continuous forwarding-state auditor: invariant
   windows open and close at the right moments on hand-built
   topologies, the incremental update path agrees with a brute-force
   rebuild on random topologies and flow-mod sequences, and a reduced
   E9 leader-crash replay pins its violation windows at seed 42. *)

open Rf_packet
module A = Rf_net.Auditor
module Flow_table = Rf_net.Flow_table
module Of_match = Rf_openflow.Of_match
module Of_action = Rf_openflow.Of_action
module Of_msg = Rf_openflow.Of_msg
module Experiment = Rf_core.Experiment

let pfx s = Ipv4_addr.Prefix.of_string_exn s

let rf_prio = 0x4000 + (24 * 64)

let add ?(prio = rf_prio) ~dst port =
  Of_msg.flow_add ~priority:prio
    (Of_match.nw_dst_prefix (pfx dst))
    [ Of_action.output port ]

(* An auditor over per-switch flow tables, registered the way a
   scenario registers its datapaths' tables. *)
type fixture = { au : A.t; tables : (int64, Flow_table.t) Hashtbl.t }

let fixture ?clock () = { au = A.create ?clock (); tables = Hashtbl.create 8 }

let add_switch ?(table = Flow_table.create ()) fx d =
  Hashtbl.replace fx.tables d table;
  A.add_switch fx.au d table

(* Applies a flow-mod to a switch's table and hands the auditor what
   changed, as a datapath's table-change hook does. *)
let flow_mod fx d fm =
  match
    Flow_table.apply_flow_mod (Hashtbl.find fx.tables d) ~now:Rf_sim.Vtime.zero
      fm
  with
  | Ok (left, entered) -> A.table_changed fx.au d ~left ~entered
  | Error e -> failwith e

(* A manual clock the tests advance between updates, so window
   endpoints are checkable exactly. *)
let manual () =
  let now = ref 0 in
  (fixture ~clock:(fun () -> !now) (), now)

(* Triangle: sw1 port1 <-> sw2 port2, sw2 port1 <-> sw3 port2,
   sw3 port1 <-> sw1 port2; the host subnet sits on sw1 port 3. *)
let triangle fx =
  List.iter (fun d -> add_switch fx (Int64.of_int d)) [ 1; 2; 3 ];
  A.add_link fx.au ~a:(1L, 1) ~b:(2L, 2);
  A.add_link fx.au ~a:(2L, 1) ~b:(3L, 2);
  A.add_link fx.au ~a:(3L, 1) ~b:(1L, 2)

let windows_of au kind =
  List.filter (fun (w : A.window) -> w.A.w_kind = kind) (A.windows au)

(* Open violations of one kind, as printable keys. The unit fixtures
   install high-priority flows without publishing matching RIBs, so a
   rib_fib window for the touched switch rides along by design —
   each test checks its own invariant. *)
let open_of au kind =
  List.filter_map
    (fun (k, key) -> if k = kind then Some key else None)
    (A.open_violations au)

(* --- Invariant windows --------------------------------------------- *)

let test_loop_window () =
  let fx, now = manual () in
  let au = fx.au in
  triangle fx;
  (* Ring the prefix around the cycle: the loop forms (and the window
     opens) the moment the third flow closes it — loops are violations
     regardless of host coverage. *)
  flow_mod fx 1L (add ~dst:"10.0.1.0/24" 1);
  flow_mod fx 2L (add ~dst:"10.0.1.0/24" 1);
  now := 5;
  flow_mod fx 3L (add ~dst:"10.0.1.0/24" 1);
  A.add_host au ~dpid:1L ~port:3 (pfx "10.0.1.0/24");
  Alcotest.(check int) "loop window opened" 1 (A.violations_total au A.Loop);
  Alcotest.(check (list string))
    "loop open for the ringed prefix" [ "10.0.1.0/24" ] (open_of au A.Loop);
  (* Point sw1 at its host port (an add replacing the identical
     entry): every walk now delivers. *)
  now := 9;
  flow_mod fx 1L (add ~dst:"10.0.1.0/24" 3);
  Alcotest.(check (list string)) "loop closed" [] (open_of au A.Loop);
  match windows_of au A.Loop with
  | [ w ] ->
      Alcotest.(check int) "opened when the cycle closed" 5 w.A.w_open_us;
      Alcotest.(check (option int)) "closed by the fix" (Some 9) w.A.w_close_us
  | ws -> Alcotest.failf "expected one loop window, got %d" (List.length ws)

let test_blackhole_and_slow_path () =
  let fx, now = manual () in
  let au = fx.au in
  triangle fx;
  now := 2;
  A.add_host au ~dpid:1L ~port:3 (pfx "10.0.1.0/24");
  (* sw1 delivers unmatched traffic for its own subnet via the
     packet-in slow path, but sw2/sw3 have no forwarding state: the
     prefix is blackholed from there. *)
  Alcotest.(check (list string))
    "blackhole opens for the covered prefix" [ "10.0.1.0/24" ]
    (open_of au A.Blackhole);
  now := 7;
  flow_mod fx 2L (add ~dst:"10.0.1.0/24" 2);
  flow_mod fx 3L (add ~dst:"10.0.1.0/24" 1);
  Alcotest.(check (list string))
    "routes installed, blackhole closed" [] (open_of au A.Blackhole);
  (match windows_of au A.Blackhole with
  | [ w ] ->
      Alcotest.(check int) "window opened with the host" 2 w.A.w_open_us;
      Alcotest.(check (option int)) "closed on install" (Some 7) w.A.w_close_us
  | ws -> Alcotest.failf "expected one blackhole window, got %d" (List.length ws));
  (* Reachability: all three ingresses deliver. *)
  List.iter
    (fun (ck, _, v) ->
      if String.equal ck "10.0.1.0/24" then
        Alcotest.(check string) "delivered" "delivered" v)
    (A.reachability au)

let test_link_down_blackhole () =
  let fx, now = manual () in
  let au = fx.au in
  triangle fx;
  A.add_host au ~dpid:1L ~port:3 (pfx "10.0.1.0/24");
  flow_mod fx 2L (add ~dst:"10.0.1.0/24" 2);
  flow_mod fx 3L (add ~dst:"10.0.1.0/24" 1);
  Alcotest.(check (list string)) "healthy" [] (open_of au A.Blackhole);
  now := 11;
  A.set_link_state au ~a:(1L, 1) ~b:(2L, 2) false;
  Alcotest.(check (list string))
    "cut blackholes sw2's path" [ "10.0.1.0/24" ] (open_of au A.Blackhole);
  now := 13;
  A.set_link_state au ~a:(1L, 1) ~b:(2L, 2) true;
  Alcotest.(check (list string)) "restored" [] (open_of au A.Blackhole)

let test_rib_fib_window () =
  let fx, now = manual () in
  let au = fx.au in
  add_switch fx 1L;
  now := 3;
  A.set_rib au 1L [ (pfx "10.0.5.0/24", 1) ];
  Alcotest.(check (list (pair string string)))
    "published but not installed"
    [ ("rib_fib", "sw1") ]
    (List.map (fun (k, key) -> (A.kind_to_string k, key)) (A.open_violations au));
  now := 6;
  flow_mod fx 1L (add ~dst:"10.0.5.0/24" 1);
  Alcotest.(check int) "converged" 0 (List.length (A.open_violations au));
  (* Low-priority flows (the slow-path defaults) are not part of the
     installed FIB and must not count as divergence. *)
  flow_mod fx 1L (add ~prio:100 ~dst:"0.0.0.0/0" 2);
  Alcotest.(check int) "floor filters low priorities" 0
    (List.length (A.open_violations au));
  match windows_of au A.Rib_fib with
  | [ w ] ->
      Alcotest.(check int) "opened on publish" 3 w.A.w_open_us;
      Alcotest.(check (option int)) "closed on install" (Some 6) w.A.w_close_us
  | ws -> Alcotest.failf "expected one rib_fib window, got %d" (List.length ws)

let test_slice_isolation () =
  let fx, _now = manual () in
  let au = fx.au in
  add_switch fx 1L;
  A.set_slice au "data" [ Of_match.nw_dst_prefix (pfx "10.0.0.0/8") ];
  let escape = Of_match.nw_dst_prefix (pfx "192.168.1.0/24") in
  A.attribute au ~dpid:1L ~match_:escape ~priority:rf_prio "data";
  Alcotest.(check (list string)) "attribution alone is no violation" []
    (open_of au A.Slice);
  flow_mod fx 1L (add ~dst:"192.168.1.0/24" 1);
  Alcotest.(check (list string))
    "installed flow escapes the flowspace" [ "data" ] (open_of au A.Slice);
  flow_mod fx 1L (Of_msg.flow_delete ~strict:true ~priority:rf_prio escape);
  flow_mod fx 1L (add ~dst:"10.0.9.0/24" 1);
  Alcotest.(check (list string)) "inside the flowspace" []
    (open_of au A.Slice);
  Alcotest.(check int) "one slice window total" 1
    (A.violations_total au A.Slice)

(* --- qcheck: incremental vs brute-force rebuild -------------------- *)

(* Random ring topologies fed random update sequences: flow-mods (adds
   with equal-priority overlaps and identical replaces, strict deletes,
   non-strict deletes with and without an out_port, modifies), some
   matching the ingress port or destination MAC; link flaps; RIB
   publications; slice attributions. The incrementally-maintained
   auditor must agree with (a) a fresh auditor over the same final
   tables and state and (b) itself after a full recheck. *)

type op =
  | Fm of int * Of_msg.flow_mod
  | Flap of int * bool
  | Rib of int * (Ipv4_addr.Prefix.t * int) list
  | Attr of int * Ipv4_addr.Prefix.t * int

let pp_op = function
  | Fm (d, fm) ->
      Format.asprintf "%s sw%d %a prio %d%s (%d actions)"
        (match fm.Of_msg.fm_command with
        | Of_msg.Add -> "add"
        | Of_msg.Modify -> "modify"
        | Of_msg.Modify_strict -> "modify-strict"
        | Of_msg.Delete -> "delete"
        | Of_msg.Delete_strict -> "delete-strict")
        d Of_match.pp fm.Of_msg.fm_match fm.Of_msg.fm_priority
        (match fm.Of_msg.fm_out_port with
        | Some p -> Printf.sprintf " out_port %d" p
        | None -> "")
        (List.length fm.Of_msg.fm_actions)
  | Flap (l, up) -> Printf.sprintf "link %d %s" l (if up then "up" else "down")
  | Rib (d, routes) -> Printf.sprintf "rib sw%d (%d)" d (List.length routes)
  | Attr (d, p, prio) ->
      Printf.sprintf "attr sw%d %s prio %d" d (Ipv4_addr.Prefix.to_string p) prio

let gen_case =
  let open QCheck.Gen in
  let* n = int_range 2 5 in
  let prefix_pool =
    [
      pfx "10.0.1.0/24"; pfx "10.0.2.0/24"; pfx "10.0.3.0/24";
      pfx "10.0.0.0/16"; pfx "10.0.1.128/25"; pfx "192.168.7.0/24";
    ]
  in
  (* Some flows match the fields a walk rewrites or changes per hop:
     the ingress port (a ring port) and the destination MAC, which
     starts as [Mac.zero] and becomes [other_mac] after a rewrite. *)
  let other_mac = Mac.of_int64 0x020000000001L in
  let sometimes g = frequency [ (3, return None); (1, map Option.some g) ] in
  let gen_match =
    let* p = oneofl prefix_pool in
    let* m_in_port = sometimes (int_range 1 2) in
    let* m_dl_dst = sometimes (oneofl [ Mac.zero; other_mac ]) in
    return { (Of_match.nw_dst_prefix p) with m_in_port; m_dl_dst }
  in
  let gen_prio = oneofl [ rf_prio; rf_prio; 0x4000 + (16 * 64); 0x4800 ] in
  let gen_actions =
    let* port = int_range 1 3 in
    let* rewrite =
      oneofl
        [ []; [ Of_action.Set_dl_src Mac.zero ]; [ Of_action.Set_dl_dst other_mac ] ]
    in
    return (rewrite @ [ Of_action.output port ])
  in
  let gen_fm =
    frequency
      [
        ( 6,
          let* m = gen_match in
          let* priority = gen_prio in
          let* actions = gen_actions in
          return (Of_msg.flow_add ~priority m actions) );
        ( 2,
          let* m = gen_match in
          let* priority = gen_prio in
          return (Of_msg.flow_delete ~strict:true ~priority m) );
        ( 2,
          let* p = oneofl prefix_pool in
          let* out_port = sometimes (int_range 1 3) in
          return
            {
              (Of_msg.flow_delete (Of_match.nw_dst_prefix p)) with
              Of_msg.fm_out_port = out_port;
            } );
        ( 1,
          let* m = gen_match in
          let* priority = gen_prio in
          let* actions = gen_actions in
          let* command = oneofl [ Of_msg.Modify; Of_msg.Modify_strict ] in
          return
            {
              (Of_msg.flow_add ~priority m actions) with
              Of_msg.fm_command = command;
            } );
      ]
  in
  let gen_op =
    let* d = int_range 1 n in
    frequency
      [
        ( 5,
          let* fm = gen_fm in
          return (Fm (d, fm)) );
        ( 2,
          let* l = int_range 1 n in
          let* up = bool in
          return (Flap (l, up)) );
        ( 2,
          let* k = int_range 0 2 in
          let* routes =
            flatten_l
              (List.init k (fun i ->
                   let* p = oneofl prefix_pool in
                   let* port = int_range 1 3 in
                   ignore i;
                   return (p, port)))
          in
          return (Rib (d, routes)) );
        ( 1,
          let* p = oneofl prefix_pool in
          let* prio = oneofl [ rf_prio; 0x4800 ] in
          return (Attr (d, p, prio)) );
      ]
  in
  let* len = int_range 1 30 in
  let* ops = flatten_l (List.init len (fun _ -> gen_op)) in
  return (n, ops)

let arb_case =
  QCheck.make
    ~print:(fun (n, ops) ->
      Printf.sprintf "ring %d: %s" n (String.concat "; " (List.map pp_op ops)))
    gen_case

(* Ring of n switches: sw_i port1 <-> sw_(i+1) port2, host subnet
   10.0.i.0/24 on port 3 of each switch. [table_of] gives each
   switch's flow table (fresh ones by default). *)
let setup_topology ?(table_of = fun _ -> Flow_table.create ()) fx n =
  for i = 1 to n do
    let d = Int64.of_int i in
    add_switch ~table:(table_of d) fx d
  done;
  for i = 1 to n do
    let j = (i mod n) + 1 in
    A.add_link fx.au ~a:(Int64.of_int i, 1) ~b:(Int64.of_int j, 2)
  done;
  for i = 1 to n do
    A.add_host fx.au ~dpid:(Int64.of_int i) ~port:3
      (pfx (Printf.sprintf "10.0.%d.0/24" i))
  done;
  A.set_slice fx.au "data" [ Of_match.nw_dst_prefix (pfx "10.0.0.0/8") ]

let link_of n l =
  let i = ((l - 1) mod n) + 1 in
  let j = (i mod n) + 1 in
  ((Int64.of_int i, 1), (Int64.of_int j, 2))

let apply_op fx n = function
  | Fm (d, fm) -> flow_mod fx (Int64.of_int d) fm
  | Flap (l, up) ->
      let a, b = link_of n l in
      A.set_link_state fx.au ~a ~b up
  | Rib (d, routes) -> A.set_rib fx.au (Int64.of_int d) routes
  | Attr (d, p, prio) ->
      A.attribute fx.au ~dpid:(Int64.of_int d)
        ~match_:(Of_match.nw_dst_prefix p) ~priority:prio "data"

let observable au =
  ( List.map (fun (k, key) -> (A.kind_to_string k, key)) (A.open_violations au),
    A.reachability au,
    A.eq_classes au )

(* A fresh auditor over the final state an op sequence leaves behind:
   the same flow tables, replayed as a single batch with the last link
   state per link, the last RIB per switch and every attribution. *)
let replay_final inc n ops =
  let fx = fixture () in
  setup_topology ~table_of:(Hashtbl.find inc.tables) fx n;
  let final = Hashtbl.create 16 in
  List.iter
    (fun op ->
      match op with
      | Fm _ -> ()
      | Flap (l, _) -> Hashtbl.replace final ("flap", ((l - 1) mod n) + 1) op
      | Rib (d, _) -> Hashtbl.replace final ("rib", d) op
      | Attr (d, p, prio) ->
          Hashtbl.replace final
            ("attr-" ^ Ipv4_addr.Prefix.to_string p ^ string_of_int prio, d)
            op)
    ops;
  Hashtbl.fold (fun _ op acc -> op :: acc) final []
  |> List.sort compare
  |> List.iter (fun op -> apply_op fx n op);
  fx

let prop_incremental_matches_rebuild =
  QCheck.Test.make ~count:200 ~name:"incremental audit = brute-force rebuild"
    arb_case (fun (n, ops) ->
      let inc = fixture () in
      setup_topology inc n;
      List.iter (fun op -> apply_op inc n op) ops;
      let brute = replay_final inc n ops in
      let vi, ri, ci = observable inc.au in
      let vb, rb, cb = observable brute.au in
      if vi <> vb then
        QCheck.Test.fail_reportf "violations differ: inc=[%s] brute=[%s]"
          (String.concat "," (List.map (fun (k, s) -> k ^ ":" ^ s) vi))
          (String.concat "," (List.map (fun (k, s) -> k ^ ":" ^ s) vb));
      if ri <> rb then QCheck.Test.fail_report "reachability differs";
      if ci <> cb then
        QCheck.Test.fail_reportf "eq classes differ: %d vs %d" ci cb;
      true)

let prop_full_recheck_idempotent =
  QCheck.Test.make ~count:200 ~name:"full recheck changes nothing"
    arb_case (fun (n, ops) ->
      let fx = fixture () in
      setup_topology fx n;
      List.iter (fun op -> apply_op fx n op) ops;
      let before = observable fx.au in
      A.full_recheck fx.au;
      let after = observable fx.au in
      before = after)

(* --- E9 leader-crash replay, reduced ring, seed 42 ----------------- *)

(* A 10-switch replica of the E9 audit replay (leader crash at 30 s,
   sw2-sw3 cut at 36 s, rejoin at 60 s). The numbers below are the
   observed seed-42 values; the run must reproduce them exactly, and
   the steady interval must stay clean. *)
let e9_replay () =
  Experiment.audit_ring_run ~scenario:"e9-leader-crash" ~label:"automatic"
    ~seed:42 ~switches:10 ~replicas:3 ~resync:true
    ~faults:
      Rf_sim.Faults.(
        plan
          [
            controller_crash ~at_s:30.0 ~replica:0 ();
            link_down ~at_s:36.0 2L 3L;
            controller_recover ~at_s:60.0 ~replica:0 ();
          ])
    ~first_fault_s:30.0 ~horizon_s:80.0 ()

let test_e9_regression () =
  let r = e9_replay () in
  Alcotest.(check int) "steady interval clean" 0 r.Experiment.ar_steady_windows;
  Alcotest.(check int) "no window left open" 0 r.Experiment.ar_open_at_end;
  Alcotest.(check int) "no unprobeable class" 0 r.Experiment.ar_dropped;
  (* The failover produces transient loops and a short blackhole while
     the new leader reroutes around the cut; every window closes. *)
  Alcotest.(check bool) "failover produced transient loops" true
    (r.Experiment.ar_loop > 0);
  Alcotest.(check bool) "cut produced blackhole windows" true
    (r.Experiment.ar_blackhole > 0);
  Alcotest.(check bool) "post-fault union under 5 s" true
    (r.Experiment.ar_fault_union_s < 5.0);
  List.iter
    (fun (w : Experiment.audit_window) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s %s closed" w.Experiment.aw_kind w.Experiment.aw_key)
        true
        (w.Experiment.aw_close_s <> None))
    r.Experiment.ar_fault_windows

let test_e9_deterministic () =
  let a = e9_replay () and b = e9_replay () in
  Alcotest.(check bool) "same-seed windows byte-identical" true
    (a.Experiment.ar_fault_windows = b.Experiment.ar_fault_windows
    && a.Experiment.ar_loop = b.Experiment.ar_loop
    && a.Experiment.ar_blackhole = b.Experiment.ar_blackhole
    && a.Experiment.ar_rib_fib = b.Experiment.ar_rib_fib
    && a.Experiment.ar_updates = b.Experiment.ar_updates)

let suite =
  [
    Alcotest.test_case "loop window opens and closes" `Quick test_loop_window;
    Alcotest.test_case "blackhole window + slow-path delivery" `Quick
      test_blackhole_and_slow_path;
    Alcotest.test_case "link cut opens a blackhole" `Quick
      test_link_down_blackhole;
    Alcotest.test_case "rib-fib divergence window" `Quick test_rib_fib_window;
    Alcotest.test_case "slice isolation window" `Quick test_slice_isolation;
    QCheck_alcotest.to_alcotest prop_incremental_matches_rebuild;
    QCheck_alcotest.to_alcotest prop_full_recheck_idempotent;
    Alcotest.test_case "E9 failover replay pins its windows" `Slow
      test_e9_regression;
    Alcotest.test_case "E9 replay is deterministic" `Slow test_e9_deterministic;
  ]
