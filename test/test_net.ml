(* Tests for the emulated network substrate: topology graphs and
   generators, the flow table, the datapath, channels, links, hosts
   and the switch-side OF agent. *)

open Rf_packet
open Rf_openflow
module Topology = Rf_net.Topology
module Topo_gen = Rf_net.Topo_gen
module Flow_table = Rf_net.Flow_table
module Datapath = Rf_net.Datapath
module Channel = Rf_net.Channel
module Host = Rf_net.Host
module Link = Rf_net.Link
module Of_agent = Rf_net.Of_agent
module Engine = Rf_sim.Engine
module Vtime = Rf_sim.Vtime

let ip = Ipv4_addr.of_string_exn

let pfx = Ipv4_addr.Prefix.of_string_exn

(* --- topology ---------------------------------------------------------- *)

let test_topology_ports_allocated () =
  let t = Topology.create () in
  let e1 = Topology.connect t (Topology.Switch 1L) (Topology.Switch 2L) in
  let e2 = Topology.connect t (Topology.Switch 1L) (Topology.Switch 3L) in
  Alcotest.(check int) "first port" 1 e1.Topology.a_port;
  Alcotest.(check int) "second port" 2 e2.Topology.a_port;
  Alcotest.(check int) "degree" 2 (Topology.degree t (Topology.Switch 1L));
  match Topology.peer_of t (Topology.Switch 1L) 2 with
  | Some (Topology.Switch 3L, 1) -> ()
  | Some _ | None -> Alcotest.fail "wrong peer"

let test_topology_rejects_bad_links () =
  let t = Topology.create () in
  Alcotest.check_raises "self loop"
    (Invalid_argument "Topology.connect: self loop") (fun () ->
      ignore (Topology.connect t (Topology.Switch 1L) (Topology.Switch 1L)));
  Alcotest.check_raises "host-host"
    (Invalid_argument "Topology.connect: host-host link") (fun () ->
      ignore (Topology.connect t (Topology.Host "a") (Topology.Host "b")))

let test_ring_generator () =
  let t = Topo_gen.ring 8 in
  Alcotest.(check int) "switches" 8 (Topology.switch_count t);
  Alcotest.(check int) "edges" 8 (Topology.edge_count t);
  Alcotest.(check bool) "connected" true (Topology.is_connected t);
  Alcotest.(check int) "diameter" 4 (Topology.diameter t);
  List.iter
    (fun d ->
      Alcotest.(check int) "degree 2" 2 (Topology.degree t (Topology.Switch d)))
    (Topology.switches t)

let test_line_and_star_generators () =
  let l = Topo_gen.line 5 in
  Alcotest.(check int) "line edges" 4 (Topology.edge_count l);
  Alcotest.(check int) "line diameter" 4 (Topology.diameter l);
  let s = Topo_gen.star 5 in
  Alcotest.(check int) "star edges" 4 (Topology.edge_count s);
  Alcotest.(check int) "hub degree" 4 (Topology.degree s (Topology.Switch 1L));
  Alcotest.(check int) "star diameter" 2 (Topology.diameter s)

let test_grid_generator () =
  let g = Topo_gen.grid 3 4 in
  Alcotest.(check int) "switches" 12 (Topology.switch_count g);
  (* 3x4 grid: (3-1)*4 + 3*(4-1) = 8 + 9 = 17 edges. *)
  Alcotest.(check int) "edges" 17 (Topology.edge_count g);
  Alcotest.(check bool) "connected" true (Topology.is_connected g)

let test_random_generator_connected () =
  List.iter
    (fun seed ->
      let t = Topo_gen.random ~seed ~n:20 ~extra_edges:10 () in
      Alcotest.(check int) "switches" 20 (Topology.switch_count t);
      Alcotest.(check bool) "connected" true (Topology.is_connected t);
      Alcotest.(check int) "edges" 29 (Topology.edge_count t))
    [ 1; 2; 3; 42 ]

let test_pan_european () =
  let t = Topo_gen.pan_european () in
  Alcotest.(check int) "28 nodes" 28 (Topology.switch_count t);
  Alcotest.(check int) "41 links" 41 (Topology.edge_count t);
  Alcotest.(check bool) "connected" true (Topology.is_connected t);
  Alcotest.(check string) "city name" "Glasgow" (Topo_gen.pan_european_city 13L);
  Alcotest.check_raises "out of range" Not_found (fun () ->
      ignore (Topo_gen.pan_european_city 29L))

(* --- flow table --------------------------------------------------------- *)

let key_for dst =
  {
    Of_match.in_port = 1;
    dl_src = Mac.make_local 1;
    dl_dst = Mac.make_local 2;
    dl_vlan = 0xffff;
    dl_pcp = 0;
    dl_type = 0x0800;
    nw_tos = 0;
    nw_proto = 17;
    nw_src = ip "10.0.0.1";
    nw_dst = dst;
    tp_src = 1;
    tp_dst = 2;
  }

let add table ~now ?(priority = 100) ?(idle = 0) ?(hard = 0) prefix port =
  match
    Flow_table.apply_flow_mod table ~now
      (Of_msg.flow_add ~priority ~idle_timeout:idle ~hard_timeout:hard
         (Of_match.nw_dst_prefix (pfx prefix))
         [ Of_action.output port ])
  with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e

let test_flow_table_priority () =
  let table = Flow_table.create () in
  let now = Vtime.zero in
  add table ~now ~priority:100 "10.0.0.0/8" 1;
  add table ~now ~priority:200 "10.1.0.0/16" 2;
  (match Flow_table.lookup table (key_for (ip "10.1.2.3")) with
  | Some e -> Alcotest.(check int) "higher priority wins" 200 e.Flow_table.e_priority
  | None -> Alcotest.fail "no match");
  match Flow_table.lookup table (key_for (ip "10.2.2.3")) with
  | Some e -> Alcotest.(check int) "fallback" 100 e.Flow_table.e_priority
  | None -> Alcotest.fail "no match"

let test_flow_table_add_replaces () =
  let table = Flow_table.create () in
  let now = Vtime.zero in
  add table ~now ~priority:100 "10.0.0.0/8" 1;
  add table ~now ~priority:100 "10.0.0.0/8" 2;
  Alcotest.(check int) "one entry" 1 (Flow_table.size table);
  match Flow_table.lookup table (key_for (ip "10.0.0.5")) with
  | Some e ->
      Alcotest.(check bool) "new actions" true
        (e.Flow_table.e_actions = [ Of_action.output 2 ])
  | None -> Alcotest.fail "no match"

let test_flow_table_delete_nonstrict () =
  let table = Flow_table.create () in
  let now = Vtime.zero in
  add table ~now ~priority:100 "10.0.0.0/8" 1;
  add table ~now ~priority:200 "10.1.0.0/16" 2;
  add table ~now ~priority:300 "192.168.0.0/16" 3;
  (* Non-strict delete of 10.0.0.0/8 removes both 10.x entries. *)
  (match
     Flow_table.apply_flow_mod table ~now
       (Of_msg.flow_delete (Of_match.nw_dst_prefix (pfx "10.0.0.0/8")))
   with
  | Ok (removed, _) -> Alcotest.(check int) "removed" 2 (List.length removed)
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "one left" 1 (Flow_table.size table)

let test_flow_table_delete_strict () =
  let table = Flow_table.create () in
  let now = Vtime.zero in
  add table ~now ~priority:100 "10.0.0.0/8" 1;
  add table ~now ~priority:200 "10.0.0.0/8" 2;
  (match
     Flow_table.apply_flow_mod table ~now
       (Of_msg.flow_delete ~strict:true ~priority:200
          (Of_match.nw_dst_prefix (pfx "10.0.0.0/8")))
   with
  | Ok (removed, _) -> Alcotest.(check int) "only exact" 1 (List.length removed)
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "one left" 1 (Flow_table.size table);
  match Flow_table.lookup table (key_for (ip "10.0.0.5")) with
  | Some e -> Alcotest.(check int) "the 100 remains" 100 e.Flow_table.e_priority
  | None -> Alcotest.fail "gone"

let test_flow_table_timeouts () =
  let table = Flow_table.create () in
  add table ~now:Vtime.zero ~priority:1 ~hard:10 "10.0.0.0/8" 1;
  add table ~now:Vtime.zero ~priority:2 ~idle:5 "20.0.0.0/8" 2;
  (* Keep the idle entry alive by accounting at t=4. *)
  (match Flow_table.lookup table (key_for (ip "20.1.1.1")) with
  | Some e -> Flow_table.account e ~now:(Vtime.of_s 4.0) ~bytes:100
  | None -> Alcotest.fail "no idle entry");
  let gone = Flow_table.expire table ~now:(Vtime.of_s 8.0) in
  Alcotest.(check int) "nothing expired yet" 0 (List.length gone);
  let gone = Flow_table.expire table ~now:(Vtime.of_s 9.5) in
  (* idle: last used 4.0 + 5 = 9.0 <= 9.5 -> expired. *)
  Alcotest.(check int) "idle expired" 1 (List.length gone);
  (match gone with
  | [ (_, Flow_table.Expired_idle) ] -> ()
  | _ -> Alcotest.fail "wrong reason");
  let gone = Flow_table.expire table ~now:(Vtime.of_s 10.5) in
  (match gone with
  | [ (_, Flow_table.Expired_hard) ] -> ()
  | _ -> Alcotest.fail "hard not expired");
  Alcotest.(check int) "table empty" 0 (Flow_table.size table)

let test_flow_table_counters_and_stats () =
  let table = Flow_table.create () in
  add table ~now:Vtime.zero ~priority:1 "10.0.0.0/8" 1;
  (match Flow_table.lookup table (key_for (ip "10.0.0.1")) with
  | Some e ->
      Flow_table.account e ~now:(Vtime.of_s 1.0) ~bytes:100;
      Flow_table.account e ~now:(Vtime.of_s 2.0) ~bytes:50
  | None -> Alcotest.fail "no entry");
  match
    Flow_table.stats table ~match_:Of_match.wildcard_all ~out_port:(Some 1)
      ~now:(Vtime.of_s 10.0)
  with
  | [ fs ] ->
      Alcotest.(check int64) "packets" 2L fs.Of_msg.fs_packet_count;
      Alcotest.(check int64) "bytes" 150L fs.Of_msg.fs_byte_count;
      Alcotest.(check int) "duration" 10 fs.Of_msg.fs_duration_s
  | other -> Alcotest.fail (Printf.sprintf "%d stats" (List.length other))

let test_flow_table_capacity () =
  let table = Flow_table.create ~capacity:2 () in
  let now = Vtime.zero in
  add table ~now ~priority:1 "10.0.0.0/8" 1;
  add table ~now ~priority:2 "20.0.0.0/8" 1;
  match
    Flow_table.apply_flow_mod table ~now
      (Of_msg.flow_add ~priority:3
         (Of_match.nw_dst_prefix (pfx "30.0.0.0/8"))
         [ Of_action.output 1 ])
  with
  | Error msg -> Alcotest.(check string) "full" "all tables full" msg
  | Ok _ -> Alcotest.fail "accepted over capacity"

(* Model-based property: a random sequence of every flow-mod command,
   expiries and accounted lookups, applied both to the real flow table
   and to a naive model — a list of (entry, expected actions) in table
   order, priority descending and then installation order. After every
   step the two must agree on the entries (physically, in order), on
   the entries each step reports as left, on the counters, and on
   every lookup of a probe grid through [lookup], [lookup_linear] and the model's first
   match. The matches span seven signatures, so entries of one projected
   key at several priorities and ties across buckets both occur. Each
   grid key also comes in three variants, asked after it: a different
   [tp_src], a different [dl_src] (fields only the exact matches pin)
   and a source outside the one source prefix. A lookup cache that
   answered a variant from its grid key while some installed signature
   tells them apart, or from before a change, disagrees with the model. *)
let model_probes =
  let grid =
    List.concat_map
      (fun in_port ->
        List.concat_map
          (fun dl_type ->
            List.map
              (fun dst -> { (key_for (ip dst)) with in_port; dl_type })
              [ "10.1.2.9"; "10.2.7.9"; "10.1.9.9"; "10.3.3.3"; "11.0.0.1" ])
          [ 0x0800; 0x0806 ])
      [ 1; 2 ]
  in
  grid
  @ List.concat_map
      (fun (k : Of_match.key) ->
        [ { k with tp_src = 7 }; { k with dl_src = Mac.make_local 9 };
          { k with nw_src = ip "10.0.1.1" } ])
      grid

let model_matches =
  Array.of_list
    (List.map
       (fun p -> Of_match.nw_dst_prefix (pfx p))
       [ "10.0.0.0/8"; "10.1.0.0/16"; "10.2.0.0/16"; "10.1.2.0/24";
         "10.2.7.0/24" ]
    @ [ Of_match.dl_type_is 0x0800; Of_match.dl_type_is 0x0806;
        Of_match.wildcard_all;
        Of_match.exact_of_key (List.nth model_probes 0);
        Of_match.exact_of_key (List.nth model_probes 10);
        { Of_match.wildcard_all with m_nw_src = Some (pfx "10.0.0.0/24") } ])

let prop_flow_table_model =
  QCheck.Test.make ~name:"flow table agrees with naive reference model"
    ~count:200
    QCheck.(
      pair (oneofl [ 4; 12; 64 ])
        (list_of_size (Gen.int_bound 60)
           (quad (int_bound 7) (int_bound 10) (int_bound 2) (int_bound 31))))
    (fun (capacity, ops) ->
      let table = Flow_table.create ~capacity () in
      let model = ref [] and seq = ref 0 and clock = ref 0. in
      let same_entries a b =
        List.length a = List.length b && List.for_all2 ( == ) a b
      in
      let before (a : Flow_table.entry) (b : Flow_table.entry) =
        a.e_priority > b.e_priority
      in
      let model_add ~now (fm : Of_msg.flow_mod) =
        let same (e : Flow_table.entry) =
          Of_match.equal fm.fm_match e.e_match && fm.fm_priority = e.e_priority
        in
        let replaced, kept = List.partition (fun (e, _) -> same e) !model in
        if List.length kept >= capacity then Error "all tables full"
        else begin
          incr seq;
          let expected =
            {
              Flow_table.e_match = fm.fm_match;
              e_priority = fm.fm_priority;
              e_cookie = fm.fm_cookie;
              e_idle_timeout = fm.fm_idle_timeout;
              e_hard_timeout = fm.fm_hard_timeout;
              e_notify_removed = fm.fm_notify_removed;
              e_seq = !seq;
              e_actions = fm.fm_actions;
              e_packets = 0;
              e_bytes = 0;
              e_installed = now;
              e_last_used = now;
            }
          in
          let higher, lower =
            List.partition (fun (e, _) -> not (before expected e)) kept
          in
          model := higher @ ((expected, fm.fm_actions) :: lower);
          Ok (List.map fst replaced)
        end
      in
      (* The model's answer to one step, computed before the table's. *)
      let model_step ~now (fm : Of_msg.flow_mod) =
        let selects ~strict (e : Flow_table.entry) =
          if strict then
            Of_match.equal fm.fm_match e.e_match
            && fm.fm_priority = e.e_priority
          else Of_match.subsumes fm.fm_match e.e_match
        in
        match fm.fm_command with
        | Of_msg.Add -> model_add ~now fm
        | Of_msg.Modify | Of_msg.Modify_strict -> (
            let strict = fm.fm_command = Of_msg.Modify_strict in
            match List.filter (fun (e, _) -> selects ~strict e) !model with
            | [] -> model_add ~now fm
            | hits ->
                model :=
                  List.map
                    (fun (e, a) ->
                      if selects ~strict e then (e, fm.fm_actions) else (e, a))
                    !model;
                Ok (List.map fst hits))
        | Of_msg.Delete | Of_msg.Delete_strict ->
            let strict = fm.fm_command = Of_msg.Delete_strict in
            let outputs (e : Flow_table.entry) =
              match fm.fm_out_port with
              | None -> true
              | Some port ->
                  List.exists
                    (function
                      | Of_action.Output { port = p; _ } -> p = port
                      | _ -> false)
                    e.e_actions
            in
            let removed, kept =
              List.partition
                (fun (e, _) -> selects ~strict e && outputs e)
                !model
            in
            model := kept;
            Ok (List.map fst removed)
      in
      let model_expire ~now =
        let after from limit =
          limit > 0 && Vtime.(add from (span_s (float_of_int limit)) <= now)
        in
        let gone =
          List.filter_map
            (fun ((e : Flow_table.entry), _) ->
              if after e.e_installed e.e_hard_timeout then
                Some (e, Flow_table.Expired_hard)
              else if after e.e_last_used e.e_idle_timeout then
                Some (e, Flow_table.Expired_idle)
              else None)
            !model
        in
        model := List.filter (fun (e, _) -> not (List.mem_assq e gone)) !model;
        List.stable_sort
          (fun ((a : Flow_table.entry), _) ((b : Flow_table.entry), _) ->
            match compare b.e_priority a.e_priority with
            | 0 -> Int64.compare a.e_cookie b.e_cookie
            | c -> c)
          gone
      in
      let agree () =
        let entries = Flow_table.entries table in
        (* A fresh entry is the model's only by its fields; adopt the
           table's record once they match, so identity counts from here. *)
        model :=
          List.map
            (fun ((m : Flow_table.entry), a) ->
              match
                List.find_opt
                  (fun (e : Flow_table.entry) -> e.e_seq = m.e_seq)
                  entries
              with
              | Some e when e != m && e = m -> (e, a)
              | Some _ | None -> (m, a))
            !model;
        same_entries entries (List.map fst !model)
        && List.for_all
             (fun ((e : Flow_table.entry), a) -> e.e_actions = a)
             !model
        && Flow_table.size table = List.length !model
        && Flow_table.timed_entries table
           = List.length
               (List.filter
                  (fun ((e : Flow_table.entry), _) ->
                    e.e_idle_timeout > 0 || e.e_hard_timeout > 0)
                  !model)
        && List.for_all
             (fun key ->
               let expected =
                 List.find_opt
                   (fun ((e : Flow_table.entry), _) ->
                     Of_match.matches e.e_match key)
                   !model
               in
               match
                 ( expected,
                   Flow_table.lookup table key,
                   Flow_table.lookup_linear table key )
               with
               | None, None, None -> true
               | Some (m, _), Some a, Some b -> m == a && a == b
               | _ -> false)
             model_probes
      in
      List.for_all
        (fun (kind, mi, prio, bits) ->
          let now = Vtime.of_s !clock in
          let m = model_matches.(mi) and priority = 100 + prio in
          let port = 1 + (bits land 1) in
          let fm =
            {
              (Of_msg.flow_add ~priority
                 ~cookie:(Int64.of_int (bits lsr 4))
                 ~idle_timeout:(if bits land 4 <> 0 then 2 else 0)
                 ~hard_timeout:(if bits land 8 <> 0 then 3 else 0)
                 m [ Of_action.output port ])
              with
              Of_msg.fm_out_port =
                (if bits land 2 <> 0 then Some port else None);
              fm_command =
                (match kind with
                | 0 | 1 -> Of_msg.Add
                | 2 -> Of_msg.Modify
                | 3 -> Of_msg.Modify_strict
                | 4 -> Of_msg.Delete
                | _ -> Of_msg.Delete_strict);
            }
          in
          let step_ok =
            match kind with
            | 6 ->
                clock := !clock +. float_of_int (1 + (bits land 3));
                let now = Vtime.of_s !clock in
                let expected = model_expire ~now in
                let gone = Flow_table.expire table ~now in
                List.length gone = List.length expected
                && List.for_all2
                     (fun (a, ra) (b, rb) -> a == b && ra = rb)
                     gone expected
            | 7 ->
                (match
                   Flow_table.lookup table
                     (List.nth model_probes (mi * 2 mod 20))
                 with
                | Some e -> Flow_table.account e ~now ~bytes:64
                | None -> ());
                true
            | _ -> (
                let expected = model_step ~now fm in
                match (expected, Flow_table.apply_flow_mod table ~now fm) with
                | Ok a, Ok (left, _) -> same_entries a left
                | Error a, Error b -> a = b
                | _ -> false)
          in
          step_ok && agree ())
        ops)

(* The table reports exactly what changed: after every step of random
   adds (identical replaces included), modify and modify-strict, delete
   and delete-strict (with and without an out_port) and expiry, taking
   the reported [left] entries out of a model multiset and adding the
   [entered] ones gives the table's entries, physically. *)
let prop_flow_table_reports_changes =
  QCheck.Test.make ~name:"flow table reports exactly what changed" ~count:200
    QCheck.(
      list_of_size (Gen.int_bound 60)
        (quad (int_bound 6) (int_bound 9) (int_bound 2) (int_bound 31)))
    (fun ops ->
      let table = Flow_table.create () in
      let model = ref [] and clock = ref 0. in
      let rec take e = function
        | [] -> None
        | x :: rest when x == e -> Some rest
        | x :: rest -> Option.map (List.cons x) (take e rest)
      in
      let by_seq l =
        List.sort
          (fun (a : Flow_table.entry) (b : Flow_table.entry) ->
            Int.compare a.e_seq b.e_seq)
          l
      in
      List.for_all
        (fun (kind, mi, prio, bits) ->
          let left, entered =
            if kind = 6 then begin
              clock := !clock +. float_of_int (1 + (bits land 3));
              let gone = Flow_table.expire table ~now:(Vtime.of_s !clock) in
              (List.map fst gone, [])
            end
            else
              let port = 1 + (bits land 1) in
              let fm =
                {
                  (Of_msg.flow_add ~priority:(100 + prio)
                     ~idle_timeout:(if bits land 4 <> 0 then 2 else 0)
                     ~hard_timeout:(if bits land 8 <> 0 then 3 else 0)
                     model_matches.(mi) [ Of_action.output port ])
                  with
                  Of_msg.fm_out_port =
                    (if bits land 2 <> 0 then Some port else None);
                  fm_command =
                    (match kind with
                    | 0 | 1 -> Of_msg.Add
                    | 2 -> Of_msg.Modify
                    | 3 -> Of_msg.Modify_strict
                    | 4 -> Of_msg.Delete
                    | _ -> Of_msg.Delete_strict);
                }
              in
              match
                Flow_table.apply_flow_mod table ~now:(Vtime.of_s !clock) fm
              with
              | Ok change -> change
              | Error e -> failwith e
          in
          match
            List.fold_left
              (fun acc e -> Option.bind acc (take e))
              (Some !model) left
          with
          | None -> false
          | Some kept ->
              model := entered @ kept;
              let want = by_seq !model
              and have = by_seq (Flow_table.entries table) in
              List.length want = List.length have
              && List.for_all2 ( == ) want have)
        ops)

(* Differential oracle for the bucketed store: lookup and lookup_linear
   must return the SAME entry (physical equality, not just equal
   priority) for every key, after every step of add/modify/delete
   churn. A cell picks the second and third octets of a prefix, so one
   signature bucket holds up to 64 prefixes of the same length. *)
let prop_bucketed_lookup_matches_linear =
  QCheck.Test.make ~name:"bucketed lookup equals linear scan" ~count:100
    QCheck.(
      list_of_size (Gen.int_bound 120)
        (quad (int_bound 6) (int_bound 63) (oneofl [ 8; 16; 24; 32 ])
           (int_bound 3)))
    (fun ops ->
      let table = Flow_table.create () in
      let now = Vtime.zero in
      let addr cell last = Ipv4_addr.of_octets 10 (cell land 7) (cell lsr 3) last in
      let agree () =
        List.for_all
          (fun cell ->
            let key = key_for (addr cell 9) in
            match
              (Flow_table.lookup table key, Flow_table.lookup_linear table key)
            with
            | None, None -> true
            | Some a, Some b -> a == b
            | _ -> false)
          [ 0; 1; 2; 7; 8; 13; 21; 34; 42; 55; 63 ]
      in
      List.for_all
        (fun (kind, cell, len, prio) ->
          let prefix =
            Ipv4_addr.Prefix.make (addr cell (if len = 32 then 9 else 0)) len
          in
          let m = Of_match.nw_dst_prefix prefix in
          let fm =
            match kind with
            | 0 | 1 | 2 ->
                Of_msg.flow_add ~priority:(100 + prio) m
                  [ Of_action.output (cell + 1) ]
            | 3 -> Of_msg.flow_delete m
            | 4 -> Of_msg.flow_delete ~strict:true ~priority:(100 + prio) m
            | _ ->
                {
                  (Of_msg.flow_add ~priority:(100 + prio) m
                     [ Of_action.output (cell + 2) ])
                  with
                  Of_msg.fm_command = Of_msg.Modify;
                }
          in
          (match Flow_table.apply_flow_mod table ~now fm with
          | Ok _ -> ()
          | Error e -> failwith e);
          agree ())
        ops)

(* The keys one /24 bucket sees differ only in the network bits of
   nw_dst; the hash must still spread them over the slots. *)
let test_key_hash_spreads_prefixes () =
  let m = Of_match.nw_dst_prefix (pfx "10.0.0.0/24") in
  let slots = Array.make 1024 false in
  for i = 0 to 999 do
    let key = key_for (Ipv4_addr.of_octets 10 (i lsr 8) (i land 0xff) 9) in
    slots.(Flow_table.bucket_hash m key land 1023) <- true
  done;
  let filled = Array.fold_left (fun n b -> if b then n + 1 else n) 0 slots in
  Alcotest.(check bool)
    (Printf.sprintf "%d of 1024 slots filled" filled)
    true (filled >= 500)

(* Regression: two entries at the same priority both matching a key —
   insertion order must break the tie, identically on both paths. The
   store puts these into different signature buckets, so
   a naive "max over buckets" implementation gets this wrong. *)
let test_lookup_same_priority_tiebreak () =
  let table = Flow_table.create () in
  let now = Vtime.zero in
  let add m port =
    match
      Flow_table.apply_flow_mod table ~now
        (Of_msg.flow_add ~priority:500 m [ Of_action.output port ])
    with
    | Ok _ -> ()
    | Error e -> Alcotest.fail e
  in
  add (Of_match.nw_dst_prefix (pfx "10.1.0.0/16")) 1;
  add (Of_match.nw_dst_prefix (pfx "10.0.0.0/8")) 2;
  let key = key_for (ip "10.1.2.3") in
  match (Flow_table.lookup table key, Flow_table.lookup_linear table key) with
  | Some a, Some b ->
      Alcotest.(check bool) "same entry on both paths" true (a == b);
      (match a.Flow_table.e_actions with
      | [ Of_action.Output { port; _ } ] ->
          Alcotest.(check int) "first installed wins" 1 port
      | _ -> Alcotest.fail "unexpected actions")
  | _ -> Alcotest.fail "no match"

(* Regression: expiry must remove entries in the canonical order
   (priority descending, cookie ascending) regardless of install order,
   and lookups must stop serving the expired entries. *)
let test_expire_order_and_index_invalidation () =
  let table = Flow_table.create () in
  let now = Vtime.zero in
  let add ~cookie ~priority oct =
    match
      Flow_table.apply_flow_mod table ~now
        (Of_msg.flow_add ~cookie ~hard_timeout:5 ~priority
           (Of_match.nw_dst_prefix
              (pfx (Printf.sprintf "10.%d.0.0/16" oct)))
           [ Of_action.output oct ])
    with
    | Ok _ -> ()
    | Error e -> Alcotest.fail e
  in
  (* Installed in scrambled order on purpose. *)
  add ~cookie:9L ~priority:200 1;
  add ~cookie:2L ~priority:900 2;
  add ~cookie:1L ~priority:200 3;
  add ~cookie:5L ~priority:900 4;
  (* Look up once, then let everything time out at once. *)
  ignore (Flow_table.lookup table (key_for (ip "10.1.9.9")));
  let removed = Flow_table.expire table ~now:(Vtime.of_s 10.) in
  let order =
    List.map
      (fun (e, _) -> (e.Flow_table.e_priority, e.Flow_table.e_cookie))
      removed
  in
  Alcotest.(check (list (pair int int64)))
    "priority desc, cookie asc"
    [ (900, 2L); (900, 5L); (200, 1L); (200, 9L) ]
    order;
  List.iter
    (fun oct ->
      let key = key_for (ip (Printf.sprintf "10.%d.9.9" oct)) in
      Alcotest.(check bool)
        (Printf.sprintf "store dropped 10.%d/16" oct)
        true
        (Flow_table.lookup table key = None
        && Flow_table.lookup_linear table key = None))
    [ 1; 2; 3; 4 ]

(* --- datapath ------------------------------------------------------------ *)

let udp_frame ?(dst_ip = "10.0.2.2") ?(size = 10) () =
  Packet.udp ~src_mac:(Mac.make_local 1) ~dst_mac:(Mac.make_local 2)
    ~src_ip:(ip "10.0.1.2") ~dst_ip:(ip dst_ip)
    (Udp.make ~src_port:1 ~dst_port:2 (String.make size 'x'))

let test_datapath_forwards_on_match () =
  let engine = Engine.create () in
  let dp = Datapath.create engine ~dpid:1L ~n_ports:2 in
  let out = ref [] in
  Datapath.set_transmit dp ~port:2 (fun f -> out := f :: !out);
  (match
     Datapath.handle_flow_mod dp
       (Of_msg.flow_add (Of_match.nw_dst_prefix (pfx "10.0.2.0/24"))
          [ Of_action.output 2 ])
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "flow mod failed");
  Datapath.receive_frame dp ~in_port:1 (udp_frame ());
  Alcotest.(check int) "forwarded" 1 (List.length !out);
  Alcotest.(check int) "counter" 1 (Datapath.packets_forwarded dp)

(* RouteFlow installs no timeouts, and a switch holding only untimed
   entries schedules no expiry tick: a minute of virtual time runs no
   event at all. *)
let test_untimed_datapath_schedules_no_expiry () =
  let engine = Engine.create () in
  let dp = Datapath.create engine ~dpid:1L ~n_ports:2 in
  List.iter
    (fun prefix ->
      match
        Datapath.handle_flow_mod dp
          (Of_msg.flow_add (Of_match.nw_dst_prefix (pfx prefix))
             [ Of_action.output 2 ])
      with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "flow mod failed")
    [ "10.0.2.0/24"; "10.0.3.0/24" ];
  ignore (Engine.run ~until:(Vtime.of_s 60.) engine);
  Alcotest.(check int) "events" 0 (Engine.events_executed engine);
  Alcotest.(check int) "heap pushes" 0 (Engine.heap_pushes engine);
  Alcotest.(check int) "entries kept" 2
    (Flow_table.size (Datapath.flow_table dp))

(* A timed entry arms the tick on the 1 s grid from the switch's
   creation: added at 2.3 s with a 5 s hard timeout, it is removed by
   the tick at 8 s (the first grid point after 7.3 s), and the tick
   then disarms. *)
let test_timed_entry_expires_on_grid () =
  let engine = Engine.create () in
  let dp = Datapath.create engine ~dpid:1L ~n_ports:2 in
  let removed = ref [] in
  Datapath.set_on_flow_removed dp (fun fr ->
      removed := (Engine.now engine, fr.Of_msg.fr_reason) :: !removed);
  ignore
    (Engine.schedule_at engine (Vtime.of_s 2.3) (fun () ->
         match
           Datapath.handle_flow_mod dp
             (Of_msg.flow_add ~hard_timeout:5 ~notify_removed:true
                (Of_match.nw_dst_prefix (pfx "10.0.2.0/24"))
                [ Of_action.output 2 ])
         with
         | Ok () -> ()
         | Error _ -> Alcotest.fail "flow mod failed"));
  ignore (Engine.run ~until:(Vtime.of_s 60.) engine);
  (match !removed with
  | [ (at, Of_msg.Removed_hard) ] ->
      Alcotest.(check int) "removed at 8 s" 8_000_000 (Vtime.to_us at)
  | _ -> Alcotest.fail "expected one hard-timeout removal");
  Alcotest.(check int) "table empty" 0
    (Flow_table.size (Datapath.flow_table dp));
  (* The flow-mod, then the ticks at 3, 4, 5, 6, 7 and 8 s; none after. *)
  Alcotest.(check int) "events" 7 (Engine.events_executed engine);
  Alcotest.(check int) "heap pushes" 7 (Engine.heap_pushes engine)

(* --- allocation budgets on the switch hot path ---------------------- *)

(* Minor words per call of [f], averaged over [n] calls after a warm-up
   call (which may grow tables). *)
let minor_words_per_call n f =
  f ();
  let before = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  (Gc.minor_words () -. before) /. float_of_int n

(* One forwarded frame through a RouteFlow entry (rewrite both MACs,
   output) costs its key, the probe of each signature bucket and one
   frame copy: a fixed budget, independent of the frame's payload
   kind. A full parse of the frame alone costs more than this. *)
let test_forward_hop_word_budget () =
  let engine = Engine.create () in
  let dp = Datapath.create engine ~dpid:1L ~n_ports:2 in
  Datapath.set_transmit dp ~port:2 (fun _ -> ());
  List.iter
    (fun prefix ->
      match
        Datapath.handle_flow_mod dp
          (Of_msg.flow_add (Of_match.nw_dst_prefix (pfx prefix))
             [ Of_action.Set_dl_src (Mac.make_local 7);
               Of_action.Set_dl_dst (Mac.make_local 8); Of_action.output 2 ])
      with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "flow mod failed")
    [ "10.0.2.0/24"; "10.0.3.0/24"; "172.16.0.0/30"; "10.0.1.1/32" ];
  let frame = udp_frame ~size:100 () in
  let words =
    minor_words_per_call 1000 (fun () ->
        Datapath.receive_frame dp ~in_port:1 frame)
  in
  Alcotest.(check int) "all forwarded" 1001 (Datapath.packets_forwarded dp);
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words per forwarded frame" words)
    true (words < 80.)

(* RouteFlow installs no timeouts, so an expiry sweep must cost
   nothing on its tables. *)
let test_expire_untimed_allocates_nothing () =
  let table = Flow_table.create () in
  for i = 0 to 49 do
    add table ~now:Vtime.zero (Printf.sprintf "10.0.%d.0/24" i) 1
  done;
  let now = Vtime.of_s 5.0 in
  let words =
    minor_words_per_call 1000 (fun () ->
        ignore (Flow_table.expire table ~now))
  in
  Alcotest.(check bool)
    (Printf.sprintf "%.3f minor words per expire" words)
    true (words < 0.01);
  Alcotest.(check int) "entries kept" 50 (Flow_table.size table)

(* A RouteFlow-shaped table of [n] entries: exact nw_dst /24s (hosts)
   and /30s (links), half each. *)
let routeflow_table n =
  let table = Flow_table.create () in
  for i = 0 to n - 1 do
    let j = i / 2 in
    let prefix =
      if i mod 2 = 0 then
        Ipv4_addr.Prefix.make
          (Ipv4_addr.of_octets 10 (j lsr 8) (j land 0xff) 0)
          24
      else
        Ipv4_addr.Prefix.make
          (Ipv4_addr.of_octets 172 (16 + (j lsr 14)) ((j lsr 6) land 0xff)
             ((j land 63) * 4))
          30
    in
    match
      Flow_table.apply_flow_mod table ~now:Vtime.zero
        (Of_msg.flow_add (Of_match.nw_dst_prefix prefix) [ Of_action.output 1 ])
    with
    | Ok _ -> ()
    | Error e -> Alcotest.fail e
  done;
  table

(* Route churn — one Add of a new /24 and its Delete_strict — touches
   only that route's key, so it allocates a fixed number of words
   whatever the table's size. *)
let test_flow_mod_churn_word_budget () =
  let m = Of_match.nw_dst_prefix (pfx "192.168.7.0/24") in
  let add = Of_msg.flow_add m [ Of_action.output 2 ] in
  let delete = Of_msg.flow_delete ~strict:true ~priority:add.fm_priority m in
  List.iter
    (fun n ->
      let table = routeflow_table n in
      let words =
        minor_words_per_call 100 (fun () ->
            ignore (Flow_table.apply_flow_mod table ~now:Vtime.zero add);
            ignore (Flow_table.apply_flow_mod table ~now:Vtime.zero delete))
      in
      Alcotest.(check int) "churn leaves the table as it was" n
        (Flow_table.size table);
      Alcotest.(check bool)
        (Printf.sprintf "%.1f minor words per churn at %d entries" words n)
        true (words < 200.))
    [ 1_000; 10_000 ]

(* The live words of a 1k-entry RouteFlow table, as a switch holds it:
   every flow-mod decoded from the wire (so nothing is shared with the
   sender), matching an nw_dst prefix and rewriting both MACs, the
   table's buckets included. The bound sits just above the measured
   50.1 words (53.1 with a boxed zero cookie per entry, 81.8 with boxed
   addresses and a projected key plus a hash-table node per entry). *)
let test_flow_table_words_per_entry () =
  let table = Flow_table.create () in
  let n = 1_000 in
  for i = 0 to n - 1 do
    let prefix =
      Ipv4_addr.Prefix.make (Ipv4_addr.of_octets 10 (i lsr 8) (i land 0xff) 0) 24
    in
    let fm =
      Of_msg.flow_add ~priority:(0x4000 + 24)
        (Of_match.nw_dst_prefix prefix)
        [ Of_action.Set_dl_src (Mac.make_local (2 * i));
          Of_action.Set_dl_dst (Mac.make_local ((2 * i) + 1));
          Of_action.output (1 + (i mod 4)) ]
    in
    match Of_codec.of_wire (Of_codec.to_wire (Of_msg.msg (Of_msg.Flow_mod fm))) with
    | Ok { payload = Of_msg.Flow_mod fm; _ } -> (
        match Flow_table.apply_flow_mod table ~now:Vtime.zero fm with
        | Ok _ -> ()
        | Error e -> Alcotest.fail e)
    | Ok _ | Error _ -> Alcotest.fail "flow-mod did not round-trip"
  done;
  Alcotest.(check int) "entries" n (Flow_table.size table);
  let words =
    float_of_int (Obj.reachable_words (Obj.repr table)) /. float_of_int n
  in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f live words per entry" words)
    true (words < 52.)

(* [timed_entries] gates the expiry scan, so it must equal the number
   of entries with a timeout after any mix of adds (fresh and
   replacing), modifies, deletes and expiries. *)
let prop_timed_count_tracks_entries =
  QCheck.Test.make ~name:"timed-entry count tracks the table" ~count:200
    QCheck.(
      list_of_size (Gen.int_bound 50)
        (quad (int_bound 6) (int_bound 3) (int_bound 3) (int_bound 2)))
    (fun ops ->
      let table = Flow_table.create () in
      let clock = ref 0. in
      List.for_all
        (fun (kind, cell, timeout, prio) ->
          let m =
            Of_match.nw_dst_prefix
              (Ipv4_addr.Prefix.make (Ipv4_addr.of_octets 10 cell 0 0) 16)
          in
          let now = Vtime.of_s !clock in
          let priority = 100 + prio in
          let add ~idle ~hard =
            ignore
              (Flow_table.apply_flow_mod table ~now
                 (Of_msg.flow_add ~priority ~idle_timeout:idle
                    ~hard_timeout:hard m [ Of_action.output 1 ]))
          in
          (match kind with
          | 0 -> add ~idle:0 ~hard:0
          | 1 -> add ~idle:timeout ~hard:0
          | 2 -> add ~idle:0 ~hard:(timeout * 2)
          | 3 ->
              ignore
                (Flow_table.apply_flow_mod table ~now
                   {
                     (Of_msg.flow_add ~priority ~idle_timeout:timeout m
                        [ Of_action.output 2 ])
                     with
                     Of_msg.fm_command =
                       (if prio = 0 then Of_msg.Modify_strict else Of_msg.Modify);
                   })
          | 4 ->
              ignore
                (Flow_table.apply_flow_mod table ~now
                   (Of_msg.flow_delete ~strict:(prio = 0) ~priority m))
          | _ ->
              clock := !clock +. float_of_int (timeout + 1);
              ignore (Flow_table.expire table ~now:(Vtime.of_s !clock)));
          let timed =
            List.length
              (List.filter
                 (fun (e : Flow_table.entry) ->
                   e.e_idle_timeout > 0 || e.e_hard_timeout > 0)
                 (Flow_table.entries table))
          in
          Flow_table.timed_entries table = timed)
        ops)

let test_datapath_miss_packet_in () =
  let engine = Engine.create () in
  let dp = Datapath.create engine ~dpid:1L ~n_ports:2 in
  let pis = ref [] in
  Datapath.set_on_packet_in dp (fun pi -> pis := pi :: !pis);
  Datapath.receive_frame dp ~in_port:1 (udp_frame ());
  (match !pis with
  | [ pi ] ->
      Alcotest.(check int) "in port" 1 pi.Of_msg.pi_in_port;
      Alcotest.(check bool) "no-match reason" true (pi.Of_msg.pi_reason = Of_msg.No_match)
  | _ -> Alcotest.fail "expected one packet-in");
  Alcotest.(check int) "missed" 1 (Datapath.packets_missed dp)

let test_datapath_buffers_large_misses () =
  let engine = Engine.create () in
  let dp = Datapath.create engine ~dpid:1L ~n_ports:2 in
  let pis = ref [] in
  Datapath.set_on_packet_in dp (fun pi -> pis := pi :: !pis);
  let big = udp_frame ~size:500 () in
  Datapath.receive_frame dp ~in_port:1 big;
  match !pis with
  | [ pi ] -> (
      Alcotest.(check bool) "buffered" true (pi.Of_msg.pi_buffer_id <> None);
      Alcotest.(check int) "truncated" 128 (String.length pi.Of_msg.pi_data);
      Alcotest.(check int) "total_len" (String.length big) pi.Of_msg.pi_total_len;
      (* Release the buffer with a packet-out. *)
      let out = ref [] in
      Datapath.set_transmit dp ~port:2 (fun f -> out := f :: !out);
      match
        Datapath.handle_packet_out dp
          {
            Of_msg.po_buffer_id = pi.Of_msg.pi_buffer_id;
            po_in_port = 1;
            po_actions = [ Of_action.output 2 ];
            po_data = "";
          }
      with
      | Ok () ->
          Alcotest.(check int) "released full frame" 1 (List.length !out);
          Alcotest.(check string) "intact" big (List.hd !out)
      | Error _ -> Alcotest.fail "packet-out failed")
  | _ -> Alcotest.fail "expected one packet-in"

(* OF 1.0 applies a flow-mod's buffer id to every command but the
   deletes: a Modify_strict sends the buffered packet through its
   actions and frees the buffer slot. *)
let test_modify_strict_releases_buffer () =
  let engine = Engine.create () in
  let dp = Datapath.create engine ~dpid:1L ~n_ports:2 in
  let pis = ref [] and out = ref [] in
  Datapath.set_on_packet_in dp (fun pi -> pis := pi :: !pis);
  Datapath.set_transmit dp ~port:2 (fun f -> out := f :: !out);
  let big = udp_frame ~size:500 () in
  Datapath.receive_frame dp ~in_port:1 big;
  match !pis with
  | [ { Of_msg.pi_buffer_id = Some _ as buffer; _ } ] -> (
      (match
         Datapath.handle_flow_mod dp
           {
             (Of_msg.flow_add
                (Of_match.nw_dst_prefix (pfx "10.0.2.0/24"))
                [ Of_action.output 2 ])
             with
             Of_msg.fm_command = Of_msg.Modify_strict;
             fm_buffer_id = buffer;
           }
       with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "flow mod failed");
      Alcotest.(check (list string))
        "buffered frame left on port 2" [ big ] !out;
      match
        Datapath.handle_packet_out dp
          {
            Of_msg.po_buffer_id = buffer;
            po_in_port = 1;
            po_actions = [ Of_action.output 2 ];
            po_data = "";
          }
      with
      | Error _ -> ()
      | Ok () -> Alcotest.fail "buffer slot still held")
  | _ -> Alcotest.fail "expected one buffered packet-in"

let test_datapath_unknown_buffer_errors () =
  let engine = Engine.create () in
  let dp = Datapath.create engine ~dpid:1L ~n_ports:1 in
  match
    Datapath.handle_packet_out dp
      { Of_msg.po_buffer_id = Some 999l; po_in_port = 1; po_actions = []; po_data = "" }
  with
  | Error e -> Alcotest.(check int) "bad request" Of_msg.error_bad_request e.Of_msg.err_type
  | Ok () -> Alcotest.fail "accepted unknown buffer"

let test_datapath_flood_excludes_ingress () =
  let engine = Engine.create () in
  let dp = Datapath.create engine ~dpid:1L ~n_ports:4 in
  let hits = Array.make 5 0 in
  for port = 1 to 4 do
    Datapath.set_transmit dp ~port (fun _ -> hits.(port) <- hits.(port) + 1)
  done;
  (match
     Datapath.handle_flow_mod dp
       (Of_msg.flow_add Of_match.wildcard_all [ Of_action.output Of_port.flood ])
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "flow mod");
  Datapath.receive_frame dp ~in_port:2 (udp_frame ());
  Alcotest.(check (list int)) "flooded to 1,3,4 not 2" [ 1; 0; 1; 1 ]
    [ hits.(1); hits.(2); hits.(3); hits.(4) ]

let test_datapath_set_field_rewrites () =
  let engine = Engine.create () in
  let dp = Datapath.create engine ~dpid:1L ~n_ports:2 in
  let out = ref [] in
  Datapath.set_transmit dp ~port:2 (fun f -> out := f :: !out);
  let new_src_mac = Mac.make_local 0xAAA in
  let new_dst_mac = Mac.make_local 0xBBB in
  (match
     Datapath.handle_flow_mod dp
       (Of_msg.flow_add Of_match.wildcard_all
          [
            Of_action.Set_dl_src new_src_mac;
            Of_action.Set_dl_dst new_dst_mac;
            Of_action.Set_nw_dst (ip "99.99.99.99");
            Of_action.output 2;
          ])
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "flow mod");
  Datapath.receive_frame dp ~in_port:1 (udp_frame ());
  match !out with
  | [ frame ] -> (
      match Packet.parse frame with
      | Ok { eth; l3 = Packet.Ipv4 (iph, _); _ } ->
          Alcotest.(check bool) "src mac" true (Mac.equal eth.Ethernet.src new_src_mac);
          Alcotest.(check bool) "dst mac" true (Mac.equal eth.Ethernet.dst new_dst_mac);
          Alcotest.(check bool) "dst ip (checksum ok)" true
            (Ipv4_addr.equal iph.Ipv4.dst (ip "99.99.99.99"))
      | Ok _ -> Alcotest.fail "not ipv4 after rewrite"
      | Error e -> Alcotest.fail ("rewritten frame corrupt: " ^ e))
  | _ -> Alcotest.fail "expected one frame"

let test_datapath_port_status_callback () =
  let engine = Engine.create () in
  let dp = Datapath.create engine ~dpid:1L ~n_ports:2 in
  let events = ref [] in
  Datapath.set_on_port_status dp (fun reason desc -> events := (reason, desc) :: !events);
  Datapath.set_port_up dp 1 false;
  Datapath.set_port_up dp 1 false (* no-op: no change *);
  Datapath.set_port_up dp 1 true;
  Alcotest.(check int) "two transitions" 2 (List.length !events);
  Alcotest.(check bool) "port down recorded" true
    (match List.rev !events with
    | (Of_msg.Port_modify, d) :: _ -> not d.Of_msg.up
    | _ -> false)

(* --- channel ---------------------------------------------------------------- *)

let test_channel_ordered_delivery () =
  let engine = Engine.create () in
  let a, b = Channel.create engine ~latency:(Vtime.span_ms 5) () in
  let received = ref [] in
  Channel.set_receiver b (fun s -> received := s :: !received);
  Channel.send a "one";
  Channel.send a "two";
  Channel.send a "three";
  ignore (Engine.run engine);
  Alcotest.(check (list string)) "in order" [ "one"; "two"; "three" ]
    (List.rev !received)

let test_channel_buffers_until_receiver () =
  let engine = Engine.create () in
  let a, b = Channel.create engine () in
  Channel.send a "early";
  ignore (Engine.run engine);
  let got = ref [] in
  Channel.set_receiver b (fun s -> got := s :: !got);
  Alcotest.(check (list string)) "buffered" [ "early" ] !got

let test_channel_close_propagates () =
  let engine = Engine.create () in
  let a, b = Channel.create engine () in
  let closed = ref false in
  Channel.set_on_close b (fun () -> closed := true);
  Channel.close a;
  ignore (Engine.run engine);
  Alcotest.(check bool) "peer closed" true !closed;
  Alcotest.(check bool) "sender closed" false (Channel.is_open a);
  (* Sends after close are silent no-ops. *)
  Channel.send a "into the void";
  ignore (Engine.run engine)

(* --- host ------------------------------------------------------------------- *)

(* Two hosts wired back to back on the same subnet. *)
let host_pair engine =
  let h1 =
    Host.create engine ~name:"h1" ~mac:(Mac.make_local 1) ~ip:(ip "10.0.0.1")
      ~prefix_len:24 ~gateway:(ip "10.0.0.254") ()
  in
  let h2 =
    Host.create engine ~name:"h2" ~mac:(Mac.make_local 2) ~ip:(ip "10.0.0.2")
      ~prefix_len:24 ~gateway:(ip "10.0.0.254") ()
  in
  Host.set_transmit h1 (fun f ->
      ignore (Engine.schedule engine (Vtime.span_ms 1) (fun () -> Host.receive_frame h2 f)));
  Host.set_transmit h2 (fun f ->
      ignore (Engine.schedule engine (Vtime.span_ms 1) (fun () -> Host.receive_frame h1 f)));
  (h1, h2)

let test_host_arp_and_udp () =
  let engine = Engine.create () in
  let h1, h2 = host_pair engine in
  let got = ref [] in
  Host.set_udp_handler h2 (fun ~src ~src_port:_ ~dst_port ~payload ->
      got := (src, dst_port, payload) :: !got);
  Host.send_udp h1 ~dst:(ip "10.0.0.2") ~dst_port:7777 "hello";
  ignore (Engine.run ~until:(Vtime.of_s 10.0) engine);
  (match !got with
  | [ (src, port, payload) ] ->
      Alcotest.(check bool) "src" true (Ipv4_addr.equal src (ip "10.0.0.1"));
      Alcotest.(check int) "port" 7777 port;
      Alcotest.(check string) "payload" "hello" payload
  | _ -> Alcotest.fail "udp not delivered");
  (* ARP cache now primed both ways (request + reply). *)
  Alcotest.(check bool) "h1 cached h2" true
    (List.mem_assoc (ip "10.0.0.2") (Host.arp_cache h1));
  Alcotest.(check bool) "h2 learned h1" true
    (List.mem_assoc (ip "10.0.0.1") (Host.arp_cache h2))

let test_host_ping () =
  let engine = Engine.create () in
  let h1, h2 = host_pair engine in
  ignore h2;
  let replies = ref [] in
  Host.set_echo_handler h1 (fun ~src ~seq -> replies := (src, seq) :: !replies);
  Host.ping h1 ~dst:(ip "10.0.0.2") ~seq:9;
  ignore (Engine.run ~until:(Vtime.of_s 10.0) engine);
  match !replies with
  | [ (src, 9) ] ->
      Alcotest.(check bool) "reply from target" true
        (Ipv4_addr.equal src (ip "10.0.0.2"))
  | _ -> Alcotest.fail "no echo reply"

let test_host_stream_counts () =
  let engine = Engine.create () in
  let h1, h2 = host_pair engine in
  let stream =
    Host.start_udp_stream h1 ~dst:(ip "10.0.0.2") ~dst_port:5004
      ~period:(Vtime.span_ms 100) ~payload_size:100 ~count:10 ()
  in
  ignore (Engine.run ~until:(Vtime.of_s 5.0) engine);
  Alcotest.(check int) "sent exactly count" 10 (Host.stream_sent stream);
  Alcotest.(check int) "all delivered" 10 (Host.udp_received h2);
  Alcotest.(check bool) "first rx time recorded" true
    (Host.first_udp_rx_time h2 <> None)

let test_host_arp_retry_until_peer_appears () =
  let engine = Engine.create () in
  let h1 =
    Host.create engine ~name:"h1" ~mac:(Mac.make_local 1) ~ip:(ip "10.0.0.1")
      ~prefix_len:24 ~gateway:(ip "10.0.0.254") ()
  in
  (* A black hole that starts answering only after 10 s. *)
  let h2 =
    Host.create engine ~name:"h2" ~mac:(Mac.make_local 2) ~ip:(ip "10.0.0.2")
      ~prefix_len:24 ~gateway:(ip "10.0.0.254") ()
  in
  let connected = ref false in
  Host.set_transmit h1 (fun f ->
      if !connected then
        ignore (Engine.schedule engine (Vtime.span_ms 1) (fun () -> Host.receive_frame h2 f)));
  Host.set_transmit h2 (fun f ->
      ignore (Engine.schedule engine (Vtime.span_ms 1) (fun () -> Host.receive_frame h1 f)));
  Host.send_udp h1 ~dst:(ip "10.0.0.2") ~dst_port:80 "queued";
  ignore (Engine.schedule engine (Vtime.span_s 10.0) (fun () -> connected := true));
  ignore (Engine.run ~until:(Vtime.of_s 30.0) engine);
  Alcotest.(check int) "delivered after link came up" 1 (Host.udp_received h2)

(* --- link ---------------------------------------------------------------------- *)

let test_link_failure_drops () =
  let engine = Engine.create () in
  let dp1 = Datapath.create engine ~dpid:1L ~n_ports:1 in
  let dp2 = Datapath.create engine ~dpid:2L ~n_ports:1 in
  let link = Link.connect engine (Link.To_switch (dp1, 1)) (Link.To_switch (dp2, 1)) in
  (match
     Datapath.handle_flow_mod dp1
       (Of_msg.flow_add Of_match.wildcard_all [ Of_action.output 1 ])
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "flow mod");
  (* The only port is also the ingress: use OFPP_IN_PORT semantics via
     a second rule... simpler: transmit directly from dp1's port by
     receiving on dp2 and watching link counters. *)
  Link.set_up link false;
  Alcotest.(check bool) "down" false (Link.is_up link);
  Alcotest.(check bool) "port followed" false (Datapath.port_up dp1 1);
  Link.set_up link true;
  Alcotest.(check bool) "port back up" true (Datapath.port_up dp1 1)

let test_network_staggered_boot () =
  let engine = Engine.create () in
  let topo = Topo_gen.ring 3 in
  let connected = ref [] in
  let _net =
    Rf_net.Network.build engine topo
      ~host_config:(fun _ -> Alcotest.fail "no hosts")
      ~attach_controller:(fun ~dpid _endpoint ->
        connected := (dpid, Vtime.to_s (Engine.now engine)) :: !connected)
      ~switch_boot_delay:(fun d -> Vtime.span_s (Int64.to_float d))
      ()
  in
  ignore (Engine.run ~until:(Vtime.of_s 10.0) engine);
  match List.sort compare !connected with
  | [ (1L, t1); (2L, t2); (3L, t3) ] ->
      Alcotest.(check (float 0.01)) "sw1 at 1s" 1.0 t1;
      Alcotest.(check (float 0.01)) "sw2 at 2s" 2.0 t2;
      Alcotest.(check (float 0.01)) "sw3 at 3s" 3.0 t3
  | _ -> Alcotest.fail "wrong connections"

(* --- topo_file -------------------------------------------------------------------- *)

let test_topo_file_parse () =
  let text =
    "# demo network\nswitch 1\nswitch 2\nlink 1 2 5 30\nlink 2 3\nhost web 3\n"
  in
  match Rf_net.Topo_file.parse text with
  | Error e -> Alcotest.fail e
  | Ok topo ->
      Alcotest.(check int) "switches (3 implicit)" 3 (Topology.switch_count topo);
      Alcotest.(check int) "edges" 3 (Topology.edge_count topo);
      Alcotest.(check (list string)) "hosts" [ "web" ] (Topology.hosts topo);
      (match Topology.edge_between topo (Topology.Switch 1L) (Topology.Switch 2L) with
      | Some e ->
          Alcotest.(check int) "cost" 30 e.Topology.cost;
          Alcotest.(check (float 0.01)) "latency ms" 5.0
            (Rf_sim.Vtime.span_to_ms e.Topology.latency)
      | None -> Alcotest.fail "missing link")

let test_topo_file_roundtrip () =
  let topo = Topo_gen.ring 5 in
  Topology.add_host topo "h1";
  ignore (Topology.connect topo (Topology.Host "h1") (Topology.Switch 2L));
  match Rf_net.Topo_file.parse (Rf_net.Topo_file.to_string topo) with
  | Error e -> Alcotest.fail e
  | Ok topo' ->
      Alcotest.(check int) "switches" 5 (Topology.switch_count topo');
      Alcotest.(check int) "edges" 6 (Topology.edge_count topo');
      Alcotest.(check (list string)) "host kept" [ "h1" ] (Topology.hosts topo')

let test_topo_file_rejects_garbage () =
  (match Rf_net.Topo_file.parse "switch banana\n" with
  | Error e ->
      Alcotest.(check bool) "line number" true
        (Astring_contains.contains e "line 1")
  | Ok _ -> Alcotest.fail "accepted bad dpid");
  (match Rf_net.Topo_file.parse "frobnicate 1 2\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted unknown directive");
  match Rf_net.Topo_file.parse "# nothing\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted empty topology"

(* --- pcap ------------------------------------------------------------------------ *)

let test_pcap_header_and_records () =
  let cap = Rf_net.Pcap.create ~snaplen:100 () in
  Rf_net.Pcap.add_frame cap ~at:(Vtime.of_s 1.5) (String.make 42 'A');
  Rf_net.Pcap.add_frame cap ~at:(Vtime.of_s 2.0) (String.make 200 'B');
  let s = Rf_net.Pcap.contents cap in
  (* Global header: little-endian magic, version 2.4, linktype 1. *)
  Alcotest.(check string) "magic" "\xd4\xc3\xb2\xa1" (String.sub s 0 4);
  let le32 off =
    Char.code s.[off]
    lor (Char.code s.[off + 1] lsl 8)
    lor (Char.code s.[off + 2] lsl 16)
    lor (Char.code s.[off + 3] lsl 24)
  in
  Alcotest.(check int) "snaplen" 100 (le32 16);
  Alcotest.(check int) "linktype ethernet" 1 (le32 20);
  (* First record at offset 24: ts 1.5 s, 42 bytes. *)
  Alcotest.(check int) "ts sec" 1 (le32 24);
  Alcotest.(check int) "ts usec" 500000 (le32 28);
  Alcotest.(check int) "caplen" 42 (le32 32);
  Alcotest.(check int) "origlen" 42 (le32 36);
  (* Second record: truncated to snaplen, original length kept. *)
  let r2 = 24 + 16 + 42 in
  Alcotest.(check int) "caplen truncated" 100 (le32 (r2 + 8));
  Alcotest.(check int) "origlen kept" 200 (le32 (r2 + 12));
  Alcotest.(check int) "frames" 2 (Rf_net.Pcap.frame_count cap);
  Alcotest.(check int) "total size" (24 + 16 + 42 + 16 + 100) (String.length s)

let test_pcap_tap_link () =
  let engine = Engine.create () in
  let dp1 = Datapath.create engine ~dpid:1L ~n_ports:1 in
  let dp2 = Datapath.create engine ~dpid:2L ~n_ports:1 in
  let link = Link.connect engine (Link.To_switch (dp1, 1)) (Link.To_switch (dp2, 1)) in
  let cap = Rf_net.Pcap.create () in
  Rf_net.Pcap.tap_link engine cap link;
  (match
     Datapath.handle_packet_out dp1
       { Of_msg.po_buffer_id = None; po_in_port = Of_port.none;
         po_actions = [ Of_action.output 1 ]; po_data = udp_frame () }
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "packet out");
  ignore (Engine.run ~until:(Vtime.of_s 1.0) engine);
  Alcotest.(check int) "frame captured" 1 (Rf_net.Pcap.frame_count cap);
  (* The captured bytes are the frame itself, re-parseable. *)
  let s = Rf_net.Pcap.contents cap in
  let frame = String.sub s (24 + 16) (String.length s - 24 - 16) in
  match Rf_packet.Packet.parse frame with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("captured frame corrupt: " ^ e)

(* --- of_agent -------------------------------------------------------------------- *)

let test_agent_handshake_and_echo () =
  let engine = Engine.create () in
  let dp = Datapath.create engine ~dpid:42L ~n_ports:3 in
  let sw_end, ctl_end = Channel.create engine () in
  let _agent = Of_agent.create engine dp sw_end in
  let received = ref [] in
  Channel.set_receiver ctl_end (fun bytes ->
      match Of_codec.of_wire bytes with
      | Ok m -> received := !received @ [ m ]
      | Error e -> Alcotest.fail e);
  (* Behave like a controller. *)
  let send m = Channel.send ctl_end (Of_codec.to_wire m) in
  send (Of_msg.msg ~xid:0l Of_msg.Hello);
  send (Of_msg.msg ~xid:1l Of_msg.Features_request);
  send (Of_msg.msg ~xid:2l (Of_msg.Echo_request "ka"));
  send (Of_msg.msg ~xid:3l Of_msg.Barrier_request);
  send (Of_msg.msg ~xid:4l (Of_msg.Stats_request Of_msg.Desc_req));
  ignore (Engine.run ~until:(Vtime.of_s 5.0) engine);
  let find f = List.find_opt f !received in
  Alcotest.(check bool) "sent hello" true
    (find (fun m -> m.Of_msg.payload = Of_msg.Hello) <> None);
  (match find (fun m -> match m.Of_msg.payload with Of_msg.Features_reply _ -> true | _ -> false) with
  | Some { Of_msg.payload = Of_msg.Features_reply f; xid } ->
      Alcotest.(check int64) "dpid" 42L f.Of_msg.datapath_id;
      Alcotest.(check int) "ports" 3 (List.length f.Of_msg.ports);
      Alcotest.(check int32) "xid echo" 1l xid
  | _ -> Alcotest.fail "no features reply");
  (match find (fun m -> match m.Of_msg.payload with Of_msg.Echo_reply _ -> true | _ -> false) with
  | Some { Of_msg.payload = Of_msg.Echo_reply data; _ } ->
      Alcotest.(check string) "echo payload" "ka" data
  | _ -> Alcotest.fail "no echo reply");
  Alcotest.(check bool) "barrier replied" true
    (find (fun m -> m.Of_msg.payload = Of_msg.Barrier_reply) <> None);
  match find (fun m -> match m.Of_msg.payload with Of_msg.Stats_reply _ -> true | _ -> false) with
  | Some { Of_msg.payload = Of_msg.Stats_reply (Of_msg.Desc_reply d); _ } ->
      Alcotest.(check string) "manufacturer" "rf-sim" d.manufacturer
  | _ -> Alcotest.fail "no desc stats"

let test_agent_port_mod () =
  let engine = Engine.create () in
  let dp = Datapath.create engine ~dpid:9L ~n_ports:2 in
  let sw_end, ctl_end = Channel.create engine () in
  let _agent = Of_agent.create engine dp sw_end in
  let send m = Channel.send ctl_end (Of_codec.to_wire m) in
  send (Of_msg.msg ~xid:0l Of_msg.Hello);
  send
    (Of_msg.msg ~xid:1l
       (Of_msg.Port_mod
          { pm_port_no = 2; pm_hw_addr = Datapath.port_mac dp 2; pm_down = true }));
  ignore (Engine.run ~until:(Vtime.of_s 1.0) engine);
  Alcotest.(check bool) "port brought down" false (Datapath.port_up dp 2);
  send
    (Of_msg.msg ~xid:2l
       (Of_msg.Port_mod
          { pm_port_no = 2; pm_hw_addr = Datapath.port_mac dp 2; pm_down = false }));
  ignore (Engine.run ~until:(Vtime.of_s 2.0) engine);
  Alcotest.(check bool) "port brought back up" true (Datapath.port_up dp 2)

(* --- deterministic eviction order ------------------------------------------- *)

(* Two (or more) entries expiring at the same vtime must come out in
   canonical order — priority descending, then cookie ascending —
   regardless of install order. *)
let test_flow_table_expire_order () =
  let install table specs =
    List.iter
      (fun (prefix, priority, cookie) ->
        match
          Flow_table.apply_flow_mod table ~now:Vtime.zero
            (Of_msg.flow_add ~cookie ~priority ~hard_timeout:5
               (Of_match.nw_dst_prefix (pfx prefix))
               [ Of_action.output 1 ])
        with
        | Ok _ -> ()
        | Error e -> Alcotest.fail e)
      specs
  in
  let specs =
    [
      ("10.0.0.0/8", 100, 7L);
      ("20.0.0.0/8", 100, 3L);
      ("30.0.0.0/8", 200, 9L);
    ]
  in
  let order table =
    List.map
      (fun ((e : Flow_table.entry), reason) ->
        Alcotest.(check bool) "hard expiry" true (reason = Flow_table.Expired_hard);
        (e.Flow_table.e_priority, e.Flow_table.e_cookie))
      (Flow_table.expire table ~now:(Vtime.of_s 6.0))
  in
  let forward = Flow_table.create () in
  install forward specs;
  let backward = Flow_table.create () in
  install backward (List.rev specs);
  let expected = [ (200, 9L); (100, 3L); (100, 7L) ] in
  Alcotest.(check (list (pair int int64))) "canonical order" expected (order forward);
  Alcotest.(check (list (pair int int64)))
    "install order irrelevant" expected (order backward)

(* --- stream stop idempotency ------------------------------------------------- *)

let test_host_stream_stop_idempotent () =
  let engine = Engine.create () in
  let h1, h2 = host_pair engine in
  ignore h2;
  let dst = ip "10.0.0.2" in
  (* count:0 stops itself before the first datagram. *)
  let s0 =
    Host.start_udp_stream h1 ~dst ~dst_port:5004 ~period:(Vtime.span_ms 10)
      ~payload_size:32 ~count:0 ()
  in
  Alcotest.(check bool) "count 0 self-stops" true (Host.stream_stopped s0);
  Alcotest.(check int) "count 0 sends nothing" 0 (Host.stream_sent s0);
  (* A bounded stream stops itself exactly at its limit. *)
  let s3 =
    Host.start_udp_stream h1 ~dst ~dst_port:5004 ~period:(Vtime.span_ms 10)
      ~payload_size:32 ~count:3 ()
  in
  ignore (Engine.run ~until:(Vtime.of_s 1.0) engine);
  Alcotest.(check bool) "limit reached stops" true (Host.stream_stopped s3);
  Alcotest.(check int) "exactly the limit" 3 (Host.stream_sent s3);
  (* Manual stop freezes the counter; repeated stops are no-ops. *)
  let s =
    Host.start_udp_stream h1 ~dst ~dst_port:5004 ~period:(Vtime.span_ms 10)
      ~payload_size:32 ()
  in
  ignore (Engine.run ~until:(Vtime.of_s 1.2) engine);
  Host.stop_stream s;
  let frozen = Host.stream_sent s in
  Host.stop_stream s;
  Host.stop_stream s;
  ignore (Engine.run ~until:(Vtime.of_s 5.0) engine);
  Alcotest.(check bool) "stopped" true (Host.stream_stopped s);
  Alcotest.(check int) "counter frozen" frozen (Host.stream_sent s);
  Alcotest.(check int) "every datagram accounted"
    (Host.stream_sent s0 + Host.stream_sent s3 + frozen)
    (Host.udp_sent h1)

(* --- fat-tree generator ------------------------------------------------------ *)

let test_fat_tree_structure () =
  List.iter
    (fun k ->
      let t = Topo_gen.fat_tree k in
      Alcotest.(check int) "switches" (5 * k * k / 4) (Topology.switch_count t);
      Alcotest.(check int) "hosts" (Topo_gen.fat_tree_host_count k)
        (List.length (Topology.hosts t));
      Alcotest.(check int) "edges" (3 * k * k * k / 4) (Topology.edge_count t);
      Alcotest.(check bool) "connected" true (Topology.is_connected t);
      List.iter
        (fun d ->
          Alcotest.(check int) "every switch has degree k" k
            (Topology.degree t (Topology.Switch d)))
        (Topology.switches t))
    [ 2; 4; 6; 8 ]

let test_fat_tree_hops_agree () =
  let k = 4 in
  let t = Topo_gen.fat_tree k in
  let n = Topo_gen.fat_tree_host_count k in
  for a = 0 to n - 1 do
    for b = 0 to n - 1 do
      let na = Topology.Host (Topo_gen.fat_tree_host_name a)
      and nb = Topology.Host (Topo_gen.fat_tree_host_name b) in
      match Topology.hop_distance t na nb with
      | Some d ->
          Alcotest.(check int)
            (Printf.sprintf "hops %d-%d" a b)
            (Topo_gen.fat_tree_hops ~k a b)
            d
      | None -> Alcotest.fail "fat-tree hosts unreachable"
    done
  done

let test_fat_tree_rejects_odd_k () =
  Alcotest.check_raises "odd k"
    (Invalid_argument "Topo_gen.fat_tree: k must be even and >= 2") (fun () ->
      ignore (Topo_gen.fat_tree 3))

let suite =
  [
    Alcotest.test_case "topology allocates ports" `Quick test_topology_ports_allocated;
    Alcotest.test_case "topology rejects bad links" `Quick
      test_topology_rejects_bad_links;
    Alcotest.test_case "ring generator" `Quick test_ring_generator;
    Alcotest.test_case "line and star generators" `Quick test_line_and_star_generators;
    Alcotest.test_case "grid generator" `Quick test_grid_generator;
    Alcotest.test_case "random generator connected" `Quick
      test_random_generator_connected;
    Alcotest.test_case "pan-European topology" `Quick test_pan_european;
    Alcotest.test_case "flow table priority" `Quick test_flow_table_priority;
    Alcotest.test_case "flow add replaces identical" `Quick
      test_flow_table_add_replaces;
    Alcotest.test_case "non-strict delete subsumes" `Quick
      test_flow_table_delete_nonstrict;
    Alcotest.test_case "strict delete exact only" `Quick test_flow_table_delete_strict;
    Alcotest.test_case "idle and hard timeouts" `Quick test_flow_table_timeouts;
    Alcotest.test_case "counters and flow stats" `Quick
      test_flow_table_counters_and_stats;
    Alcotest.test_case "table capacity" `Quick test_flow_table_capacity;
    Alcotest.test_case "same-vtime expiry is canonical" `Quick
      test_flow_table_expire_order;
    QCheck_alcotest.to_alcotest prop_flow_table_model;
    QCheck_alcotest.to_alcotest prop_bucketed_lookup_matches_linear;
    Alcotest.test_case "key hash spreads one bucket's prefixes" `Quick
      test_key_hash_spreads_prefixes;
    Alcotest.test_case "same-priority tie-break, bucketed vs linear" `Quick
      test_lookup_same_priority_tiebreak;
    Alcotest.test_case "expire order and index invalidation" `Quick
      test_expire_order_and_index_invalidation;
    Alcotest.test_case "datapath forwards on match" `Quick
      test_datapath_forwards_on_match;
    Alcotest.test_case "untimed datapath schedules no expiry" `Quick
      test_untimed_datapath_schedules_no_expiry;
    Alcotest.test_case "timed entry expires on the 1 s grid" `Quick
      test_timed_entry_expires_on_grid;
    QCheck_alcotest.to_alcotest prop_flow_table_reports_changes;
    Alcotest.test_case "forwarded frame within word budget" `Quick
      test_forward_hop_word_budget;
    Alcotest.test_case "expire on an untimed table allocates nothing" `Quick
      test_expire_untimed_allocates_nothing;
    QCheck_alcotest.to_alcotest prop_timed_count_tracks_entries;
    Alcotest.test_case "flow-mod churn within word budget" `Quick
      test_flow_mod_churn_word_budget;
    Alcotest.test_case "flow table live words per entry" `Quick
      test_flow_table_words_per_entry;
    Alcotest.test_case "datapath miss raises packet-in" `Quick
      test_datapath_miss_packet_in;
    Alcotest.test_case "datapath buffers large misses" `Quick
      test_datapath_buffers_large_misses;
    Alcotest.test_case "modify-strict releases its buffer" `Quick
      test_modify_strict_releases_buffer;
    Alcotest.test_case "unknown buffer id errors" `Quick
      test_datapath_unknown_buffer_errors;
    Alcotest.test_case "flood excludes ingress port" `Quick
      test_datapath_flood_excludes_ingress;
    Alcotest.test_case "set-field actions rewrite frames" `Quick
      test_datapath_set_field_rewrites;
    Alcotest.test_case "port status callback" `Quick
      test_datapath_port_status_callback;
    Alcotest.test_case "channel ordered delivery" `Quick test_channel_ordered_delivery;
    Alcotest.test_case "channel buffers until receiver" `Quick
      test_channel_buffers_until_receiver;
    Alcotest.test_case "channel close propagates" `Quick test_channel_close_propagates;
    Alcotest.test_case "host ARP + UDP delivery" `Quick test_host_arp_and_udp;
    Alcotest.test_case "host ping" `Quick test_host_ping;
    Alcotest.test_case "host stream respects count" `Quick test_host_stream_counts;
    Alcotest.test_case "stream stop idempotent + accounting" `Quick
      test_host_stream_stop_idempotent;
    Alcotest.test_case "fat-tree structure" `Quick test_fat_tree_structure;
    Alcotest.test_case "fat-tree hop formula agrees with BFS" `Quick
      test_fat_tree_hops_agree;
    Alcotest.test_case "fat-tree rejects odd k" `Quick test_fat_tree_rejects_odd_k;
    Alcotest.test_case "host ARP retries until reachable" `Quick
      test_host_arp_retry_until_peer_appears;
    Alcotest.test_case "link failure toggles ports" `Quick test_link_failure_drops;
    Alcotest.test_case "OF agent handshake, echo, stats" `Quick
      test_agent_handshake_and_echo;
    Alcotest.test_case "pcap header and record layout" `Quick
      test_pcap_header_and_records;
    Alcotest.test_case "pcap link tap" `Quick test_pcap_tap_link;
    Alcotest.test_case "agent applies port-mod" `Quick test_agent_port_mod;
    Alcotest.test_case "topology file parses" `Quick test_topo_file_parse;
    Alcotest.test_case "topology file roundtrip" `Quick test_topo_file_roundtrip;
    Alcotest.test_case "topology file rejects garbage" `Quick
      test_topo_file_rejects_garbage;
    Alcotest.test_case "network staggered switch boot" `Quick
      test_network_staggered_boot;
  ]
