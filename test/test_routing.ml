(* Routing substrate tests: prefix trie, RIB selection, Quagga config
   round-trips, BGP codec and daemon behaviour, zebra glue. *)

open Rf_packet
open Rf_routing
module Engine = Rf_sim.Engine
module Vtime = Rf_sim.Vtime

let ip = Ipv4_addr.of_string_exn

let pfx = Ipv4_addr.Prefix.of_string_exn

(* --- prefix trie --------------------------------------------------------- *)

let test_trie_exact_and_lpm () =
  let t = Prefix_trie.create () in
  Prefix_trie.insert t (pfx "10.0.0.0/8") "eight";
  Prefix_trie.insert t (pfx "10.1.0.0/16") "sixteen";
  Prefix_trie.insert t (pfx "10.1.2.0/24") "twentyfour";
  Alcotest.(check (option string)) "exact /16" (Some "sixteen")
    (Prefix_trie.find_exact t (pfx "10.1.0.0/16"));
  (match Prefix_trie.lookup t (ip "10.1.2.3") with
  | Some (p, v) ->
      Alcotest.(check string) "longest" "twentyfour" v;
      Alcotest.(check int) "len" 24 (Ipv4_addr.Prefix.length p)
  | None -> Alcotest.fail "no match");
  (match Prefix_trie.lookup t (ip "10.1.9.9") with
  | Some (_, v) -> Alcotest.(check string) "middle" "sixteen" v
  | None -> Alcotest.fail "no match");
  (match Prefix_trie.lookup t (ip "10.200.0.1") with
  | Some (_, v) -> Alcotest.(check string) "shortest" "eight" v
  | None -> Alcotest.fail "no match");
  Alcotest.(check bool) "outside" true (Prefix_trie.lookup t (ip "11.0.0.1") = None)

let test_trie_remove_and_default () =
  let t = Prefix_trie.create () in
  Prefix_trie.insert t Ipv4_addr.Prefix.global "default";
  Prefix_trie.insert t (pfx "10.0.0.0/8") "ten";
  Prefix_trie.remove t (pfx "10.0.0.0/8");
  (match Prefix_trie.lookup t (ip "10.0.0.1") with
  | Some (_, v) -> Alcotest.(check string) "falls to default" "default" v
  | None -> Alcotest.fail "default missing");
  Alcotest.(check int) "size" 1 (Prefix_trie.size t)

let test_trie_entries_sorted () =
  let t = Prefix_trie.create () in
  List.iter
    (fun p -> Prefix_trie.insert t (pfx p) p)
    [
      "10.1.0.0/16"; "255.255.255.255/32"; "10.0.0.0/8"; "200.1.0.0/16";
      "192.168.1.0/24"; "10.0.0.0/16"; "128.0.0.0/1"; "10.1.2.0/24";
      "0.0.0.0/0";
    ];
  let entries = List.map snd (Prefix_trie.entries t) in
  Alcotest.(check (list string)) "sorted: unsigned network, then length"
    [
      "0.0.0.0/0"; "10.0.0.0/8"; "10.0.0.0/16"; "10.1.0.0/16"; "10.1.2.0/24";
      "128.0.0.0/1"; "192.168.1.0/24"; "200.1.0.0/16"; "255.255.255.255/32";
    ]
    entries

(* Reference-model property: trie LPM equals a naive scan. *)
let prop_trie_matches_reference =
  QCheck.Test.make ~name:"trie LPM equals naive linear scan" ~count:100
    QCheck.(pair (list (pair (int_bound 0xFFFF) (int_range 8 28))) (int_bound 0xFFFFFF))
    (fun (entries, probe_raw) ->
      let t = Prefix_trie.create () in
      let prefixes =
        List.map
          (fun (raw, len) ->
            let p = Ipv4_addr.Prefix.make (Ipv4_addr.of_int32 (Int32.of_int (raw * 65537))) len in
            Prefix_trie.insert t p (Ipv4_addr.Prefix.to_string p);
            p)
          entries
      in
      let probe = Ipv4_addr.of_int32 (Int32.of_int (probe_raw * 257)) in
      let naive =
        List.fold_left
          (fun best p ->
            if Ipv4_addr.Prefix.mem probe p then
              match best with
              | Some b when Ipv4_addr.Prefix.length b >= Ipv4_addr.Prefix.length p -> best
              | _ -> Some p
            else best)
          None prefixes
      in
      match (Prefix_trie.lookup t probe, naive) with
      | None, None -> true
      | Some (p, _), Some q ->
          Ipv4_addr.Prefix.length p = Ipv4_addr.Prefix.length q
      | _ -> false)

(* --- RIB ------------------------------------------------------------------- *)

let route ?(proto = Rib.Ospf) ?(metric = 10) ?next_hop prefix =
  {
    Rib.r_prefix = pfx prefix;
    r_proto = proto;
    r_distance = Rib.default_distance proto;
    r_metric = metric;
    r_next_hop = Option.map ip next_hop;
    r_iface = "eth1";
  }

let test_rib_distance_preference () =
  let rib = Rib.create () in
  Rib.update rib (route ~proto:Rib.Ospf ~next_hop:"1.1.1.1" "10.0.0.0/24");
  Rib.update rib (route ~proto:Rib.Static ~next_hop:"2.2.2.2" "10.0.0.0/24");
  (match Rib.best rib (pfx "10.0.0.0/24") with
  | Some r -> Alcotest.(check string) "static wins" "static" (Rib.proto_name r.Rib.r_proto)
  | None -> Alcotest.fail "no route");
  Rib.withdraw rib Rib.Static (pfx "10.0.0.0/24");
  match Rib.best rib (pfx "10.0.0.0/24") with
  | Some r -> Alcotest.(check string) "ospf takes over" "ospf" (Rib.proto_name r.Rib.r_proto)
  | None -> Alcotest.fail "ospf candidate lost"

let test_rib_events () =
  let rib = Rib.create () in
  let events = ref [] in
  Rib.add_listener rib (fun e -> events := e :: !events);
  Rib.update rib (route ~next_hop:"1.1.1.1" "10.0.0.0/24");
  Rib.update rib (route ~metric:5 ~next_hop:"2.2.2.2" "10.0.0.0/24");
  Rib.withdraw rib Rib.Ospf (pfx "10.0.0.0/24");
  match List.rev !events with
  | [ Rib.Best_added _; Rib.Best_changed r; Rib.Best_removed _ ] ->
      Alcotest.(check int) "changed to better metric" 5 r.Rib.r_metric
  | evs -> Alcotest.fail (Printf.sprintf "wrong events (%d)" (List.length evs))

let test_rib_replace_proto () =
  let rib = Rib.create () in
  Rib.update rib (route ~next_hop:"1.1.1.1" "10.0.0.0/24");
  Rib.update rib (route ~next_hop:"1.1.1.1" "10.0.1.0/24");
  Rib.update rib (route ~proto:Rib.Connected "192.168.0.0/24");
  Rib.replace_proto rib Rib.Ospf
    [ route ~next_hop:"3.3.3.3" "10.0.2.0/24" ];
  Alcotest.(check int) "selected" 2 (Rib.size rib);
  Alcotest.(check bool) "old gone" true (Rib.best rib (pfx "10.0.0.0/24") = None);
  Alcotest.(check bool) "new there" true (Rib.best rib (pfx "10.0.2.0/24") <> None);
  Alcotest.(check bool) "other proto untouched" true
    (Rib.best rib (pfx "192.168.0.0/24") <> None)

let test_rib_lpm () =
  let rib = Rib.create () in
  Rib.update rib (route ~next_hop:"1.1.1.1" "10.0.0.0/8");
  Rib.update rib (route ~next_hop:"2.2.2.2" "10.1.0.0/16");
  match Rib.lookup rib (ip "10.1.5.5") with
  | Some r ->
      Alcotest.(check (option string)) "longest prefix" (Some "2.2.2.2")
        (Option.map Ipv4_addr.to_string r.Rib.r_next_hop)
  | None -> Alcotest.fail "no route"

(* --- RIB publication diff ------------------------------------------------ *)

(* The rescan [Rib.replace_proto] every publication went through
   before the sorted diff, kept as the oracle: withdraw each candidate
   of [proto] inside the scope that [routes] lacks, then update every
   route. With [~skip_unchanged] it leaves a route alone when the same
   candidate is already in place, the diff's rule. The two differ only
   when two protocols tie on (distance, metric): an update moves the
   candidate to the front of its slot, and the front one wins ties. *)
let in_scope scope (r : Rib.route) =
  match scope with
  | None -> true
  | Some ps -> List.exists (Ipv4_addr.Prefix.equal r.r_prefix) ps

let oracle_replace ~skip_unchanged rib ?scope proto routes =
  let current = List.filter (in_scope scope) (Rib.candidates rib proto) in
  let kept (o : Rib.route) =
    List.exists
      (fun (r : Rib.route) -> Ipv4_addr.Prefix.equal r.r_prefix o.r_prefix)
      routes
  in
  List.iter
    (fun (o : Rib.route) ->
      if not (kept o) then Rib.withdraw rib proto o.r_prefix)
    current;
  List.iter
    (fun r ->
      if not (skip_unchanged && List.mem r current) then Rib.update rib r)
    routes

type rib_op =
  | Op_update of Rib.route
  | Op_withdraw of Rib.proto * Ipv4_addr.Prefix.t
  | Op_replace of Rib.proto * Ipv4_addr.Prefix.t list option * Rib.route list
      (** routes and scope in generation order, not sorted *)
  | Op_republish of Rib.proto * Ipv4_addr.Prefix.t list option
      (** a replace with the candidates already in place, as daemons
          mostly do: it must change nothing *)

let all_protos = [ Rib.Connected; Rib.Static; Rib.Ospf; Rib.Rip; Rib.Bgp ]

(* Nested prefixes, a default route and addresses on both sides of the
   sign bit, so prefix order is unsigned and length-aware. *)
let diff_prefixes =
  List.map pfx
    [
      "0.0.0.0/0"; "10.0.0.0/8"; "10.0.0.0/16"; "10.0.0.0/24"; "10.1.0.0/16";
      "10.1.2.0/24"; "128.0.0.0/1"; "172.16.0.0/12"; "192.168.1.0/24";
      "200.1.0.0/16"; "200.1.0.0/24"; "255.255.255.255/32";
    ]

let by_prefix (a : Rib.route) (b : Rib.route) =
  Ipv4_addr.Prefix.compare a.r_prefix b.r_prefix

(* With [ties], most routes carry distance 100 and metric 1 or 2, so
   two protocols often tie on (distance, metric) at one prefix. *)
let gen_rib_ops ~ties =
  let open QCheck.Gen in
  let proto = oneofl all_protos in
  let route proto prefix =
    let* metric = int_range 1 (if ties then 2 else 3) in
    let* distance =
      if ties then oneofl [ Rib.default_distance proto; 100; 100 ]
      else return (Rib.default_distance proto)
    in
    let* hop = oneofl [ None; Some "1.1.1.1"; Some "2.2.2.2" ] in
    let* iface = oneofl [ "eth0"; "eth1" ] in
    return
      {
        Rib.r_prefix = prefix;
        r_proto = proto;
        r_distance = distance;
        r_metric = metric;
        r_next_hop = Option.map ip hop;
        r_iface = iface;
      }
  in
  let subset l =
    let* keep = list_repeat (List.length l) bool in
    shuffle_l (List.filteri (fun i _ -> List.nth keep i) l)
  in
  let update =
    let* p = proto in
    let* x = oneofl diff_prefixes in
    map (fun r -> Op_update r) (route p x)
  in
  let withdraw =
    map (fun (p, x) -> Op_withdraw (p, x)) (pair proto (oneofl diff_prefixes))
  in
  let replace =
    let* p = proto in
    let* scope = opt (subset diff_prefixes) in
    let* within = subset (Option.value scope ~default:diff_prefixes) in
    let* routes = flatten_l (List.map (route p) within) in
    return (Op_replace (p, scope, routes))
  in
  let republish =
    let* p = proto in
    map (fun s -> Op_republish (p, s)) (opt (subset diff_prefixes))
  in
  list_size (int_range 1 40)
    (frequency [ (4, update); (2, withdraw); (2, replace); (1, republish) ])

let print_rib_op =
  let route = Format.asprintf "%a" Rib.pp_route in
  let prefixes ps =
    String.concat "," (List.map Ipv4_addr.Prefix.to_string ps)
  in
  function
  | Op_update r -> "update " ^ route r
  | Op_withdraw (p, x) ->
      Printf.sprintf "withdraw %s %s" (Rib.proto_name p)
        (Ipv4_addr.Prefix.to_string x)
  | Op_replace (p, scope, rs) ->
      Printf.sprintf "replace %s%s [%s]" (Rib.proto_name p)
        (match scope with None -> "" | Some ps -> " scope " ^ prefixes ps)
        (String.concat ", " (List.map route rs))
  | Op_republish (p, scope) ->
      Printf.sprintf "republish %s%s" (Rib.proto_name p)
        (match scope with None -> "" | Some ps -> " scope " ^ prefixes ps)

(* The sorted diff against the oracle, step by step: after every call
   both RIBs hold the same selection, the same candidates of every
   protocol and the same generation, and the call raised the same
   events. *)
let prop_rib_diff ~ties =
  QCheck.Test.make
    ~name:
      (if ties then "rib replace_proto equals rescan (ties, unchanged skipped)"
       else "rib replace_proto equals the rescan it replaced")
    ~count:300
    (QCheck.make ~print:QCheck.Print.(list print_rib_op) (gen_rib_ops ~ties))
    (fun ops ->
      let diff = Rib.create () and oracle = Rib.create () in
      let events rib =
        let seen = ref [] in
        Rib.add_listener rib (fun e -> seen := e :: !seen);
        seen
      in
      let diff_ev = events diff and oracle_ev = events oracle in
      List.iteri
        (fun step op ->
          diff_ev := [];
          oracle_ev := [];
          let replace p scope routes =
            let scope =
              Option.map (List.sort Ipv4_addr.Prefix.compare) scope
            in
            Rib.replace_proto diff ?scope p (List.sort by_prefix routes);
            oracle_replace ~skip_unchanged:ties oracle ?scope p routes
          in
          (match op with
          | Op_update r ->
              Rib.update diff r;
              Rib.update oracle r
          | Op_withdraw (p, x) ->
              Rib.withdraw diff p x;
              Rib.withdraw oracle p x
          | Op_replace (p, scope, routes) -> replace p scope routes
          | Op_republish (p, scope) ->
              replace p scope
                (List.filter (in_scope scope) (Rib.candidates diff p)));
          let fail what =
            QCheck.Test.fail_reportf "step %d (%s): %s differs" step
              (print_rib_op op) what
          in
          if Rib.selected diff <> Rib.selected oracle then fail "selected";
          List.iter
            (fun p ->
              let name = Rib.proto_name p in
              if Rib.candidates diff p <> Rib.candidates oracle p then
                fail (name ^ " candidates");
              if Rib.count diff p <> List.length (Rib.candidates diff p) then
                fail (name ^ " count"))
            all_protos;
          if Rib.generation diff <> Rib.generation oracle then
            fail "generation";
          if List.sort compare !diff_ev <> List.sort compare !oracle_ev then
            fail "event multiset")
        ops;
      true)

(* --- Quagga config --------------------------------------------------------- *)

let test_zebra_conf_roundtrip () =
  let conf =
    {
      Quagga_conf.z_hostname = "vm-7";
      z_password = "rfauto";
      z_ifaces =
        [
          { Quagga_conf.ic_name = "eth1"; ic_ip = ip "172.16.0.1"; ic_prefix_len = 30 };
          { Quagga_conf.ic_name = "eth2"; ic_ip = ip "10.0.1.1"; ic_prefix_len = 24 };
        ];
      z_statics = [ { Quagga_conf.sr_prefix = pfx "0.0.0.0/0"; sr_next_hop = ip "172.16.0.2" } ];
    }
  in
  match Quagga_conf.parse_zebra (Quagga_conf.generate_zebra conf) with
  | Ok conf' ->
      Alcotest.(check string) "hostname" "vm-7" conf'.Quagga_conf.z_hostname;
      Alcotest.(check int) "ifaces" 2 (List.length conf'.Quagga_conf.z_ifaces);
      Alcotest.(check int) "statics" 1 (List.length conf'.Quagga_conf.z_statics);
      let i2 = List.nth conf'.Quagga_conf.z_ifaces 1 in
      Alcotest.(check int) "prefix len" 24 i2.Quagga_conf.ic_prefix_len
  | Error e -> Alcotest.fail e

let test_ospfd_conf_roundtrip () =
  let conf =
    {
      Quagga_conf.o_hostname = "vm-7";
      o_router_id = ip "10.255.0.7";
      o_networks = [ (pfx "172.16.0.0/30", Ipv4_addr.any); (pfx "10.0.1.0/24", Ipv4_addr.any) ];
      o_passive = [ "eth2" ];
      o_hello_interval = 5;
      o_dead_interval = 20;
    }
  in
  match Quagga_conf.parse_ospfd (Quagga_conf.generate_ospfd conf) with
  | Ok conf' ->
      Alcotest.(check bool) "router id" true
        (Ipv4_addr.equal conf'.Quagga_conf.o_router_id (ip "10.255.0.7"));
      Alcotest.(check int) "networks" 2 (List.length conf'.Quagga_conf.o_networks);
      Alcotest.(check (list string)) "passive" [ "eth2" ] conf'.Quagga_conf.o_passive;
      Alcotest.(check int) "hello" 5 conf'.Quagga_conf.o_hello_interval;
      Alcotest.(check int) "dead" 20 conf'.Quagga_conf.o_dead_interval
  | Error e -> Alcotest.fail e

let test_bgpd_conf_roundtrip () =
  let conf =
    {
      Quagga_conf.b_hostname = "vm-9";
      b_asn = 65009;
      b_router_id = ip "10.255.0.9";
      b_neighbors = [ (ip "172.16.0.2", 65010) ];
      b_networks = [ pfx "10.0.9.0/24" ];
    }
  in
  match Quagga_conf.parse_bgpd (Quagga_conf.generate_bgpd conf) with
  | Ok conf' ->
      Alcotest.(check int) "asn" 65009 conf'.Quagga_conf.b_asn;
      Alcotest.(check int) "neighbors" 1 (List.length conf'.Quagga_conf.b_neighbors);
      Alcotest.(check int) "networks" 1 (List.length conf'.Quagga_conf.b_networks)
  | Error e -> Alcotest.fail e

let test_conf_rejects_garbage () =
  (match Quagga_conf.parse_zebra "interface eth1\n ip address banana\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted bad address");
  (match Quagga_conf.parse_ospfd "router ospf\n network not-a-prefix area 0.0.0.0\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted bad network");
  match Quagga_conf.parse_zebra "no such directive at all\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted unknown line"

(* --- BGP ----------------------------------------------------------------------- *)

let test_bgp_msg_roundtrips () =
  let cases =
    [
      Bgp_msg.Open { o_asn = 65001; o_hold_time = 90; o_router_id = ip "1.1.1.1" };
      Bgp_msg.Keepalive;
      Bgp_msg.Notification { code = 6; subcode = 0 };
      Bgp_msg.Update
        {
          u_withdrawn = [ pfx "10.9.0.0/16" ];
          u_as_path = [ 65001; 65002 ];
          u_next_hop = Some (ip "172.16.0.1");
          u_nlri = [ pfx "10.1.0.0/16"; pfx "10.2.4.0/24" ];
        };
    ]
  in
  List.iter
    (fun m ->
      match Bgp_msg.of_wire (Bgp_msg.to_wire m) with
      | Ok m' ->
          if m <> m' then
            Alcotest.fail (Format.asprintf "mismatch: %a vs %a" Bgp_msg.pp m Bgp_msg.pp m')
      | Error e -> Alcotest.fail e)
    cases

(* A channel delivers each message as one chunk, so the decoder insists
   the header's length covers exactly the chunk. *)
let test_bgp_msg_rejects_length_mismatch () =
  let wire = Bgp_msg.to_wire Bgp_msg.Keepalive in
  (match Bgp_msg.of_wire wire with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  (match Bgp_msg.of_wire (wire ^ "\x00") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted a trailing byte");
  match Bgp_msg.of_wire (wire ^ wire) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted two messages as one"

(* Two BGP speakers over simulated channels. *)
let bgp_pair engine asn1 asn2 =
  let rib1 = Rib.create () and rib2 = Rib.create () in
  let d1 = Bgpd.create engine ~asn:asn1 ~router_id:(ip "1.1.1.1") rib1 in
  let d2 = Bgpd.create engine ~asn:asn2 ~router_id:(ip "2.2.2.2") rib2 in
  let e1, e2 = Rf_net.Channel.create engine () in
  let p1 =
    Bgpd.add_peer d1 ~remote_asn:asn2 ~next_hop_hint:(ip "172.16.0.1")
      ~send:(Rf_net.Channel.send e1)
  in
  let p2 =
    Bgpd.add_peer d2 ~remote_asn:asn1 ~next_hop_hint:(ip "172.16.0.2")
      ~send:(Rf_net.Channel.send e2)
  in
  Rf_net.Channel.set_receiver e1 (fun bytes -> Bgpd.input p1 bytes);
  Rf_net.Channel.set_receiver e2 (fun bytes -> Bgpd.input p2 bytes);
  Bgpd.start_peer p1;
  Bgpd.start_peer p2;
  ((d1, rib1, p1), (d2, rib2, p2))

let test_bgp_session_establishes () =
  let engine = Engine.create () in
  let (d1, _, p1), (d2, _, p2) = bgp_pair engine 65001 65002 in
  ignore (Engine.run ~until:(Vtime.of_s 5.0) engine);
  Alcotest.(check bool) "p1 established" true (Bgpd.peer_state p1 = Bgpd.Established);
  Alcotest.(check bool) "p2 established" true (Bgpd.peer_state p2 = Bgpd.Established);
  Alcotest.(check int) "d1 count" 1 (Bgpd.established_peers d1);
  Alcotest.(check int) "d2 count" 1 (Bgpd.established_peers d2)

let test_bgp_routes_propagate () =
  let engine = Engine.create () in
  let (d1, _, _), (_, rib2, _) = bgp_pair engine 65001 65002 in
  Bgpd.announce d1 (pfx "10.1.0.0/16");
  ignore (Engine.run ~until:(Vtime.of_s 10.0) engine);
  match Rib.best rib2 (pfx "10.1.0.0/16") with
  | Some r ->
      Alcotest.(check string) "proto" "bgp" (Rib.proto_name r.Rib.r_proto);
      Alcotest.(check (option string)) "next hop" (Some "172.16.0.1")
        (Option.map Ipv4_addr.to_string r.Rib.r_next_hop);
      Alcotest.(check int) "as-path length as metric" 1 r.Rib.r_metric
  | None -> Alcotest.fail "route not learned"

let test_bgp_announce_before_session () =
  let engine = Engine.create () in
  (* Announce first, then the session comes up: the full table must be
     advertised on establishment. *)
  let rib1 = Rib.create () and rib2 = Rib.create () in
  let d1 = Bgpd.create engine ~asn:65001 ~router_id:(ip "1.1.1.1") rib1 in
  let d2 = Bgpd.create engine ~asn:65002 ~router_id:(ip "2.2.2.2") rib2 in
  Bgpd.announce d1 (pfx "10.7.0.0/16");
  let e1, e2 = Rf_net.Channel.create engine () in
  let p1 = Bgpd.add_peer d1 ~remote_asn:65002 ~next_hop_hint:(ip "172.16.0.1")
      ~send:(Rf_net.Channel.send e1) in
  let p2 = Bgpd.add_peer d2 ~remote_asn:65001 ~next_hop_hint:(ip "172.16.0.2")
      ~send:(Rf_net.Channel.send e2) in
  Rf_net.Channel.set_receiver e1 (fun b -> Bgpd.input p1 b);
  Rf_net.Channel.set_receiver e2 (fun b -> Bgpd.input p2 b);
  Bgpd.start_peer p1;
  Bgpd.start_peer p2;
  ignore (Engine.run ~until:(Vtime.of_s 5.0) engine);
  Alcotest.(check bool) "learned pre-announced net" true
    (Rib.best rib2 (pfx "10.7.0.0/16") <> None)

let test_bgp_withdraw () =
  let engine = Engine.create () in
  let (d1, _, _), (_, rib2, _) = bgp_pair engine 65001 65002 in
  Bgpd.announce d1 (pfx "10.1.0.0/16");
  ignore (Engine.run ~until:(Vtime.of_s 5.0) engine);
  Alcotest.(check bool) "present" true (Rib.best rib2 (pfx "10.1.0.0/16") <> None);
  Bgpd.withdraw_network d1 (pfx "10.1.0.0/16");
  ignore (Engine.run ~until:(Vtime.of_s 10.0) engine);
  Alcotest.(check bool) "withdrawn" true (Rib.best rib2 (pfx "10.1.0.0/16") = None)

let test_bgp_loop_rejected () =
  let engine = Engine.create () in
  let (_, rib1, p1), _ = bgp_pair engine 65001 65002 in
  ignore (Engine.run ~until:(Vtime.of_s 5.0) engine);
  (* Forge an update whose AS path already contains 65001. *)
  Bgpd.input p1
    (Bgp_msg.to_wire
       (Bgp_msg.Update
          {
            u_withdrawn = [];
            u_as_path = [ 65002; 65001 ];
            u_next_hop = Some (ip "172.16.0.2");
            u_nlri = [ pfx "10.66.0.0/16" ];
          }));
  ignore (Engine.run ~until:(Vtime.of_s 6.0) engine);
  Alcotest.(check bool) "looped route rejected" true
    (Rib.best rib1 (pfx "10.66.0.0/16") = None)

(* --- zebra ------------------------------------------------------------------ *)

let test_zebra_connected_and_flap () =
  let z = Zebra.create ~hostname:"r1" () in
  let ifc = Iface.create ~name:"eth1" ~mac:(Mac.make_local 1) ~ip:(ip "10.0.0.1")
      ~prefix_len:24 () in
  Zebra.add_interface z ifc;
  Alcotest.(check int) "connected installed" 1 (List.length (Zebra.connected_routes z));
  Iface.set_up ifc false;
  Alcotest.(check int) "withdrawn on down" 0 (List.length (Zebra.connected_routes z));
  Iface.set_up ifc true;
  Alcotest.(check int) "reinstalled on up" 1 (List.length (Zebra.connected_routes z))

let test_zebra_unnumbered_then_addressed () =
  let z = Zebra.create ~hostname:"r1" () in
  let ifc = Iface.create ~name:"eth1" ~mac:(Mac.make_local 1) () in
  Zebra.add_interface z ifc;
  Alcotest.(check int) "no route while unnumbered" 0
    (List.length (Zebra.connected_routes z));
  Iface.set_address ifc ~ip:(ip "10.0.0.1") ~prefix_len:24;
  Alcotest.(check int) "route appears on addressing" 1
    (List.length (Zebra.connected_routes z))

let test_zebra_apply_config () =
  let z = Zebra.create ~hostname:"r1" () in
  let ifc = Iface.create ~name:"eth1" ~mac:(Mac.make_local 1) () in
  Zebra.add_interface z ifc;
  let conf =
    {
      Quagga_conf.z_hostname = "r1";
      z_password = "x";
      z_ifaces = [ { Quagga_conf.ic_name = "eth1"; ic_ip = ip "172.16.0.1"; ic_prefix_len = 30 } ];
      z_statics = [ { Quagga_conf.sr_prefix = pfx "10.0.0.0/8"; sr_next_hop = ip "172.16.0.2" } ];
    }
  in
  (match Zebra.apply_config z conf with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* The config sets the address, and with it the connected route. *)
  Alcotest.(check string) "address set" "172.16.0.1/30"
    (Printf.sprintf "%s/%d"
       (Ipv4_addr.to_string (Iface.ip ifc))
       (Iface.prefix_len ifc));
  Alcotest.(check bool) "connected installed" true
    (Rib.best (Zebra.rib z) (pfx "172.16.0.0/30") <> None);
  Alcotest.(check bool) "static installed" true
    (Rib.best (Zebra.rib z) (pfx "10.0.0.0/8") <> None);
  (* An unknown interface is rejected and installs no static. *)
  let bad =
    {
      conf with
      Quagga_conf.z_ifaces =
        [
          {
            Quagga_conf.ic_name = "eth9";
            ic_ip = ip "9.9.9.9";
            ic_prefix_len = 8;
          };
        ];
      z_statics =
        [
          {
            Quagga_conf.sr_prefix = pfx "10.9.0.0/16";
            sr_next_hop = ip "172.16.0.2";
          };
        ];
    }
  in
  (match Zebra.apply_config z bad with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "accepted an unknown interface");
  Alcotest.(check bool) "no static from the rejected config" true
    (Rib.best (Zebra.rib z) (pfx "10.9.0.0/16") = None)

(* --- incremental SPF vs full recompute (differential oracle) ------------ *)

let spf_rid i = ip (Printf.sprintf "10.1.0.%d" (i + 1))

(* Push row [i] of the symmetric metric matrix into the SPF graph. *)
let spf_sync g adj n i =
  let links = ref [] in
  for j = n - 1 downto 0 do
    if adj.(i).(j) > 0 then links := (spf_rid j, adj.(i).(j)) :: !links
  done;
  Spf.graph_set_links g (spf_rid i)
    ~out:(Array.of_list (List.map fst !links))
    ~metric:(Array.of_list (List.map snd !links))

let spf_snapshot t =
  List.map
    (fun (rid, d, hop) ->
      (Ipv4_addr.to_string rid, d, Ipv4_addr.to_string hop))
    (Spf.reachable t)

(* Random graphs of 4-12 routers, then a mutation sequence: each step
   rewrites one link (metric 0 = link down, otherwise cost change or
   link up). After every step the warm-started tree must match a cold
   recompute on distances AND canonical first hops — the canonical
   parent pass makes equal-cost ties deterministic, so exact equality
   is the contract, not just equal distances. Half the cases draw
   metrics from 1-3, where equal-cost paths are the rule: a node can
   then switch first hop without changing distance, and the repair
   must carry that to its subtree. *)
let prop_spf_incremental_matches_full =
  QCheck.Test.make
    ~name:"incremental SPF equals full recompute after every mutation"
    ~count:200
    QCheck.(
      make
        ~print:
          Print.(
            triple int
              (list (triple int int int))
              (list (triple int int int)))
        Gen.(
          bool >>= fun small ->
          let metric lo = if small then int_range lo 3 else int_range lo 20 in
          triple (int_range 4 12)
            (list_size (int_bound 30)
               (triple (int_bound 11) (int_bound 11) (metric 1)))
            (list_size (int_bound 20)
               (triple (int_bound 11) (int_bound 11) (metric 0)))))
    (fun (n, edges, mutations) ->
      let adj = Array.make_matrix n n 0 in
      List.iter
        (fun (a, b, m) ->
          let i = a mod n and j = b mod n in
          if i <> j then begin
            adj.(i).(j) <- m;
            adj.(j).(i) <- m
          end)
        edges;
      let g = Spf.graph_create () in
      for i = 0 to n - 1 do
        spf_sync g adj n i
      done;
      let t = Spf.create ~root:(spf_rid 0) in
      Spf.full t g;
      List.for_all
        (fun (a, b, m) ->
          let i = a mod n and j = b mod n in
          if i = j then true
          else begin
            adj.(i).(j) <- m;
            adj.(j).(i) <- m;
            spf_sync g adj n i;
            spf_sync g adj n j;
            ignore (Spf.update t g ~dirty:[ spf_rid i; spf_rid j ]);
            let fresh = Spf.create ~root:(spf_rid 0) in
            Spf.full fresh g;
            spf_snapshot t = spf_snapshot fresh
          end)
        mutations)

(* A node can switch parent at an unchanged distance: lowering A-U
   makes U (first hop A, the root's first link) tie with B for V, so V
   and its child Y, neither of which changed, move to first hop A. *)
let test_spf_repair_moves_subtree_first_hop () =
  let n = 6 and r = 0 and a = 1 and b = 2 and u = 3 and v = 4 and y = 5 in
  let adj = Array.make_matrix n n 0 in
  let link i j m =
    adj.(i).(j) <- m;
    adj.(j).(i) <- m
  in
  List.iter
    (fun (i, j, m) -> link i j m)
    [ (r, a, 1); (r, b, 2); (a, u, 5); (u, v, 1); (b, v, 1); (v, y, 1) ];
  let g = Spf.graph_create () in
  for i = 0 to n - 1 do
    spf_sync g adj n i
  done;
  let t = Spf.create ~root:(spf_rid r) in
  Spf.full t g;
  link a u 1;
  spf_sync g adj n a;
  spf_sync g adj n u;
  let changed =
    match Spf.update t g ~dirty:[ spf_rid a; spf_rid u ] with
    | Spf.Repaired rids -> List.sort Ipv4_addr.compare rids
    | Spf.Full -> Alcotest.fail "repair fell back to a full run"
  in
  let fresh = Spf.create ~root:(spf_rid r) in
  Spf.full fresh g;
  Alcotest.(check (list (triple string int string)))
    "tree equals full recompute" (spf_snapshot fresh) (spf_snapshot t);
  Alcotest.(check (list string))
    "changed routers"
    (List.map (fun i -> Ipv4_addr.to_string (spf_rid i)) [ u; v; y ])
    (List.map Ipv4_addr.to_string changed)

(* The daemon-level contract: under any LSA churn, the RIB that
   incremental spf_now runs leave behind is exactly what spf_now_full
   (the from-scratch oracle) computes — prefixes, metrics, next hops,
   interfaces and ordering. Two identical daemons take the same LSAs;
   one only ever runs incrementally, so repair state that drifts over
   many runs shows. *)
let route_repr (r : Rib.route) =
  Format.asprintf "%a" Rib.pp_route r

(* Router 0 of a converged 4-router ring: two real neighbours, so equal
   costs tie across two first hops. *)
let ospf_ring () =
  let engine = Engine.create () in
  let join a b =
    Iface.set_transmit a (fun f ->
        ignore
          (Engine.schedule engine (Vtime.span_ms 1) (fun () ->
               Iface.deliver b f)));
    Iface.set_transmit b (fun f ->
        ignore
          (Engine.schedule engine (Vtime.span_ms 1) (fun () ->
               Iface.deliver a f)))
  in
  let n = 4 in
  let zebras =
    Array.init n (fun i -> Zebra.create ~hostname:(Printf.sprintf "r%d" i) ())
  in
  let ribs = Array.map Zebra.rib zebras in
  let routers =
    Array.init n (fun i ->
        let rid = ip (Printf.sprintf "10.250.0.%d" (i + 1)) in
        Ospfd.create engine (Ospfd.default_config ~router_id:rid) ribs.(i))
  in
  let add i ?passive ifc =
    Zebra.add_interface zebras.(i) ifc;
    Ospfd.add_interface routers.(i) ?passive ifc
  in
  Array.iteri
    (fun i _ ->
      let stub =
        Iface.create
          ~name:(Printf.sprintf "stub%d" i)
          ~mac:(Mac.make_local (7000 + i))
          ~ip:(ip (Printf.sprintf "10.8.%d.1" i))
          ~prefix_len:24 ()
      in
      add i ~passive:true stub)
    routers;
  for i = 0 to n - 1 do
    let j = (i + 1) mod n in
    let ia =
      Iface.create
        ~name:(Printf.sprintf "r%d" i)
        ~mac:(Mac.make_local (7100 + (2 * i)))
        ~ip:(ip (Printf.sprintf "172.21.%d.1" i))
        ~prefix_len:30 ()
    in
    let ib =
      Iface.create
        ~name:(Printf.sprintf "l%d" j)
        ~mac:(Mac.make_local (7101 + (2 * i)))
        ~ip:(ip (Printf.sprintf "172.21.%d.2" i))
        ~prefix_len:30 ()
    in
    join ia ib;
    add i ia;
    add j ib
  done;
  Array.iter Ospfd.start routers;
  ignore (Engine.run ~until:(Vtime.of_s 60.) engine);
  (routers.(0), ribs.(0))

type lsa_op =
  | Link of int * int * int  (* routers a, b; metric, 0 = down *)
  | Stub of int * int  (* router, shared prefix toggled *)
  | Purge of int  (* MaxAge flush of the router's LSA *)
  | Join of int  (* router links to the current path end *)

(* Routers 1-3 are the real ring (router 0, the root, is left alone
   except by [Link (0, _, _)]); 4-9 exist only as LSAs. *)
let churn_rid i = ip (Printf.sprintf "10.250.%d.%d" (i / 4) ((i mod 4) + 1))

let test_ospfd_incremental_rib_oracle () =
  let d_inc, rib_inc = ospf_ring () in
  let d_full, rib_full = ospf_ring () in
  let n = 10 in
  (* The modelled LSDB: every router's links, seeded from the ring. *)
  let links = Array.make n [] and seq = Array.make n Ospf_pkt.initial_seq in
  let alive = Array.make n false in
  List.iter
    (fun (l : Ospf_pkt.lsa) ->
      for i = 0 to n - 1 do
        if Ipv4_addr.equal l.adv_router (churn_rid i) then begin
          (match l.body with
          | Ospf_pkt.Router { links = ls } -> links.(i) <- ls
          | _ -> ());
          seq.(i) <- l.seq;
          alive.(i) <- true
        end
      done)
    (Ospfd.lsdb d_inc);
  for i = 4 to n - 1 do
    links.(i) <-
      [
        {
          Ospf_pkt.link_id = ip (Printf.sprintf "10.7.%d.0" i);
          link_data = ip "255.255.255.0";
          link_type = Ospf_pkt.Stub;
          metric = 1;
        };
      ]
  done;
  let originate i =
    seq.(i) <- Int32.succ seq.(i);
    alive.(i) <- true;
    let lsa =
      Ospf_pkt.make_lsa ~age:1 ~options:0x02 ~link_state_id:(churn_rid i)
        ~adv_router:(churn_rid i) ~seq:seq.(i)
        (Ospf_pkt.Router { links = links.(i) })
    in
    Ospfd.install_lsa d_inc lsa;
    Ospfd.install_lsa d_full lsa
  in
  let set_link a b metric =
    let drop i j =
      List.filter
        (fun (l : Ospf_pkt.router_link) ->
          not
            (l.link_type = Ospf_pkt.Point_to_point
            && Ipv4_addr.equal l.link_id (churn_rid j)))
        links.(i)
    in
    links.(a) <- drop a b;
    links.(b) <- drop b a;
    if metric > 0 then begin
      let p2p j =
        {
          Ospf_pkt.link_id = churn_rid j;
          link_data = churn_rid j;
          link_type = Ospf_pkt.Point_to_point;
          metric;
        }
      in
      links.(a) <- p2p b :: links.(a);
      links.(b) <- p2p a :: links.(b)
    end;
    originate a;
    originate b
  in
  let tail = ref 2 in
  let apply = function
    | Link (a, b, m) -> if a <> b then set_link a b m
    | Stub (i, k) ->
        let shared =
          {
            Ospf_pkt.link_id = ip (Printf.sprintf "10.6.%d.0" k);
            link_data = ip "255.255.255.0";
            link_type = Ospf_pkt.Stub;
            metric = 1 + k;
          }
        in
        links.(i) <-
          (if List.mem shared links.(i) then
             List.filter (fun l -> l <> shared) links.(i)
           else shared :: links.(i));
        originate i
    | Purge i ->
        if alive.(i) then begin
          alive.(i) <- false;
          seq.(i) <- Int32.succ seq.(i);
          let flush =
            Ospf_pkt.make_lsa ~age:Ospf_pkt.max_age ~options:0x02
              ~link_state_id:(churn_rid i) ~adv_router:(churn_rid i)
              ~seq:seq.(i) (Ospf_pkt.Router { links = [] })
          in
          Ospfd.install_lsa d_inc flush;
          Ospfd.install_lsa d_full flush
        end
    | Join i ->
        if i <> !tail then begin
          set_link !tail i 1;
          tail := i
        end
  in
  let rng = Random.State.make [| 18 |] in
  let random_op () =
    let r () = 1 + Random.State.int rng (n - 1) in
    match Random.State.int rng 10 with
    | 0 | 1 | 2 | 3 -> Link (r (), r (), Random.State.int rng 3)
    | 4 -> Link (0, 4 + Random.State.int rng (n - 4), Random.State.int rng 2)
    | 5 | 6 -> Stub (r (), Random.State.int rng 3)
    | 7 -> Purge (r ())
    | _ -> Join (4 + Random.State.int rng (n - 4))
  in
  (* A scripted prefix covering each named case, then random churn. *)
  let scripted =
    [
      Purge 2; Purge 3 (* the largest link subnet goes; 10/8 routes stay *);
      Link (1, 2, 1); Link (2, 3, 1);
      Join 4; Join 5; Join 6 (* a path grows at its end *);
      Link (3, 4, 1) (* 4 now ties via both ring neighbours *);
      Stub (5, 0); Stub (6, 0) (* one prefix, two advertisers *);
      Link (5, 6, 0) (* 6 unreachable *);
      Purge 5 (* MaxAge flush *);
      Link (2, 3, 0); Link (2, 3, 1) (* a ring link flaps *);
    ]
  in
  let ops = scripted @ List.init 300 (fun _ -> random_op ()) in
  List.iteri
    (fun step op ->
      apply op;
      let n_inc = Ospfd.spf_now d_inc in
      let n_full = Ospfd.spf_now_full d_full in
      Alcotest.(check int) (Printf.sprintf "route count, step %d" step) n_full n_inc;
      (* Every published route reached the RIB: link subnets
         (172.21/16) sort after host subnets (10/8) as unsigned
         addresses, and a publication diff that mixed signed and
         unsigned order used to withdraw live 10/8 routes. *)
      let ospf_in rib =
        List.length
          (List.filter
             (fun (r : Rib.route) -> r.r_proto = Rib.Ospf)
             (Rib.selected rib))
      in
      Alcotest.(check int) (Printf.sprintf "RIB holds the routes, step %d" step)
        n_inc (ospf_in rib_inc);
      Alcotest.(check (list string))
        (Printf.sprintf "RIB identical, step %d" step)
        (List.map route_repr (Rib.selected rib_full))
        (List.map route_repr (Rib.selected rib_inc)))
    ops

let suite =
  [
    Alcotest.test_case "trie exact and LPM" `Quick test_trie_exact_and_lpm;
    Alcotest.test_case "trie remove, default route" `Quick test_trie_remove_and_default;
    Alcotest.test_case "trie entries sorted" `Quick test_trie_entries_sorted;
    QCheck_alcotest.to_alcotest prop_trie_matches_reference;
    Alcotest.test_case "rib admin distance preference" `Quick
      test_rib_distance_preference;
    Alcotest.test_case "rib change events" `Quick test_rib_events;
    Alcotest.test_case "rib replace_proto" `Quick test_rib_replace_proto;
    QCheck_alcotest.to_alcotest (prop_rib_diff ~ties:false);
    QCheck_alcotest.to_alcotest (prop_rib_diff ~ties:true);
    Alcotest.test_case "rib longest-prefix lookup" `Quick test_rib_lpm;
    Alcotest.test_case "zebra.conf roundtrip" `Quick test_zebra_conf_roundtrip;
    Alcotest.test_case "ospfd.conf roundtrip" `Quick test_ospfd_conf_roundtrip;
    Alcotest.test_case "bgpd.conf roundtrip" `Quick test_bgpd_conf_roundtrip;
    Alcotest.test_case "config parser rejects garbage" `Quick test_conf_rejects_garbage;
    Alcotest.test_case "bgp message roundtrips" `Quick test_bgp_msg_roundtrips;
    Alcotest.test_case "bgp decoder rejects a length mismatch" `Quick
      test_bgp_msg_rejects_length_mismatch;
    Alcotest.test_case "bgp session establishes" `Quick test_bgp_session_establishes;
    Alcotest.test_case "bgp routes propagate with next-hop" `Quick
      test_bgp_routes_propagate;
    Alcotest.test_case "bgp full table on late establishment" `Quick
      test_bgp_announce_before_session;
    Alcotest.test_case "bgp withdraw" `Quick test_bgp_withdraw;
    Alcotest.test_case "bgp AS-path loop rejected" `Quick test_bgp_loop_rejected;
    Alcotest.test_case "zebra connected routes follow link state" `Quick
      test_zebra_connected_and_flap;
    Alcotest.test_case "zebra unnumbered then addressed" `Quick
      test_zebra_unnumbered_then_addressed;
    Alcotest.test_case "zebra apply_config" `Quick test_zebra_apply_config;
    QCheck_alcotest.to_alcotest prop_spf_incremental_matches_full;
    Alcotest.test_case "SPF repair moves a subtree's first hop" `Quick
      test_spf_repair_moves_subtree_first_hop;
    Alcotest.test_case "ospfd incremental SPF leaves oracle RIB" `Quick
      test_ospfd_incremental_rib_oracle;
  ]
