(* FlowVisor tests: flowspace algebra, packet-in classification,
   flow-mod policing, xid translation, and slice accounting. *)

open Rf_packet
open Rf_openflow
module Flowvisor = Rf_flowvisor.Flowvisor
module Flowspace = Rf_flowvisor.Flowspace
module Channel = Rf_net.Channel
module Datapath = Rf_net.Datapath
module Of_agent = Rf_net.Of_agent
module Of_conn = Rf_controller.Of_conn
module Engine = Rf_sim.Engine
module Vtime = Rf_sim.Vtime

let ip = Ipv4_addr.of_string_exn

let pfx = Ipv4_addr.Prefix.of_string_exn

(* --- flowspace ------------------------------------------------------- *)

let lldp_key =
  {
    Of_match.in_port = 1;
    dl_src = Mac.make_local 1;
    dl_dst = Mac.lldp_multicast;
    dl_vlan = 0xffff;
    dl_pcp = 0;
    dl_type = 0x88cc;
    nw_tos = 0;
    nw_proto = 0;
    nw_src = Ipv4_addr.any;
    nw_dst = Ipv4_addr.any;
    tp_src = 0;
    tp_dst = 0;
  }

let ipv4_key = { lldp_key with Of_match.dl_type = 0x0800; nw_dst = ip "10.0.0.1" }

let arp_key = { lldp_key with Of_match.dl_type = 0x0806 }

let test_flowspace_classify () =
  let topo = Flowspace.lldp_slice ~name:"topo" in
  let data = Flowspace.data_slice ~name:"data" in
  let slices = [ topo; data ] in
  (match Flowspace.classify slices lldp_key with
  | Some s -> Alcotest.(check string) "lldp" "topo" s.Flowspace.fs_name
  | None -> Alcotest.fail "unclassified");
  (match Flowspace.classify slices ipv4_key with
  | Some s -> Alcotest.(check string) "ipv4" "data" s.Flowspace.fs_name
  | None -> Alcotest.fail "unclassified");
  match Flowspace.classify slices arp_key with
  | Some s -> Alcotest.(check string) "arp" "data" s.Flowspace.fs_name
  | None -> Alcotest.fail "unclassified"

let test_flowspace_permits () =
  let data = Flowspace.data_slice ~name:"data" in
  Alcotest.(check bool) "ipv4 prefix match ok" true
    (Flowspace.permits_match data (Of_match.nw_dst_prefix (pfx "10.0.0.0/8")));
  Alcotest.(check bool) "lldp match denied" false
    (Flowspace.permits_match data (Of_match.dl_type_is 0x88cc));
  Alcotest.(check bool) "wildcard denied" false
    (Flowspace.permits_match data Of_match.wildcard_all)

(* --- proxy --------------------------------------------------------------- *)

type harness = {
  engine : Engine.t;
  fv : Flowvisor.t;
  dp : Datapath.t;
  mutable slice_a : Of_conn.t option;  (** lldp slice *)
  mutable slice_b : Of_conn.t option;  (** data slice *)
  mutable a_msgs : Of_msg.t list;
  mutable b_msgs : Of_msg.t list;
}

let make_harness () =
  let engine = Engine.create () in
  let fv = Flowvisor.create engine in
  let h = { engine; fv; dp = Datapath.create engine ~dpid:5L ~n_ports:4;
            slice_a = None; slice_b = None; a_msgs = []; b_msgs = [] } in
  Flowvisor.add_slice fv (Flowspace.lldp_slice ~name:"topo")
    ~attach:(fun ~dpid:_ endpoint ->
      let conn = Of_conn.create engine endpoint in
      Of_conn.set_on_message conn (fun m -> h.a_msgs <- m :: h.a_msgs);
      h.slice_a <- Some conn);
  Flowvisor.add_slice fv (Flowspace.data_slice ~name:"data")
    ~attach:(fun ~dpid:_ endpoint ->
      let conn = Of_conn.create engine endpoint in
      Of_conn.set_on_message conn (fun m -> h.b_msgs <- m :: h.b_msgs);
      h.slice_b <- Some conn);
  let sw_end, ctl_end = Channel.create engine () in
  let _agent = Of_agent.create engine h.dp sw_end in
  Flowvisor.switch_attach fv ~dpid:5L ctl_end;
  ignore (Engine.run ~until:(Vtime.of_s 2.0) engine);
  h

let lldp_frame = Packet.lldp ~src:(Mac.make_local 1) (Lldp.discovery_probe ~dpid:5L ~port:1)

let udp_frame =
  Packet.udp ~src_mac:(Mac.make_local 1) ~dst_mac:(Mac.make_local 2)
    ~src_ip:(ip "10.0.0.1") ~dst_ip:(ip "10.0.0.2")
    (Udp.make ~src_port:1 ~dst_port:2 "x")

let run h s = ignore (Engine.run ~until:(Vtime.add (Engine.now h.engine) (Vtime.span_s s)) h.engine)

let test_both_slices_handshake () =
  let h = make_harness () in
  (match h.slice_a with
  | Some conn -> Alcotest.(check bool) "topo sees dpid" true (Of_conn.dpid conn = Some 5L)
  | None -> Alcotest.fail "no topo conn");
  match h.slice_b with
  | Some conn -> Alcotest.(check bool) "data sees dpid" true (Of_conn.dpid conn = Some 5L)
  | None -> Alcotest.fail "no data conn"

let test_packet_in_classified () =
  let h = make_harness () in
  Datapath.receive_frame h.dp ~in_port:2 lldp_frame;
  Datapath.receive_frame h.dp ~in_port:3 udp_frame;
  run h 1.0;
  let is_pi (m : Of_msg.t) =
    match m.Of_msg.payload with Of_msg.Packet_in _ -> true | _ -> false
  in
  Alcotest.(check int) "lldp to topo slice" 1
    (List.length (List.filter is_pi h.a_msgs));
  Alcotest.(check int) "udp to data slice" 1
    (List.length (List.filter is_pi h.b_msgs));
  (* Correct ingress ports preserved. *)
  (match List.find_opt is_pi h.a_msgs with
  | Some { Of_msg.payload = Of_msg.Packet_in pi; _ } ->
      Alcotest.(check int) "lldp in_port" 2 pi.Of_msg.pi_in_port
  | _ -> Alcotest.fail "no lldp pi");
  match List.find_opt is_pi h.b_msgs with
  | Some { Of_msg.payload = Of_msg.Packet_in pi; _ } ->
      Alcotest.(check int) "udp in_port" 3 pi.Of_msg.pi_in_port
  | _ -> Alcotest.fail "no udp pi"

let test_flow_mod_policed () =
  let h = make_harness () in
  (match h.slice_a with
  | Some conn ->
      (* The LLDP slice tries to program an IPv4 flow: denied. *)
      Of_conn.flow_mod conn
        (Of_msg.flow_add (Of_match.nw_dst_prefix (pfx "10.0.0.0/8"))
           [ Of_action.output 1 ])
  | None -> Alcotest.fail "no conn");
  run h 1.0;
  Alcotest.(check int) "denied count" 1 (Flowvisor.denied_flow_mods h.fv "topo");
  Alcotest.(check int) "switch table untouched" 0
    (Rf_net.Flow_table.size (Datapath.flow_table h.dp));
  (* The denial came back as an EPERM error with the slice's xid. *)
  let errors =
    List.filter
      (fun (m : Of_msg.t) ->
        match m.Of_msg.payload with Of_msg.Error _ -> true | _ -> false)
      h.a_msgs
  in
  Alcotest.(check int) "error delivered" 1 (List.length errors)

let test_flow_mod_allowed_installs () =
  let h = make_harness () in
  (match h.slice_b with
  | Some conn ->
      Of_conn.flow_mod conn
        (Of_msg.flow_add (Of_match.nw_dst_prefix (pfx "10.0.0.0/8"))
           [ Of_action.output 1 ])
  | None -> Alcotest.fail "no conn");
  run h 1.0;
  Alcotest.(check int) "installed" 1 (Rf_net.Flow_table.size (Datapath.flow_table h.dp));
  Alcotest.(check int) "no denial" 0 (Flowvisor.denied_flow_mods h.fv "data")

let test_stats_xid_translation () =
  let h = make_harness () in
  let got_rep = ref None in
  (match h.slice_b with
  | Some conn ->
      Of_conn.set_on_message conn (fun m ->
          match m.Of_msg.payload with
          | Of_msg.Stats_reply _ -> got_rep := Some m
          | _ -> ());
      ignore (Of_conn.send conn (Of_msg.Stats_request Of_msg.Desc_req))
  | None -> Alcotest.fail "no conn");
  run h 1.0;
  match !got_rep with
  | Some { Of_msg.payload = Of_msg.Stats_reply (Of_msg.Desc_reply d); _ } ->
      Alcotest.(check string) "desc passed through" "rf-sim" d.manufacturer
  | _ -> Alcotest.fail "no stats reply routed back"

let test_port_status_broadcast () =
  let h = make_harness () in
  Datapath.set_port_up h.dp 2 false;
  run h 1.0;
  let has_ps msgs =
    List.exists
      (fun (m : Of_msg.t) ->
        match m.Of_msg.payload with Of_msg.Port_status _ -> true | _ -> false)
      msgs
  in
  Alcotest.(check bool) "topo slice notified" true (has_ps h.a_msgs);
  Alcotest.(check bool) "data slice notified" true (has_ps h.b_msgs)

let test_packet_out_policed () =
  let h = make_harness () in
  (match h.slice_a with
  | Some conn ->
      (* LLDP slice emits a UDP packet: outside its space. *)
      Of_conn.packet_out conn ~actions:[ Of_action.output 1 ] udp_frame
  | None -> Alcotest.fail "no conn");
  run h 1.0;
  Alcotest.(check int) "denied" 1 (Flowvisor.denied_flow_mods h.fv "topo")

let test_port_mod_denied () =
  let h = make_harness () in
  (match h.slice_b with
  | Some conn ->
      ignore
        (Of_conn.send conn
           (Of_msg.Port_mod
              { pm_port_no = 1; pm_hw_addr = Mac.make_local 1; pm_down = true }))
  | None -> Alcotest.fail "no conn");
  run h 1.0;
  Alcotest.(check int) "denied" 1 (Flowvisor.denied_flow_mods h.fv "data");
  (* The shared switch's port stayed up. *)
  Alcotest.(check bool) "port untouched" true (Datapath.port_up h.dp 1)

let test_accounting () =
  let h = make_harness () in
  Datapath.receive_frame h.dp ~in_port:1 lldp_frame;
  run h 1.0;
  Alcotest.(check (list string)) "slices" [ "topo"; "data" ] (Flowvisor.slices h.fv);
  Alcotest.(check (list int64)) "switch listed" [ 5L ] (Flowvisor.switches_connected h.fv);
  Alcotest.(check bool) "to-topo counted" true
    (Flowvisor.messages_to_slice h.fv "topo" > 0);
  Alcotest.(check bool) "from-data counted" true
    (Flowvisor.messages_from_slice h.fv "data" > 0)

(* FlowVisor translates the xid of every message it forwards, but only
   replies retire a translation and flow-mods and packet-outs get none.
   The translations it keeps must not grow with the messages it
   forwards. *)
let test_xid_translations_bounded () =
  let h = make_harness () in
  let conn = Option.get h.slice_b in
  let burst () =
    for _ = 1 to 1000 do
      Of_conn.packet_out conn ~actions:[ Of_action.output 2 ] udp_frame
    done;
    run h 0.1
  in
  burst ();
  h.b_msgs <- [];
  let before = Obj.reachable_words (Obj.repr h.fv) in
  for _ = 2 to 100 do
    burst ()
  done;
  h.b_msgs <- [];
  let after = Obj.reachable_words (Obj.repr h.fv) in
  Alcotest.(check bool) "all forwarded" true
    (Flowvisor.messages_from_slice h.fv "data" >= 100_000);
  Alcotest.(check bool)
    (Printf.sprintf "100k packet-outs: %d -> %d words" before after)
    true
    (after <= before + 1024)

(* A switch error still reaches the slice that caused it, under the
   slice's own xid, after thousands of earlier translations. *)
let test_error_routed_back () =
  let h = make_harness () in
  let conn = Option.get h.slice_b in
  let errors = ref [] in
  Of_conn.set_on_message conn (fun m ->
      match m.Of_msg.payload with
      | Of_msg.Error _ -> errors := m.Of_msg.xid :: !errors
      | _ -> ());
  for _ = 1 to 3000 do
    Of_conn.packet_out conn ~actions:[ Of_action.output 2 ] udp_frame
  done;
  run h 0.5;
  let xid =
    Of_conn.send conn
      (Of_msg.Packet_out
         {
           po_buffer_id = Some 77l (* never issued: the switch errors *);
           po_in_port = Rf_openflow.Of_port.none;
           po_actions = [ Of_action.output 2 ];
           po_data = "";
         })
  in
  run h 0.5;
  Alcotest.(check (list int32)) "error under the slice's xid" [ xid ] !errors;
  Alcotest.(check int) "topo slice saw no error" 0
    (List.length
       (List.filter
          (fun (m : Of_msg.t) ->
            match m.Of_msg.payload with Of_msg.Error _ -> true | _ -> false)
          h.a_msgs))

let suite =
  [
    Alcotest.test_case "flowspace classification" `Quick test_flowspace_classify;
    Alcotest.test_case "flowspace permits" `Quick test_flowspace_permits;
    Alcotest.test_case "both slices complete handshakes" `Quick
      test_both_slices_handshake;
    Alcotest.test_case "packet-ins classified per slice" `Quick
      test_packet_in_classified;
    Alcotest.test_case "flow-mod outside slice denied" `Quick test_flow_mod_policed;
    Alcotest.test_case "flow-mod inside slice installs" `Quick
      test_flow_mod_allowed_installs;
    Alcotest.test_case "stats reply xid translation" `Quick test_stats_xid_translation;
    Alcotest.test_case "port-status broadcast to all slices" `Quick
      test_port_status_broadcast;
    Alcotest.test_case "packet-out outside slice denied" `Quick
      test_packet_out_policed;
    Alcotest.test_case "slice accounting" `Quick test_accounting;
    Alcotest.test_case "port-mod denied to slices" `Quick test_port_mod_denied;
    Alcotest.test_case "xid translations stay bounded" `Quick
      test_xid_translations_bounded;
    Alcotest.test_case "switch error routed back to its slice" `Quick
      test_error_routed_back;
  ]
