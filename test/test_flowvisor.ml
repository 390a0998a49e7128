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
      Of_conn.set_on_message conn (fun m _wire -> h.a_msgs <- m :: h.a_msgs);
      h.slice_a <- Some conn);
  Flowvisor.add_slice fv (Flowspace.data_slice ~name:"data")
    ~attach:(fun ~dpid:_ endpoint ->
      let conn = Of_conn.create engine endpoint in
      Of_conn.set_on_message conn (fun m _wire -> h.b_msgs <- m :: h.b_msgs);
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
      Of_conn.set_on_message conn (fun m _wire ->
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
  Of_conn.set_on_message conn (fun m _wire ->
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

(* A slice's flow-mod reaches the switch as the bytes the slice sent,
   with only the xid (bytes 4-7) rewritten. Its flags field (bytes
   70-71) sets bits the decoder drops, since only bit 0 is read, so a
   decode and re-encode on the way would show there. FlowVisor's part
   of the relay, the event that takes the slice's bytes and hands the
   switch's to the channel, costs at most 100 minor words. *)
let test_flow_mod_relayed_as_received () =
  let engine = Engine.create () in
  let fv = Flowvisor.create engine in
  let slice_end = ref None in
  Flowvisor.add_slice fv (Flowspace.data_slice ~name:"data")
    ~attach:(fun ~dpid:_ endpoint ->
      Channel.set_receiver endpoint ignore;
      slice_end := Some endpoint);
  let dp = Datapath.create engine ~dpid:5L ~n_ports:4 in
  let fv_end, tap_a = Channel.create engine () in
  let tap_b, sw_end = Channel.create engine () in
  let to_switch = ref [] and ofpt_flow_mod = 14 in
  Channel.set_receiver tap_a (fun m ->
      if Of_codec.msg_type m = ofpt_flow_mod then to_switch := m :: !to_switch;
      Channel.send tap_b m);
  Channel.set_receiver tap_b (Channel.send tap_a);
  let _agent = Of_agent.create engine dp sw_end in
  Flowvisor.switch_attach fv ~dpid:5L fv_end;
  ignore (Engine.run ~until:(Vtime.of_s 2.0) engine);
  let slice = Option.get !slice_end in
  let sent =
    let b =
      Bytes.of_string
        (Of_codec.to_wire
           (Of_msg.msg ~xid:77l
              (Of_msg.Flow_mod
                 (Of_msg.flow_add (Of_match.nw_dst_prefix (pfx "10.1.0.0/24"))
                    [ Of_action.output 2 ]))))
    in
    Bytes.set_uint16_be b 70 0x0006;
    Bytes.to_string b
  in
  let relay () =
    Channel.send slice sent;
    ignore
      (Engine.run
         ~until:(Vtime.add (Engine.now engine) (Vtime.span_ms 10))
         engine)
  in
  relay ();
  (match !to_switch with
  | [ got ] ->
      Alcotest.(check int) "same length" (String.length sent)
        (String.length got);
      String.iteri
        (fun i c ->
          if i < 4 || i > 7 then
            Alcotest.(check char) (Printf.sprintf "byte %d" i) sent.[i] c)
        got
  | l -> Alcotest.failf "%d flow-mods reached the switch" (List.length l));
  Alcotest.(check int) "the switch installed it" 1
    (Rf_net.Flow_table.size (Datapath.flow_table dp));
  (* The words of the event that delivers the slice's bytes to
     FlowVisor, which ends when it has sent the switch's. *)
  let n = 1000 and words = ref 0. in
  for _ = 1 to n do
    Channel.send slice sent;
    let until = Vtime.add (Engine.now engine) (Vtime.span_ms 1) in
    let before = Gc.minor_words () in
    ignore (Engine.run ~until engine);
    words := !words +. (Gc.minor_words () -. before);
    ignore
      (Engine.run
         ~until:(Vtime.add (Engine.now engine) (Vtime.span_ms 10))
         engine)
  done;
  let words = !words /. float_of_int n in
  Alcotest.(check int) "every flow-mod relayed" (n + 1)
    (List.length !to_switch);
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words per relayed flow-mod" words)
    true (words <= 100.)

(* FlowVisor checks a slice's flow-mod in full though it decodes only
   the match: one whose action type is unknown closes that slice's
   connection and never reaches the switch, whose control channel, and
   every other slice's, stays up. *)
let test_malformed_flow_mod_stops_at_flowvisor () =
  let engine = Engine.create () in
  let fv = Flowvisor.create engine in
  let slice_end = ref None in
  Flowvisor.add_slice fv (Flowspace.data_slice ~name:"data")
    ~attach:(fun ~dpid:_ endpoint ->
      Channel.set_receiver endpoint ignore;
      slice_end := Some endpoint);
  let dp = Datapath.create engine ~dpid:5L ~n_ports:4 in
  let fv_end, sw_end = Channel.create engine () in
  let _agent = Of_agent.create engine dp sw_end in
  Flowvisor.switch_attach fv ~dpid:5L fv_end;
  ignore (Engine.run ~until:(Vtime.of_s 2.0) engine);
  let slice = Option.get !slice_end in
  let bad =
    let b =
      Bytes.of_string
        (Of_codec.to_wire
           (Of_msg.msg ~xid:77l
              (Of_msg.Flow_mod
                 (Of_msg.flow_add (Of_match.nw_dst_prefix (pfx "10.1.0.0/24"))
                    [ Of_action.output 2 ]))))
    in
    (* The first action's type, right after the 72-byte fixed part. *)
    Bytes.set_uint16_be b 72 0x7777;
    Bytes.to_string b
  in
  Channel.send slice bad;
  ignore (Engine.run ~until:(Vtime.of_s 4.0) engine);
  Alcotest.(check bool) "the slice's connection closed" false
    (Channel.is_open slice);
  Alcotest.(check (list int64)) "the switch stays connected" [ 5L ]
    (Flowvisor.switches_connected fv);
  Alcotest.(check int) "nothing installed" 0
    (Rf_net.Flow_table.size (Datapath.flow_table dp))

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
    Alcotest.test_case "a flow-mod reaches the switch as the slice's bytes"
      `Quick test_flow_mod_relayed_as_received;
    Alcotest.test_case "a malformed flow-mod stops at FlowVisor" `Quick
      test_malformed_flow_mod_stops_at_flowvisor;
  ]
