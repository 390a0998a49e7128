(* OpenFlow 1.0 protocol tests: match semantics, action and message
   codecs. *)

open Rf_packet
open Rf_openflow

let ip = Ipv4_addr.of_string_exn

let pfx = Ipv4_addr.Prefix.of_string_exn

let sample_key =
  {
    Of_match.in_port = 3;
    dl_src = Mac.make_local 10;
    dl_dst = Mac.make_local 20;
    dl_vlan = 0xffff;
    dl_pcp = 0;
    dl_type = 0x0800;
    nw_tos = 0;
    nw_proto = 17;
    nw_src = ip "10.0.1.2";
    nw_dst = ip "10.0.2.2";
    tp_src = 5004;
    tp_dst = 1234;
  }

(* --- matches --------------------------------------------------------- *)

let test_wildcard_matches_everything () =
  Alcotest.(check bool) "wildcard" true
    (Of_match.matches Of_match.wildcard_all sample_key)

let test_exact_match () =
  let m = Of_match.exact_of_key sample_key in
  Alcotest.(check bool) "matches itself" true (Of_match.matches m sample_key);
  Alcotest.(check bool) "differs on port" false
    (Of_match.matches m { sample_key with Of_match.in_port = 4 })

let test_prefix_match () =
  let m = Of_match.nw_dst_prefix (pfx "10.0.2.0/24") in
  Alcotest.(check bool) "in prefix" true (Of_match.matches m sample_key);
  Alcotest.(check bool) "out of prefix" false
    (Of_match.matches m { sample_key with Of_match.nw_dst = ip "10.0.3.2" });
  (* dl_type gating: an ARP key with a matching "ip" never hits. *)
  Alcotest.(check bool) "wrong dl_type" false
    (Of_match.matches m { sample_key with Of_match.dl_type = 0x0806 })

let test_subsumes () =
  let broad = Of_match.dl_type_is 0x0800 in
  let narrow = Of_match.nw_dst_prefix (pfx "10.0.2.0/24") in
  Alcotest.(check bool) "broad subsumes narrow" true (Of_match.subsumes broad narrow);
  Alcotest.(check bool) "narrow does not subsume broad" false
    (Of_match.subsumes narrow broad);
  Alcotest.(check bool) "wildcard subsumes all" true
    (Of_match.subsumes Of_match.wildcard_all narrow);
  let p24 = Of_match.nw_dst_prefix (pfx "10.0.2.0/24") in
  let p28 = Of_match.nw_dst_prefix (pfx "10.0.2.16/28") in
  Alcotest.(check bool) "shorter prefix subsumes longer" true
    (Of_match.subsumes p24 p28)

let test_intersects () =
  let lldp = Of_match.dl_type_is 0x88cc in
  let ipv4 = Of_match.dl_type_is 0x0800 in
  Alcotest.(check bool) "disjoint dl_types" false (Of_match.intersects lldp ipv4);
  Alcotest.(check bool) "same" true (Of_match.intersects ipv4 ipv4)

let test_match_wire_roundtrip () =
  let cases =
    [
      Of_match.wildcard_all;
      Of_match.exact_of_key sample_key;
      Of_match.dl_type_is 0x88cc;
      Of_match.nw_dst_prefix (pfx "10.0.0.0/8");
      { Of_match.wildcard_all with Of_match.m_tp_dst = Some 80;
        m_nw_proto = Some 6; m_dl_type = Some 0x0800 };
    ]
  in
  List.iter
    (fun m ->
      let wire = Of_match.to_wire m in
      Alcotest.(check int) "40 bytes" 40 (String.length wire);
      match Of_match.of_wire (Wire.Reader.of_string wire) with
      | Ok m' ->
          if not (Of_match.equal m m') then
            Alcotest.fail
              (Format.asprintf "roundtrip mismatch: %a vs %a" Of_match.pp m
                 Of_match.pp m')
      | Error e -> Alcotest.fail e)
    cases

let test_key_of_frame_arp () =
  let frame =
    Packet.arp ~src:(Mac.make_local 1) ~dst:Mac.broadcast
      (Arp.request ~sender_mac:(Mac.make_local 1) ~sender_ip:(ip "10.0.0.1")
         ~target_ip:(ip "10.0.0.2"))
  in
  match Of_match.key_of_frame ~in_port:7 frame with
  | Some key ->
      Alcotest.(check int) "dl_type" 0x0806 key.Of_match.dl_type;
      Alcotest.(check int) "opcode in nw_proto" 1 key.Of_match.nw_proto;
      Alcotest.(check bool) "sender ip" true
        (Ipv4_addr.equal key.Of_match.nw_src (ip "10.0.0.1"))
  | None -> Alcotest.fail "ARP frame rejected"

(* --- actions ----------------------------------------------------------- *)

let test_action_list_roundtrip () =
  let actions =
    [
      Of_action.Set_dl_src (Mac.make_local 5);
      Of_action.Set_dl_dst (Mac.make_local 6);
      Of_action.Set_nw_src (ip "9.9.9.9");
      Of_action.Set_nw_dst (ip "8.8.8.8");
      Of_action.Set_nw_tos 32;
      Of_action.Set_tp_src 1111;
      Of_action.Set_tp_dst 2222;
      Of_action.Strip_vlan;
      Of_action.output 4;
      Of_action.to_controller;
    ]
  in
  let wire =
    let w = Wire.Writer.create () in
    Of_action.write_list w actions;
    Wire.Writer.contents w
  in
  match Of_action.list_of_wire (Wire.Reader.of_string wire) with
  | Ok actions' ->
      Alcotest.(check int) "count" (List.length actions) (List.length actions');
      Alcotest.(check bool) "equal" true (actions = actions')
  | Error e -> Alcotest.fail e

(* --- messages ------------------------------------------------------------ *)

let roundtrip msg =
  match Of_codec.of_wire (Of_codec.to_wire msg) with
  | Ok m -> m
  | Error e -> Alcotest.fail e

let test_msg_hello_echo () =
  let m = roundtrip (Of_msg.msg ~xid:5l Of_msg.Hello) in
  Alcotest.(check int32) "xid" 5l m.Of_msg.xid;
  Alcotest.(check bool) "hello" true (m.Of_msg.payload = Of_msg.Hello);
  let e = roundtrip (Of_msg.msg (Of_msg.Echo_request "abc")) in
  Alcotest.(check bool) "echo" true (e.Of_msg.payload = Of_msg.Echo_request "abc")

let test_msg_features () =
  let feats =
    {
      Of_msg.datapath_id = 0x00000000000000AAL;
      n_buffers = 256l;
      n_tables = 1;
      capabilities = 1l;
      supported_actions = 0x7FFl;
      ports =
        [
          { Of_msg.port_no = 1; hw_addr = Mac.make_local 1; name = "eth1"; up = true };
          { Of_msg.port_no = 2; hw_addr = Mac.make_local 2; name = "eth2"; up = false };
        ];
    }
  in
  match (roundtrip (Of_msg.msg (Of_msg.Features_reply feats))).Of_msg.payload with
  | Of_msg.Features_reply f ->
      Alcotest.(check int64) "dpid" 0xAAL f.Of_msg.datapath_id;
      Alcotest.(check int) "ports" 2 (List.length f.Of_msg.ports);
      let p2 = List.nth f.Of_msg.ports 1 in
      Alcotest.(check string) "name" "eth2" p2.Of_msg.name;
      Alcotest.(check bool) "down state survives" false p2.Of_msg.up
  | _ -> Alcotest.fail "wrong payload"

let test_msg_packet_in_out () =
  let pi =
    {
      Of_msg.pi_buffer_id = Some 77l;
      pi_total_len = 1000;
      pi_in_port = 3;
      pi_reason = Of_msg.No_match;
      pi_data = "head-of-frame";
    }
  in
  (match (roundtrip (Of_msg.msg (Of_msg.Packet_in pi))).Of_msg.payload with
  | Of_msg.Packet_in pi' ->
      Alcotest.(check bool) "buffer id" true (pi'.Of_msg.pi_buffer_id = Some 77l);
      Alcotest.(check int) "total len" 1000 pi'.Of_msg.pi_total_len;
      Alcotest.(check string) "data" "head-of-frame" pi'.Of_msg.pi_data
  | _ -> Alcotest.fail "wrong payload");
  let po =
    {
      Of_msg.po_buffer_id = None;
      po_in_port = Of_port.none;
      po_actions = [ Of_action.output 2; Of_action.Set_nw_tos 8 ];
      po_data = "frame-bytes";
    }
  in
  match (roundtrip (Of_msg.msg (Of_msg.Packet_out po))).Of_msg.payload with
  | Of_msg.Packet_out po' ->
      Alcotest.(check int) "actions" 2 (List.length po'.Of_msg.po_actions);
      Alcotest.(check string) "payload" "frame-bytes" po'.Of_msg.po_data;
      Alcotest.(check bool) "no buffer" true (po'.Of_msg.po_buffer_id = None)
  | _ -> Alcotest.fail "wrong payload"

let test_msg_flow_mod () =
  let fm =
    Of_msg.flow_add ~cookie:42L ~idle_timeout:30 ~hard_timeout:300 ~priority:999
      ~notify_removed:true
      (Of_match.nw_dst_prefix (pfx "10.1.0.0/16"))
      [ Of_action.output 7 ]
  in
  match (roundtrip (Of_msg.msg (Of_msg.Flow_mod fm))).Of_msg.payload with
  | Of_msg.Flow_mod fm' ->
      Alcotest.(check int64) "cookie" 42L fm'.Of_msg.fm_cookie;
      Alcotest.(check int) "idle" 30 fm'.Of_msg.fm_idle_timeout;
      Alcotest.(check int) "hard" 300 fm'.Of_msg.fm_hard_timeout;
      Alcotest.(check int) "priority" 999 fm'.Of_msg.fm_priority;
      Alcotest.(check bool) "notify" true fm'.Of_msg.fm_notify_removed;
      Alcotest.(check bool) "match" true
        (Of_match.equal fm.Of_msg.fm_match fm'.Of_msg.fm_match);
      Alcotest.(check bool) "command" true (fm'.Of_msg.fm_command = Of_msg.Add)
  | _ -> Alcotest.fail "wrong payload"

let test_msg_flow_removed () =
  let fr =
    {
      Of_msg.fr_match = Of_match.nw_dst_prefix (pfx "10.2.0.0/16");
      fr_cookie = 7L;
      fr_priority = 100;
      fr_reason = Of_msg.Removed_idle;
      fr_duration_s = 55;
      fr_packet_count = 123L;
      fr_byte_count = 4567L;
    }
  in
  match (roundtrip (Of_msg.msg (Of_msg.Flow_removed fr))).Of_msg.payload with
  | Of_msg.Flow_removed fr' ->
      Alcotest.(check bool) "reason" true (fr'.Of_msg.fr_reason = Of_msg.Removed_idle);
      Alcotest.(check int64) "packets" 123L fr'.Of_msg.fr_packet_count;
      Alcotest.(check int) "duration" 55 fr'.Of_msg.fr_duration_s
  | _ -> Alcotest.fail "wrong payload"

let test_msg_stats () =
  (* Desc *)
  let desc =
    Of_msg.Stats_reply
      (Of_msg.Desc_reply
         { manufacturer = "rf-sim"; hardware = "emu"; software = "1.0";
           serial = "s-1"; datapath_desc = "test" })
  in
  (match (roundtrip (Of_msg.msg desc)).Of_msg.payload with
  | Of_msg.Stats_reply (Of_msg.Desc_reply d) ->
      Alcotest.(check string) "manufacturer" "rf-sim" d.manufacturer;
      Alcotest.(check string) "serial" "s-1" d.serial
  | _ -> Alcotest.fail "wrong payload");
  (* Flow *)
  let flow_req =
    Of_msg.Stats_request
      (Of_msg.Flow_req { qf_match = Of_match.wildcard_all; qf_out_port = None })
  in
  (match (roundtrip (Of_msg.msg flow_req)).Of_msg.payload with
  | Of_msg.Stats_request (Of_msg.Flow_req { qf_out_port = None; _ }) -> ()
  | _ -> Alcotest.fail "wrong payload");
  let flow_rep =
    Of_msg.Stats_reply
      (Of_msg.Flow_reply
         [
           {
             Of_msg.fs_match = Of_match.nw_dst_prefix (pfx "10.3.0.0/16");
             fs_priority = 5;
             fs_cookie = 9L;
             fs_duration_s = 10;
             fs_packet_count = 11L;
             fs_byte_count = 12L;
             fs_actions = [ Of_action.output 1 ];
           };
         ])
  in
  (match (roundtrip (Of_msg.msg flow_rep)).Of_msg.payload with
  | Of_msg.Stats_reply (Of_msg.Flow_reply [ fs ]) ->
      Alcotest.(check int64) "packets" 11L fs.Of_msg.fs_packet_count;
      Alcotest.(check int) "actions" 1 (List.length fs.Of_msg.fs_actions)
  | _ -> Alcotest.fail "wrong payload");
  (* Port *)
  let port_rep =
    Of_msg.Stats_reply
      (Of_msg.Port_reply
         [
           { Of_msg.ps_port_no = 1; ps_rx_packets = 1L; ps_tx_packets = 2L;
             ps_rx_bytes = 3L; ps_tx_bytes = 4L; ps_rx_dropped = 5L;
             ps_tx_dropped = 6L };
         ])
  in
  match (roundtrip (Of_msg.msg port_rep)).Of_msg.payload with
  | Of_msg.Stats_reply (Of_msg.Port_reply [ ps ]) ->
      Alcotest.(check int64) "tx dropped" 6L ps.Of_msg.ps_tx_dropped
  | _ -> Alcotest.fail "wrong payload"

let test_msg_error_vendor_barrier () =
  let err =
    Of_msg.Error { err_type = 3; err_code = 6; err_data = "denied" }
  in
  (match (roundtrip (Of_msg.msg err)).Of_msg.payload with
  | Of_msg.Error e ->
      Alcotest.(check int) "type" 3 e.Of_msg.err_type;
      Alcotest.(check string) "data" "denied" e.Of_msg.err_data
  | _ -> Alcotest.fail "wrong payload");
  (match (roundtrip (Of_msg.msg (Of_msg.Vendor { vendor = 0x2320l; data = "nx" }))).Of_msg.payload with
  | Of_msg.Vendor { vendor; data } ->
      Alcotest.(check int32) "vendor" 0x2320l vendor;
      Alcotest.(check string) "data" "nx" data
  | _ -> Alcotest.fail "wrong payload");
  match (roundtrip (Of_msg.msg Of_msg.Barrier_request)).Of_msg.payload with
  | Of_msg.Barrier_request -> ()
  | _ -> Alcotest.fail "wrong payload"

let test_msg_port_mod () =
  let pm =
    Of_msg.Port_mod { pm_port_no = 3; pm_hw_addr = Mac.make_local 3; pm_down = true }
  in
  match (roundtrip (Of_msg.msg pm)).Of_msg.payload with
  | Of_msg.Port_mod { pm_port_no; pm_down; _ } ->
      Alcotest.(check int) "port" 3 pm_port_no;
      Alcotest.(check bool) "down bit" true pm_down
  | _ -> Alcotest.fail "wrong payload"

let test_codec_rejects_garbage () =
  (match Of_codec.of_wire "\x02\x00\x00\x08\x00\x00\x00\x00" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted wrong version");
  (match Of_codec.of_wire "\x01\x63\x00\x08\x00\x00\x00\x00" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted unknown type");
  (* A channel delivers each message as one chunk, so the header's
     length must cover exactly the chunk. *)
  let wire =
    Of_codec.to_wire (Of_msg.msg ~xid:2l (Of_msg.Echo_request "ping"))
  in
  (match Of_codec.of_wire (wire ^ "\x00") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted a trailing byte");
  match Of_codec.of_wire (wire ^ wire) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted two messages as one"

let prop_flow_mod_roundtrip =
  QCheck.Test.make ~name:"flow-mod priority/timeouts round-trip" ~count:200
    QCheck.(triple (int_bound 0xFFFF) (int_bound 0xFFFF) (int_bound 0xFFFF))
    (fun (priority, idle, hard) ->
      let fm =
        Of_msg.flow_add ~priority ~idle_timeout:idle ~hard_timeout:hard
          (Of_match.dl_type_is 0x0800)
          [ Of_action.output 1 ]
      in
      match Of_codec.of_wire (Of_codec.to_wire (Of_msg.msg (Of_msg.Flow_mod fm))) with
      | Ok { Of_msg.payload = Of_msg.Flow_mod fm'; _ } ->
          fm'.Of_msg.fm_priority = priority
          && fm'.Of_msg.fm_idle_timeout = idle
          && fm'.Of_msg.fm_hard_timeout = hard
      | Ok _ | Error _ -> false)

(* --- golden bytes ---------------------------------------------------- *)

let to_hex s =
  String.concat ""
    (List.map
       (fun c -> Printf.sprintf "%02x" (Char.code c))
       (List.of_seq (String.to_seq s)))

(* The messages the workloads send, and the bytes the layered encoder
   wrote for each (the body encoded on its own, then copied behind the
   header; the match and the actions likewise). The one-buffer encoder
   must write exactly those bytes. *)
let golden_messages () =
  let mac1 = Mac.make_local 1 and mac2 = Mac.make_local 2 in
  let route =
    Of_msg.flow_add ~priority:(0x4000 + 24)
      (Of_match.nw_dst_prefix (pfx "10.0.1.0/24"))
      [ Of_action.Set_dl_src mac1; Of_action.Set_dl_dst mac2;
        Of_action.output 3 ]
  in
  let m p = Of_codec.to_wire (Of_msg.msg ~xid:0x2al p) in
  [
    ("hello", m Of_msg.Hello, "010000080000002a");
    ("features-request", m Of_msg.Features_request, "010500080000002a");
    ( "features-reply",
      m
        (Of_msg.Features_reply
           {
             datapath_id = 0x0102030405L;
             n_buffers = 256l;
             n_tables = 1;
             capabilities = 0xc7l;
             supported_actions = 0xfffl;
             ports =
               [
                 { Of_msg.port_no = 1; hw_addr = mac1; name = "eth1";
                   up = true };
                 { port_no = 2; hw_addr = mac2; name = "a-very-long-port-name";
                   up = false };
               ];
           }),
      "010600800000002a00000001020304050000010001000000000000c700000fff\
       0001020000000001657468310000000000000000000000000000000000000000\
       000000000000000000000000000000000002020000000002612d766572792d6c\
       6f6e672d706f7200000000000000000100000000000000000000000000000000" );
    ( "echo-request",
      m (Of_msg.Echo_request "ping"),
      "0102000c0000002a70696e67" );
    ("echo-reply", m (Of_msg.Echo_reply "ping"), "0103000c0000002a70696e67");
    ( "set-config",
      m (Of_msg.Set_config { flags = 0; miss_send_len = 0xffff }),
      "0109000c0000002a0000ffff" );
    ( "packet-in",
      m
        (Of_msg.Packet_in
           { pi_buffer_id = None; pi_total_len = 5; pi_in_port = 2;
             pi_reason = Of_msg.No_match; pi_data = "frame" }),
      "010a00170000002affffffff0005000200006672616d65" );
    ( "packet-out",
      m
        (Of_msg.Packet_out
           { po_buffer_id = None; po_in_port = Of_port.none;
             po_actions = [ Of_action.output 4; Of_action.Set_nw_tos 8 ];
             po_data = "lldp-frame" }),
      "010d002a0000002affffffffffff0010000000080004ffff0008000808000000\
       6c6c64702d6672616d65" );
    ( "flow-mod add",
      m (Of_msg.Flow_mod route),
      "010e00700000002a003220ef0000000000000000000000000000000000000800\
       00000000000000000a0001000000000000000000000000000000000000004018\
       ffffffffffff0000000400100200000000010000000000000005001002000000\
       0002000000000000000000080003ffff");
    ( "flow-mod delete",
      m
        (Of_msg.Flow_mod
           (Of_msg.flow_delete ~strict:true ~priority:(0x4000 + 24)
              route.fm_match)),
      "010e00480000002a003220ef0000000000000000000000000000000000000800\
       00000000000000000a0001000000000000000000000000000004000000004018\
       ffffffffffff0000" );
  ]

let test_golden_messages () =
  List.iter
    (fun (name, wire, expected) ->
      Alcotest.(check string) name expected (to_hex wire))
    (golden_messages ())

(* A RouteFlow flow-mod (nw_dst prefix, rewrite both MACs, output) is
   encoded into one buffer sized up front: that buffer, the writer and
   the returned string. The bound sits 4% over the measured 37 words;
   encoding the body, match and actions apart and copying them behind
   the header cost 148. *)
let test_flow_mod_encode_one_buffer () =
  let fm =
    Of_msg.msg
      (Of_msg.Flow_mod
         (Of_msg.flow_add ~priority:(0x4000 + 24)
            (Of_match.nw_dst_prefix (pfx "10.0.7.0/24"))
            [ Of_action.Set_dl_src (Mac.make_local 77);
              Of_action.Set_dl_dst (Mac.make_local 78); Of_action.output 3 ]))
  in
  let words =
    Test_net.minor_words_per_call 1000 (fun () ->
        ignore (Of_codec.to_wire fm))
  in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words per flow-mod (%d bytes)" words
       (String.length (Of_codec.to_wire fm)))
    true (words < 39.)

let suite =
  [
    Alcotest.test_case "wildcard matches everything" `Quick
      test_wildcard_matches_everything;
    Alcotest.test_case "exact match" `Quick test_exact_match;
    Alcotest.test_case "prefix match with dl_type gate" `Quick test_prefix_match;
    Alcotest.test_case "subsumption" `Quick test_subsumes;
    Alcotest.test_case "intersection" `Quick test_intersects;
    Alcotest.test_case "match wire roundtrip" `Quick test_match_wire_roundtrip;
    Alcotest.test_case "key extraction from ARP" `Quick test_key_of_frame_arp;
    Alcotest.test_case "action list roundtrip" `Quick test_action_list_roundtrip;
    Alcotest.test_case "hello/echo roundtrip" `Quick test_msg_hello_echo;
    Alcotest.test_case "features roundtrip" `Quick test_msg_features;
    Alcotest.test_case "packet-in/out roundtrip" `Quick test_msg_packet_in_out;
    Alcotest.test_case "flow-mod roundtrip" `Quick test_msg_flow_mod;
    Alcotest.test_case "flow-removed roundtrip" `Quick test_msg_flow_removed;
    Alcotest.test_case "stats roundtrips" `Quick test_msg_stats;
    Alcotest.test_case "error/vendor/barrier roundtrip" `Quick
      test_msg_error_vendor_barrier;
    Alcotest.test_case "port-mod roundtrip" `Quick test_msg_port_mod;
    Alcotest.test_case "codec rejects garbage" `Quick test_codec_rejects_garbage;
    Alcotest.test_case "one-buffer messages keep the layered encoder's bytes"
      `Quick test_golden_messages;
    Alcotest.test_case "Of_codec.to_wire of a flow-mod allocates one buffer"
      `Quick test_flow_mod_encode_one_buffer;
    QCheck_alcotest.to_alcotest prop_flow_mod_roundtrip;
  ]
