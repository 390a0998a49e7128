(* RPC layer tests: message codec, acknowledgement,
   retransmission with backoff, duplicate suppression, session epochs,
   crash/restart supervision and anti-entropy resynchronisation. *)

open Rf_packet
module Rpc_msg = Rf_rpc.Rpc_msg
module Rpc_client = Rf_rpc.Rpc_client
module Rpc_server = Rf_rpc.Rpc_server
module Channel = Rf_net.Channel
module Engine = Rf_sim.Engine
module Vtime = Rf_sim.Vtime

let ip = Ipv4_addr.of_string_exn

let sample_msgs =
  [
    Rpc_msg.Switch_up { dpid = 42L; n_ports = 12 };
    Rpc_msg.Switch_down { dpid = 42L };
    Rpc_msg.Link_up
      { a_dpid = 1L; a_port = 2; a_ip = ip "172.16.0.1"; a_prefix_len = 30;
        b_dpid = 3L; b_port = 4; b_ip = ip "172.16.0.2"; b_prefix_len = 30 };
    Rpc_msg.Link_down { a_dpid = 1L; a_port = 2; b_dpid = 3L; b_port = 4 };
    Rpc_msg.Edge_subnet { dpid = 5L; port = 3; gateway = ip "10.0.1.1"; prefix_len = 24 };
  ]

(* Aggressive supervision parameters so tests stay in short horizons. *)
let fast_params =
  {
    Rpc_client.rto = Vtime.span_s 0.1;
    rto_max = Vtime.span_s 0.4;
    max_retries = 3;
    heartbeat_every = Vtime.span_s 1.0;
    heartbeat_jitter = 0.0;
    dead_after = 2;
    resync = true;
  }

let pair ?latency ?(params = Rpc_client.default_params) engine =
  let c_end, s_end = Channel.create engine ?latency () in
  let client = Rpc_client.create engine ~params c_end in
  let server = Rpc_server.create engine s_end in
  (client, server)

let test_codec_roundtrip () =
  List.iteri
    (fun i msg ->
      let env =
        { Rpc_msg.epoch = 7l; seq = Int32.of_int (i + 1); body = Rpc_msg.Request msg }
      in
      match Rpc_msg.of_wire (Rpc_msg.to_wire env) with
      | Ok env' ->
          Alcotest.(check int32) "epoch" 7l env'.Rpc_msg.epoch;
          Alcotest.(check int32) "seq" (Int32.of_int (i + 1)) env'.Rpc_msg.seq;
          (match env'.Rpc_msg.body with
          | Rpc_msg.Request msg' ->
              if msg <> msg' then
                Alcotest.fail
                  (Format.asprintf "mismatch: %a vs %a" Rpc_msg.pp msg Rpc_msg.pp
                     msg')
          | _ -> Alcotest.fail "wrong body")
      | Error e -> Alcotest.fail e)
    sample_msgs

let test_supervision_codec_roundtrip () =
  let bodies =
    [
      Rpc_msg.Ack { a_epoch = 3l; a_cum = 100l; a_seq = 102l };
      Rpc_msg.Ping;
      Rpc_msg.Pong;
      Rpc_msg.Sync_request;
      Rpc_msg.Sync_snapshot [];
      Rpc_msg.Sync_snapshot sample_msgs;
    ]
  in
  List.iter
    (fun body ->
      let env = { Rpc_msg.epoch = 0xdeadbeefl; seq = 0l; body } in
      match Rpc_msg.of_wire (Rpc_msg.to_wire env) with
      | Ok env' ->
          if env' <> env then
            Alcotest.fail
              (Format.asprintf "mismatch: %a vs %a" Rpc_msg.pp_body body
                 Rpc_msg.pp_body env'.Rpc_msg.body)
      | Error e -> Alcotest.fail e)
    bodies

let test_client_server_ack () =
  let engine = Engine.create () in
  let client, server = pair engine in
  let received = ref [] in
  Rpc_server.set_handler server (fun m -> received := m :: !received);
  List.iter (Rpc_client.send client) sample_msgs;
  ignore (Engine.run ~until:(Vtime.of_s 5.0) engine);
  Alcotest.(check int) "all handled" (List.length sample_msgs)
    (List.length !received);
  Alcotest.(check int) "server count" (List.length sample_msgs)
    (Rpc_server.requests_handled server);
  Alcotest.(check int) "all acked" 0 (Rpc_client.unacked client);
  Alcotest.(check int) "no retransmissions on clean channel" 0
    (Rpc_client.retransmissions client);
  Alcotest.(check bool) "peer alive" true (Rpc_client.peer_alive client);
  (* Order preserved. *)
  Alcotest.(check bool) "order" true (List.rev !received = sample_msgs)

let test_retransmit_and_dedup () =
  let engine = Engine.create () in
  (* A channel slower than the initial RTO: the client fires duplicates;
     the server must dedup and still handle each message once. *)
  let client, server = pair ~latency:(Vtime.span_s 3.0) engine in
  let received = ref 0 in
  Rpc_server.set_handler server (fun _ -> incr received);
  Rpc_client.send client (Rpc_msg.Switch_up { dpid = 1L; n_ports = 2 });
  ignore (Engine.run ~until:(Vtime.of_s 30.0) engine);
  Alcotest.(check int) "handled once" 1 !received;
  Alcotest.(check bool) "retransmitted" true (Rpc_client.retransmissions client > 0);
  Alcotest.(check bool) "dups dropped" true (Rpc_server.duplicates_dropped server > 0);
  Alcotest.(check int) "eventually acked" 0 (Rpc_client.unacked client)

let test_ack_cancels_timer () =
  let engine = Engine.create () in
  let client, _server = pair engine in
  Rpc_client.send client (Rpc_msg.Switch_up { dpid = 1L; n_ports = 2 });
  (* Acked after ~2 ms; a long horizon afterwards must produce no
     further retransmissions (the old watch loop kept re-arming). *)
  ignore (Engine.run ~until:(Vtime.of_s 300.0) engine);
  Alcotest.(check int) "no retransmission after ack" 0
    (Rpc_client.retransmissions client);
  Alcotest.(check int) "acked" 0 (Rpc_client.unacked client)

let test_backoff_cap_and_give_up () =
  let engine = Engine.create () in
  let client, server = pair ~params:fast_params engine in
  Rpc_server.crash server;
  Rpc_client.send client (Rpc_msg.Switch_up { dpid = 9L; n_ports = 4 });
  ignore (Engine.run ~until:(Vtime.of_s 10.0) engine);
  (* Retransmissions are bounded by the cap, not endless. *)
  Alcotest.(check int) "exactly max_retries retransmissions"
    fast_params.Rpc_client.max_retries
    (Rpc_client.retransmissions client);
  Alcotest.(check int) "frame parked" 1 (Rpc_client.gave_up client);
  Alcotest.(check int) "still unacked" 1 (Rpc_client.unacked client);
  Alcotest.(check bool) "peer declared dead" false (Rpc_client.peer_alive client);
  (* Recovery: the restarted server asks for state; the client resyncs
     under a fresh epoch and the parked message is delivered. *)
  Rpc_server.restart server;
  ignore (Engine.run ~until:(Vtime.of_s 20.0) engine);
  Alcotest.(check bool) "peer revived" true (Rpc_client.peer_alive client);
  Alcotest.(check int) "resynced once" 1 (Rpc_client.resyncs client);
  Alcotest.(check int32) "epoch bumped" 2l (Rpc_client.epoch client);
  Alcotest.(check int) "message delivered after restart" 1
    (Rpc_server.requests_handled server);
  Alcotest.(check int) "nothing left unacked" 0 (Rpc_client.unacked client)

let test_heartbeat_detects_dead_and_revived_peer () =
  let engine = Engine.create () in
  let client, server = pair ~params:fast_params engine in
  Rpc_server.crash server;
  (* No data traffic at all: liveness must come from heartbeats. *)
  ignore (Engine.run ~until:(Vtime.of_s 10.0) engine);
  Alcotest.(check bool) "pings flowed" true (Rpc_client.pings_sent client > 5);
  Alcotest.(check bool) "silence flips liveness" false
    (Rpc_client.peer_alive client);
  Rpc_server.restart server;
  ignore (Engine.run ~until:(Vtime.of_s 15.0) engine);
  Alcotest.(check bool) "first reply revives" true (Rpc_client.peer_alive client);
  Alcotest.(check int32) "server incarnation advanced" 2l
    (Rpc_server.incarnation server)

let test_server_restart_triggers_snapshot () =
  let engine = Engine.create () in
  let client, server = pair ~params:fast_params engine in
  let applied = ref [] in
  Rpc_server.set_handler server (fun m -> applied := m :: !applied);
  Rpc_server.set_snapshot_handler server (fun msgs ->
      applied := List.rev_append msgs !applied);
  Rpc_client.set_snapshot_provider client (fun () -> sample_msgs);
  Rpc_client.send client (Rpc_msg.Switch_up { dpid = 42L; n_ports = 12 });
  ignore (Engine.run ~until:(Vtime.of_s 2.0) engine);
  Alcotest.(check int) "live event delivered" 1 (List.length !applied);
  Rpc_server.crash server;
  ignore (Engine.run ~until:(Vtime.of_s 4.0) engine);
  Rpc_server.restart server;
  ignore (Engine.run ~until:(Vtime.of_s 15.0) engine);
  Alcotest.(check int) "one snapshot received" 1
    (Rpc_server.snapshots_received server);
  Alcotest.(check int) "one snapshot sent" 1 (Rpc_client.snapshots_sent client);
  Alcotest.(check int) "snapshot re-applied the full state"
    (1 + List.length sample_msgs)
    (List.length !applied);
  Alcotest.(check int) "clean session" 0 (Rpc_client.unacked client)

let test_client_restart_bumps_epoch () =
  let engine = Engine.create () in
  let client, server = pair ~params:fast_params engine in
  Rpc_client.set_snapshot_provider client (fun () -> sample_msgs);
  Rpc_client.send client (Rpc_msg.Switch_up { dpid = 1L; n_ports = 2 });
  ignore (Engine.run ~until:(Vtime.of_s 2.0) engine);
  Rpc_client.crash client;
  (* Messages produced while down are lost, and counted. *)
  Rpc_client.send client (Rpc_msg.Switch_up { dpid = 2L; n_ports = 2 });
  Alcotest.(check int) "lost while down" 1 (Rpc_client.dropped_while_down client);
  Rpc_client.restart client;
  ignore (Engine.run ~until:(Vtime.of_s 10.0) engine);
  Alcotest.(check int32) "fresh epoch" 2l (Rpc_client.epoch client);
  Alcotest.(check int) "snapshot covers the loss" 1
    (Rpc_server.snapshots_received server);
  Alcotest.(check int) "clean session" 0 (Rpc_client.unacked client)

(* The motivating bug, kept reproducible: without epochs (resync=false)
   a restarted client reuses sequence numbers and the server's dedup
   state silently swallows brand-new messages. *)
let test_legacy_restart_loses_messages () =
  let engine = Engine.create () in
  let params = { fast_params with Rpc_client.resync = false } in
  let client, server = pair ~params engine in
  Rpc_client.send client (Rpc_msg.Switch_up { dpid = 1L; n_ports = 2 });
  ignore (Engine.run ~until:(Vtime.of_s 2.0) engine);
  Alcotest.(check int) "first delivered" 1 (Rpc_server.requests_handled server);
  Rpc_client.crash client;
  Rpc_client.restart client;
  Rpc_client.send client (Rpc_msg.Switch_up { dpid = 2L; n_ports = 8 });
  ignore (Engine.run ~until:(Vtime.of_s 10.0) engine);
  Alcotest.(check int32) "same epoch reused" 1l (Rpc_client.epoch client);
  Alcotest.(check int) "second message swallowed as duplicate" 1
    (Rpc_server.requests_handled server);
  Alcotest.(check int) "client believes it was delivered" 0
    (Rpc_client.unacked client)

let test_seq_wraparound () =
  let engine = Engine.create () in
  let client, server = pair engine in
  let received = ref [] in
  Rpc_server.set_handler server (fun m -> received := m :: !received);
  (* Force allocation right below the int32 wrap; the server pretends it
     has already delivered up to the same point. *)
  let start = Int32.sub Int32.min_int 3l in
  (* = 0x7ffffffd *)
  Rpc_client.set_next_seq client start;
  Rpc_server.set_watermark server start;
  List.iter (Rpc_client.send client) sample_msgs;
  ignore (Engine.run ~until:(Vtime.of_s 5.0) engine);
  Alcotest.(check int) "all delivered across the wrap"
    (List.length sample_msgs)
    (Rpc_server.requests_handled server);
  Alcotest.(check bool) "order preserved" true (List.rev !received = sample_msgs);
  Alcotest.(check int) "all acked" 0 (Rpc_client.unacked client);
  Alcotest.(check int) "no false duplicates" 0
    (Rpc_server.duplicates_dropped server)

let test_rejects_corrupt_length () =
  (match Rpc_msg.of_wire "\x00\x00\x00\x01x" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted absurd length");
  (* A channel delivers each frame as one chunk, so the length prefix
     must cover exactly the chunk. *)
  let wire =
    Rpc_msg.to_wire
      {
        Rpc_msg.epoch = 1l;
        seq = 1l;
        body = Rpc_msg.Request (List.hd sample_msgs);
      }
  in
  (match Rpc_msg.of_wire (wire ^ "\x00") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted a trailing byte");
  match Rpc_msg.of_wire (wire ^ wire) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted two frames as one"

(* A corrupt frame is a decode fault the server records and drops; the
   session carries on, so later requests are handled without the client
   retransmitting into a dead session. *)
let test_corrupt_frame_costs_one_frame () =
  let engine = Engine.create () in
  let c_end, s_end = Channel.create engine () in
  let client = Rpc_client.create engine c_end in
  let server = Rpc_server.create engine s_end in
  let send dpid = Rpc_client.send client (Rpc_msg.Switch_down { dpid }) in
  send 1L;
  ignore (Engine.run ~until:(Vtime.of_s 1.0) engine);
  Alcotest.(check int) "first request acknowledged" 0
    (Rpc_client.unacked client);
  Channel.send c_end "\x00\x00\x00\x01x";
  List.iter send [ 2L; 3L; 4L; 5L; 6L ];
  ignore (Engine.run ~until:(Vtime.of_s 60.0) engine);
  Alcotest.(check int) "all six handled" 6 (Rpc_server.requests_handled server);
  Alcotest.(check int) "nothing unacked" 0 (Rpc_client.unacked client)

let prop_link_up_roundtrip =
  QCheck.Test.make ~name:"link-up messages round-trip for arbitrary fields"
    ~count:200
    QCheck.(
      quad (int_bound 0xFFFF) (int_bound 0xFF00) (int_bound 0xFFFFFF) (int_range 1 32))
    (fun (dpid_raw, port, ip_raw, len) ->
      let msg =
        Rpc_msg.Link_up
          {
            a_dpid = Int64.of_int dpid_raw;
            a_port = port;
            a_ip = Ipv4_addr.of_int32 (Int32.of_int ip_raw);
            a_prefix_len = len;
            b_dpid = Int64.of_int (dpid_raw + 1);
            b_port = (port mod 100) + 1;
            b_ip = Ipv4_addr.of_int32 (Int32.of_int (ip_raw + 1));
            b_prefix_len = len;
          }
      in
      match
        Rpc_msg.of_wire
          (Rpc_msg.to_wire { Rpc_msg.epoch = 1l; seq = 9l; body = Rpc_msg.Request msg })
      with
      | Ok { Rpc_msg.body = Rpc_msg.Request msg'; _ } -> msg = msg'
      | Ok _ | Error _ -> false)

let suite =
  [
    Alcotest.test_case "configuration message roundtrips" `Quick
      test_codec_roundtrip;
    Alcotest.test_case "supervision message roundtrips" `Quick
      test_supervision_codec_roundtrip;
    Alcotest.test_case "client/server ack flow" `Quick test_client_server_ack;
    Alcotest.test_case "retransmission and dedup" `Quick test_retransmit_and_dedup;
    Alcotest.test_case "ack cancels the retransmit timer" `Quick
      test_ack_cancels_timer;
    Alcotest.test_case "backoff cap parks the frame, revival resends" `Quick
      test_backoff_cap_and_give_up;
    Alcotest.test_case "heartbeats detect dead and revived peer" `Quick
      test_heartbeat_detects_dead_and_revived_peer;
    Alcotest.test_case "server restart triggers anti-entropy snapshot" `Quick
      test_server_restart_triggers_snapshot;
    Alcotest.test_case "client restart bumps epoch and resyncs" `Quick
      test_client_restart_bumps_epoch;
    Alcotest.test_case "legacy mode loses messages on restart" `Quick
      test_legacy_restart_loses_messages;
    Alcotest.test_case "sequence numbers survive int32 wraparound" `Quick
      test_seq_wraparound;
    Alcotest.test_case "framer rejects corrupt length" `Quick
      test_rejects_corrupt_length;
    Alcotest.test_case "one corrupt frame costs one frame, not the session"
      `Quick test_corrupt_frame_costs_one_frame;
    QCheck_alcotest.to_alcotest prop_link_up_roundtrip;
  ]
