open Rf_openflow

type role = Master | Slave

type t = {
  engine : Rf_sim.Engine.t;
  chan : Rf_net.Channel.endpoint;
  mutable next_xid : int32;
  mutable features : Of_msg.features option;
  mutable handshake_done : bool;
  mutable on_handshake : Of_msg.features -> unit;
  mutable on_message : Of_msg.t -> string -> unit;
  mutable faults : (Rf_sim.Rng.t * Rf_sim.Faults.chan_profile) option;
  mutable role : role;
  mutable msgs_dropped : int;
  mutable msgs_duplicated : int;
  mutable msgs_delayed : int;
  m_sent : Rf_obs.Metrics.counter;
  m_faulted : Rf_obs.Metrics.counter;
  entity : Rf_obs.Profiler.entity;
}

let fresh_xid t =
  t.next_xid <- Int32.add t.next_xid 1l;
  t.next_xid

let raw_send t wire =
  Rf_obs.Metrics.incr t.m_sent;
  Rf_net.Channel.send t.chan wire

(* Faults apply per message, never to part of one. The handshake
   openers are exempt from drop and duplication — there is no
   application-level retry for them, and the lossy profile models an
   overloaded channel, not a broken TCP — but they can still be
   delayed. *)
let hello_code = Of_msg.type_code Of_msg.Hello

let features_request_code = Of_msg.type_code Of_msg.Features_request

let send_wire t wire =
  let code = Of_codec.msg_type wire in
  let record event =
    Rf_obs.Metrics.incr t.m_faulted;
    Rf_sim.Engine.record t.engine ~component:"of-conn" ~event
      (Of_msg.type_code_name code)
  in
  match
    Rf_sim.Faults.transmit t.engine ~entity:t.entity
      ~exempt:(code = hello_code || code = features_request_code)
      t.faults
      (fun () -> raw_send t wire)
  with
  | Rf_sim.Faults.Deliver -> ()
  | Rf_sim.Faults.Drop ->
      t.msgs_dropped <- t.msgs_dropped + 1;
      record "fault-drop"
  | Rf_sim.Faults.Duplicate ->
      t.msgs_duplicated <- t.msgs_duplicated + 1;
      record "fault-duplicate"
  | Rf_sim.Faults.Delay _ ->
      t.msgs_delayed <- t.msgs_delayed + 1;
      Rf_obs.Metrics.incr t.m_faulted

let send_msg t m = send_wire t (Of_codec.to_wire m)

(* OFPP 1.2-style role filtering: a slave controller keeps its channel
   (handshake, echo replies) but must not mutate switch state or emit packets.
   Standby cluster replicas hold their connections in this role. *)
let state_changing (payload : Of_msg.payload) =
  match payload with
  | Of_msg.Flow_mod _ | Of_msg.Packet_out _ -> true
  | _ -> false

let send t payload =
  let xid = fresh_xid t in
  if t.role = Slave && state_changing payload then begin
    Rf_sim.Engine.record t.engine ~component:"of-conn" ~event:"slave-suppressed"
      (Of_msg.type_name payload)
  end
  else send_msg t (Of_msg.msg ~xid payload);
  xid

let handle t (m : Of_msg.t) wire =
  match m.payload with
  | Of_msg.Hello -> ignore (send t Of_msg.Features_request)
  | Of_msg.Echo_request data -> send_msg t (Of_msg.msg ~xid:m.xid (Of_msg.Echo_reply data))
  | Of_msg.Echo_reply _ -> ()
  | Of_msg.Features_reply f ->
      t.features <- Some f;
      if not t.handshake_done then begin
        t.handshake_done <- true;
        t.on_handshake f
      end
  | Of_msg.Error _ | Of_msg.Vendor _ | Of_msg.Features_request
  | Of_msg.Get_config_request | Of_msg.Get_config_reply _ | Of_msg.Set_config _
  | Of_msg.Packet_in _ | Of_msg.Flow_removed _ | Of_msg.Port_status _
  | Of_msg.Packet_out _ | Of_msg.Flow_mod _ | Of_msg.Port_mod _
  | Of_msg.Stats_request _ | Of_msg.Stats_reply _ | Of_msg.Barrier_request
  | Of_msg.Barrier_reply ->
      t.on_message m wire

let create engine chan =
  let t =
    {
      engine;
      chan;
      next_xid = 0l;
      features = None;
      handshake_done = false;
      on_handshake = (fun _ -> ());
      on_message = (fun _ _ -> ());
      faults = None;
      role = Master;
      msgs_dropped = 0;
      msgs_duplicated = 0;
      msgs_delayed = 0;
      m_sent =
        Rf_obs.Metrics.counter
          (Rf_sim.Engine.metrics engine)
          ~help:"OpenFlow messages sent over control channels"
          "of_messages_sent_total";
      m_faulted =
        Rf_obs.Metrics.counter
          (Rf_sim.Engine.metrics engine)
          ~help:"OpenFlow messages dropped/duplicated/delayed by faults"
          "of_messages_faulted_total";
      entity = Rf_obs.Profiler.component "of-conn";
    }
  in
  Rf_net.Channel.set_receiver chan (fun bytes ->
      match Of_codec.of_wire bytes with
      | Ok m -> handle t m bytes
      | Error e ->
          Rf_sim.Engine.record engine ~component:"of-conn" ~event:"decode-error" e;
          Rf_net.Channel.close chan);
  send_msg t (Of_msg.msg ~xid:0l Of_msg.Hello);
  t

let dpid t = Option.map (fun f -> f.Of_msg.datapath_id) t.features

let features t = t.features

let set_on_handshake t f =
  t.on_handshake <- f;
  match t.features with Some feats when t.handshake_done -> f feats | Some _ | None -> ()

let set_on_message t f = t.on_message <- f

let set_fault_profile t rng profile = t.faults <- Some (rng, profile)

let set_role t role = t.role <- role

let role t = t.role

let messages_dropped t = t.msgs_dropped

let messages_duplicated t = t.msgs_duplicated

let messages_delayed t = t.msgs_delayed

let set_on_close t f = Rf_net.Channel.set_on_close t.chan f

let is_open t = Rf_net.Channel.is_open t.chan

let close t = Rf_net.Channel.close t.chan

let packet_out t ?(in_port = Of_port.none) ~actions data =
  ignore
    (send t
       (Of_msg.Packet_out
          { po_buffer_id = None; po_in_port = in_port; po_actions = actions; po_data = data }))

let flow_mod t fm = ignore (send t (Of_msg.Flow_mod fm))
