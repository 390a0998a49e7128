open Rf_openflow

type t = {
  engine : Rf_sim.Engine.t;
  dp : Datapath.t;
  chan : Channel.endpoint;
  mutable next_xid : int32;
}

let send t msg = Channel.send t.chan (Of_codec.to_wire msg)

let fresh_xid t =
  t.next_xid <- Int32.add t.next_xid 1l;
  t.next_xid

let send_event t payload = send t (Of_msg.msg ~xid:(fresh_xid t) payload)

let handle t (m : Of_msg.t) =
  let reply payload = send t (Of_msg.msg ~xid:m.xid payload) in
  match m.payload with
  | Of_msg.Hello -> ()
  | Of_msg.Echo_request data -> reply (Of_msg.Echo_reply data)
  | Of_msg.Echo_reply _ -> ()
  | Of_msg.Features_request -> reply (Of_msg.Features_reply (Datapath.features t.dp))
  | Of_msg.Get_config_request ->
      reply
        (Of_msg.Get_config_reply
           { flags = 0; miss_send_len = Datapath.miss_send_len t.dp })
  | Of_msg.Set_config { miss_send_len; _ } ->
      Datapath.set_miss_send_len t.dp miss_send_len
  | Of_msg.Flow_mod fm -> (
      match Datapath.handle_flow_mod t.dp fm with
      | Ok () -> ()
      | Error e -> reply (Of_msg.Error e))
  | Of_msg.Packet_out po -> (
      match Datapath.handle_packet_out t.dp po with
      | Ok () -> ()
      | Error e -> reply (Of_msg.Error e))
  | Of_msg.Port_mod { pm_port_no; pm_down; _ } ->
      if pm_port_no >= 1 && pm_port_no <= Datapath.n_ports t.dp then
        Datapath.set_port_up t.dp pm_port_no (not pm_down)
      else
        reply
          (Of_msg.Error
             {
               err_type = 4 (* OFPET_PORT_MOD_FAILED *);
               err_code = 0 (* OFPPMFC_BAD_PORT *);
               err_data = "";
             })
  | Of_msg.Barrier_request -> reply Of_msg.Barrier_reply
  | Of_msg.Stats_request Of_msg.Desc_req ->
      reply
        (Of_msg.Stats_reply
           (Of_msg.Desc_reply
              {
                manufacturer = "rf-sim";
                hardware = "emulated datapath";
                software = "rf_net (Open vSwitch 1.4 model)";
                serial = Printf.sprintf "dp-%Ld" (Datapath.dpid t.dp);
                datapath_desc = "";
              }))
  | Of_msg.Stats_request (Of_msg.Flow_req { qf_match; qf_out_port }) ->
      reply
        (Of_msg.Stats_reply
           (Of_msg.Flow_reply
              (Datapath.flow_stats t.dp ~match_:qf_match ~out_port:qf_out_port)))
  | Of_msg.Stats_request (Of_msg.Port_req port) ->
      reply (Of_msg.Stats_reply (Of_msg.Port_reply (Datapath.port_stats t.dp ~port)))
  | Of_msg.Vendor _ ->
      reply
        (Of_msg.Error
           {
             err_type = Of_msg.error_bad_request;
             err_code = 3 (* OFPBRC_BAD_VENDOR *);
             err_data = "";
           })
  | Of_msg.Error _ -> ()
  | Of_msg.Features_reply _ | Of_msg.Get_config_reply _ | Of_msg.Packet_in _
  | Of_msg.Flow_removed _ | Of_msg.Port_status _ | Of_msg.Stats_reply _
  | Of_msg.Barrier_reply ->
      (* Controller-to-switch direction never carries these. *)
      reply
        (Of_msg.Error
           {
             err_type = Of_msg.error_bad_request;
             err_code = 1 (* OFPBRC_BAD_TYPE *);
             err_data = "";
           })

let create engine dp chan =
  let t =
    {
      engine;
      dp;
      chan;
      next_xid = 0x10000l;
    }
  in
  Datapath.set_on_packet_in dp (fun pi -> send_event t (Of_msg.Packet_in pi));
  Datapath.set_on_flow_removed dp (fun fr -> send_event t (Of_msg.Flow_removed fr));
  Datapath.set_on_port_status dp (fun reason desc ->
      send_event t (Of_msg.Port_status { reason; desc }));
  Channel.set_receiver chan (fun bytes ->
      match Of_codec.of_wire bytes with
      | Ok m -> handle t m
      | Error e ->
          Rf_sim.Engine.record t.engine
            ~component:(Printf.sprintf "of-agent.%Ld" (Datapath.dpid dp))
            ~event:"decode-error" e;
          Channel.close chan);
  send t (Of_msg.msg ~xid:0l Of_msg.Hello);
  t

let disconnect t = Channel.close t.chan
