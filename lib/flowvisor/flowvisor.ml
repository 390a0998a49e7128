open Rf_openflow
module Of_conn = Rf_controller.Of_conn

type slice_state = {
  def : Flowspace.t;
  attach : dpid:int64 -> Rf_net.Channel.endpoint -> unit;
  to_slice : Rf_obs.Metrics.counter;
  from_slice : Rf_obs.Metrics.counter;
  denied : Rf_obs.Metrics.counter;
}

(* The translation of one xid FlowVisor issued toward the switch: which
   slice sent the request, under which xid of its own. *)
type xid_slot = {
  mutable x_xid : int;  (* switch-side xid; [free_slot] when empty *)
  mutable x_slice : string;
  mutable x_orig : int;
}

type switch_state = {
  sw_conn : Of_conn.t;
  features : Of_msg.features;
  slice_conns : (string, Rf_net.Channel.endpoint) Hashtbl.t;
      (** FlowVisor's end of each slice's impersonated connection *)
  xid_ring : xid_slot array;
  mutable next_xid : int;
}

type t = {
  engine : Rf_sim.Engine.t;
  mutable slice_list : slice_state list;  (** registration order *)
  switches : (int64, switch_state) Hashtbl.t;
  mutable on_flow_mod :
    dpid:int64 ->
    slice:string ->
    Of_msg.flow_mod_command ->
    Of_match.t ->
    priority:int ->
    unit;
}

let create engine =
  {
    engine;
    slice_list = [];
    switches = Hashtbl.create 64;
    on_flow_mod = (fun ~dpid:_ ~slice:_ _ _ ~priority:_ -> ());
  }

let set_on_flow_mod t f = t.on_flow_mod <- f

let add_slice t def ~attach =
  let m = Rf_sim.Engine.metrics t.engine in
  let labels = [ ("slice", def.Flowspace.fs_name) ] in
  let slice =
    {
      def;
      attach;
      to_slice =
        Rf_obs.Metrics.counter m ~labels
          ~help:"Messages relayed from switches into a slice controller"
          "fv_to_slice_total";
      from_slice =
        Rf_obs.Metrics.counter m ~labels
          ~help:"Messages received from a slice controller"
          "fv_from_slice_total";
      denied =
        Rf_obs.Metrics.counter m ~labels
          ~help:"Slice messages denied by flowspace policy" "fv_denied_total";
    }
  in
  t.slice_list <- t.slice_list @ [ slice ]

let slice_named t name =
  List.find_opt (fun s -> String.equal s.def.Flowspace.fs_name name) t.slice_list

(* Relays are the bytes FlowVisor received; only its own answers are
   encoded here. *)
let relay_to_slice slice conn wire =
  Rf_obs.Metrics.incr slice.to_slice;
  Rf_net.Channel.send conn wire

let send_to_slice slice conn m = relay_to_slice slice conn (Of_codec.to_wire m)

(* Xids are 32-bit, kept as unsigned ints. *)
let fresh_xid sw =
  sw.next_xid <- (sw.next_xid + 1) land 0xFFFFFFFF;
  sw.next_xid

(* Most forwarded messages (flow-mods, packet-outs) are never answered,
   so translations live in a ring indexed by the sequential xid: slot
   [xid mod xid_ring_size], overwritten [xid_ring_size] requests later.
   A reply comes back within a round trip, long before that. *)
let xid_ring_size = 512

let free_slot = min_int

let new_xid_ring () =
  Array.init xid_ring_size (fun _ ->
      { x_xid = free_slot; x_slice = ""; x_orig = 0 })

let xid_slot sw xid = sw.xid_ring.(xid land (xid_ring_size - 1))

(* Forward a controller-originated request to the switch as the bytes
   the slice sent with only the xid rewritten, remembering which slice
   and original xid a reply must return to. *)
let forward_to_switch sw ~slice_name wire =
  let xid = fresh_xid sw in
  let slot = xid_slot sw xid in
  slot.x_xid <- xid;
  slot.x_slice <- slice_name;
  slot.x_orig <- Of_codec.xid wire;
  Of_conn.send_wire sw.sw_conn (Of_codec.with_xid wire xid)

let classify_frame t frame ~in_port =
  match Of_match.key_of_frame ~in_port frame with
  | None -> None
  | Some key ->
      List.find_opt (fun s -> Flowspace.owns_key s.def key) t.slice_list

(* Denials answer under the slice's xid, read from its bytes. *)
let eperm_flow_mod wire =
  Of_msg.msg ~xid:(Int32.of_int (Of_codec.xid wire))
    (Of_msg.Error
       {
         err_type = Of_msg.error_flow_mod_failed;
         err_code = 6 (* OFPFMFC_EPERM *);
         err_data = "flowvisor: match outside slice flowspace";
       })

let eperm_packet_out wire =
  Of_msg.msg ~xid:(Int32.of_int (Of_codec.xid wire))
    (Of_msg.Error
       {
         err_type = Of_msg.error_bad_request;
         err_code = 4 (* OFPBRC_EPERM *);
         err_data = "flowvisor: packet outside slice flowspace";
       })

let police_flow_mod t sw slice conn wire command fm_match ~priority =
  if Flowspace.permits_match slice.def fm_match then begin
    t.on_flow_mod ~dpid:sw.features.Of_msg.datapath_id
      ~slice:slice.def.Flowspace.fs_name command fm_match ~priority;
    forward_to_switch sw ~slice_name:slice.def.Flowspace.fs_name wire
  end
  else begin
    Rf_obs.Metrics.incr slice.denied;
    send_to_slice slice conn (eperm_flow_mod wire)
  end

let police_packet_out sw slice conn wire key ~buffered =
  let allowed =
    match key with
    | None -> buffered
    | Some key -> Flowspace.owns_key slice.def key
  in
  if allowed then
    forward_to_switch sw ~slice_name:slice.def.Flowspace.fs_name wire
  else begin
    Rf_obs.Metrics.incr slice.denied;
    send_to_slice slice conn (eperm_packet_out wire)
  end

let handle_from_slice t sw slice conn wire (view : Of_codec.peek) =
  Rf_obs.Metrics.incr slice.from_slice;
  match view with
  | Of_codec.Flow_mod_head { command; fm_match; priority } ->
      police_flow_mod t sw slice conn wire command fm_match ~priority
  | Of_codec.Packet_out_key (key, buffered) ->
      police_packet_out sw slice conn wire key ~buffered
  | Of_codec.Message m -> (
      let reply msg = send_to_slice slice conn msg in
      match m.payload with
      | Of_msg.Hello -> ()
      | Of_msg.Echo_request data ->
          reply (Of_msg.msg ~xid:m.xid (Of_msg.Echo_reply data))
      | Of_msg.Echo_reply _ -> ()
      | Of_msg.Features_request ->
          reply (Of_msg.msg ~xid:m.xid (Of_msg.Features_reply sw.features))
      | Of_msg.Get_config_request ->
          reply
            (Of_msg.msg ~xid:m.xid
               (Of_msg.Get_config_reply { flags = 0; miss_send_len = 128 }))
      | Of_msg.Set_config _ ->
          (* Pass through: slices sharing a switch share its
             miss_send_len; the RouteFlow slice raises it to get whole
             frames relayed. *)
          forward_to_switch sw ~slice_name:slice.def.Flowspace.fs_name wire
      | Of_msg.Stats_request _ | Of_msg.Barrier_request ->
          forward_to_switch sw ~slice_name:slice.def.Flowspace.fs_name wire
      | Of_msg.Port_mod _ ->
          (* Port state is shared by every slice; FlowVisor denies it. *)
          Rf_obs.Metrics.incr slice.denied;
          reply
            (Of_msg.msg ~xid:m.xid
               (Of_msg.Error
                  {
                    err_type = 4 (* PORT_MOD_FAILED *);
                    err_code = 1 (* EPERM *);
                    err_data = "flowvisor: port-mod not permitted";
                  }))
      | Of_msg.Vendor _ ->
          reply
            (Of_msg.msg ~xid:m.xid
               (Of_msg.Error
                  {
                    err_type = Of_msg.error_bad_request;
                    err_code = 3;
                    err_data = "";
                  }))
      | Of_msg.Error _ | Of_msg.Features_reply _ | Of_msg.Get_config_reply _
      | Of_msg.Packet_in _ | Of_msg.Flow_removed _ | Of_msg.Port_status _
      | Of_msg.Stats_reply _ | Of_msg.Barrier_reply ->
          ()
      | Of_msg.Flow_mod _ | Of_msg.Packet_out _ ->
          (* [peek] never decodes these in full. *)
          ())

(* What FlowVisor reads of a slice's flow-mod or packet-out is what its
   policy and [on_flow_mod] need: see {!Of_codec.peek}. *)
let receive_from_slice t sw slice conn wire =
  match Of_codec.peek wire with
  | Ok view -> handle_from_slice t sw slice conn wire view
  | Error e ->
      Rf_sim.Engine.record t.engine ~component:"flowvisor"
        ~event:"decode-error" e;
      Rf_net.Channel.close conn

let broadcast_to_slices t sw wire =
  Hashtbl.iter
    (fun name conn ->
      match slice_named t name with
      | Some slice -> relay_to_slice slice conn wire
      | None -> ())
    sw.slice_conns

(* Toward a slice FlowVisor relays the switch's bytes unchanged, or with
   a reply's xid translated back. *)
let handle_from_switch t sw (m : Of_msg.t) wire =
  match m.payload with
  | Of_msg.Packet_in pi -> (
      match classify_frame t pi.pi_data ~in_port:pi.pi_in_port with
      | Some slice -> (
          match Hashtbl.find_opt sw.slice_conns slice.def.Flowspace.fs_name with
          | Some conn -> relay_to_slice slice conn wire
          | None -> ())
      | None -> ())
  | Of_msg.Flow_removed fr -> (
      let owner =
        List.find_opt
          (fun s -> Flowspace.permits_match s.def fr.fr_match)
          t.slice_list
      in
      match owner with
      | Some slice -> (
          match Hashtbl.find_opt sw.slice_conns slice.def.Flowspace.fs_name with
          | Some conn -> relay_to_slice slice conn wire
          | None -> ())
      | None -> ())
  | Of_msg.Port_status _ -> broadcast_to_slices t sw wire
  | Of_msg.Error _ | Of_msg.Stats_reply _ | Of_msg.Barrier_reply ->
      let xid = Of_codec.xid wire in
      let slot = xid_slot sw xid in
      if slot.x_xid = xid then begin
        let slice_name = slot.x_slice and orig_xid = slot.x_orig in
        (match m.payload with
        | Of_msg.Error _ -> () (* keep mapping: stats may still reply *)
        | Of_msg.Stats_reply _ | Of_msg.Barrier_reply -> slot.x_xid <- free_slot
        | Of_msg.Hello | Of_msg.Echo_request _ | Of_msg.Echo_reply _
        | Of_msg.Vendor _ | Of_msg.Features_request | Of_msg.Features_reply _
        | Of_msg.Get_config_request | Of_msg.Get_config_reply _
        | Of_msg.Set_config _ | Of_msg.Packet_in _ | Of_msg.Flow_removed _
        | Of_msg.Port_status _ | Of_msg.Packet_out _ | Of_msg.Flow_mod _
        | Of_msg.Port_mod _ | Of_msg.Stats_request _ | Of_msg.Barrier_request ->
            ());
        match
          (slice_named t slice_name, Hashtbl.find_opt sw.slice_conns slice_name)
        with
        | Some slice, Some conn ->
            relay_to_slice slice conn (Of_codec.with_xid wire orig_xid)
        | (Some _ | None), (Some _ | None) -> ()
      end
  | Of_msg.Hello | Of_msg.Echo_request _ | Of_msg.Echo_reply _ | Of_msg.Vendor _
  | Of_msg.Features_request | Of_msg.Features_reply _ | Of_msg.Get_config_request
  | Of_msg.Get_config_reply _ | Of_msg.Set_config _ | Of_msg.Packet_out _
  | Of_msg.Flow_mod _ | Of_msg.Port_mod _ | Of_msg.Stats_request _
  | Of_msg.Barrier_request ->
      ()

let switch_attach t ~dpid endpoint =
  let tracer = Rf_sim.Engine.tracer t.engine in
  (* The root of this switch's configuration span tree: opened the
     instant the switch reaches the slicer, closed when its VM's
     Quagga config has been applied. *)
  Rf_obs.Phase.start tracer Configure dpid;
  Rf_obs.Phase.start tracer Discovery dpid;
  let conn = Of_conn.create t.engine endpoint in
  Of_conn.set_on_handshake conn (fun features ->
      let dpid = features.Of_msg.datapath_id in
      let sw =
        {
          sw_conn = conn;
          features;
          slice_conns = Hashtbl.create 4;
          xid_ring = new_xid_ring ();
          next_xid = 0x40000000;
        }
      in
      Hashtbl.replace t.switches dpid sw;
      Of_conn.set_on_message conn (handle_from_switch t sw);
      (* A switch disconnect tears down its impersonated connection in
         every slice, so slice controllers observe the loss. *)
      Of_conn.set_on_close conn (fun () ->
          Hashtbl.iter
            (fun _ fv_end -> Rf_net.Channel.close fv_end)
            sw.slice_conns;
          Hashtbl.remove t.switches dpid;
          (* A mid-configuration disconnect aborts whatever phase
             spans are still open for this switch; a reconnect opens
             a fresh tree. *)
          Rf_obs.Phase.abort tracer dpid);
      (* One impersonated switch connection per slice. *)
      List.iter
        (fun slice ->
          let fv_end, ctl_end = Rf_net.Channel.create t.engine () in
          Hashtbl.replace sw.slice_conns slice.def.Flowspace.fs_name fv_end;
          Rf_net.Channel.set_receiver fv_end
            (receive_from_slice t sw slice fv_end);
          (* Behave like a switch: greet the slice controller. *)
          send_to_slice slice fv_end (Of_msg.msg ~xid:0l Of_msg.Hello);
          slice.attach ~dpid ctl_end)
        t.slice_list)

let slices t = List.map (fun s -> s.def.Flowspace.fs_name) t.slice_list

let switches_connected t =
  Hashtbl.fold (fun d _ acc -> d :: acc) t.switches []
  |> List.sort Int64.compare

let stat t name f =
  match slice_named t name with
  | Some s -> Rf_obs.Metrics.counter_value (f s)
  | None -> 0

let messages_to_slice t name = stat t name (fun s -> s.to_slice)

let messages_from_slice t name = stat t name (fun s -> s.from_slice)

let denied_flow_mods t name = stat t name (fun s -> s.denied)
