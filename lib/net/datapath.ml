open Rf_packet
open Rf_openflow

type port = {
  port_no : int;
  mac : Mac.t;
  mutable up : bool;
  mutable transmit : (string -> unit) option;
  mutable rx_packets : int64;
  mutable tx_packets : int64;
  mutable rx_bytes : int64;
  mutable tx_bytes : int64;
  mutable rx_dropped : int64;
  mutable tx_dropped : int64;
}

type t = {
  engine : Rf_sim.Engine.t;
  dpid : int64;
  entity : Rf_obs.Profiler.entity;
  ports : port array;  (** index 0 = port 1 *)
  table : Flow_table.t;
  buffers : (int32, int * string) Hashtbl.t;  (** id -> (in_port, frame) *)
  mutable buffer_order : int32 list;  (** oldest last *)
  mutable next_buffer : int32;
  mutable miss_send_len : int;
  mutable on_packet_in : Of_msg.packet_in -> unit;
  mutable on_flow_removed : Of_msg.flow_removed -> unit;
  mutable on_port_status : Of_msg.port_status_reason -> Of_msg.phys_port -> unit;
  mutable on_table_changed : unit -> unit;
  mutable forwarded : int;
  mutable missed : int;
  mutable dropped : int;
}

let max_buffers = 256

let port_desc (p : port) =
  {
    Of_msg.port_no = p.port_no;
    hw_addr = p.mac;
    name = Printf.sprintf "eth%d" p.port_no;
    up = p.up;
  }

let create engine ~dpid ~n_ports =
  if n_ports < 1 || n_ports > Of_port.max_physical then
    invalid_arg "Datapath.create: bad port count";
  let mk i =
    {
      port_no = i + 1;
      mac = Mac.make_local ((Int64.to_int dpid lsl 12) lor (i + 1));
      up = true;
      transmit = None;
      rx_packets = 0L;
      tx_packets = 0L;
      rx_bytes = 0L;
      tx_bytes = 0L;
      rx_dropped = 0L;
      tx_dropped = 0L;
    }
  in
  let t =
    {
      engine;
      dpid;
      entity = Rf_obs.Profiler.switch dpid;
      ports = Array.init n_ports mk;
      table = Flow_table.create ();
      buffers = Hashtbl.create 64;
      buffer_order = [];
      next_buffer = 1l;
      miss_send_len = 128;
      on_packet_in = (fun _ -> ());
      on_flow_removed = (fun _ -> ());
      on_port_status = (fun _ _ -> ());
      on_table_changed = (fun () -> ());
      forwarded = 0;
      missed = 0;
      dropped = 0;
    }
  in
  let expiry () =
    let now = Rf_sim.Engine.now engine in
    let removed = Flow_table.expire t.table ~now in
    List.iter
      (fun ((e : Flow_table.entry), reason) ->
        if e.Flow_table.e_notify_removed then
          t.on_flow_removed
            {
              Of_msg.fr_match = e.Flow_table.e_match;
              fr_cookie = e.Flow_table.e_cookie;
              fr_priority = e.Flow_table.e_priority;
              fr_reason =
                (match reason with
                | Flow_table.Expired_idle -> Of_msg.Removed_idle
                | Flow_table.Expired_hard -> Of_msg.Removed_hard
                | Flow_table.Deleted -> Of_msg.Removed_delete);
              fr_duration_s =
                int_of_float
                  (Rf_sim.Vtime.span_to_s
                     (Rf_sim.Vtime.diff now e.Flow_table.e_installed));
              fr_packet_count = e.Flow_table.e_packets;
              fr_byte_count = e.Flow_table.e_bytes;
            })
      removed;
    if removed <> [] then t.on_table_changed ()
  in
  ignore
    (Rf_sim.Engine.periodic ~entity:t.entity engine (Rf_sim.Vtime.span_s 1.0)
       expiry);
  t

let dpid t = t.dpid

let entity t = t.entity

let engine t = t.engine

let n_ports t = Array.length t.ports

let get_port t n =
  if n < 1 || n > Array.length t.ports then None else Some t.ports.(n - 1)

let port_mac t n =
  match get_port t n with
  | Some p -> p.mac
  | None -> invalid_arg "Datapath.port_mac"

let port_up t n = match get_port t n with Some p -> p.up | None -> false

let set_port_up t n up =
  match get_port t n with
  | None -> invalid_arg "Datapath.set_port_up"
  | Some p ->
      if p.up <> up then begin
        p.up <- up;
        t.on_port_status Of_msg.Port_modify (port_desc p)
      end

let set_transmit t ~port f =
  match get_port t port with
  | None -> invalid_arg "Datapath.set_transmit"
  | Some p -> p.transmit <- Some f

let flow_table t = t.table

let miss_send_len t = t.miss_send_len

let set_miss_send_len t len = t.miss_send_len <- max 0 (min 65535 len)

let features t =
  {
    Of_msg.datapath_id = t.dpid;
    n_buffers = Int32.of_int max_buffers;
    n_tables = 1;
    capabilities = 0x00000001l (* FLOW_STATS *);
    supported_actions = 0x07FFl;
    ports = Array.to_list (Array.map port_desc t.ports);
  }

let set_on_packet_in t f = t.on_packet_in <- f

let set_on_flow_removed t f = t.on_flow_removed <- f

let set_on_port_status t f = t.on_port_status <- f

let set_on_table_changed t f = t.on_table_changed <- f

let packets_forwarded t = t.forwarded

let packets_missed t = t.missed

let packets_dropped t = t.dropped

(* --- frame surgery for the set-field actions -------------------- *)

let eth_header_len = 14

let ip_header_offset = eth_header_len

let has_ipv4 frame =
  String.length frame >= eth_header_len + 20
  && (Char.code frame.[12] lsl 8) lor Char.code frame.[13]
     = Ethernet.ethertype_ipv4

let refresh_ip_checksum b =
  let ihl = (Char.code (Bytes.get b ip_header_offset) land 0xF) * 4 in
  Bytes.set b (ip_header_offset + 10) '\000';
  Bytes.set b (ip_header_offset + 11) '\000';
  let header = Bytes.sub_string b ip_header_offset ihl in
  let csum = Wire.checksum header in
  Bytes.set b (ip_header_offset + 10) (Char.chr (csum lsr 8));
  Bytes.set b (ip_header_offset + 11) (Char.chr (csum land 0xff))

let set_mac b off mac = Bytes.blit_string (Mac.to_bytes mac) 0 b off 6

let set_ip_field frame_bytes off addr =
  let v = Ipv4_addr.to_int32 addr in
  for i = 0 to 3 do
    Bytes.set frame_bytes (off + i)
      (Char.chr
         (Int32.to_int (Int32.shift_right_logical v (8 * (3 - i))) land 0xff))
  done

let l4_offset frame_bytes =
  ip_header_offset
  + ((Char.code (Bytes.get frame_bytes ip_header_offset) land 0xF) * 4)

let apply_set_field frame action =
  match action with
  | Of_action.Output _ -> frame
  | Of_action.Strip_vlan -> frame (* frames in this simulator are untagged *)
  | Of_action.Set_dl_src mac ->
      let b = Bytes.of_string frame in
      set_mac b 6 mac;
      Bytes.to_string b
  | Of_action.Set_dl_dst mac ->
      let b = Bytes.of_string frame in
      set_mac b 0 mac;
      Bytes.to_string b
  | Of_action.Set_nw_src addr when has_ipv4 frame ->
      let b = Bytes.of_string frame in
      set_ip_field b (ip_header_offset + 12) addr;
      refresh_ip_checksum b;
      Bytes.to_string b
  | Of_action.Set_nw_dst addr when has_ipv4 frame ->
      let b = Bytes.of_string frame in
      set_ip_field b (ip_header_offset + 16) addr;
      refresh_ip_checksum b;
      Bytes.to_string b
  | Of_action.Set_nw_tos tos when has_ipv4 frame ->
      let b = Bytes.of_string frame in
      Bytes.set b (ip_header_offset + 1) (Char.chr (tos land 0xff));
      refresh_ip_checksum b;
      Bytes.to_string b
  | Of_action.Set_tp_src port when has_ipv4 frame ->
      let b = Bytes.of_string frame in
      let off = l4_offset b in
      if Bytes.length b >= off + 2 then begin
        Bytes.set b off (Char.chr (port lsr 8));
        Bytes.set b (off + 1) (Char.chr (port land 0xff))
      end;
      Bytes.to_string b
  | Of_action.Set_tp_dst port when has_ipv4 frame ->
      let b = Bytes.of_string frame in
      let off = l4_offset b + 2 in
      if Bytes.length b >= off + 2 then begin
        Bytes.set b off (Char.chr (port lsr 8));
        Bytes.set b (off + 1) (Char.chr (port land 0xff))
      end;
      Bytes.to_string b
  | Of_action.Set_nw_src _ | Of_action.Set_nw_dst _ | Of_action.Set_nw_tos _
  | Of_action.Set_tp_src _ | Of_action.Set_tp_dst _ ->
      frame

(* --- buffering --------------------------------------------------- *)

let store_buffer t ~in_port frame =
  if Hashtbl.length t.buffers >= max_buffers then begin
    match List.rev t.buffer_order with
    | oldest :: _ ->
        Hashtbl.remove t.buffers oldest;
        t.buffer_order <-
          List.filter (fun id -> not (Int32.equal id oldest)) t.buffer_order;
        t.dropped <- t.dropped + 1
    | [] -> ()
  end;
  let id = t.next_buffer in
  t.next_buffer <- Int32.add t.next_buffer 1l;
  Hashtbl.replace t.buffers id (in_port, frame);
  t.buffer_order <- id :: t.buffer_order;
  id

let take_buffer t id =
  match Hashtbl.find_opt t.buffers id with
  | Some v ->
      Hashtbl.remove t.buffers id;
      t.buffer_order <-
        List.filter (fun i -> not (Int32.equal i id)) t.buffer_order;
      Some v
  | None -> None

(* --- forwarding --------------------------------------------------- *)

let transmit_on _t (p : port) frame =
  if p.up then begin
    match p.transmit with
    | Some f ->
        p.tx_packets <- Int64.succ p.tx_packets;
        p.tx_bytes <- Int64.add p.tx_bytes (Int64.of_int (String.length frame));
        f frame
    | None -> p.tx_dropped <- Int64.succ p.tx_dropped
  end
  else p.tx_dropped <- Int64.succ p.tx_dropped

let emit_packet_in t ~in_port ~reason frame =
  let total_len = String.length frame in
  let buffer_id, data =
    if total_len <= t.miss_send_len then (None, frame)
    else
      let id = store_buffer t ~in_port frame in
      (Some id, String.sub frame 0 t.miss_send_len)
  in
  t.on_packet_in
    {
      Of_msg.pi_buffer_id = buffer_id;
      pi_total_len = total_len;
      pi_in_port = in_port;
      pi_reason = reason;
      pi_data = data;
    }

let rec apply_actions t ~in_port frame actions =
  match actions with
  | [] -> ()
  | action :: rest -> (
      match action with
      | Of_action.Output { port; _ } ->
          output t ~in_port frame port;
          apply_actions t ~in_port frame rest
      | Of_action.Set_dl_src _ | Of_action.Set_dl_dst _ | Of_action.Set_nw_src _
      | Of_action.Set_nw_dst _ | Of_action.Set_nw_tos _ | Of_action.Set_tp_src _
      | Of_action.Set_tp_dst _ | Of_action.Strip_vlan ->
          apply_actions t ~in_port (apply_set_field frame action) rest)

and output t ~in_port frame port =
  if port = Of_port.flood || port = Of_port.all then
    (* Both exclude the ingress port; there is no STP in this model so
       FLOOD and ALL coincide. *)
    Array.iter
      (fun p -> if p.port_no <> in_port then transmit_on t p frame)
      t.ports
  else if port = Of_port.in_port then begin
    match get_port t in_port with
    | Some p -> transmit_on t p frame
    | None -> t.dropped <- t.dropped + 1
  end
  else if port = Of_port.controller then
    emit_packet_in t ~in_port ~reason:Of_msg.Action_to_controller frame
  else if Of_port.is_physical port then begin
    match get_port t port with
    | Some p -> transmit_on t p frame
    | None -> t.dropped <- t.dropped + 1
  end
  else (* TABLE / NORMAL / LOCAL / NONE: not forwarded in this model *)
    t.dropped <- t.dropped + 1

let receive_frame t ~in_port frame =
  match get_port t in_port with
  | None -> invalid_arg "Datapath.receive_frame: no such port"
  | Some p ->
      if not p.up then p.rx_dropped <- Int64.succ p.rx_dropped
      else begin
        p.rx_packets <- Int64.succ p.rx_packets;
        p.rx_bytes <- Int64.add p.rx_bytes (Int64.of_int (String.length frame));
        match Packet.parse frame with
        | Error _ ->
            p.rx_dropped <- Int64.succ p.rx_dropped;
            t.dropped <- t.dropped + 1
        | Ok pkt -> (
            let key = Of_match.key_of_packet ~in_port pkt in
            match Flow_table.lookup t.table key with
            | Some entry ->
                Flow_table.account entry
                  ~now:(Rf_sim.Engine.now t.engine)
                  ~bytes:(String.length frame);
                t.forwarded <- t.forwarded + 1;
                apply_actions t ~in_port frame entry.Flow_table.e_actions
            | None ->
                t.missed <- t.missed + 1;
                emit_packet_in t ~in_port ~reason:Of_msg.No_match frame)
      end

let handle_flow_mod t (fm : Of_msg.flow_mod) =
  let now = Rf_sim.Engine.now t.engine in
  match Flow_table.apply_flow_mod t.table ~now fm with
  | Error msg ->
      Error
        {
          Of_msg.err_type = Of_msg.error_flow_mod_failed;
          err_code = 0;
          err_data = msg;
        }
  | Ok removed ->
      List.iter
        (fun (e : Flow_table.entry) ->
          if e.Flow_table.e_notify_removed then
            t.on_flow_removed
              {
                Of_msg.fr_match = e.Flow_table.e_match;
                fr_cookie = e.Flow_table.e_cookie;
                fr_priority = e.Flow_table.e_priority;
                fr_reason = Of_msg.Removed_delete;
                fr_duration_s =
                  int_of_float
                    (Rf_sim.Vtime.span_to_s
                       (Rf_sim.Vtime.diff now e.Flow_table.e_installed));
                fr_packet_count = e.Flow_table.e_packets;
                fr_byte_count = e.Flow_table.e_bytes;
              })
        removed;
      (match (fm.fm_command, fm.fm_buffer_id) with
      | Of_msg.Add, Some buffer | Of_msg.Modify, Some buffer -> (
          match take_buffer t buffer with
          | Some (in_port, frame) ->
              apply_actions t ~in_port frame fm.fm_actions
          | None -> ())
      | (Of_msg.Add | Of_msg.Modify | Of_msg.Modify_strict | Of_msg.Delete
        | Of_msg.Delete_strict), (Some _ | None) ->
          ());
      t.on_table_changed ();
      Ok ()

let handle_packet_out t (po : Of_msg.packet_out) =
  let frame =
    match po.po_buffer_id with
    | Some id -> (
        match take_buffer t id with
        | Some (_, frame) -> Some frame
        | None -> None)
    | None -> Some po.po_data
  in
  match frame with
  | None ->
      Error
        {
          Of_msg.err_type = Of_msg.error_bad_request;
          err_code = 8 (* OFPBRC_BUFFER_UNKNOWN *);
          err_data = "";
        }
  | Some frame ->
      apply_actions t ~in_port:po.po_in_port frame po.po_actions;
      Ok ()

let flow_stats t ~match_ ~out_port =
  Flow_table.stats t.table ~match_ ~out_port ~now:(Rf_sim.Engine.now t.engine)

let port_stats t ~port =
  let stat (p : port) =
    {
      Of_msg.ps_port_no = p.port_no;
      ps_rx_packets = p.rx_packets;
      ps_tx_packets = p.tx_packets;
      ps_rx_bytes = p.rx_bytes;
      ps_tx_bytes = p.tx_bytes;
      ps_rx_dropped = p.rx_dropped;
      ps_tx_dropped = p.tx_dropped;
    }
  in
  if port = Of_port.none then Array.to_list (Array.map stat t.ports)
  else match get_port t port with Some p -> [ stat p ] | None -> []
