open Rf_packet
open Rf_openflow

type port = {
  port_no : int;
  mac : Mac.t;
  mutable up : bool;
  mutable transmit : (string -> unit) option;
  mutable rx_packets : int;
  mutable tx_packets : int;
  mutable rx_bytes : int;
  mutable tx_bytes : int;
  mutable rx_dropped : int;
  mutable tx_dropped : int;
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
  mutable on_table_changed :
    left:Flow_table.entry list -> entered:Flow_table.entry list -> unit;
  mutable forwarded : int;
  mutable missed : int;
  born : Rf_sim.Vtime.t;  (** origin of the 1 s expiry grid *)
  mutable expiry_armed : bool;
}

let max_buffers = 256

let port_desc (p : port) =
  {
    Of_msg.port_no = p.port_no;
    hw_addr = p.mac;
    name = Printf.sprintf "eth%d" p.port_no;
    up = p.up;
  }

let notify_removed t ~now reason (e : Flow_table.entry) =
  if e.e_notify_removed then
    t.on_flow_removed
      {
        Of_msg.fr_match = e.e_match;
        fr_cookie = e.e_cookie;
        fr_priority = e.e_priority;
        fr_reason = reason;
        fr_duration_s =
          int_of_float
            (Rf_sim.Vtime.span_to_s (Rf_sim.Vtime.diff now e.e_installed));
        fr_packet_count = Int64.of_int e.e_packets;
        fr_byte_count = Int64.of_int e.e_bytes;
      }

(* The expiry tick runs only while the table holds a timed entry, on
   the 1 s grid from the switch's creation: armed for the first grid
   point after now, it re-arms itself until no timed entry is left. *)
let rec arm_expiry t =
  if (not t.expiry_armed) && Flow_table.timed_entries t.table > 0 then begin
    let second = 1_000_000 in
    let born = Rf_sim.Vtime.to_us t.born in
    let elapsed = Rf_sim.Vtime.to_us (Rf_sim.Engine.now t.engine) - born in
    let next = born + (((elapsed / second) + 1) * second) in
    t.expiry_armed <- true;
    ignore
      (Rf_sim.Engine.schedule_at ~entity:t.entity t.engine
         (Rf_sim.Vtime.of_us next) (fun () -> expiry_tick t))
  end

and expiry_tick t =
  let now = Rf_sim.Engine.now t.engine in
  let removed = Flow_table.expire t.table ~now in
  List.iter
    (fun (e, reason) ->
      notify_removed t ~now
        (match reason with
        | Flow_table.Expired_idle -> Of_msg.Removed_idle
        | Flow_table.Expired_hard -> Of_msg.Removed_hard)
        e)
    removed;
  if removed <> [] then
    t.on_table_changed ~left:(List.map fst removed) ~entered:[];
  t.expiry_armed <- false;
  arm_expiry t

let create engine ~dpid ~n_ports =
  if n_ports < 1 || n_ports > Of_port.max_physical then
    invalid_arg "Datapath.create: bad port count";
  let mk i =
    {
      port_no = i + 1;
      mac = Mac.make_local ((Int64.to_int dpid lsl 12) lor (i + 1));
      up = true;
      transmit = None;
      rx_packets = 0;
      tx_packets = 0;
      rx_bytes = 0;
      tx_bytes = 0;
      rx_dropped = 0;
      tx_dropped = 0;
    }
  in
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
    on_table_changed = (fun ~left:_ ~entered:_ -> ());
    forwarded = 0;
    missed = 0;
    born = Rf_sim.Engine.now engine;
    expiry_armed = false;
  }

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

(* --- frame surgery for the set-field actions -------------------- *)

let ip_header_offset = 14

let has_ipv4 b =
  Bytes.length b >= ip_header_offset + 20
  && Bytes.get_uint16_be b 12 = Ethernet.ethertype_ipv4

let ip_header_len b =
  (Char.code (Bytes.get b ip_header_offset) land 0xF) * 4

let refresh_ip_checksum b =
  Bytes.set_uint16_be b (ip_header_offset + 10) 0;
  Bytes.set_uint16_be b (ip_header_offset + 10)
    (Wire.checksum_sub (Bytes.unsafe_to_string b) ip_header_offset
       (ip_header_len b))

let set_port b off port =
  if Bytes.length b >= off + 2 then Bytes.set_uint16_be b off port

(* Applies one set-field action to the frame being rewritten. *)
let set_field b action =
  match action with
  | Of_action.Output _ -> ()
  | Of_action.Strip_vlan -> () (* frames in this simulator are untagged *)
  | Of_action.Set_dl_src mac -> Mac.set b 6 mac
  | Of_action.Set_dl_dst mac -> Mac.set b 0 mac
  | Of_action.Set_nw_src addr when has_ipv4 b ->
      Bytes.set_int32_be b (ip_header_offset + 12) (Ipv4_addr.to_int32 addr);
      refresh_ip_checksum b
  | Of_action.Set_nw_dst addr when has_ipv4 b ->
      Bytes.set_int32_be b (ip_header_offset + 16) (Ipv4_addr.to_int32 addr);
      refresh_ip_checksum b
  | Of_action.Set_nw_tos tos when has_ipv4 b ->
      Bytes.set_uint8 b (ip_header_offset + 1) (tos land 0xff);
      refresh_ip_checksum b
  | Of_action.Set_tp_src port when has_ipv4 b ->
      set_port b (ip_header_offset + ip_header_len b) port
  | Of_action.Set_tp_dst port when has_ipv4 b ->
      set_port b (ip_header_offset + ip_header_len b + 2) port
  | Of_action.Set_nw_src _ | Of_action.Set_nw_dst _ | Of_action.Set_nw_tos _
  | Of_action.Set_tp_src _ | Of_action.Set_tp_dst _ ->
      ()

(* Rewrites [b] by the run of set-field actions at the head of
   [actions]; returns the actions from the first output on. *)
let rec set_fields b actions =
  match actions with
  | Of_action.Output _ :: _ | [] -> actions
  | action :: rest ->
      set_field b action;
      set_fields b rest

(* --- buffering --------------------------------------------------- *)

let store_buffer t ~in_port frame =
  if Hashtbl.length t.buffers >= max_buffers then begin
    match List.rev t.buffer_order with
    | oldest :: _ ->
        Hashtbl.remove t.buffers oldest;
        t.buffer_order <-
          List.filter (fun id -> not (Int32.equal id oldest)) t.buffer_order
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
        p.tx_packets <- p.tx_packets + 1;
        p.tx_bytes <- p.tx_bytes + String.length frame;
        f frame
    | None -> p.tx_dropped <- p.tx_dropped + 1
  end
  else p.tx_dropped <- p.tx_dropped + 1

let transmit_to t n frame =
  if n >= 1 && n <= Array.length t.ports then transmit_on t t.ports.(n - 1) frame

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
          (* One copy per run of set-fields: the frame already handed
             to an earlier output must not change under it. *)
          let b = Bytes.of_string frame in
          let rest = set_fields b actions in
          apply_actions t ~in_port (Bytes.unsafe_to_string b) rest)

(* TABLE / NORMAL / LOCAL / NONE are not forwarded in this model. *)
and output t ~in_port frame port =
  if port = Of_port.flood || port = Of_port.all then
    (* Both exclude the ingress port; there is no STP in this model so
       FLOOD and ALL coincide. *)
    Array.iter
      (fun p -> if p.port_no <> in_port then transmit_on t p frame)
      t.ports
  else if port = Of_port.in_port then transmit_to t in_port frame
  else if port = Of_port.controller then
    emit_packet_in t ~in_port ~reason:Of_msg.Action_to_controller frame
  else if Of_port.is_physical port then transmit_to t port frame

let receive_frame t ~in_port frame =
  if in_port < 1 || in_port > Array.length t.ports then
    invalid_arg "Datapath.receive_frame: no such port";
  let p = t.ports.(in_port - 1) in
  if not p.up then p.rx_dropped <- p.rx_dropped + 1
  else begin
    p.rx_packets <- p.rx_packets + 1;
    p.rx_bytes <- p.rx_bytes + String.length frame;
    match Of_match.key_of_frame ~in_port frame with
    | None -> p.rx_dropped <- p.rx_dropped + 1
    | Some key -> (
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
  | Ok (left, entered) ->
      (match (fm.fm_command, fm.fm_buffer_id) with
      | (Of_msg.Add | Of_msg.Modify | Of_msg.Modify_strict), Some buffer -> (
          match take_buffer t buffer with
          | Some (in_port, frame) ->
              apply_actions t ~in_port frame fm.fm_actions
          | None -> ())
      | (Of_msg.Delete | Of_msg.Delete_strict), _ ->
          List.iter (notify_removed t ~now Of_msg.Removed_delete) left
      | (Of_msg.Add | Of_msg.Modify | Of_msg.Modify_strict), None -> ());
      arm_expiry t;
      t.on_table_changed ~left ~entered;
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
      ps_rx_packets = Int64.of_int p.rx_packets;
      ps_tx_packets = Int64.of_int p.tx_packets;
      ps_rx_bytes = Int64.of_int p.rx_bytes;
      ps_tx_bytes = Int64.of_int p.tx_bytes;
      ps_rx_dropped = Int64.of_int p.rx_dropped;
      ps_tx_dropped = Int64.of_int p.tx_dropped;
    }
  in
  if port = Of_port.none then Array.to_list (Array.map stat t.ports)
  else match get_port t port with Some p -> [ stat p ] | None -> []
