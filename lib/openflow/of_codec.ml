open Rf_packet
open Of_msg

let version = 0x01

let no_buffer = 0xFFFFFFFFl

let buffer_to_wire = function None -> no_buffer | Some b -> b

let buffer_of_int v =
  if v = 0xFFFFFFFF then None else Some (Int32.of_int v)

let encode_phys_port w (p : phys_port) =
  Wire.Writer.u16 w p.port_no;
  Mac.write w p.hw_addr;
  let name = if String.length p.name > 15 then String.sub p.name 0 15 else p.name in
  Wire.Writer.bytes w name;
  Wire.Writer.zeros w (16 - String.length name);
  Wire.Writer.u32 w 0l (* config *);
  Wire.Writer.u32 w (if p.up then 0l else 1l) (* state: bit0 = link down *);
  Wire.Writer.u32 w 0l (* curr *);
  Wire.Writer.u32 w 0l (* advertised *);
  Wire.Writer.u32 w 0l (* supported *);
  Wire.Writer.u32 w 0l (* peer *)

let decode_phys_port r =
  let port_no = Wire.Reader.u16 r in
  let hw_addr = Mac.read r in
  let raw_name = Wire.Reader.bytes r 16 in
  let name =
    match String.index_opt raw_name '\000' with
    | Some i -> String.sub raw_name 0 i
    | None -> raw_name
  in
  let _config = Wire.Reader.u32 r in
  let state = Wire.Reader.u32 r in
  Wire.Reader.skip r 16;
  { port_no; hw_addr; name; up = Int32.logand state 1l = 0l }

let fixed_string w len s =
  let s = if String.length s > len - 1 then String.sub s 0 (len - 1) else s in
  Wire.Writer.bytes w s;
  Wire.Writer.zeros w (len - String.length s)

let read_fixed_string r len =
  let raw = Wire.Reader.bytes r len in
  match String.index_opt raw '\000' with
  | Some i -> String.sub raw 0 i
  | None -> raw

let command_code = function
  | Add -> 0
  | Modify -> 1
  | Modify_strict -> 2
  | Delete -> 3
  | Delete_strict -> 4

let command_of_code = function
  | 0 -> Ok Add
  | 1 -> Ok Modify
  | 2 -> Ok Modify_strict
  | 3 -> Ok Delete
  | 4 -> Ok Delete_strict
  | n -> Stdlib.Error (Printf.sprintf "of_codec: bad flow-mod command %d" n)

let actions_size = List.fold_left (fun n a -> n + Of_action.size a) 0

let encode_body w = function
  | Hello | Features_request | Get_config_request | Barrier_request
  | Barrier_reply ->
      ()
  | Error e ->
      Wire.Writer.u16 w e.err_type;
      Wire.Writer.u16 w e.err_code;
      Wire.Writer.bytes w e.err_data
  | Echo_request data | Echo_reply data -> Wire.Writer.bytes w data
  | Vendor { vendor; data } ->
      Wire.Writer.u32 w vendor;
      Wire.Writer.bytes w data
  | Features_reply f ->
      Wire.Writer.u64 w f.datapath_id;
      Wire.Writer.u32 w f.n_buffers;
      Wire.Writer.u8 w f.n_tables;
      Wire.Writer.zeros w 3;
      Wire.Writer.u32 w f.capabilities;
      Wire.Writer.u32 w f.supported_actions;
      List.iter (encode_phys_port w) f.ports
  | Get_config_reply { flags; miss_send_len } | Set_config { flags; miss_send_len }
    ->
      Wire.Writer.u16 w flags;
      Wire.Writer.u16 w miss_send_len
  | Packet_in pi ->
      Wire.Writer.u32 w (buffer_to_wire pi.pi_buffer_id);
      Wire.Writer.u16 w pi.pi_total_len;
      Wire.Writer.u16 w pi.pi_in_port;
      Wire.Writer.u8 w
        (match pi.pi_reason with No_match -> 0 | Action_to_controller -> 1);
      Wire.Writer.u8 w 0;
      Wire.Writer.bytes w pi.pi_data
  | Flow_removed fr ->
      Of_match.write w fr.fr_match;
      Wire.Writer.u64 w fr.fr_cookie;
      Wire.Writer.u16 w fr.fr_priority;
      Wire.Writer.u8 w
        (match fr.fr_reason with
        | Removed_idle -> 0
        | Removed_hard -> 1
        | Removed_delete -> 2);
      Wire.Writer.u8 w 0;
      Wire.Writer.u32 w (Int32.of_int fr.fr_duration_s);
      Wire.Writer.u32 w 0l (* nsec *);
      Wire.Writer.u16 w 0 (* idle_timeout *);
      Wire.Writer.zeros w 2;
      Wire.Writer.u64 w fr.fr_packet_count;
      Wire.Writer.u64 w fr.fr_byte_count
  | Port_status { reason; desc } ->
      Wire.Writer.u8 w
        (match reason with Port_add -> 0 | Port_delete -> 1 | Port_modify -> 2);
      Wire.Writer.zeros w 7;
      encode_phys_port w desc
  | Packet_out po ->
      Wire.Writer.u32 w (buffer_to_wire po.po_buffer_id);
      Wire.Writer.u16 w po.po_in_port;
      Wire.Writer.u16 w (actions_size po.po_actions);
      Of_action.write_list w po.po_actions;
      Wire.Writer.bytes w po.po_data
  | Flow_mod fm ->
      Of_match.write w fm.fm_match;
      Wire.Writer.u64 w fm.fm_cookie;
      Wire.Writer.u16 w (command_code fm.fm_command);
      Wire.Writer.u16 w fm.fm_idle_timeout;
      Wire.Writer.u16 w fm.fm_hard_timeout;
      Wire.Writer.u16 w fm.fm_priority;
      Wire.Writer.u32 w (buffer_to_wire fm.fm_buffer_id);
      Wire.Writer.u16 w (Option.value fm.fm_out_port ~default:Of_port.none);
      Wire.Writer.u16 w (if fm.fm_notify_removed then 1 else 0);
      Of_action.write_list w fm.fm_actions
  | Port_mod { pm_port_no; pm_hw_addr; pm_down } ->
      Wire.Writer.u16 w pm_port_no;
      Mac.write w pm_hw_addr;
      Wire.Writer.u32 w (if pm_down then 1l else 0l) (* config *);
      Wire.Writer.u32 w 1l (* mask: PORT_DOWN *);
      Wire.Writer.u32 w 0l (* advertise *);
      Wire.Writer.zeros w 4
  | Stats_request req -> (
      match req with
      | Desc_req ->
          Wire.Writer.u16 w 0;
          Wire.Writer.u16 w 0
      | Flow_req { qf_match; qf_out_port } ->
          Wire.Writer.u16 w 1;
          Wire.Writer.u16 w 0;
          Of_match.write w qf_match;
          Wire.Writer.u8 w 0xff (* table: all *);
          Wire.Writer.u8 w 0;
          Wire.Writer.u16 w (Option.value qf_out_port ~default:Of_port.none)
      | Port_req port ->
          Wire.Writer.u16 w 4;
          Wire.Writer.u16 w 0;
          Wire.Writer.u16 w port;
          Wire.Writer.zeros w 6)
  | Stats_reply rep -> (
      match rep with
      | Desc_reply d ->
          Wire.Writer.u16 w 0;
          Wire.Writer.u16 w 0;
          fixed_string w 256 d.manufacturer;
          fixed_string w 256 d.hardware;
          fixed_string w 256 d.software;
          fixed_string w 32 d.serial;
          fixed_string w 256 d.datapath_desc
      | Flow_reply entries ->
          Wire.Writer.u16 w 1;
          Wire.Writer.u16 w 0;
          List.iter
            (fun fs ->
              Wire.Writer.u16 w (88 + actions_size fs.fs_actions);
              Wire.Writer.u8 w 0 (* table *);
              Wire.Writer.u8 w 0;
              Of_match.write w fs.fs_match;
              Wire.Writer.u32 w (Int32.of_int fs.fs_duration_s);
              Wire.Writer.u32 w 0l;
              Wire.Writer.u16 w fs.fs_priority;
              Wire.Writer.u16 w 0 (* idle *);
              Wire.Writer.u16 w 0 (* hard *);
              Wire.Writer.zeros w 6;
              Wire.Writer.u64 w fs.fs_cookie;
              Wire.Writer.u64 w fs.fs_packet_count;
              Wire.Writer.u64 w fs.fs_byte_count;
              Of_action.write_list w fs.fs_actions)
            entries
      | Port_reply entries ->
          Wire.Writer.u16 w 4;
          Wire.Writer.u16 w 0;
          List.iter
            (fun ps ->
              Wire.Writer.u16 w ps.ps_port_no;
              Wire.Writer.zeros w 6;
              Wire.Writer.u64 w ps.ps_rx_packets;
              Wire.Writer.u64 w ps.ps_tx_packets;
              Wire.Writer.u64 w ps.ps_rx_bytes;
              Wire.Writer.u64 w ps.ps_tx_bytes;
              Wire.Writer.u64 w ps.ps_rx_dropped;
              Wire.Writer.u64 w ps.ps_tx_dropped;
              (* rx_errors tx_errors rx_frame rx_over rx_crc collisions *)
              Wire.Writer.zeros w 48)
            entries)

(* The encoded length of the messages sent most, so that their one
   buffer never grows; others start at 64 bytes. *)
let capacity = function
  | Flow_mod fm -> 72 + actions_size fm.fm_actions
  | Packet_in pi -> 18 + String.length pi.pi_data
  | Packet_out po ->
      16 + actions_size po.po_actions + String.length po.po_data
  | Echo_request data | Echo_reply data -> 8 + String.length data
  | _ -> 64

(* The body is written after the header, whose length is patched once
   the body is in. *)
let to_wire t =
  let w = Wire.Writer.create ~initial:(capacity t.payload) () in
  Wire.Writer.u8 w version;
  Wire.Writer.u8 w (type_code t.payload);
  Wire.Writer.u16 w 0 (* length, patched below *);
  Wire.Writer.u32 w t.xid;
  encode_body w t.payload;
  Wire.Writer.patch_u16 w 2 (Wire.Writer.length w);
  Wire.Writer.contents w

let ( let* ) = Result.bind

let decode_flow_stats r =
  let rec loop acc =
    if Wire.Reader.remaining r < 88 then Ok (List.rev acc)
    else begin
      let length = Wire.Reader.u16 r in
      if length < 88 then Stdlib.Error "of_codec: flow stats entry too short"
      else begin
        let entry = Wire.Reader.sub r (length - 2) in
        let _table = Wire.Reader.u8 entry in
        Wire.Reader.skip entry 1;
        let* fs_match = Of_match.of_wire entry in
        let duration = Int32.to_int (Wire.Reader.u32 entry) in
        let _nsec = Wire.Reader.u32 entry in
        let fs_priority = Wire.Reader.u16 entry in
        let _idle = Wire.Reader.u16 entry in
        let _hard = Wire.Reader.u16 entry in
        Wire.Reader.skip entry 6;
        let fs_cookie = Wire.Reader.u64 entry in
        let fs_packet_count = Wire.Reader.u64 entry in
        let fs_byte_count = Wire.Reader.u64 entry in
        let* fs_actions = Of_action.list_of_wire entry in
        loop
          ({
             fs_match;
             fs_priority;
             fs_cookie;
             fs_duration_s = duration;
             fs_packet_count;
             fs_byte_count;
             fs_actions;
           }
          :: acc)
      end
    end
  in
  loop []

let decode_port_stats r =
  let rec loop acc =
    if Wire.Reader.remaining r < 104 then Ok (List.rev acc)
    else begin
      let ps_port_no = Wire.Reader.u16 r in
      Wire.Reader.skip r 6;
      let ps_rx_packets = Wire.Reader.u64 r in
      let ps_tx_packets = Wire.Reader.u64 r in
      let ps_rx_bytes = Wire.Reader.u64 r in
      let ps_tx_bytes = Wire.Reader.u64 r in
      let ps_rx_dropped = Wire.Reader.u64 r in
      let ps_tx_dropped = Wire.Reader.u64 r in
      Wire.Reader.skip r 48;
      loop
        ({
           ps_port_no;
           ps_rx_packets;
           ps_tx_packets;
           ps_rx_bytes;
           ps_tx_bytes;
           ps_rx_dropped;
           ps_tx_dropped;
         }
        :: acc)
    end
  in
  loop []

(* A flow-mod's fixed part, between the header and the actions, which
   are left unread: [k] gets its fields. {!decode_body} and {!peek} both
   read it here. *)
let flow_mod_fixed r k =
  match Of_match.of_wire r with
  | Stdlib.Error e -> Stdlib.Error e
  | Ok fm_match -> (
      let cookie = Wire.Reader.u64 r in
      let command = Wire.Reader.u16 r in
      let idle = Wire.Reader.u16 r in
      let hard = Wire.Reader.u16 r in
      let priority = Wire.Reader.u16 r in
      let buffer = Wire.Reader.u32_int r in
      let out_port = Wire.Reader.u16 r in
      let flags = Wire.Reader.u16 r in
      match command_of_code command with
      | Stdlib.Error e -> Stdlib.Error e
      | Ok command ->
          k ~fm_match ~cookie ~command ~idle ~hard ~priority ~buffer ~out_port
            ~flags)

(* A packet-out's fixed part: [k] gets its buffer, its in-port and a
   reader over its actions; the frame is the rest. *)
let packet_out_fixed r k =
  let buffer = Wire.Reader.u32_int r in
  let in_port = Wire.Reader.u16 r in
  let actions_len = Wire.Reader.u16 r in
  k ~buffer ~in_port (Wire.Reader.sub r actions_len)

let decode_body typ xid r =
  match typ with
  | 0 -> Ok (msg ~xid Hello)
  | 1 ->
      let err_type = Wire.Reader.u16 r in
      let err_code = Wire.Reader.u16 r in
      Ok (msg ~xid (Error { err_type; err_code; err_data = Wire.Reader.rest r }))
  | 2 -> Ok (msg ~xid (Echo_request (Wire.Reader.rest r)))
  | 3 -> Ok (msg ~xid (Echo_reply (Wire.Reader.rest r)))
  | 4 ->
      let vendor = Wire.Reader.u32 r in
      Ok (msg ~xid (Vendor { vendor; data = Wire.Reader.rest r }))
  | 5 -> Ok (msg ~xid Features_request)
  | 6 ->
      let datapath_id = Wire.Reader.u64 r in
      let n_buffers = Wire.Reader.u32 r in
      let n_tables = Wire.Reader.u8 r in
      Wire.Reader.skip r 3;
      let capabilities = Wire.Reader.u32 r in
      let supported_actions = Wire.Reader.u32 r in
      let rec ports acc =
        if Wire.Reader.remaining r < 48 then List.rev acc
        else ports (decode_phys_port r :: acc)
      in
      Ok
        (msg ~xid
           (Features_reply
              {
                datapath_id;
                n_buffers;
                n_tables;
                capabilities;
                supported_actions;
                ports = ports [];
              }))
  | 7 -> Ok (msg ~xid Get_config_request)
  | 8 ->
      let flags = Wire.Reader.u16 r in
      let miss_send_len = Wire.Reader.u16 r in
      Ok (msg ~xid (Get_config_reply { flags; miss_send_len }))
  | 9 ->
      let flags = Wire.Reader.u16 r in
      let miss_send_len = Wire.Reader.u16 r in
      Ok (msg ~xid (Set_config { flags; miss_send_len }))
  | 10 ->
      let buffer = buffer_of_int (Wire.Reader.u32_int r) in
      let total_len = Wire.Reader.u16 r in
      let in_port = Wire.Reader.u16 r in
      let reason_code = Wire.Reader.u8 r in
      Wire.Reader.skip r 1;
      let* reason =
        match reason_code with
        | 0 -> Ok No_match
        | 1 -> Ok Action_to_controller
        | n -> Stdlib.Error (Printf.sprintf "of_codec: bad packet-in reason %d" n)
      in
      Ok
        (msg ~xid
           (Packet_in
              {
                pi_buffer_id = buffer;
                pi_total_len = total_len;
                pi_in_port = in_port;
                pi_reason = reason;
                pi_data = Wire.Reader.rest r;
              }))
  | 11 ->
      let* fr_match = Of_match.of_wire r in
      let fr_cookie = Wire.Reader.u64 r in
      let fr_priority = Wire.Reader.u16 r in
      let reason_code = Wire.Reader.u8 r in
      Wire.Reader.skip r 1;
      let duration = Int32.to_int (Wire.Reader.u32 r) in
      let _nsec = Wire.Reader.u32 r in
      let _idle = Wire.Reader.u16 r in
      Wire.Reader.skip r 2;
      let fr_packet_count = Wire.Reader.u64 r in
      let fr_byte_count = Wire.Reader.u64 r in
      let* fr_reason =
        match reason_code with
        | 0 -> Ok Removed_idle
        | 1 -> Ok Removed_hard
        | 2 -> Ok Removed_delete
        | n -> Stdlib.Error (Printf.sprintf "of_codec: bad flow-removed reason %d" n)
      in
      Ok
        (msg ~xid
           (Flow_removed
              {
                fr_match;
                fr_cookie;
                fr_priority;
                fr_reason;
                fr_duration_s = duration;
                fr_packet_count;
                fr_byte_count;
              }))
  | 12 ->
      let reason_code = Wire.Reader.u8 r in
      Wire.Reader.skip r 7;
      let desc = decode_phys_port r in
      let* reason =
        match reason_code with
        | 0 -> Ok Port_add
        | 1 -> Ok Port_delete
        | 2 -> Ok Port_modify
        | n -> Stdlib.Error (Printf.sprintf "of_codec: bad port-status reason %d" n)
      in
      Ok (msg ~xid (Port_status { reason; desc }))
  | 13 ->
      packet_out_fixed r (fun ~buffer ~in_port actions ->
          let* po_actions = Of_action.list_of_wire actions in
          Ok
            (msg ~xid
               (Packet_out
                  {
                    po_buffer_id = buffer_of_int buffer;
                    po_in_port = in_port;
                    po_actions;
                    po_data = Wire.Reader.rest r;
                  })))
  | 14 ->
      flow_mod_fixed r
        (fun ~fm_match ~cookie ~command ~idle ~hard ~priority ~buffer
             ~out_port ~flags ->
          let* fm_actions = Of_action.list_of_wire r in
          Ok
            (msg ~xid
               (Flow_mod
                  {
                    fm_match;
                    (* Every RouteFlow flow has cookie 0: share the
                       constant rather than keep a boxed int64 per flow
                       entry. *)
                    fm_cookie = (match cookie with 0L -> 0L | c -> c);
                    fm_command = command;
                    fm_idle_timeout = idle;
                    fm_hard_timeout = hard;
                    fm_priority = priority;
                    fm_buffer_id = buffer_of_int buffer;
                    fm_out_port =
                      (if out_port = Of_port.none then None else Some out_port);
                    fm_notify_removed = flags land 1 <> 0;
                    fm_actions;
                  })))
  | 15 ->
      let pm_port_no = Wire.Reader.u16 r in
      let pm_hw_addr = Mac.read r in
      let config = Wire.Reader.u32 r in
      let mask = Wire.Reader.u32 r in
      let _advertise = Wire.Reader.u32 r in
      Wire.Reader.skip r 4;
      let pm_down =
        Int32.logand mask 1l <> 0l && Int32.logand config 1l <> 0l
      in
      Ok (msg ~xid (Port_mod { pm_port_no; pm_hw_addr; pm_down }))
  | 16 -> (
      let stats_type = Wire.Reader.u16 r in
      let _flags = Wire.Reader.u16 r in
      match stats_type with
      | 0 -> Ok (msg ~xid (Stats_request Desc_req))
      | 1 ->
          let* qf_match = Of_match.of_wire r in
          let _table = Wire.Reader.u8 r in
          Wire.Reader.skip r 1;
          let out_port = Wire.Reader.u16 r in
          Ok
            (msg ~xid
               (Stats_request
                  (Flow_req
                     {
                       qf_match;
                       qf_out_port =
                         (if out_port = Of_port.none then None else Some out_port);
                     })))
      | 4 ->
          let port = Wire.Reader.u16 r in
          Wire.Reader.skip r 6;
          Ok (msg ~xid (Stats_request (Port_req port)))
      | n -> Stdlib.Error (Printf.sprintf "of_codec: unsupported stats request %d" n))
  | 17 -> (
      let stats_type = Wire.Reader.u16 r in
      let _flags = Wire.Reader.u16 r in
      match stats_type with
      | 0 ->
          let manufacturer = read_fixed_string r 256 in
          let hardware = read_fixed_string r 256 in
          let software = read_fixed_string r 256 in
          let serial = read_fixed_string r 32 in
          let datapath_desc = read_fixed_string r 256 in
          Ok
            (msg ~xid
               (Stats_reply
                  (Desc_reply
                     { manufacturer; hardware; software; serial; datapath_desc })))
      | 1 ->
          let* entries = decode_flow_stats r in
          Ok (msg ~xid (Stats_reply (Flow_reply entries)))
      | 4 ->
          let* entries = decode_port_stats r in
          Ok (msg ~xid (Stats_reply (Port_reply entries)))
      | n -> Stdlib.Error (Printf.sprintf "of_codec: unsupported stats reply %d" n))
  | 18 -> Ok (msg ~xid Barrier_request)
  | 19 -> Ok (msg ~xid Barrier_reply)
  | n -> Stdlib.Error (Printf.sprintf "of_codec: unsupported message type %d" n)

let msg_type s = Char.code s.[1]

let xid s = (String.get_uint16_be s 4 lsl 16) lor String.get_uint16_be s 6

let with_xid s xid =
  let b = Bytes.of_string s in
  Bytes.set_uint16_be b 4 ((xid lsr 16) land 0xFFFF);
  Bytes.set_uint16_be b 6 (xid land 0xFFFF);
  Bytes.unsafe_to_string b

(* Checks an encoded message's header, then reads its body with
   [body typ xid r], [r] just past the header: {!of_wire} and {!peek}
   both read headers here. *)
let framed body s =
  try
    let r = Wire.Reader.of_string s in
    let v = Wire.Reader.u8 r in
    if v <> version then Stdlib.Error (Printf.sprintf "of_codec: bad version %d" v)
    else begin
      let typ = Wire.Reader.u8 r in
      let length = Wire.Reader.u16 r in
      Wire.Reader.skip r 4 (* the xid, read by [xid] *);
      if length <> String.length s then Stdlib.Error "of_codec: bad length"
      else body typ (xid s) r
    end
  with Wire.Truncated -> Stdlib.Error "of_codec: truncated message"

let of_wire = framed (fun typ xid r -> decode_body typ (Int32.of_int xid) r)

type peek =
  | Flow_mod_head of {
      command : flow_mod_command;
      fm_match : Of_match.t;
      priority : int;
    }
  | Packet_out_key of Of_match.key option * bool
  | Message of Of_msg.t

let peek_body typ xid r =
  match typ with
  | 14 ->
      flow_mod_fixed r
        (fun ~fm_match ~cookie:_ ~command ~idle:_ ~hard:_ ~priority ~buffer:_
             ~out_port:_ ~flags:_ ->
          match Of_action.check_list r with
          | Ok () -> Ok (Flow_mod_head { command; fm_match; priority })
          | Stdlib.Error e -> Stdlib.Error e)
  | 13 ->
      packet_out_fixed r (fun ~buffer ~in_port actions ->
          match Of_action.check_list actions with
          | Ok () ->
              let key = Of_match.key_of_frame ~in_port (Wire.Reader.rest r) in
              Ok (Packet_out_key (key, Option.is_some (buffer_of_int buffer)))
          | Stdlib.Error e -> Stdlib.Error e)
  | _ -> (
      match decode_body typ (Int32.of_int xid) r with
      | Ok m -> Ok (Message m)
      | Stdlib.Error e -> Stdlib.Error e)

let peek = framed peek_body
