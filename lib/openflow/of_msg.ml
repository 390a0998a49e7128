open Rf_packet

type phys_port = { port_no : int; hw_addr : Mac.t; name : string; up : bool }

type features = {
  datapath_id : int64;
  n_buffers : int32;
  n_tables : int;
  capabilities : int32;
  supported_actions : int32;
  ports : phys_port list;
}

type flow_mod_command = Add | Modify | Modify_strict | Delete | Delete_strict

type flow_mod = {
  fm_match : Of_match.t;
  fm_cookie : int64;
  fm_command : flow_mod_command;
  fm_idle_timeout : int;
  fm_hard_timeout : int;
  fm_priority : int;
  fm_buffer_id : int32 option;
  fm_out_port : Of_port.t option;
  fm_notify_removed : bool;
  fm_actions : Of_action.t list;
}

let flow_add ?(cookie = 0L) ?(idle_timeout = 0) ?(hard_timeout = 0)
    ?(priority = 0x8000) ?(notify_removed = false) fm_match fm_actions =
  {
    fm_match;
    fm_cookie = cookie;
    fm_command = Add;
    fm_idle_timeout = idle_timeout;
    fm_hard_timeout = hard_timeout;
    fm_priority = priority;
    fm_buffer_id = None;
    fm_out_port = None;
    fm_notify_removed = notify_removed;
    fm_actions;
  }

let flow_delete ?(strict = false) ?(priority = 0x8000) fm_match =
  {
    fm_match;
    fm_cookie = 0L;
    fm_command = (if strict then Delete_strict else Delete);
    fm_idle_timeout = 0;
    fm_hard_timeout = 0;
    fm_priority = priority;
    fm_buffer_id = None;
    fm_out_port = None;
    fm_notify_removed = false;
    fm_actions = [];
  }

type packet_in_reason = No_match | Action_to_controller

type packet_in = {
  pi_buffer_id : int32 option;
  pi_total_len : int;
  pi_in_port : int;
  pi_reason : packet_in_reason;
  pi_data : string;
}

type packet_out = {
  po_buffer_id : int32 option;
  po_in_port : int;
  po_actions : Of_action.t list;
  po_data : string;
}

type port_status_reason = Port_add | Port_delete | Port_modify

type flow_removed_reason = Removed_idle | Removed_hard | Removed_delete

type flow_removed = {
  fr_match : Of_match.t;
  fr_cookie : int64;
  fr_priority : int;
  fr_reason : flow_removed_reason;
  fr_duration_s : int;
  fr_packet_count : int64;
  fr_byte_count : int64;
}

type flow_stats = {
  fs_match : Of_match.t;
  fs_priority : int;
  fs_cookie : int64;
  fs_duration_s : int;
  fs_packet_count : int64;
  fs_byte_count : int64;
  fs_actions : Of_action.t list;
}

type port_stats = {
  ps_port_no : int;
  ps_rx_packets : int64;
  ps_tx_packets : int64;
  ps_rx_bytes : int64;
  ps_tx_bytes : int64;
  ps_rx_dropped : int64;
  ps_tx_dropped : int64;
}

type stats_request =
  | Desc_req
  | Flow_req of { qf_match : Of_match.t; qf_out_port : Of_port.t option }
  | Port_req of int

type stats_reply =
  | Desc_reply of {
      manufacturer : string;
      hardware : string;
      software : string;
      serial : string;
      datapath_desc : string;
    }
  | Flow_reply of flow_stats list
  | Port_reply of port_stats list

type error = { err_type : int; err_code : int; err_data : string }

let error_bad_request = 1

let error_flow_mod_failed = 3

type payload =
  | Hello
  | Error of error
  | Echo_request of string
  | Echo_reply of string
  | Vendor of { vendor : int32; data : string }
  | Features_request
  | Features_reply of features
  | Get_config_request
  | Get_config_reply of { flags : int; miss_send_len : int }
  | Set_config of { flags : int; miss_send_len : int }
  | Packet_in of packet_in
  | Flow_removed of flow_removed
  | Port_status of { reason : port_status_reason; desc : phys_port }
  | Packet_out of packet_out
  | Flow_mod of flow_mod
  | Port_mod of { pm_port_no : int; pm_hw_addr : Mac.t; pm_down : bool }
  | Stats_request of stats_request
  | Stats_reply of stats_reply
  | Barrier_request
  | Barrier_reply

type t = { xid : int32; payload : payload }

let msg ?(xid = 0l) payload = { xid; payload }

let type_code = function
  | Hello -> 0
  | Error _ -> 1
  | Echo_request _ -> 2
  | Echo_reply _ -> 3
  | Vendor _ -> 4
  | Features_request -> 5
  | Features_reply _ -> 6
  | Get_config_request -> 7
  | Get_config_reply _ -> 8
  | Set_config _ -> 9
  | Packet_in _ -> 10
  | Flow_removed _ -> 11
  | Port_status _ -> 12
  | Packet_out _ -> 13
  | Flow_mod _ -> 14
  | Port_mod _ -> 15
  | Stats_request _ -> 16
  | Stats_reply _ -> 17
  | Barrier_request -> 18
  | Barrier_reply -> 19

(* Indexed by {!type_code}. *)
let type_names =
  [|
    "hello"; "error"; "echo-request"; "echo-reply"; "vendor";
    "features-request"; "features-reply"; "get-config-request";
    "get-config-reply"; "set-config"; "packet-in"; "flow-removed";
    "port-status"; "packet-out"; "flow-mod"; "port-mod"; "stats-request";
    "stats-reply"; "barrier-request"; "barrier-reply";
  |]

let type_code_name code =
  if code >= 0 && code < Array.length type_names then type_names.(code)
  else "unknown"

let type_name p = type_names.(type_code p)

let pp ppf t =
  Format.fprintf ppf "%s xid=%ld" (type_name t.payload) t.xid;
  match t.payload with
  | Packet_in pi -> Format.fprintf ppf " in_port=%d len=%d" pi.pi_in_port pi.pi_total_len
  | Flow_mod fm -> Format.fprintf ppf " %a" Of_match.pp fm.fm_match
  | Features_reply f -> Format.fprintf ppf " dpid=%Ld ports=%d" f.datapath_id (List.length f.ports)
  | Hello | Error _ | Echo_request _ | Echo_reply _ | Vendor _
  | Features_request | Get_config_request | Get_config_reply _ | Set_config _
  | Flow_removed _ | Port_status _ | Packet_out _ | Port_mod _
  | Stats_request _ | Stats_reply _ | Barrier_request | Barrier_reply ->
      ()
