(** OpenFlow 1.0 messages.

    The subset implemented is what Open vSwitch 1.4, FlowVisor, NOX
    discovery and RouteFlow exchange: the handshake, echo request/reply,
    packet-in/out, flow-mod/flow-removed, port-status, barrier, the
    desc/flow/port statistics families, and vendor messages. *)

open Rf_packet

(** {1 Components} *)

type phys_port = {
  port_no : int;
  hw_addr : Mac.t;
  name : string;  (** at most 15 bytes on the wire *)
  up : bool;
}

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
  fm_idle_timeout : int;  (** 0 = permanent *)
  fm_hard_timeout : int;
  fm_priority : int;
  fm_buffer_id : int32 option;
  fm_out_port : Of_port.t option;  (** filter for delete commands *)
  fm_notify_removed : bool;  (** OFPFF_SEND_FLOW_REM *)
  fm_actions : Of_action.t list;
}

val flow_add :
  ?cookie:int64 ->
  ?idle_timeout:int ->
  ?hard_timeout:int ->
  ?priority:int ->
  ?notify_removed:bool ->
  Of_match.t ->
  Of_action.t list ->
  flow_mod

val flow_delete : ?strict:bool -> ?priority:int -> Of_match.t -> flow_mod

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
  po_in_port : int;  (** [Of_port.none] when not relevant *)
  po_actions : Of_action.t list;
  po_data : string;  (** ignored when a buffer id is given *)
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
  | Port_req of int  (** [Of_port.none] = all ports *)

type stats_reply =
  | Desc_reply of { manufacturer : string; hardware : string; software : string;
                    serial : string; datapath_desc : string }
  | Flow_reply of flow_stats list
  | Port_reply of port_stats list

type error = { err_type : int; err_code : int; err_data : string }

val error_bad_request : int
val error_flow_mod_failed : int
(** [err_type] values. *)

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
      (** OFPPC_PORT_DOWN is the only config bit this datapath honours *)
  | Stats_request of stats_request
  | Stats_reply of stats_reply
  | Barrier_request
  | Barrier_reply

type t = { xid : int32; payload : payload }

val msg : ?xid:int32 -> payload -> t

val type_code : payload -> int

val type_name : payload -> string

val type_code_name : int -> string
(** [type_name] of the payload whose [type_code] is given; ["unknown"]
    for a code outside OpenFlow 1.0's. *)

val pp : Format.formatter -> t -> unit
