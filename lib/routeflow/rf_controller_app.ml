open Rf_packet
open Rf_openflow
module Of_conn = Rf_controller.Of_conn

(* [source]: the VM whose export this connection last carried, [None]
   since the handshake. Its table is what the switch holds. *)
type sw = { conn : Of_conn.t; mutable source : Vm.t option }

type t = {
  engine : Rf_sim.Engine.t;
  vs : Rf_vs.t;
  switches : (int64, sw) Hashtbl.t;
  mutable master : bool;
  mutable reassignments : int;
  mutable flow_mods : int;
  mutable pkt_in : int;
  mutable pkt_out : int;
}

let priority_of_prefix_len len = 0x4000 + (len * 64)

let match_of_route (fr : Vm.flow_route) =
  Of_match.nw_dst_prefix fr.Vm.fr_prefix

let create engine vs =
  let t =
    {
      engine;
      vs;
      switches = Hashtbl.create 64;
      master = true;
      reassignments = 0;
      flow_mods = 0;
      pkt_in = 0;
      pkt_out = 0;
    }
  in
  Rf_vs.set_physical_out vs (fun ~dpid ~port frame ->
      match Hashtbl.find_opt t.switches dpid with
      | Some sw when Of_conn.is_open sw.conn ->
          t.pkt_out <- t.pkt_out + 1;
          Of_conn.packet_out sw.conn ~actions:[ Of_action.output port ] frame
      | Some _ | None -> ());
  t

let attach t ~dpid:_ endpoint =
  let conn = Of_conn.create t.engine endpoint in
  if not t.master then Of_conn.set_role conn Of_conn.Slave;
  Of_conn.set_on_handshake conn (fun features ->
      let dpid = features.Of_msg.datapath_id in
      Hashtbl.replace t.switches dpid { conn; source = None };
      Of_conn.set_on_close conn (fun () -> Hashtbl.remove t.switches dpid);
      (* Full frames in packet-ins: the VM needs whole packets for its
         slow path, not 128-byte heads plus buffer ids. *)
      ignore
        (Of_conn.send conn
           (Of_msg.Set_config { flags = 0; miss_send_len = 0xffff })));
  Of_conn.set_on_message conn (fun (m : Of_msg.t) _wire ->
      match m.payload with
      | Of_msg.Packet_in pi -> (
          match Of_conn.dpid conn with
          | Some dpid ->
              (* LLDP belongs to the topology slice; FlowVisor already
                 filters, but be defensive. *)
              let is_lldp =
                String.length pi.pi_data >= 14
                && (Char.code pi.pi_data.[12] lsl 8) lor Char.code pi.pi_data.[13]
                   = Ethernet.ethertype_lldp
              in
              if not is_lldp then begin
                t.pkt_in <- t.pkt_in + 1;
                Rf_vs.inject_from_physical t.vs ~dpid ~port:pi.pi_in_port
                  pi.pi_data
              end
          | None -> ())
      | Of_msg.Error _ | Of_msg.Flow_removed _ | Of_msg.Port_status _
      | Of_msg.Stats_reply _ | Of_msg.Barrier_reply | Of_msg.Hello
      | Of_msg.Echo_request _ | Of_msg.Echo_reply _ | Of_msg.Vendor _
      | Of_msg.Features_request | Of_msg.Features_reply _
      | Of_msg.Get_config_request | Of_msg.Get_config_reply _
      | Of_msg.Set_config _ | Of_msg.Packet_out _ | Of_msg.Flow_mod _
      | Of_msg.Port_mod _ | Of_msg.Stats_request _ | Of_msg.Barrier_request ->
          ())

let is_connected t dpid = Hashtbl.mem t.switches dpid

let flow_mod_of_route ~add (fr : Vm.flow_route) =
  let priority =
    priority_of_prefix_len (Ipv4_addr.Prefix.length fr.Vm.fr_prefix)
  in
  if add then
    Of_msg.flow_add ~priority (match_of_route fr)
      [
        Of_action.Set_dl_src fr.Vm.fr_src_mac;
        Of_action.Set_dl_dst fr.Vm.fr_dst_mac;
        Of_action.output fr.Vm.fr_port;
      ]
  else Of_msg.flow_delete ~strict:true ~priority (match_of_route fr)

let send_flow_mod t sw ~add f =
  t.flow_mods <- t.flow_mods + 1;
  Of_conn.flow_mod sw.conn (flow_mod_of_route ~add f)

let sync_flows t ~dpid vm ~removed ~added =
  match Hashtbl.find_opt t.switches dpid with
  | None -> ()
  | Some sw ->
      (* The delta applies to what this connection last carried only
         when that was [vm]'s previous table; a fresh connection or
         another VM's flows get a whole-table diff. *)
      let removed, added =
        match sw.source with
        | Some v when v == vm -> (removed, added)
        | Some v -> Vm.diff_flows (Vm.flow_routes v) (Vm.flow_routes vm)
        | None -> ([], Vm.flow_routes vm)
      in
      sw.source <- Some vm;
      List.iter (send_flow_mod t sw ~add:false) removed;
      List.iter (send_flow_mod t sw ~add:true) added

(* Failover reassignment: flip every switch session's OpenFlow role.
   On promotion, re-send the table of the VM each connection last
   carried — a flow_add with the same match and priority replaces in
   place, so re-applying over whatever the switch already holds is
   idempotent; any mods the slave suppressed while standing by are
   thereby made good. *)
let set_master t master =
  if t.master <> master then begin
    t.master <- master;
    let role = if master then Of_conn.Master else Of_conn.Slave in
    Hashtbl.iter
      (fun dpid sw ->
        t.reassignments <- t.reassignments + 1;
        Of_conn.set_role sw.conn role;
        Rf_sim.Engine.record t.engine ~component:"rf-controller"
          ~event:"role-reassign"
          (Printf.sprintf "sw%Ld -> %s" dpid
             (if master then "master" else "slave"));
        match sw.source with
        | Some vm when master ->
            List.iter (send_flow_mod t sw ~add:true) (Vm.flow_routes vm)
        | Some _ | None -> ())
      t.switches
  end

let is_master t = t.master

let reassignments t = t.reassignments

let flow_mods_sent t = t.flow_mods

let packet_ins_relayed t = t.pkt_in

let packet_outs_sent t = t.pkt_out
