(* FlowVisor in isolation: two controllers share four switches, each
   confined to its flowspace slice. The topology slice only ever sees
   LLDP; the RouteFlow slice only ARP/IPv4; flow-mods that escape a
   slice are rejected with EPERM.

   Run with:  dune exec examples/flowvisor_slices.exe *)

open Rf_packet
module Topo_gen = Rf_net.Topo_gen
module Network = Rf_net.Network
module Flowvisor = Rf_flowvisor.Flowvisor
module Flowspace = Rf_flowvisor.Flowspace
module Of_conn = Rf_controller.Of_conn
module Of_msg = Rf_openflow.Of_msg
module Vtime = Rf_sim.Vtime

let () =
  let engine = Rf_sim.Engine.create () in
  let fv = Flowvisor.create engine in

  (* Slice 1: an LLDP-only "monitoring" controller that also tries to
     (illegally) install an IPv4 flow. *)
  let denied = ref 0 and lldp_seen = ref 0 in
  Flowvisor.add_slice fv
    (Flowspace.lldp_slice ~name:"monitor")
    ~attach:(fun ~dpid:_ endpoint ->
      let conn = Of_conn.create engine endpoint in
      Of_conn.set_on_handshake conn (fun feats ->
          (* Probe each port with LLDP... *)
          List.iter
            (fun (p : Of_msg.phys_port) ->
              Of_conn.packet_out conn
                ~actions:[ Rf_openflow.Of_action.output p.port_no ]
                (Packet.lldp ~src:p.hw_addr
                   (Lldp.discovery_probe ~dpid:feats.Of_msg.datapath_id
                      ~port:p.port_no)))
            feats.Of_msg.ports;
          (* ...and try to program an IPv4 flow outside our slice. *)
          Of_conn.flow_mod conn
            (Of_msg.flow_add
               (Rf_openflow.Of_match.nw_dst_prefix
                  (Ipv4_addr.Prefix.of_string_exn "10.0.0.0/8"))
               [ Rf_openflow.Of_action.output 1 ]));
      Of_conn.set_on_message conn (fun (m : Of_msg.t) _wire ->
          match m.payload with
          | Of_msg.Packet_in _ -> incr lldp_seen
          | Of_msg.Error _ -> incr denied
          | _ -> ()));

  (* Slice 2: a data-plane controller that floods every miss (a hub). *)
  let data_packet_ins = ref 0 in
  Flowvisor.add_slice fv
    (Flowspace.data_slice ~name:"hub")
    ~attach:(fun ~dpid:_ endpoint ->
      let conn = Of_conn.create engine endpoint in
      Of_conn.set_on_message conn (fun (m : Of_msg.t) _wire ->
          match m.payload with
          | Of_msg.Packet_in pi ->
              incr data_packet_ins;
              Of_conn.packet_out conn ~in_port:pi.pi_in_port
                ~actions:[ Rf_openflow.Of_action.output Rf_openflow.Of_port.flood ]
                pi.pi_data
          | _ -> ()));

  (* Four switches in a line with a host on each end. *)
  let topo = Topo_gen.line 4 in
  Rf_net.Topology.add_host topo "alice";
  Rf_net.Topology.add_host topo "bob";
  ignore
    (Rf_net.Topology.connect topo (Rf_net.Topology.Host "alice")
       (Rf_net.Topology.Switch 1L));
  ignore
    (Rf_net.Topology.connect topo (Rf_net.Topology.Host "bob")
       (Rf_net.Topology.Switch 4L));
  let host_config _ =
    {
      Network.hc_ip = Ipv4_addr.of_string_exn "192.168.1.1";
      hc_prefix_len = 24;
      hc_gateway = Ipv4_addr.of_string_exn "192.168.1.254";
    }
  in
  let host_config name =
    if String.equal name "alice" then
      { (host_config name) with Network.hc_ip = Ipv4_addr.of_string_exn "192.168.1.1" }
    else
      { (host_config name) with Network.hc_ip = Ipv4_addr.of_string_exn "192.168.1.2" }
  in
  let net =
    Network.build engine topo ~host_config
      ~attach_controller:(Flowvisor.switch_attach fv)
      ()
  in

  (* Alice pings Bob through the hub slice (same subnet, flooded). *)
  let alice = Network.host net "alice" and bob = Network.host net "bob" in
  let replies = ref 0 in
  Rf_net.Host.set_echo_handler alice (fun ~src:_ ~seq:_ -> incr replies);
  ignore
    (Rf_sim.Engine.schedule engine (Vtime.span_s 1.0) (fun () ->
         Rf_net.Host.ping alice ~dst:(Rf_net.Host.ip bob) ~seq:1));

  ignore (Rf_sim.Engine.run ~until:(Vtime.of_s 20.0) engine);

  Format.printf "monitor slice: %d LLDP packet-ins, %d flow-mods denied@."
    !lldp_seen !denied;
  Format.printf "hub slice:     %d data packet-ins@." !data_packet_ins;
  Format.printf "alice got %d echo repl%s through the sliced network@." !replies
    (if !replies = 1 then "y" else "ies");
  Format.printf "flowvisor accounting: to monitor=%d, to hub=%d, denied(monitor)=%d@."
    (Flowvisor.messages_to_slice fv "monitor")
    (Flowvisor.messages_to_slice fv "hub")
    (Flowvisor.denied_flow_mods fv "monitor")
