open Rf_packet
module Discovery = Rf_controller.Discovery

type admin_config = {
  ac_range : Ipv4_addr.Prefix.t;
  ac_edges : (int64 * int * Ipv4_addr.Prefix.t) list;
}

type link_alloc = { la_a : Ipv4_addr.t; la_b : Ipv4_addr.t; la_len : int }

type t = {
  engine : Rf_sim.Engine.t;
  disc : Discovery.t;
  rpc : Rf_rpc.Rpc_client.t;
  config : admin_config;
  alloc : Ip_alloc.t;
  link_allocs : (Discovery.link, link_alloc) Hashtbl.t;
  m_switches : Rf_obs.Metrics.counter;
  m_links : Rf_obs.Metrics.counter;
  m_links_exhausted : Rf_obs.Metrics.counter;
}

let physical_ports ports =
  List.length
    (List.filter
       (fun (p : Rf_openflow.Of_msg.phys_port) ->
         Rf_openflow.Of_port.is_physical p.port_no)
       ports)

(* [None] when the range is exhausted: the link stays unconfigured. *)
let alloc_for t link =
  match Hashtbl.find_opt t.link_allocs link with
  | Some a -> Some a (* a re-appearing link keeps its addresses *)
  | None ->
      Option.map
        (fun (a, b, len) ->
          let a = { la_a = a; la_b = b; la_len = len } in
          Hashtbl.replace t.link_allocs link a;
          a)
        (Ip_alloc.alloc_p2p t.alloc)

let link_up_msg t link =
  Option.map
    (fun alloc ->
      Rf_rpc.Rpc_msg.Link_up
        {
          a_dpid = link.Discovery.la_dpid;
          a_port = link.Discovery.la_port;
          a_ip = alloc.la_a;
          a_prefix_len = alloc.la_len;
          b_dpid = link.Discovery.lb_dpid;
          b_port = link.Discovery.lb_port;
          b_ip = alloc.la_b;
          b_prefix_len = alloc.la_len;
        })
    (alloc_for t link)

let edge_msgs t dpid =
  List.filter_map
    (fun (edpid, port, subnet) ->
      if Int64.equal edpid dpid then
        Some
          (Rf_rpc.Rpc_msg.Edge_subnet
             {
               dpid;
               port;
               gateway = Ipv4_addr.Prefix.host subnet 1;
               prefix_len = Ipv4_addr.Prefix.length subnet;
             })
      else None)
    t.config.ac_edges

(* The topology controller's authoritative view as one message list in
   application order (switches, then edges, then links), used as the
   anti-entropy snapshot after an RF-controller restart. Addresses come
   from the same allocation table the live events use, so a snapshot
   never renumbers anything. *)
let snapshot t =
  let switches = Discovery.switches t.disc in
  let switch_msgs =
    List.map
      (fun (dpid, ports) ->
        Rf_rpc.Rpc_msg.Switch_up { dpid; n_ports = physical_ports ports })
      switches
  in
  let edges = List.concat_map (fun (dpid, _) -> edge_msgs t dpid) switches in
  let links = List.filter_map (link_up_msg t) (Discovery.links t.disc) in
  Rf_sim.Engine.record t.engine ~component:"autoconf" ~event:"snapshot"
    (Printf.sprintf "%d switches, %d edges, %d links"
       (List.length switch_msgs) (List.length edges) (List.length links));
  switch_msgs @ edges @ links

let create engine disc rpc config =
  let metrics = Rf_sim.Engine.metrics engine in
  let t =
    {
      engine;
      disc;
      rpc;
      config;
      alloc = Ip_alloc.create config.ac_range;
      link_allocs = Hashtbl.create 64;
      m_switches =
        Rf_obs.Metrics.counter metrics ~help:"Switches reported over RPC"
          "autoconf_switches_total";
      m_links =
        Rf_obs.Metrics.counter metrics ~help:"Links reported over RPC"
          "autoconf_links_total";
      m_links_exhausted =
        Rf_obs.Metrics.counter metrics
          ~help:"Links left unconfigured because the IP range is exhausted"
          "autoconf_alloc_exhausted_total";
    }
  in
  Rf_rpc.Rpc_client.set_snapshot_provider rpc (fun () -> snapshot t);
  let tracer = Rf_sim.Engine.tracer engine in
  let discovery_latency =
    Rf_obs.Metrics.histogram metrics
      ~help:"Switch attach to topology-controller detection"
      "autoconf_discovery_seconds"
  in
  Discovery.set_on_switch_up disc (fun dpid ports ->
      Rf_obs.Metrics.incr t.m_switches;
      let physical = physical_ports ports in
      (* Detection closes this switch's discovery phase and opens its
         RPC phase (closed by the client when the Switch_up frame is
         acknowledged). *)
      Option.iter
        (Rf_obs.Metrics.observe discovery_latency)
        (Rf_obs.Phase.finish tracer Discovery dpid);
      Rf_obs.Phase.start tracer Rpc dpid;
      Rf_sim.Engine.record engine ~component:"autoconf" ~event:"switch-detected"
        (Printf.sprintf "sw%Ld ports=%d" dpid physical);
      Rf_rpc.Rpc_client.send rpc
        (Rf_rpc.Rpc_msg.Switch_up { dpid; n_ports = physical });
      List.iter (Rf_rpc.Rpc_client.send rpc) (edge_msgs t dpid));
  Discovery.set_on_link_up disc (fun link ->
      let desc = Format.asprintf "%a" Discovery.pp_link link in
      match link_up_msg t link with
      | Some msg ->
          Rf_obs.Metrics.incr t.m_links;
          Rf_sim.Engine.record engine ~component:"autoconf"
            ~event:"link-detected" desc;
          Rf_rpc.Rpc_client.send rpc msg
      | None ->
          Rf_obs.Metrics.incr t.m_links_exhausted;
          Rf_sim.Engine.record engine ~component:"autoconf"
            ~event:"alloc-exhausted" desc);
  Discovery.set_on_switch_down disc (fun dpid ->
      Rf_rpc.Rpc_client.send rpc (Rf_rpc.Rpc_msg.Switch_down { dpid }));
  Discovery.set_on_link_down disc (fun link ->
      Rf_rpc.Rpc_client.send rpc
        (Rf_rpc.Rpc_msg.Link_down
           {
             a_dpid = link.Discovery.la_dpid;
             a_port = link.Discovery.la_port;
             b_dpid = link.Discovery.lb_dpid;
             b_port = link.Discovery.lb_port;
           }));
  t

let allocator t = t.alloc

let switches_reported t = Rf_obs.Metrics.counter_value t.m_switches

let links_reported t = Rf_obs.Metrics.counter_value t.m_links

let links_exhausted t = Rf_obs.Metrics.counter_value t.m_links_exhausted
