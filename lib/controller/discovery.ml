open Rf_packet
open Rf_openflow

type link = { la_dpid : int64; la_port : int; lb_dpid : int64; lb_port : int }

let normalize a_dpid a_port b_dpid b_port =
  if
    Int64.compare a_dpid b_dpid < 0
    || (Int64.equal a_dpid b_dpid && a_port <= b_port)
  then { la_dpid = a_dpid; la_port = a_port; lb_dpid = b_dpid; lb_port = b_port }
  else { la_dpid = b_dpid; la_port = b_port; lb_dpid = a_dpid; lb_port = a_port }

type switch_state = {
  conn : Of_conn.t;
  ports : Of_msg.phys_port list;
  first_seen : Rf_sim.Vtime.t;
  probe_timer : Rf_sim.Engine.timer;
}

type link_state = { mutable last_seen : Rf_sim.Vtime.t; first_reported : Rf_sim.Vtime.t }

type t = {
  engine : Rf_sim.Engine.t;
  probe_interval : Rf_sim.Vtime.span;
  link_timeout : Rf_sim.Vtime.span;
  switches : (int64, switch_state) Hashtbl.t;
  links : (link, link_state) Hashtbl.t;
  mutable on_switch_up : int64 -> Of_msg.phys_port list -> unit;
  mutable on_switch_down : int64 -> unit;
  mutable on_link_up : link -> unit;
  mutable on_link_down : link -> unit;
  m_probes : Rf_obs.Metrics.counter;
  m_lldp_rx : Rf_obs.Metrics.counter;
  m_links : Rf_obs.Metrics.counter;
}

(* Removes every link [pred] selects, then reports each one down, in
   [Hashtbl.fold] order. *)
let drop_links t pred =
  let gone =
    Hashtbl.fold
      (fun link st acc -> if pred link st then link :: acc else acc)
      t.links []
  in
  List.iter
    (fun link ->
      Hashtbl.remove t.links link;
      t.on_link_down link)
    gone

(* The link timeout scales with the probe interval so that a healthy
   link never ages out between two probe rounds, however slow they
   are. *)
let create engine ?(probe_interval = Rf_sim.Vtime.span_s 5.0) () =
  let t =
    {
      engine;
      probe_interval;
      link_timeout = Rf_sim.Vtime.span_scale 3.0 probe_interval;
      switches = Hashtbl.create 64;
      links = Hashtbl.create 64;
      on_switch_up = (fun _ _ -> ());
      on_switch_down = (fun _ -> ());
      on_link_up = (fun _ -> ());
      on_link_down = (fun _ -> ());
      m_probes =
        Rf_obs.Metrics.counter
          (Rf_sim.Engine.metrics engine)
          ~help:"LLDP probe packet-outs sent" "discovery_probes_total";
      m_lldp_rx =
        Rf_obs.Metrics.counter
          (Rf_sim.Engine.metrics engine)
          ~help:"LLDP packet-ins classified" "discovery_lldp_rx_total";
      m_links =
        Rf_obs.Metrics.counter
          (Rf_sim.Engine.metrics engine)
          ~help:"Distinct links discovered" "discovery_links_total";
    }
  in
  (* Age out links whose probes stopped arriving. *)
  let age () =
    let now = Rf_sim.Engine.now engine in
    drop_links t (fun _ st -> Rf_sim.Vtime.(add st.last_seen t.link_timeout < now))
  in
  ignore
    (Rf_sim.Engine.periodic
       ~entity:(Rf_obs.Profiler.component "discovery")
       engine probe_interval age);
  t

let send_probes t dpid (st : switch_state) =
  List.iter
    (fun (p : Of_msg.phys_port) ->
      if Of_port.is_physical p.port_no && p.up then begin
        Rf_obs.Metrics.incr t.m_probes;
        let frame =
          Packet.lldp ~src:p.hw_addr (Lldp.discovery_probe ~dpid ~port:p.port_no)
        in
        Of_conn.packet_out st.conn
          ~actions:[ Of_action.output p.port_no ]
          frame
      end)
    st.ports

let handle_lldp t ~rx_dpid ~rx_port frame =
  match Packet.parse frame with
  | Error _ -> ()
  | Ok { l3 = Packet.Lldp lldp; _ } -> (
      Rf_obs.Metrics.incr t.m_lldp_rx;
      match Lldp.parse_discovery lldp with
      | None -> ()
      | Some (src_dpid, src_port) ->
          let link = normalize src_dpid src_port rx_dpid rx_port in
          let now = Rf_sim.Engine.now t.engine in
          (match Hashtbl.find_opt t.links link with
          | Some st -> st.last_seen <- now
          | None ->
              Hashtbl.replace t.links link { last_seen = now; first_reported = now };
              Rf_obs.Metrics.incr t.m_links;
              t.on_link_up link))
  | Ok { l3 = Packet.Arp _ | Packet.Ipv4 _ | Packet.Raw_l3 _; _ } -> ()

let remove_switch t dpid =
  match Hashtbl.find_opt t.switches dpid with
  | None -> ()
  | Some st ->
      Rf_sim.Engine.cancel st.probe_timer;
      Hashtbl.remove t.switches dpid;
      drop_links t (fun link _ ->
          Int64.equal link.la_dpid dpid || Int64.equal link.lb_dpid dpid);
      t.on_switch_down dpid

let attach t conn =
  Of_conn.set_on_handshake conn (fun feats ->
      let dpid = feats.Of_msg.datapath_id in
      let st_ref = ref None in
      let probe_timer =
        Rf_sim.Engine.periodic
          ~entity:(Rf_obs.Profiler.switch dpid)
          t.engine
          ~jitter:(Rf_sim.Vtime.span_s 1.0)
          t.probe_interval
          (fun () ->
            match !st_ref with
            | Some st -> send_probes t dpid st
            | None -> ())
      in
      let st =
        {
          conn;
          ports = feats.Of_msg.ports;
          first_seen = Rf_sim.Engine.now t.engine;
          probe_timer;
        }
      in
      st_ref := Some st;
      Hashtbl.replace t.switches dpid st;
      t.on_switch_up dpid st.ports;
      (* First probe round immediately: discovery latency matters to the
         configuration-time experiment. *)
      send_probes t dpid st);
  Of_conn.set_on_message conn (fun (m : Of_msg.t) _wire ->
      match m.payload with
      | Of_msg.Packet_in pi -> (
          match Of_conn.dpid conn with
          | Some rx_dpid ->
              handle_lldp t ~rx_dpid ~rx_port:pi.pi_in_port pi.pi_data
          | None -> ())
      | Of_msg.Port_status { desc; _ } when not desc.Of_msg.up -> (
          (* A port went down: its links are gone now, not after the
             aging timeout. *)
          match Of_conn.dpid conn with
          | Some dpid ->
              drop_links t (fun link _ ->
                  (Int64.equal link.la_dpid dpid
                  && link.la_port = desc.Of_msg.port_no)
                  || (Int64.equal link.lb_dpid dpid
                     && link.lb_port = desc.Of_msg.port_no))
          | None -> ())
      | Of_msg.Port_status _ | Of_msg.Error _ | Of_msg.Vendor _
      | Of_msg.Hello | Of_msg.Echo_request _ | Of_msg.Echo_reply _
      | Of_msg.Features_request | Of_msg.Features_reply _
      | Of_msg.Get_config_request | Of_msg.Get_config_reply _
      | Of_msg.Set_config _ | Of_msg.Flow_removed _ | Of_msg.Packet_out _
      | Of_msg.Flow_mod _ | Of_msg.Port_mod _ | Of_msg.Stats_request _
      | Of_msg.Stats_reply _ | Of_msg.Barrier_request | Of_msg.Barrier_reply ->
          ());
  Of_conn.set_on_close conn (fun () ->
      match Of_conn.dpid conn with
      | Some dpid -> remove_switch t dpid
      | None -> ())

let set_on_switch_up t f = t.on_switch_up <- f

let set_on_switch_down t f = t.on_switch_down <- f

let set_on_link_up t f = t.on_link_up <- f

let set_on_link_down t f = t.on_link_down <- f

let switches t =
  Hashtbl.fold (fun d st acc -> (d, st.ports) :: acc) t.switches []
  |> List.sort (fun (a, _) (b, _) -> Int64.compare a b)

let links t =
  Hashtbl.fold (fun l _ acc -> l :: acc) t.links []
  |> List.sort compare

let switch_seen_at t dpid =
  Option.map (fun st -> st.first_seen) (Hashtbl.find_opt t.switches dpid)

let link_seen_at t link =
  Option.map (fun st -> st.first_reported) (Hashtbl.find_opt t.links link)

let probes_sent t = Rf_obs.Metrics.counter_value t.m_probes

let lldp_received t = Rf_obs.Metrics.counter_value t.m_lldp_rx

let pp_link ppf l =
  Format.fprintf ppf "sw%Ld/%d <-> sw%Ld/%d" l.la_dpid l.la_port l.lb_dpid
    l.lb_port
