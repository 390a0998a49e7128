open Rf_packet
module Topology = Rf_net.Topology
module Network = Rf_net.Network
module Channel = Rf_net.Channel
module Flowvisor = Rf_flowvisor.Flowvisor
module Flowspace = Rf_flowvisor.Flowspace
module Discovery = Rf_controller.Discovery
module Rf_system = Rf_routeflow.Rf_system
module Rf_controller_app = Rf_routeflow.Rf_controller_app
module Rf_vs = Rf_routeflow.Rf_vs

type options = {
  seed : int;
  rf_params : Rf_system.params;
  rpc_params : Rf_rpc.Rpc_client.params;
  probe_interval : Rf_sim.Vtime.span;
  rpc_latency : Rf_sim.Vtime.span;
  ip_range : Ipv4_addr.Prefix.t;
  faults : Rf_sim.Faults.plan;
  link_capacity : Rf_net.Link.capacity option;
  cluster_replicas : int;
      (** RF-controller replicas; 1 = the legacy single controller
          (no cluster machinery is instantiated at all) *)
  profiler : Rf_obs.Profiler.t option;
  audit : bool;
      (** attaches the continuous forwarding-state auditor
          ({!Rf_net.Auditor}): flow-table changes, link state, RIB
          publications and slice attributions feed an incremental
          forwarding model over the switches' own flow tables, whose
          violation windows appear as [audit.violation] spans and
          [audit_*] meta keys. Off by default so unaudited telemetry
          (and its pinned fingerprints) is unchanged. *)
}

let default_options =
  {
    seed = 42;
    rf_params = Rf_system.default_params;
    rpc_params = Rf_rpc.Rpc_client.default_params;
    probe_interval = Rf_sim.Vtime.span_s 5.0;
    rpc_latency = Rf_sim.Vtime.span_ms 1;
    ip_range = Ipv4_addr.Prefix.of_string_exn "172.16.0.0/16";
    faults = Rf_sim.Faults.empty;
    link_capacity = None;
    cluster_replicas = 1;
    profiler = None;
    audit = false;
  }

type host_plan = { hp_subnet : Ipv4_addr.Prefix.t; hp_ip : Ipv4_addr.t }

(* One VM's selected routes as the reconvergence probe last saw them.
   [rv_rib] and [rv_generation] tell whether they are still current. *)
type route_view = {
  rv_dpid : int64;
  rv_rib : Rf_routing.Rib.t;
  rv_generation : int;
  rv_routes : Rf_routing.Rib.route list;
}

type t = {
  engine : Rf_sim.Engine.t;
  topo : Topology.t;
  net : Network.t;
  fv : Flowvisor.t;
  disc : Discovery.t;
  autoconf : Autoconfig.t;
  rf_sys : Rf_system.t;
  rf_app : Rf_controller_app.t;
  rpc_client : Rf_rpc.Rpc_client.t;
  rpc_server : Rf_rpc.Rpc_server.t;
  cluster : Rf_rpc.Cluster.t option;
  auditor : Rf_net.Auditor.t option;
  gui : Gui.t;
  host_plans : (string * host_plan) list;
  n_switches : int;
  n_subnets : int;
  mutable converged_at : Rf_sim.Vtime.t option;
  fault_handle : Rf_sim.Faults.handle;
  mutable route_views : route_view list;
  mutable last_route_change_at : Rf_sim.Vtime.t option;
  opts : options;
}

let host_subnet k =
  if k < 1 || k > 0xffff then
    invalid_arg
      (Printf.sprintf "Scenario.host_subnet: host %d out of 1..65535" k);
  Ipv4_addr.Prefix.make (Ipv4_addr.of_octets 10 (k lsr 8) (k land 0xff) 0) 24

let host_plans_of topo =
  List.mapi
    (fun i name ->
      let subnet = host_subnet (i + 1) in
      (name, { hp_subnet = subnet; hp_ip = Ipv4_addr.Prefix.host subnet 2 }))
    (Topology.hosts topo)

let edges_of_plans topo plans =
  List.filter_map
    (fun (e : Topology.edge) ->
      let host_end, sw_end =
        match (e.a, e.b) with
        | Topology.Host h, Topology.Switch d -> (Some (h, e.a_port), Some (d, e.b_port))
        | Topology.Switch d, Topology.Host h -> (Some (h, e.b_port), Some (d, e.a_port))
        | Topology.Switch _, Topology.Switch _ | Topology.Host _, Topology.Host _
          ->
            (None, None)
      in
      match (host_end, sw_end) with
      | Some (h, _), Some (d, sw_port) ->
          let plan = List.assoc h plans in
          Some (d, sw_port, plan.hp_subnet)
      | (Some _ | None), (Some _ | None) -> None)
    (Topology.edges topo)

(* Reconvergence compares routes by what forwarding sees: prefix, next
   hop and interface. Protocol, distance and metric are ignored. *)
let same_route (a : Rf_routing.Rib.route) (b : Rf_routing.Rib.route) =
  Ipv4_addr.Prefix.equal a.r_prefix b.r_prefix
  && Option.equal Ipv4_addr.equal a.r_next_hop b.r_next_hop
  && String.equal a.r_iface b.r_iface

(* The views for [vms] (dpid order, like [views]) and whether the VM set
   or any VM's selected routes differ from [views]. A VM whose RIB is
   the same object at the same generation cannot have changed, so its
   view is reused; only the others are re-read. The cost per call is
   thus proportional to what changed, not to the size of all RIBs. *)
let refresh_route_views views vms =
  let changed = ref false in
  let rec walk views vms =
    match vms with
    | [] ->
        (match views with [] -> () | _ :: _ -> changed := true);
        []
    | (dpid, vm) :: vms -> (
        let rib = Rf_routeflow.Vm.rib vm in
        let generation = Rf_routing.Rib.generation rib in
        match views with
        | v :: views
          when Int64.equal v.rv_dpid dpid && v.rv_rib == rib
               && v.rv_generation = generation ->
            v :: walk views vms
        | _ ->
            let routes = Rf_routing.Rib.selected rib in
            let views =
              match views with
              | v :: views ->
                  if
                    not
                      (Int64.equal v.rv_dpid dpid
                      && List.equal same_route v.rv_routes routes)
                  then changed := true;
                  views
              | [] ->
                  changed := true;
                  []
            in
            {
              rv_dpid = dpid;
              rv_rib = rib;
              rv_generation = generation;
              rv_routes = routes;
            }
            :: walk views vms)
  in
  let views = walk views vms in
  (views, !changed)

let build ?(options = default_options) topo =
  let engine = Rf_sim.Engine.create ~seed:options.seed () in
  (match options.profiler with
  | Some p -> Rf_sim.Engine.set_profiler engine (Some p)
  | None -> ());
  let host_plans = host_plans_of topo in
  let admin_edges = edges_of_plans topo host_plans in

  (* RouteFlow side. *)
  let vs = Rf_vs.create engine in
  let rf_app = Rf_controller_app.create engine vs in
  let rf_sys = Rf_system.create engine rf_app vs options.rf_params in

  (* RPC plumbing. *)
  let faults_rng = Rf_sim.Rng.split (Rf_sim.Engine.rng engine) in
  let client_end, server_end =
    Channel.create engine ~latency:options.rpc_latency ()
  in
  let rpc_client =
    Rf_rpc.Rpc_client.create engine ~params:options.rpc_params client_end
  in
  let rpc_server = Rf_rpc.Rpc_server.create engine server_end in
  (match options.faults.Rf_sim.Faults.rpc_faults with
  | Some profile ->
      Rf_rpc.Rpc_client.set_fault_profile rpc_client
        (Rf_sim.Rng.split faults_rng) profile;
      Rf_rpc.Rpc_server.set_fault_profile rpc_server
        (Rf_sim.Rng.split faults_rng) profile
  | None -> ());
  (* Replicated control plane (opt-in): the frontend RPC session stays
     as-is, but configuration messages are committed through a leader
     before touching the RouteFlow state. Replica rngs derive from the
     root without advancing it, so single-controller runs stay
     bit-identical. *)
  let cluster =
    if options.cluster_replicas > 1 then
      Some
        (Rf_rpc.Cluster.create engine
           ~rng:(Rf_sim.Rng.derive (Rf_sim.Engine.rng engine) 0x636c)
           ~replicas:options.cluster_replicas ())
    else None
  in
  let apply_msg msg =
    match msg with
    | Rf_rpc.Rpc_msg.Switch_up { dpid; n_ports } ->
        Rf_system.switch_up rf_sys ~dpid ~n_ports
    | Rf_rpc.Rpc_msg.Switch_down { dpid } -> Rf_system.switch_down rf_sys ~dpid
    | Rf_rpc.Rpc_msg.Link_up l ->
        Rf_system.link_config rf_sys
          ~a:(l.a_dpid, l.a_port, l.a_ip, l.a_prefix_len)
          ~b:(l.b_dpid, l.b_port, l.b_ip, l.b_prefix_len);
        Rf_system.link_up_again rf_sys ~a:(l.a_dpid, l.a_port)
          ~b:(l.b_dpid, l.b_port)
    | Rf_rpc.Rpc_msg.Link_down l ->
        Rf_system.link_down rf_sys ~a:(l.a_dpid, l.a_port)
          ~b:(l.b_dpid, l.b_port)
    | Rf_rpc.Rpc_msg.Edge_subnet e ->
        Rf_system.edge_config rf_sys ~dpid:e.dpid ~port:e.port
          ~gateway:e.gateway ~prefix_len:e.prefix_len
  in
  (* How a delivered configuration message reaches the RouteFlow state:
     directly in the legacy deployment, via replicated-log commit in
     the clustered one. *)
  let ingest =
    match cluster with
    | None -> apply_msg
    | Some cl ->
        (* Leader fence: mutations are only legal from inside a commit
           callback, so a deposed leader (or any stray path) cannot
           touch the state. *)
        let in_commit = ref false in
        Rf_system.set_mutation_guard rf_sys (fun () -> !in_commit);
        Rf_rpc.Cluster.set_on_apply cl (fun msg ->
            in_commit := true;
            apply_msg msg;
            in_commit := false);
        (* Switch failover: while leaderless the OpenFlow sessions are
           parked as slaves; the new leader takes them back as master
           and idempotently re-applies the installed flows. *)
        Rf_rpc.Cluster.set_on_failover cl (fun () ->
            Rf_controller_app.set_master rf_app false);
        Rf_rpc.Cluster.set_on_leader_change cl (fun _leader ->
            Rf_controller_app.set_master rf_app true);
        fun msg -> Rf_rpc.Cluster.submit cl msg
  in
  Rf_rpc.Rpc_server.set_handler rpc_server ingest;
  (* Anti-entropy: the topology controller's snapshot is the desired
     state. Tear down switches and virtual links it no longer contains,
     then push every message through the ordinary (idempotent) handler
     so missing state is created and existing state is untouched. *)
  Rf_rpc.Rpc_server.set_snapshot_handler rpc_server (fun msgs ->
      let want_switch dpid =
        List.exists
          (function
            | Rf_rpc.Rpc_msg.Switch_up { dpid = d; _ } -> Int64.equal d dpid
            | _ -> false)
          msgs
      in
      (match cluster with
      | None ->
          List.iter
            (fun dpid ->
              if not (want_switch dpid) then Rf_system.switch_down rf_sys ~dpid)
            (Rf_system.switches_known rf_sys);
          let keep =
            List.filter_map
              (function
                | Rf_rpc.Rpc_msg.Link_up l ->
                    Some ((l.a_dpid, l.a_port), (l.b_dpid, l.b_port))
                | _ -> None)
              msgs
          in
          Rf_system.prune_vlinks rf_sys ~keep
      | Some _ ->
          (* clustered: the teardown must survive failover too, so it
             rides the log as ordinary Switch_down entries *)
          List.iter
            (fun dpid ->
              if not (want_switch dpid) then
                ingest (Rf_rpc.Rpc_msg.Switch_down { dpid }))
            (Rf_system.switches_known rf_sys));
      List.iter ingest msgs);

  (* Topology controller side. *)
  let disc = Discovery.create engine ~probe_interval:options.probe_interval () in
  let autoconf =
    Autoconfig.create engine disc rpc_client
      { Autoconfig.ac_range = options.ip_range; ac_edges = admin_edges }
  in

  (* FlowVisor with the two slices of the paper. *)
  let fv = Flowvisor.create engine in
  let lldp_fs = Flowspace.lldp_slice ~name:"topology" in
  let data_fs = Flowspace.data_slice ~name:"routeflow" in
  Flowvisor.add_slice fv lldp_fs
    ~attach:(fun ~dpid endpoint ->
      ignore dpid;
      let conn = Rf_controller.Of_conn.create engine endpoint in
      (match options.faults.Rf_sim.Faults.control_faults with
      | Some profile ->
          Rf_controller.Of_conn.set_fault_profile conn
            (Rf_sim.Rng.split faults_rng) profile
      | None -> ());
      Discovery.attach disc conn);
  Flowvisor.add_slice fv data_fs
    ~attach:(fun ~dpid endpoint -> Rf_controller_app.attach rf_app ~dpid endpoint);

  (* The emulated network. *)
  let host_config name =
    let plan = List.assoc name host_plans in
    {
      Network.hc_ip = plan.hp_ip;
      hc_prefix_len = Ipv4_addr.Prefix.length plan.hp_subnet;
      hc_gateway = Ipv4_addr.Prefix.host plan.hp_subnet 1;
    }
  in
  let net =
    Network.build engine topo ~host_config
      ~attach_controller:(Flowvisor.switch_attach fv) ()
  in
  (match options.link_capacity with
  | Some _ as cap -> Network.set_all_link_capacity net cap
  | None -> ());
  (* Forwarding-state auditor (opt-in): feed it the static topology and
     every switch's flow table, then subscribe it to every state source
     — table changes, link transitions, RIB publications (wired per VM
     below, once VMs exist) and FlowVisor's flow-mod attributions. *)
  let auditor =
    if not options.audit then None
    else begin
      let au =
        Rf_net.Auditor.create
          ~tracer:(Rf_sim.Engine.tracer engine)
          ~metrics:(Rf_sim.Engine.metrics engine)
          ()
      in
      List.iter
        (fun d ->
          Rf_net.Auditor.add_switch au d
            (Rf_net.Datapath.flow_table (Network.datapath net d)))
        (Topology.switches topo);
      let sw_edges =
        List.filter_map
          (fun (e : Topology.edge) ->
            match (e.a, e.b) with
            | Topology.Switch da, Topology.Switch db ->
                Some ((da, e.a_port), (db, e.b_port))
            | (Topology.Switch _ | Topology.Host _), _ -> None)
          (Topology.edges topo)
      in
      List.iter (fun (a, b) -> Rf_net.Auditor.add_link au ~a ~b) sw_edges;
      List.iter
        (fun (dpid, port, subnet) -> Rf_net.Auditor.add_host au ~dpid ~port subnet)
        admin_edges;
      List.iter
        (fun (fs : Flowspace.t) ->
          Rf_net.Auditor.set_slice au fs.Flowspace.fs_name fs.Flowspace.fs_patterns)
        [ lldp_fs; data_fs ];
      Flowvisor.set_on_flow_mod fv (fun ~dpid ~slice command match_ ~priority ->
          match command with
          | Rf_openflow.Of_msg.Add | Rf_openflow.Of_msg.Modify
          | Rf_openflow.Of_msg.Modify_strict ->
              Rf_net.Auditor.attribute au ~dpid ~match_ ~priority slice
          | Rf_openflow.Of_msg.Delete | Rf_openflow.Of_msg.Delete_strict -> ());
      List.iter
        (fun (dpid, dp) ->
          Rf_net.Datapath.set_on_table_changed dp
            (Rf_net.Auditor.table_changed au dpid))
        (Network.datapaths net);
      Network.set_on_link_state net (fun a b up ->
          match (a, b) with
          | Topology.Switch da, Topology.Switch db ->
              let ends =
                List.find_map
                  (fun (((ea, _), (eb, _)) as l) ->
                    if
                      (Int64.equal ea da && Int64.equal eb db)
                      || (Int64.equal ea db && Int64.equal eb da)
                    then Some l
                    else None)
                  sw_edges
              in
              (match ends with
              | Some (ea, eb) -> Rf_net.Auditor.set_link_state au ~a:ea ~b:eb up
              | None -> ())
          | (Topology.Switch _ | Topology.Host _), _ -> ());
      Some au
    end
  in

  (* GUI and instrumentation. *)
  let gui = Gui.create engine () in
  List.iter (fun d -> Gui.add_switch gui d) (Topology.switches topo);
  let n_switches = Topology.switch_count topo in
  let n_subnets =
    List.length (Topology.switch_switch_edges topo) + List.length admin_edges
  in
  (* Fault injection: map the layer-agnostic plan onto this scenario's
     components. *)
  let injector =
    {
      Rf_sim.Faults.inj_link =
        (fun ~up { Rf_sim.Faults.l_a; l_b } ->
          Network.set_link_up net (Topology.Switch l_a) (Topology.Switch l_b) up);
      inj_switch =
        (fun ~up dpid ->
          if up then Network.reconnect_switch net dpid
          else Network.disconnect_switch net dpid);
      inj_vm_boot_failure =
        (fun ~dpid ~failures -> Rf_system.arm_boot_failures rf_sys ~dpid ~failures);
      inj_controller =
        (fun ~up replica ->
          match cluster with
          | Some cl ->
              if up then Rf_rpc.Cluster.restart cl replica
              else Rf_rpc.Cluster.crash cl replica
          | None ->
              (* legacy single controller: the replica id is moot *)
              if up then Rf_rpc.Rpc_server.restart rpc_server
              else Rf_rpc.Rpc_server.crash rpc_server);
      inj_partition =
        (fun p ->
          match cluster with
          | Some cl -> (
              match p with
              | Some (a, b) -> Rf_rpc.Cluster.partition cl a b
              | None -> Rf_rpc.Cluster.heal cl)
          | None -> ());
    }
  in
  let fault_handle = Rf_sim.Faults.schedule engine injector options.faults in
  let t =
    {
      engine;
      topo;
      net;
      fv;
      disc;
      autoconf;
      rf_sys;
      rf_app;
      rpc_client;
      rpc_server;
      cluster;
      auditor;
      gui;
      host_plans;
      n_switches;
      n_subnets;
      converged_at = None;
      fault_handle;
      route_views = [];
      last_route_change_at = None;
      opts = options;
    }
  in
  Rf_system.add_on_vm_ready rf_sys (Gui.set_green gui);
  (* RIB feed: each VM publishes its desired FIB — the (prefix, port)
     pairs the RF-client wants installed — to the auditor on every
     flow-export change. Attached on readiness because VMs are created
     dynamically (and re-created across restarts). *)
  (match auditor with
  | Some au ->
      Rf_system.add_on_vm_ready rf_sys (fun dpid ->
          match Rf_system.vm rf_sys dpid with
          | Some vm ->
              Rf_routeflow.Vm.add_on_flows_changed vm
                (fun ~removed:_ ~added:_ ->
                  Rf_net.Auditor.set_rib au dpid
                    (List.map
                       (fun (fr : Rf_routeflow.Vm.flow_route) ->
                         (fr.fr_prefix, fr.fr_port))
                       (Rf_routeflow.Vm.flow_routes vm)))
          | None -> ())
  | None -> ());
  (* Convergence probe: every VM's RIB covers every subnet. *)
  let converged () =
    Rf_system.configured_count rf_sys = n_switches
    && n_subnets > 0
    && List.for_all
         (fun (_, vm) ->
           Rf_routing.Rib.size (Rf_routeflow.Vm.rib vm) >= n_subnets)
         (Rf_system.vms rf_sys)
  in
  (* Reconvergence probe, only when a fault plan is active: once per
     simulated second, {!refresh_route_views} compares every VM's
     selected routes with the previous tick's, re-projecting only the
     VMs whose RIB changed generation. Without one, the probe stops once
     it has set [converged_at]. *)
  let track_routes = not (Rf_sim.Faults.is_empty options.faults) in
  let probe = ref None in
  let tick () =
    if t.converged_at = None && converged () then begin
      t.converged_at <- Some (Rf_sim.Engine.now engine);
      (* Retroactive convergence span: the routing tail between the
         last switch turning green and full RIB coverage. *)
      let tracer = Rf_sim.Engine.tracer engine in
      let start_us =
        match Gui.all_green_at gui with
        | Some at -> Rf_sim.Vtime.to_us at
        | None -> Rf_obs.Tracer.now_us tracer
      in
      let sp = Rf_obs.Tracer.span_start tracer ~start_us "phase.convergence" in
      Rf_obs.Tracer.span_end tracer sp;
      if not track_routes then Option.iter Rf_sim.Engine.cancel !probe
    end;
    if track_routes then begin
      let views, changed =
        refresh_route_views t.route_views (Rf_system.vms rf_sys)
      in
      t.route_views <- views;
      if changed then t.last_route_change_at <- Some (Rf_sim.Engine.now engine)
    end
  in
  probe :=
    Some
      (Rf_sim.Engine.periodic
         ~entity:(Rf_obs.Profiler.component "scenario")
         engine (Rf_sim.Vtime.span_s 1.0) tick);
  t

let engine t = t.engine

let network t = t.net

let flowvisor t = t.fv

let discovery t = t.disc

let autoconfig t = t.autoconf

let rf_system t = t.rf_sys

let rf_app t = t.rf_app

let rpc_client t = t.rpc_client

let rpc_server t = t.rpc_server

let cluster t = t.cluster

let auditor t = t.auditor

let gui t = t.gui

let host t name = Network.host t.net name

let host_ip t name =
  match List.assoc_opt name t.host_plans with
  | Some plan -> plan.hp_ip
  | None -> invalid_arg (Printf.sprintf "Scenario.host_ip: unknown host %s" name)

let switch_count t = t.n_switches

let run_for t span =
  ignore
    (Rf_sim.Engine.run
       ~until:(Rf_sim.Vtime.add (Rf_sim.Engine.now t.engine) span)
       t.engine)

let add_vm_ready_listener t f = Rf_system.add_on_vm_ready t.rf_sys f

let all_configured_at t = Gui.all_green_at t.gui

let routing_converged_at t = t.converged_at

let total_subnets t = t.n_subnets

let fault_events_fired t = Rf_sim.Faults.fired_count t.fault_handle

let last_fault_at t = Rf_sim.Faults.last_fired_at t.fault_handle

(* --- Telemetry ----------------------------------------------------- *)

let prometheus t = Rf_obs.Metrics.to_prometheus (Rf_sim.Engine.metrics t.engine)

let span_stats t = Rf_obs.Export.span_stats (Rf_sim.Engine.tracer t.engine)

let reconverged_at t =
  match (Rf_sim.Faults.last_fired_at t.fault_handle, t.last_route_change_at) with
  | Some fault_at, Some change_at when Rf_sim.Vtime.(fault_at <= change_at) ->
      Some change_at
  | (Some _ | None), (Some _ | None) -> None

(* Outcome fields ride in the meta line so downstream SLO rules can
   judge a run from its telemetry file alone; absent outcomes (never
   converged, no fault plan) simply omit their key, which Slo turns
   into a Fail for rules that require them. All values are fixed
   precision so same-seed runs stay byte-identical. *)
let telemetry_meta t =
  let opt_s key = function
    | Some v -> [ (key, Printf.sprintf "%.3f" (Rf_sim.Vtime.to_s v)) ]
    | None -> []
  in
  let nonzero key n = if n = 0 then [] else [ (key, string_of_int n) ] in
  [
    ("seed", string_of_int t.opts.seed);
    ("switches", string_of_int t.n_switches);
    ("subnets", string_of_int t.n_subnets);
  ]
  @ opt_s "all_green_s" (Gui.all_green_at t.gui)
  @ opt_s "converged_s" t.converged_at
  @ opt_s "last_fault_s" (Rf_sim.Faults.last_fired_at t.fault_handle)
  @ opt_s "reconverged_s" (reconverged_at t)
  @ nonzero "fault_events" (Rf_sim.Faults.fired_count t.fault_handle)
  (* audit keys appear only in audited runs, so unaudited telemetry
     (and its pinned fingerprints) is unchanged; audit_dropped is
     always present when auditing so completeness rules can bind to
     it, even at 0 *)
  @ (match t.auditor with
    | None -> []
    | Some au ->
        let open Rf_net.Auditor in
        [
          ("experiment_audited", "1");
          ("audit_updates", string_of_int (updates au));
          ("audit_eq_classes", string_of_int (eq_classes au));
          ("audit_walks", string_of_int (walks au));
          ("audit_windows", string_of_int (List.length (windows au)));
          ( "audit_open_windows",
            string_of_int (List.length (open_violations au)) );
          ("audit_loop_windows", string_of_int (violations_total au Loop));
          ( "audit_blackhole_windows",
            string_of_int (violations_total au Blackhole) );
          ("audit_rib_fib_windows", string_of_int (violations_total au Rib_fib));
          ("audit_slice_windows", string_of_int (violations_total au Slice));
          ("audit_dropped", string_of_int (dropped au));
        ])
  @
  (* cluster keys appear only in clustered runs, so single-controller
     telemetry (and its pinned fingerprints) is unchanged *)
  match t.cluster with
  | None -> []
  | Some cl ->
      [
        ("replicas", string_of_int (Rf_rpc.Cluster.replicas cl));
        ("elections", string_of_int (Rf_rpc.Cluster.elections cl));
        ("leader_epoch", Int32.to_string (Rf_rpc.Cluster.leader_epoch cl));
      ]
      @ (match Rf_rpc.Cluster.leader cl with
        | Some l -> [ ("leader", string_of_int l) ]
        | None -> [])
      @ (match Rf_rpc.Cluster.last_failover_s cl with
        | Some s -> [ ("failover_s", Printf.sprintf "%.3f" s) ]
        | None -> [])

let telemetry_jsonl t =
  Rf_obs.Export.jsonl ~meta:(telemetry_meta t) (Rf_sim.Engine.tracer t.engine)

let write_telemetry ?(meta = []) t path =
  Rf_obs.Export.write_jsonl
    ~meta:(telemetry_meta t @ meta)
    (Rf_sim.Engine.tracer t.engine)
    path
