(* Per-layer metrics of one traced unit: engine and GC figures, profiler
   busy time split by entity group, the engines' metrics registries,
   component counters, and replays that time public layer functions on
   the unit's end state. *)

module Engine = Rf_sim.Engine
module Profiler = Rf_obs.Profiler
module Scenario = Rf_core.Scenario
module Network = Rf_net.Network

type acc = {
  totals : (string, float) Hashtbl.t;
  mutable heap_peak : int;
}

let create () = { totals = Hashtbl.create 64; heap_peak = 0 }

let get acc key = Option.value ~default:0. (Hashtbl.find_opt acc.totals key)

let bump acc key v = Hashtbl.replace acc.totals key (get acc key +. v)

let bumpi acc key n = bump acc key (float_of_int n)

(* Registry counter [name], summed over its label sets. *)
let counter engine name =
  Rf_obs.Metrics.fold (Engine.metrics engine) ~init:0
    ~counter:(fun acc ~name:n ~labels:_ v ->
      if String.equal n name then acc + v else acc)
    ~gauge:(fun acc ~name:_ ~labels:_ _ -> acc)

let add_parts acc (p : Workloads.parts) =
  List.iter
    (fun e ->
      bumpi acc "sim.events" (Engine.events_executed e);
      bumpi acc "sim.heap_pushes" (Engine.heap_pushes e);
      acc.heap_peak <- max acc.heap_peak (Engine.heap_peak e);
      Rf_obs.Metrics.fold (Engine.metrics e) ~init:()
        ~counter:(fun () ~name ~labels:_ v -> bumpi acc ("reg." ^ name) v)
        ~gauge:(fun () ~name:_ ~labels:_ _ -> ());
      let tr = Engine.tracer e in
      bumpi acc "obs.spans" (Rf_obs.Tracer.span_count tr);
      bumpi acc "obs.trace_events" (Rf_obs.Tracer.event_count tr);
      bumpi acc "obs.trace_dropped" (Rf_sim.Trace.dropped (Engine.trace e)))
    p.engines;
  List.iter
    (fun s ->
      let net = Scenario.network s in
      List.iter
        (fun (_, dp) ->
          bumpi acc "net.dp.forwarded" (Rf_net.Datapath.packets_forwarded dp);
          bumpi acc "net.dp.missed" (Rf_net.Datapath.packets_missed dp))
        (Network.datapaths net);
      bumpi acc "net.queue_drops" (Network.queue_dropped_frames net);
      let app = Scenario.rf_app s in
      bumpi acc "routeflow.flow_mods"
        (Rf_routeflow.Rf_controller_app.flow_mods_sent app);
      bumpi acc "routeflow.packet_ins"
        (Rf_routeflow.Rf_controller_app.packet_ins_relayed app);
      (* Every discovery beyond one per topology link is a link that
         aged out and was found again. *)
      bumpi acc "controller.discovery.link_flaps"
        (counter (Scenario.engine s) "discovery_links_total"
        - List.length
            (Rf_net.Topology.switch_switch_edges (Network.topology net))))
    p.scenarios;
  List.iter
    (fun (g, m) ->
      bumpi acc "traffic.flows" (Rf_traffic.Generator.flows_launched g);
      bumpi acc "traffic.samples" (Rf_traffic.Generator.samples_sent g);
      bumpi acc "traffic.offered" (Rf_traffic.Measure.total_offered m);
      bumpi acc "traffic.lost" (Rf_traffic.Measure.total_lost m))
    p.traffic

(* GC activity of one run call, from [Gc.quick_stat] before and after. *)
let add_gc acc (before : Gc.stat) (after : Gc.stat) =
  bump acc "gc.minor_words" (after.minor_words -. before.minor_words);
  bump acc "gc.promoted_words" (after.promoted_words -. before.promoted_words);
  bumpi acc "sim.major_gcs" (after.major_collections - before.major_collections)

(* --- Profiler busy time by entity group ----------------------------- *)

let busy_groups =
  [
    "controller.of_conn.busy_pct";
    "controller.discovery.busy_pct";
    "rpc.busy_pct";
    "rpc.cluster.busy_pct";
    "net.switch.busy_pct";
    "net.link.busy_pct";
    "net.host.busy_pct";
    "traffic.busy_pct";
    "sim.unattributed_pct";
    "sim.other_busy_pct";
  ]

(* Every entity lands in exactly one group. The switch group includes
   VM and OSPF work, which is scheduled under the switch's entity. *)
let group_of : Profiler.kind -> string = function
  | Component "of-conn" -> "controller.of_conn.busy_pct"
  | Component "discovery" -> "controller.discovery.busy_pct"
  | Component ("rpc-client" | "rpc-server") -> "rpc.busy_pct"
  | Component "cluster" | Controller _ -> "rpc.cluster.busy_pct"
  | Switch _ -> "net.switch.busy_pct"
  | Link _ -> "net.link.busy_pct"
  | Host _ -> "net.host.busy_pct"
  | Component ("traffic" | "measure") -> "traffic.busy_pct"
  | Unattributed -> "sim.unattributed_pct"
  | Idle | Component _ -> "sim.other_busy_pct"

(* Busy nanoseconds per group; [Error] unless they sum to the
   snapshot's busy total. *)
let busy_by_group (sn : Profiler.snapshot) =
  let ns = Hashtbl.create 16 in
  List.iter
    (fun (es : Profiler.entity_stat) ->
      let g = group_of es.es_kind in
      Hashtbl.replace ns g
        (es.es_busy_ns + Option.value ~default:0 (Hashtbl.find_opt ns g)))
    sn.sn_entities;
  let per_group =
    List.map
      (fun g -> (g, Option.value ~default:0 (Hashtbl.find_opt ns g)))
      busy_groups
  in
  let sum = List.fold_left (fun a (_, v) -> a + v) 0 per_group in
  if sum = sn.sn_busy_ns then Ok per_group
  else
    Error
      (Printf.sprintf "profiler groups sum to %d ns, snapshot busy is %d ns"
         sum sn.sn_busy_ns)

(* --- Replays on the end state --------------------------------------- *)

(* Mean wall time of one item of [pass], in ns. Passes repeat for at
   least 20 ms so the microsecond clock's resolution is negligible.
   With nothing to replay the figure is the loop's own per-pass cost. *)
let per_item_ns ~items pass =
  let t0 = Unix.gettimeofday () in
  let passes = ref 0 in
  while Unix.gettimeofday () -. t0 < 0.02 do
    pass ();
    incr passes
  done;
  (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int (!passes * max 1 items)

let ospf_daemons s =
  List.filter_map
    (fun (_, vm) -> Rf_routeflow.Vm.ospfd vm)
    (Rf_routeflow.Rf_system.vms (Scenario.rf_system s))

let entries s =
  List.map
    (fun (_, dp) ->
      let table = Rf_net.Datapath.flow_table dp in
      (table, Rf_net.Flow_table.entries table))
    (Network.datapaths (Scenario.network s))

(* One lookup key per installed destination prefix per switch. *)
let lookup_ns s =
  let base =
    {
      Rf_openflow.Of_match.in_port = 1;
      dl_src = Rf_packet.Mac.zero;
      dl_dst = Rf_packet.Mac.zero;
      dl_vlan = 0xffff;
      dl_pcp = 0;
      dl_type = 0x0800;
      nw_tos = 0;
      nw_proto = 17;
      nw_src = Rf_packet.Ipv4_addr.of_octets 10 0 0 2;
      nw_dst = Rf_packet.Ipv4_addr.any;
      tp_src = 5000;
      tp_dst = 5006;
    }
  in
  let probes =
    List.concat_map
      (fun (table, es) ->
        List.filter_map
          (fun (e : Rf_net.Flow_table.entry) ->
            Option.map
              (fun p ->
                let open Rf_packet.Ipv4_addr in
                let host = if Prefix.length p = 32 then 0 else 1 in
                (table, { base with nw_dst = add (Prefix.network p) host }))
              e.e_match.m_nw_dst)
          es)
      (List.concat_map entries (Option.to_list s))
  in
  per_item_ns ~items:(List.length probes) (fun () ->
      List.iter
        (fun (table, key) -> ignore (Rf_net.Flow_table.lookup table key))
        probes)

(* Encode and decode a flow-mod for every installed entry. *)
let flow_mod_codec_ns s =
  let msgs =
    List.concat_map
      (fun (_, es) ->
        List.map
          (fun (e : Rf_net.Flow_table.entry) ->
            Rf_openflow.Of_msg.msg
              (Rf_openflow.Of_msg.Flow_mod
                 {
                   fm_match = e.e_match;
                   fm_cookie = e.e_cookie;
                   fm_command = Rf_openflow.Of_msg.Add;
                   fm_idle_timeout = e.e_idle_timeout;
                   fm_hard_timeout = e.e_hard_timeout;
                   fm_priority = e.e_priority;
                   fm_buffer_id = None;
                   fm_out_port = None;
                   fm_notify_removed = e.e_notify_removed;
                   fm_actions = e.e_actions;
                 }))
          es)
      (List.concat_map entries (Option.to_list s))
  in
  per_item_ns ~items:(List.length msgs) (fun () ->
      List.iter
        (fun m ->
          ignore
            (Rf_openflow.Of_codec.of_wire (Rf_openflow.Of_codec.to_wire m)))
        msgs)

(* Encode every LSA of one router's database. *)
let lsa_encode_ns s =
  let lsas =
    match List.concat_map ospf_daemons (Option.to_list s) with
    | d :: _ -> Rf_routing.Ospfd.lsdb d
    | [] -> []
  in
  per_item_ns ~items:(List.length lsas) (fun () ->
      List.iter (fun l -> ignore (Rf_packet.Ospf_pkt.lsa_to_wire l)) lsas)

(* A full SPF recomputation per router; the median over routers. *)
let spf_full_us s =
  let daemons = List.concat_map ospf_daemons (Option.to_list s) in
  let per_router =
    List.map
      (fun d ->
        per_item_ns ~items:1 (fun () ->
            ignore (Rf_routing.Ospfd.spf_now_full d))
        /. 1e3)
      daemons
  in
  if per_router = [] then per_item_ns ~items:0 ignore /. 1e3
  else Stats.median per_router

let mean_lsdb s =
  match List.concat_map ospf_daemons (Option.to_list s) with
  | [] -> 0.
  | ds ->
      float_of_int
        (List.fold_left (fun a d -> a + Rf_routing.Ospfd.lsdb_size d) 0 ds)
      /. float_of_int (List.length ds)

(* --- Report ---------------------------------------------------------- *)

type inputs = {
  acc : acc;
  snapshot : Profiler.snapshot;
  traced_wall_s : float;  (** median run time of the traced units *)
  untraced_wall_s : float;  (** median run time of the untraced units *)
  raw_wall_s : float;  (** the untraced median before host correction *)
  slowdown : float;  (** median host slowdown against idle speed *)
  last_case : Workloads.parts;
      (** the traced unit's last case; replays read its last scenario *)
  last_case_wall_s : float;  (** that case's measured run time *)
}

(* (name, unit, value) for every per-layer metric, or [Error] when the
   profiler's groups do not add up. *)
let metrics i =
  match busy_by_group i.snapshot with
  | Error _ as e -> e
  | Ok groups ->
      let acc = i.acc in
      let reg name = get acc ("reg." ^ name) in
      let events = get acc "sim.events" in
      let per_event v = if events > 0. then v /. events else 0. in
      let busy = float_of_int i.snapshot.sn_busy_ns in
      let subject = List.nth_opt (List.rev i.last_case.scenarios) 0 in
      let spf_runs =
        List.fold_left
          (fun a e -> a + counter e "ospf_spf_runs_total")
          0 i.last_case.engines
      in
      let spf_full_us = spf_full_us subject in
      let dp_total = get acc "net.dp.forwarded" +. get acc "net.dp.missed" in
      Ok
        ([
           ("sim.events", "count", events);
           ("sim.events_per_s", "1/s", events /. i.untraced_wall_s);
           ("sim.heap_peak", "count", float_of_int acc.heap_peak);
           ("sim.heap_pushes", "count", get acc "sim.heap_pushes");
           ( "sim.minor_words_per_event",
             "words",
             per_event (get acc "gc.minor_words") );
           ( "sim.promoted_words_per_event",
             "words",
             per_event (get acc "gc.promoted_words") );
           ("sim.major_gcs", "count", get acc "sim.major_gcs");
           ("sim.busy_s", "s", busy /. 1e9);
           ("sim.raw_wall_s", "s", i.raw_wall_s);
           ("sim.host_slowdown", "ratio", i.slowdown);
           ( "sim.attributed_share",
             "ratio",
             Profiler.attributed_share i.snapshot );
           ( "sim.tracing_overhead_pct",
             "%",
             100. *. ((i.traced_wall_s /. i.untraced_wall_s) -. 1.) );
         ]
        @ List.map
            (fun (g, ns) ->
              ( g,
                "%",
                if busy > 0. then 100. *. float_of_int ns /. busy else 0. ))
            groups
        @ [
            ("controller.of_msgs", "count", reg "of_messages_sent_total");
            ("controller.of_faulted", "count", reg "of_messages_faulted_total");
            ( "controller.discovery.probes",
              "count",
              reg "discovery_probes_total" );
            ( "controller.discovery.lldp_rx",
              "count",
              reg "discovery_lldp_rx_total" );
            ( "controller.discovery.link_flaps",
              "count",
              get acc "controller.discovery.link_flaps" );
            ( "flowvisor.msgs",
              "count",
              reg "fv_to_slice_total" +. reg "fv_from_slice_total" );
            ("flowvisor.denied", "count", reg "fv_denied_total");
            ("rpc.sent", "count", reg "rpc_client_sent_total");
            ("rpc.retx", "count", reg "rpc_client_retx_total");
            ("rpc.gave_up", "count", reg "rpc_client_gave_up_total");
            ("rpc.resyncs", "count", reg "rpc_client_resyncs_total");
            ("rpc.cluster.elections", "count", reg "cluster_elections_total");
            ("net.dp.forwarded", "count", get acc "net.dp.forwarded");
            ( "net.dp.miss_share",
              "ratio",
              if dp_total > 0. then get acc "net.dp.missed" /. dp_total
              else 0. );
            ("net.queue_drops", "count", get acc "net.queue_drops");
            ("net.flow_lookup_ns", "ns", lookup_ns subject);
            ("routeflow.flow_mods", "count", get acc "routeflow.flow_mods");
            ("routeflow.flow_exports", "count", reg "vm_flow_exports_total");
            ("routeflow.packet_ins", "count", get acc "routeflow.packet_ins");
            ("routeflow.slow_path", "count", reg "vm_slow_path_total");
            ("routing.spf_runs", "count", reg "ospf_spf_runs_total");
            ("routing.floods", "count", reg "ospf_floods_total");
            ("routing.hellos", "count", reg "ospf_hellos_total");
            ( "routing.adjacencies_full",
              "count",
              reg "ospf_adjacencies_full_total" );
            ("routing.lsdb_lsas", "count", mean_lsdb subject);
            ("routing.spf_full_us", "us", spf_full_us);
            ( "routing.spf_bound_pct",
              "%",
              100. *. float_of_int spf_runs *. spf_full_us /. 1e6
              /. i.last_case_wall_s );
            ("openflow.flow_mod_codec_ns", "ns", flow_mod_codec_ns subject);
            ("packet.lsa_encode_ns", "ns", lsa_encode_ns subject);
            ("traffic.flows", "count", get acc "traffic.flows");
            ("traffic.samples", "count", get acc "traffic.samples");
            ("traffic.offered", "count", get acc "traffic.offered");
            ("traffic.lost", "count", get acc "traffic.lost");
            ("obs.spans", "count", get acc "obs.spans");
            ("obs.trace_events", "count", get acc "obs.trace_events");
            ("obs.trace_dropped", "count", get acc "obs.trace_dropped");
          ])
