module Topology = Rf_net.Topology
module Topo_gen = Rf_net.Topo_gen
module Host = Rf_net.Host
module Rf_system = Rf_routeflow.Rf_system
module Vtime = Rf_sim.Vtime

let to_s_opt = Option.map Vtime.to_s

(* Printers show an absent figure as [none], "-" unless told otherwise. *)
let opt ?(none = "-") fmt = function
  | Some v -> Printf.sprintf fmt v
  | None -> none

let params ~vm_boot_s ~parallel_boot =
  {
    Rf_system.default_params with
    vm_boot_time = Vtime.span_s vm_boot_s;
    parallel_boot;
  }

(* --- E12: forwarding-state audit (shared pieces) ------------------- *)

type audit_window = {
  aw_kind : string;
  aw_key : string;
  aw_open_s : float;
  aw_close_s : float option;  (** [None]: still open at the horizon *)
}

type audit_run = {
  ar_label : string;
  ar_updates : int;
  ar_eq_classes : int;
  ar_walks : int;
  ar_dropped : int;
  ar_loop : int;
  ar_blackhole : int;
  ar_rib_fib : int;
  ar_slice : int;
  ar_window_count : int;
  ar_open_at_end : int;
  ar_converged_s : float option;
  ar_first_fault_s : float option;
  ar_steady_windows : int;
  ar_boot_union_s : float;
  ar_fault_union_s : float;
  ar_fault_windows : audit_window list;
}

(* Total length of the union of half-open [a, b) interval lists, in the
   interval unit (microseconds here). *)
let interval_union ivs =
  List.sort compare ivs
  |> List.fold_left
       (fun (total, edge) (a, b) ->
         if b <= edge then (total, edge) else (total + b - max a edge, b))
       (0, min_int)
  |> fst

(* Every audited run has a first planned fault: the steady-state gate
   closes there. *)
let audit_run_of s ~label ~first_fault_s ~horizon_s =
  let au = Option.get (Scenario.auditor s) in
  let module A = Rf_obs.Auditor in
  let horizon_us = Vtime.to_us (Vtime.of_s horizon_s) in
  let wins = A.windows au in
  let fault_us = Vtime.to_us (Vtime.of_s first_fault_s) in
  let clip lo hi =
    List.filter_map
      (fun (w : A.window) ->
        let a = max w.A.w_open_us lo
        and b = min (Option.value w.A.w_close_us ~default:hi) hi in
        if b > a then Some (a, b) else None)
      wins
  in
  (* The steady-state interval is strictly after convergence and
     strictly before the first planned fault: a window closing exactly
     at convergence (the last flow-mod of the boot) or opening exactly
     at the fault does not count against the quiescent network. *)
  let steady_windows =
    let upto = fault_us - 1 in
    match Option.map Vtime.to_us (Scenario.routing_converged_at s) with
    | Some c when c + 1 <= upto ->
        List.length (A.overlapping au ~start_us:(c + 1) ~stop_us:upto)
    | Some _ | None -> 0
  in
  let row (w : A.window) =
    {
      aw_kind = A.kind_to_string w.A.w_kind;
      aw_key = w.A.w_key;
      aw_open_s = float_of_int w.A.w_open_us /. 1e6;
      aw_close_s = Option.map (fun c -> float_of_int c /. 1e6) w.A.w_close_us;
    }
  in
  let fault_windows =
    List.filter_map
      (fun (w : A.window) ->
        if w.A.w_open_us >= fault_us then Some (row w) else None)
      wins
  in
  {
    ar_label = label;
    ar_updates = A.updates au;
    ar_eq_classes = A.eq_classes au;
    ar_walks = A.walks au;
    ar_dropped = A.dropped au;
    ar_loop = A.violations_total au A.Loop;
    ar_blackhole = A.violations_total au A.Blackhole;
    ar_rib_fib = A.violations_total au A.Rib_fib;
    ar_slice = A.violations_total au A.Slice;
    ar_window_count = List.length wins;
    ar_open_at_end = List.length (A.open_violations au);
    ar_converged_s = to_s_opt (Scenario.routing_converged_at s);
    ar_first_fault_s = Some first_fault_s;
    ar_steady_windows = steady_windows;
    ar_boot_union_s = float_of_int (interval_union (clip 0 fault_us)) /. 1e6;
    ar_fault_union_s =
      float_of_int (interval_union (clip fault_us horizon_us)) /. 1e6;
    ar_fault_windows = fault_windows;
  }

let audit_meta (r : audit_run) =
  [
    ("first_fault_s", opt ~none:"none" "%.3f" r.ar_first_fault_s);
    ("steady_windows", string_of_int r.ar_steady_windows);
    ("boot_union_s", Printf.sprintf "%.3f" r.ar_boot_union_s);
    ("fault_union_s", Printf.sprintf "%.3f" r.ar_fault_union_s);
    ("open_at_horizon", string_of_int r.ar_open_at_end);
  ]

let print_audit_run ppf (r : audit_run) =
  Format.fprintf ppf
    "  [%s] %d audited updates, %d equivalence classes, %d walks, %d \
     unprobed@."
    r.ar_label r.ar_updates r.ar_eq_classes r.ar_walks r.ar_dropped;
  Format.fprintf ppf
    "  [%s] windows loop %d, blackhole %d, rib-fib %d, slice %d; open at \
     horizon %d@."
    r.ar_label r.ar_loop r.ar_blackhole r.ar_rib_fib r.ar_slice
    r.ar_open_at_end;
  Format.fprintf ppf
    "  [%s] violation union: boot %.3f s, post-fault %.3f s; steady-state \
     violations %d@."
    r.ar_label r.ar_boot_union_s r.ar_fault_union_s r.ar_steady_windows;
  let shown = List.filteri (fun i _ -> i < 10) r.ar_fault_windows in
  let extra = List.length r.ar_fault_windows - List.length shown in
  List.iter
    (fun w ->
      Format.fprintf ppf "  [%s]   %-9s %-18s %9.3f -> %s@." r.ar_label
        w.aw_kind w.aw_key w.aw_open_s
        (opt ~none:"open" "%.3f" w.aw_close_s))
    shown;
  if extra > 0 then
    Format.fprintf ppf "  [%s]   ... and %d more@." r.ar_label extra

(* MD5 of the run's full trace dump: same seed, same fingerprint. *)
let trace_fingerprint s =
  Digest.to_hex
    (Digest.string
       (Format.asprintf "%a" Rf_sim.Engine.pp_trace (Scenario.engine s)))

(* --- The run harness ------------------------------------------------ *)

(* Every control-plane experiment below is one or more calls to [run]:
   build [topo] under [options], let [setup] arm the built scenario
   (streams, probes, GUI sampling, pcap taps, traffic), run to
   [horizon_s], then [finish] what [setup] armed. [audit] = (label,
   first planned fault) attaches the auditor and returns its run.
   [telemetry] writes the run's JSONL with the meta list
   [meta s armed audit_meta], so each experiment places the audit keys
   ([audit_meta] is [] when unaudited). *)
let run ?audit ?telemetry ?(meta = fun _ _ _ -> []) ?(finish = ignore) ~setup
    ~options ~horizon_s topo =
  let options = { options with Scenario.audit = Option.is_some audit } in
  let s = Scenario.build ~options topo in
  let armed = setup s in
  Scenario.run_for s (Vtime.span_s horizon_s);
  finish armed;
  let audit_run =
    Option.map
      (fun (label, first_fault_s) ->
        audit_run_of s ~label ~first_fault_s ~horizon_s)
      audit
  in
  Option.iter
    (fun path ->
      Scenario.write_telemetry s path
        ~meta:(meta s armed (Option.fold ~none:[] ~some:audit_meta audit_run)))
    telemetry;
  (s, armed, audit_run)

(* Serialized boots dominate a ring's configuration time. *)
let ring_horizon_s ~vm_boot_s ~parallel_boot n =
  (vm_boot_s *. float_of_int n /. float_of_int parallel_boot) +. 120.

let all_green_or_nan s =
  Option.fold ~none:Float.nan ~some:Vtime.to_s (Scenario.all_configured_at s)

(* Data packets the VMs forwarded on the slow path. *)
let slow_path_total s =
  List.fold_left
    (fun acc (_, vm) -> acc + Rf_routeflow.Vm.packets_forwarded_slow_path vm)
    0
    (Rf_system.vms (Scenario.rf_system s))

(* --- E1: Figure 3 -------------------------------------------------- *)

type fig3_row = {
  f3_switches : int;
  f3_auto_s : float;
  f3_converged_s : float option;
  f3_manual_min : float;
}

let fig3 ?(sizes = [ 4; 8; 12; 16; 20; 24; 28 ]) ?(vm_boot_s = 8.0)
    ?(parallel_boot = 1) ?telemetry ?profiler () =
  let last_size = List.nth sizes (List.length sizes - 1) in
  List.map
    (fun n ->
      let last = n = last_size in
      let options =
        {
          Scenario.default_options with
          rf_params = params ~vm_boot_s ~parallel_boot;
          profiler = (if last then profiler else None);
        }
      in
      let s, (), _ =
        run ~setup:ignore
          ?telemetry:(if last then telemetry else None)
          ~meta:(fun _ () _ -> [ ("experiment", "fig3") ])
          ~options
          ~horizon_s:(ring_horizon_s ~vm_boot_s ~parallel_boot n)
          (Topo_gen.ring n)
      in
      {
        f3_switches = n;
        f3_auto_s = all_green_or_nan s;
        f3_converged_s = to_s_opt (Scenario.routing_converged_at s);
        f3_manual_min =
          Manual_model.total_minutes Manual_model.paper_costs ~switches:n;
      })
    sizes

let print_fig3 ppf rows =
  Format.fprintf ppf
    "Figure 3 — RouteFlow configuration time, ring topologies@.";
  Format.fprintf ppf
    "%-10s %14s %16s %14s %10s@." "switches" "auto (s)" "converged (s)"
    "manual" "speedup";
  List.iter
    (fun r ->
      let manual_s = r.f3_manual_min *. 60. in
      Format.fprintf ppf "%-10d %14.1f %16s %14s %9.0fx@." r.f3_switches
        r.f3_auto_s
        (opt "%.1f" r.f3_converged_s)
        (Format.asprintf "%a" Manual_model.pp_duration r.f3_manual_min)
        (manual_s /. r.f3_auto_s))
    rows

(* --- E1b: per-phase decomposition of the configuration time ------- *)

type phase_row = {
  ph_dpid : int64;
  ph_discovery_s : float;
  ph_rpc_s : float;
  ph_vm_s : float;
  ph_quagga_s : float;
  ph_config_s : float;
}

type phase_breakdown = {
  pb_switches : int;
  pb_rows : phase_row list;
  pb_critical : phase_row;
  pb_all_green_s : float option;
  pb_convergence_tail_s : float option;
  pb_converged_s : float option;
  pb_trace_events : int;
}

let span_dur (sp : Rf_obs.Tracer.span) =
  match sp.Rf_obs.Tracer.end_us with
  | Some e -> float_of_int (e - sp.Rf_obs.Tracer.start_us) /. 1e6
  | None -> 0.

let breakdown_of s =
  let open Rf_obs.Tracer in
  let tracer = Rf_sim.Engine.tracer (Scenario.engine s) in
  let spans = spans tracer in
  let cfgs =
    List.filter (fun sp -> String.equal sp.name "sw.configure") spans
  in
  if cfgs = [] then invalid_arg "breakdown_of: no sw.configure spans yet";
  let row_of cfg =
    let dpid =
      match List.assoc_opt "dpid" cfg.attrs with
      | Some d -> Int64.of_string d
      | None -> -1L
    in
    let child name =
      match
        List.find_opt
          (fun sp -> sp.parent = Some cfg.id && String.equal sp.name name)
          spans
      with
      | Some sp -> span_dur sp
      | None -> 0.
    in
    {
      ph_dpid = dpid;
      ph_discovery_s = child "phase.discovery";
      ph_rpc_s = child "phase.rpc";
      ph_vm_s = child "phase.vm";
      ph_quagga_s = child "phase.quagga";
      ph_config_s = span_dur cfg;
    }
  in
  let rows =
    List.map row_of cfgs
    |> List.sort (fun a b -> Int64.compare a.ph_dpid b.ph_dpid)
  in
  (* Critical path: the configure span that finished last bounds the
     all-green time. *)
  let critical =
    List.fold_left
      (fun acc r -> if r.ph_config_s > acc.ph_config_s then r else acc)
      (List.hd rows) rows
  in
  let convergence =
    List.find_opt (fun sp -> String.equal sp.name "phase.convergence") spans
  in
  {
    pb_switches = List.length rows;
    pb_rows = rows;
    pb_critical = critical;
    pb_all_green_s = to_s_opt (Scenario.all_configured_at s);
    pb_convergence_tail_s = Option.map span_dur convergence;
    pb_converged_s = to_s_opt (Scenario.routing_converged_at s);
    pb_trace_events = event_count tracer;
  }

let phase_run ?(switches = 28) ?(vm_boot_s = 8.0) ?(parallel_boot = 1)
    ?telemetry () =
  let options =
    {
      Scenario.default_options with
      rf_params = params ~vm_boot_s ~parallel_boot;
    }
  in
  let s, (), _ =
    run ~setup:ignore ?telemetry
      ~meta:(fun _ () _ -> [ ("experiment", "e1-phases") ])
      ~options
      ~horizon_s:(ring_horizon_s ~vm_boot_s ~parallel_boot switches)
      (Topo_gen.ring switches)
  in
  s

let print_phases ppf (b : phase_breakdown) =
  Format.fprintf ppf
    "E1 phase decomposition — %d-switch ring, critical path sw%Ld@."
    b.pb_switches b.pb_critical.ph_dpid;
  let c = b.pb_critical in
  let share v =
    if c.ph_config_s > 0. then 100. *. v /. c.ph_config_s else 0.
  in
  let row name v =
    Format.fprintf ppf "  %-22s %10.2f s %7.1f%%@." name v (share v)
  in
  row "discovery" c.ph_discovery_s;
  row "rpc delivery" c.ph_rpc_s;
  row "vm provisioning" c.ph_vm_s;
  row "quagga config" c.ph_quagga_s;
  let phase_sum =
    c.ph_discovery_s +. c.ph_rpc_s +. c.ph_vm_s +. c.ph_quagga_s
  in
  Format.fprintf ppf "  %-22s %10.2f s (phases sum to %.2f s)@."
    "configure total" c.ph_config_s phase_sum;
  (match b.pb_convergence_tail_s with
  | Some v -> Format.fprintf ppf "  %-22s %10.2f s@." "convergence tail" v
  | None -> ());
  (match (b.pb_all_green_s, b.pb_converged_s) with
  | Some g, Some e ->
      Format.fprintf ppf "  %-22s %10.2f s (all green %.2f s)@." "end-to-end" e
        g
  | Some g, None ->
      Format.fprintf ppf "  %-22s %10.2f s (not converged)@." "all green" g
  | None, _ -> Format.fprintf ppf "  configuration incomplete@.");
  Format.fprintf ppf "  trace: %d events@." b.pb_trace_events

(* --- E2: the demonstration ---------------------------------------- *)

type demo_result = {
  d_switches : int;
  d_links : int;
  d_first_green_s : float option;
  d_all_green_s : float option;
  d_converged_s : float option;
  d_video_first_packet_s : float option;
  d_video_sent : int;
  d_video_received : int;
  d_flow_entries_total : int;
  d_slow_path_packets : int;  (** data packets the VMs forwarded *)
  d_steady_sent : int;  (** datagrams sent in the final minute *)
  d_steady_received : int;
  d_gui_timeline : (float * int) list;
  d_gui_final_frame : string;
}

let city_dpid name =
  let rec find i =
    if i > 28 then invalid_arg (Printf.sprintf "unknown city %s" name)
    else if String.equal (Topo_gen.pan_european_city (Int64.of_int i)) name then
      Int64.of_int i
    else find (i + 1)
  in
  find 1

let demo ?(vm_boot_s = 8.0) ?(horizon_s = 360.0) ?(server_city = "Glasgow")
    ?(client_city = "Athens") ?(protocol = Rf_system.Proto_ospf) ?pcap_path
    ?telemetry () =
  let topo = Topo_gen.pan_european () in
  Topology.add_host topo "server";
  Topology.add_host topo "client";
  ignore
    (Topology.connect topo (Topology.Host "server")
       (Topology.Switch (city_dpid server_city)));
  ignore
    (Topology.connect topo (Topology.Host "client")
       (Topology.Switch (city_dpid client_city)));
  let options =
    {
      Scenario.default_options with
      rf_params =
        { (params ~vm_boot_s ~parallel_boot:1) with routing_protocol = protocol };
    }
  in
  let timeline = ref [] in
  let sent_at_mark = ref 0 and recv_at_mark = ref 0 in
  let setup s =
    let server = Scenario.host s "server" in
    let client = Scenario.host s "client" in
    (* The paper streams the clip from t=0, before any VM exists. A
       video-rate stream: 25 fps. *)
    let stream =
      Host.start_udp_stream server ~dst:(Scenario.host_ip s "client")
        ~dst_port:5004 ~period:(Vtime.span_ms 40) ~payload_size:1200 ()
    in
    (* Sample the GUI once per simulated second for the timeline. *)
    let last_green = ref (-1) in
    ignore
      (Rf_sim.Engine.periodic
         ~entity:(Rf_obs.Profiler.component "experiment")
         (Scenario.engine s) (Vtime.span_s 1.0) (fun () ->
           let g = Gui.green_count (Scenario.gui s) in
           if g <> !last_green then begin
             last_green := g;
             timeline :=
               (Vtime.to_s (Rf_sim.Engine.now (Scenario.engine s)), g)
               :: !timeline
           end));
    (* Optional packet capture of the client's access link. *)
    let capture =
      match pcap_path with
      | None -> None
      | Some path -> (
          match
            Rf_net.Network.link (Scenario.network s) (Topology.Host "client")
              (Topology.Switch (city_dpid client_city))
          with
          | Some link ->
              let cap = Rf_net.Pcap.create () in
              Rf_net.Pcap.tap_link (Scenario.engine s) cap link;
              Some (cap, path)
          | None -> None)
    in
    ignore
      (Rf_sim.Engine.schedule
         ~entity:(Rf_obs.Profiler.component "experiment")
         (Scenario.engine s)
         (Vtime.span_s (Float.max 0. (horizon_s -. 60.)))
         (fun () ->
           sent_at_mark := Host.udp_sent server;
           recv_at_mark := Host.udp_received client));
    (stream, capture)
  in
  let s, (stream, capture), _ =
    run ~setup ?telemetry
      ~meta:(fun _ _ _ -> [ ("experiment", "demo") ])
      ~options ~horizon_s topo
  in
  Host.stop_stream stream;
  (match capture with
  | Some (cap, path) -> Rf_net.Pcap.write_file cap path
  | None -> ());
  let server = Scenario.host s "server" in
  let client = Scenario.host s "client" in
  let steady_sent = Host.udp_sent server - !sent_at_mark in
  let steady_recv = Host.udp_received client - !recv_at_mark in
  let flow_total =
    List.fold_left
      (fun acc (_, dp) -> acc + Rf_net.Flow_table.size (Rf_net.Datapath.flow_table dp))
      0
      (Rf_net.Network.datapaths (Scenario.network s))
  in
  let first_green =
    match Gui.timeline (Scenario.gui s) with
    | (_, t) :: _ -> Some (Vtime.to_s t)
    | [] -> None
  in
  {
    d_switches = Topology.switch_count topo;
    d_links = List.length (Topology.switch_switch_edges topo);
    d_first_green_s = first_green;
    d_all_green_s = to_s_opt (Scenario.all_configured_at s);
    d_converged_s = to_s_opt (Scenario.routing_converged_at s);
    d_video_first_packet_s = to_s_opt (Host.first_udp_rx_time client);
    d_video_sent = Host.udp_sent server;
    d_video_received = Host.udp_received client;
    d_flow_entries_total = flow_total;
    d_slow_path_packets = slow_path_total s;
    d_steady_sent = steady_sent;
    d_steady_received = steady_recv;
    d_gui_timeline = List.rev !timeline;
    d_gui_final_frame =
      Gui.render ~label:(fun d -> Topo_gen.pan_european_city d) (Scenario.gui s);
  }

let print_demo ppf (d : demo_result) =
  Format.fprintf ppf
    "Demonstration — pan-European topology (%d switches, %d links)@."
    d.d_switches d.d_links;
  let opt = opt ~none:"not reached" "%.1f s" in
  Format.fprintf ppf "  first switch configured   %s@." (opt d.d_first_green_s);
  Format.fprintf ppf "  all switches configured   %s@." (opt d.d_all_green_s);
  Format.fprintf ppf "  routing converged         %s@." (opt d.d_converged_s);
  Format.fprintf ppf "  video reaches client      %s  (paper: < 4 min)@."
    (opt d.d_video_first_packet_s);
  Format.fprintf ppf "  video datagrams           %d sent, %d delivered@."
    d.d_video_sent d.d_video_received;
  Format.fprintf ppf "  flow entries installed    %d@." d.d_flow_entries_total;
  Format.fprintf ppf "  slow-path packets (VMs)   %d@." d.d_slow_path_packets;
  Format.fprintf ppf
    "  steady-state delivery     %d/%d in the final minute (%.1f%%)@."
    d.d_steady_received d.d_steady_sent
    (100. *. float_of_int d.d_steady_received
    /. float_of_int (max 1 d.d_steady_sent));
  Format.fprintf ppf "  GUI milestones (t, green): %s@."
    (String.concat " "
       (List.map
          (fun (t, g) -> Printf.sprintf "(%.0fs,%d)" t g)
          d.d_gui_timeline));
  Format.fprintf ppf "%s" d.d_gui_final_frame

(* --- E3: failure recovery ------------------------------------------ *)

type recovery_result = {
  fr_seed : int;
  fr_switches : int;
  fr_fail_at_s : float;
  fr_all_green_s : float option;
  fr_converged_s : float option;
  fr_reconverged_s : float option;
  fr_outage_s : float option;
  fr_window_sent : int;
  fr_window_received : int;
  fr_window_lost : int;
  fr_routes_avoid_failed_link : bool;
  fr_trace_fingerprint : string;
  fr_audit : audit_run option;
}

let failure_recovery ?(seed = 42) ?(switches = 6) ?(fail_at_s = 60.0)
    ?(horizon_s = 150.0) ?(audit = false) ?telemetry ?profiler () =
  let window_s = 30.0 in
  if switches < 4 then invalid_arg "failure_recovery: need a ring of >= 4";
  let topo = Topo_gen.ring switches in
  Topology.add_host topo "server";
  Topology.add_host topo "client";
  ignore (Topology.connect topo (Topology.Host "server") (Topology.Switch 1L));
  let far = Int64.of_int ((switches / 2) + 1) in
  ignore (Topology.connect topo (Topology.Host "client") (Topology.Switch far));
  (* Fail a link on the shortest server->client arc, mid-stream. *)
  let fail_a, fail_b = (2L, 3L) in
  let options =
    {
      Scenario.default_options with
      seed;
      rf_params = params ~vm_boot_s:2.0 ~parallel_boot:4;
      faults = Rf_sim.Faults.(plan [ link_down ~at_s:fail_at_s fail_a fail_b ]);
      profiler;
    }
  in
  (* Datagram accounting over the window starting at the failure. *)
  let sent_at_fail = ref 0 and recv_at_fail = ref 0 in
  let sent_at_end = ref 0 and recv_at_end = ref 0 in
  let setup s =
    let server = Scenario.host s "server" in
    let client = Scenario.host s "client" in
    ignore
      (Host.start_udp_stream server ~dst:(Scenario.host_ip s "client")
         ~dst_port:5004 ~period:(Vtime.span_ms 100) ~payload_size:500 ());
    let mark at sent recv =
      ignore
        (Rf_sim.Engine.schedule_at
           ~entity:(Rf_obs.Profiler.component "experiment")
           (Scenario.engine s) (Vtime.of_s at) (fun () ->
             sent := Host.udp_sent server;
             recv := Host.udp_received client))
    in
    mark fail_at_s sent_at_fail recv_at_fail;
    mark (fail_at_s +. window_s) sent_at_end recv_at_end
  in
  let window_sent () = !sent_at_end - !sent_at_fail in
  let window_recv () = !recv_at_end - !recv_at_fail in
  let meta _ () audit =
    audit
    @ [
        ("experiment", "failure");
        ("fail_at_s", Printf.sprintf "%.3f" fail_at_s);
        ("window_s", Printf.sprintf "%.3f" window_s);
        ("window_sent", string_of_int (window_sent ()));
        ("window_received", string_of_int (window_recv ()));
        ("window_lost", string_of_int (window_sent () - window_recv ()));
      ]
  in
  let s, (), audit_run =
    run ~setup
      ?audit:(if audit then Some ("automatic", fail_at_s) else None)
      ?telemetry ~meta ~options ~horizon_s topo
  in
  (* Post-failure routes must not use the interfaces facing the dead
     link. *)
  let avoid =
    match
      Topology.edge_between topo (Topology.Switch fail_a)
        (Topology.Switch fail_b)
    with
    | None -> false
    | Some e ->
        let dead (dpid, port) =
          let iface = Printf.sprintf "eth%d" port in
          match Rf_system.vm (Scenario.rf_system s) dpid with
          | None -> false
          | Some vm ->
              List.exists
                (fun (r : Rf_routing.Rib.route) -> String.equal r.r_iface iface)
                (Rf_routing.Rib.selected (Rf_routeflow.Vm.rib vm))
        in
        let a_side, b_side =
          match e.a with
          | Topology.Switch d when Int64.equal d fail_a ->
              ((fail_a, e.a_port), (fail_b, e.b_port))
          | Topology.Switch _ | Topology.Host _ ->
              ((fail_a, e.b_port), (fail_b, e.a_port))
        in
        (not (dead a_side)) && not (dead b_side)
  in
  let reconverged = Scenario.reconverged_at s in
  {
    fr_seed = seed;
    fr_switches = switches;
    fr_fail_at_s = fail_at_s;
    fr_all_green_s = to_s_opt (Scenario.all_configured_at s);
    fr_converged_s = to_s_opt (Scenario.routing_converged_at s);
    fr_reconverged_s = to_s_opt reconverged;
    fr_outage_s =
      Option.map (fun t -> Vtime.to_s t -. fail_at_s) reconverged;
    fr_window_sent = window_sent ();
    fr_window_received = window_recv ();
    fr_window_lost = window_sent () - window_recv ();
    fr_routes_avoid_failed_link = avoid;
    fr_trace_fingerprint = trace_fingerprint s;
    fr_audit = audit_run;
  }

let print_failure_recovery ppf (r : recovery_result) =
  Format.fprintf ppf
    "Failure recovery — %d-switch ring, link sw2-sw3 cut at t=%.0fs@."
    r.fr_switches r.fr_fail_at_s;
  let opt = opt ~none:"not reached" "%.1f s" in
  Format.fprintf ppf "  all switches configured    %s@." (opt r.fr_all_green_s);
  Format.fprintf ppf "  routing converged          %s@." (opt r.fr_converged_s);
  Format.fprintf ppf "  routes settled after cut   %s@."
    (opt r.fr_reconverged_s);
  Format.fprintf ppf "  reconvergence time         %s@." (opt r.fr_outage_s);
  Format.fprintf ppf
    "  datagrams in post-cut window  %d sent, %d delivered, %d lost@."
    r.fr_window_sent r.fr_window_received r.fr_window_lost;
  Format.fprintf ppf "  routes avoid failed link   %b@."
    r.fr_routes_avoid_failed_link;
  Format.fprintf ppf "  seed %d, trace fingerprint %s@." r.fr_seed
    r.fr_trace_fingerprint;
  Format.fprintf ppf
    "  (rerun with the same seed to reproduce this fingerprint exactly)@."

(* --- E4: controller crash/restart ---------------------------------- *)

type restart_run = {
  rr_label : string;
  rr_configured : int;
  rr_all_green_s : float option;
  rr_converged_s : float option;
  rr_reconverged_s : float option;
  rr_state_digest : string;
  rr_sent : int;
  rr_retx : int;
  rr_gave_up : int;
  rr_pings : int;
  rr_snapshots : int;
  rr_resyncs : int;
  rr_handled : int;
  rr_dups : int;
  rr_undelivered : int;
  rr_incarnation : int;
  rr_trace_fingerprint : string;
  rr_audit : audit_run option;
}

type restart_result = {
  rs_seed : int;
  rs_switches : int;
  rs_crash_at_s : float;
  rs_cut_at_s : float;
  rs_recover_at_s : float;
  rs_baseline : restart_run;  (** no fault *)
  rs_supervised : restart_run;  (** crash/restart, resync on *)
  rs_legacy : restart_run;  (** crash/restart, resync off *)
  rs_supervised_matches : bool;  (** supervised state == baseline state *)
  rs_legacy_matches : bool;
  rs_sync_overhead_msgs : int;
      (** extra tracked frames the supervised run cost over the
          baseline (retransmissions + snapshot) *)
  rs_recovery_s : float option;
      (** routes settled this long after the controller came back *)
}

(* One digest over everything the RF-controller side materialised:
   every VM's config files and its selected routes. Two runs that end
   in the same digest configured the network identically, whatever
   happened to the control plane in between. *)
let rf_state_digest s =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (dpid, vm) ->
      Buffer.add_string buf (Printf.sprintf "vm-%Ld\n" dpid);
      List.iter
        (fun file ->
          match Rf_routeflow.Vm.config_file vm file with
          | Some text ->
              Buffer.add_string buf (Printf.sprintf "--%s--\n%s" file text)
          | None -> ())
        [ "zebra.conf"; "ospfd.conf"; "ripd.conf" ];
      let routes =
        List.map
          (fun (r : Rf_routing.Rib.route) ->
            Printf.sprintf "%s/%s/%s"
              (Rf_packet.Ipv4_addr.Prefix.to_string r.r_prefix)
              (Option.fold ~none:"direct" ~some:Rf_packet.Ipv4_addr.to_string
                 r.r_next_hop)
              r.r_iface)
          (Rf_routing.Rib.selected (Rf_routeflow.Vm.rib vm))
        |> List.sort String.compare
      in
      List.iter
        (fun r ->
          Buffer.add_string buf r;
          Buffer.add_char buf '\n')
        routes)
    (Rf_system.vms (Scenario.rf_system s));
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* Aggressive RPC supervision for the fault experiments, so a whole
   crash/restart exchange fits a short run: frames sent into a dead
   controller park after ~3.5 s instead of minutes. [resync:false] is
   the legacy session without anti-entropy reconciliation. *)
let fault_rpc_params ~resync =
  {
    Rf_rpc.Rpc_client.rto = Vtime.span_s 0.5;
    rto_max = Vtime.span_s 4.0;
    max_retries = 3;
    heartbeat_every = Vtime.span_s 1.0;
    heartbeat_jitter = 0.0;
    dead_after = 3;
    resync;
  }

let restart ?(seed = 42) ?(switches = 8) ?(crash_at_s = 4.0)
    ?(cut_at_s = 8.0) ?(recover_at_s = 20.0) ?(horizon_s = 120.0)
    ?(audit = false) ?telemetry () =
  if switches < 4 then invalid_arg "restart: need a ring of >= 4";
  if not (crash_at_s < cut_at_s && cut_at_s < recover_at_s) then
    invalid_arg "restart: need crash < cut < recover";
  (* All three runs see the same physical event — the sw2-sw3 link dies
     at [cut_at_s] — so they should all end in the same network state.
     What differs is whether the RF-controller was up to hear about it:
     the baseline controller never crashes; the other two are down from
     [crash_at_s] to [recover_at_s], so the Link_down config event has
     nowhere to go and parks after the retry budget. Reconciliation
     recovers it from the post-restart snapshot (the dead link is absent,
     so the stale virtual link is pruned); the legacy session never
     hears of it at all. *)
  let replay ?telemetry label ~faulty ~resync =
    let cut = Rf_sim.Faults.link_down ~at_s:cut_at_s 2L 3L in
    let faults =
      if faulty then
        Rf_sim.Faults.(
          plan
            [
              controller_crash ~at_s:crash_at_s ();
              cut;
              controller_recover ~at_s:recover_at_s ();
            ])
      else Rf_sim.Faults.plan [ cut ]
    in
    let options =
      {
        Scenario.default_options with
        seed;
        rf_params = params ~vm_boot_s:2.0 ~parallel_boot:4;
        rpc_params = fault_rpc_params ~resync;
        faults;
      }
    in
    let undelivered client server =
      Rf_rpc.Rpc_client.unacked client + Rf_rpc.Rpc_server.dedup_size server
    in
    let meta s () audit =
      let client = Scenario.rpc_client s and server = Scenario.rpc_server s in
      audit
      @ [
          ("experiment", "restart");
          ("crash_at_s", Printf.sprintf "%.3f" crash_at_s);
          ("recover_at_s", Printf.sprintf "%.3f" recover_at_s);
          ("rpc_sent", string_of_int (Rf_rpc.Rpc_client.sent client));
          ( "rpc_retx",
            string_of_int (Rf_rpc.Rpc_client.retransmissions client) );
          ("rpc_gave_up", string_of_int (Rf_rpc.Rpc_client.gave_up client));
          ("rpc_undelivered", string_of_int (undelivered client server));
          ( "rpc_handled",
            string_of_int (Rf_rpc.Rpc_server.requests_handled server) );
        ]
    in
    let first_fault_s = if faulty then crash_at_s else cut_at_s in
    let s, (), audit_run =
      run ~setup:ignore
        ?audit:(if audit then Some (label, first_fault_s) else None)
        ?telemetry ~meta ~options ~horizon_s (Topo_gen.ring switches)
    in
    let client = Scenario.rpc_client s in
    let server = Scenario.rpc_server s in
    {
      rr_label = label;
      rr_configured = Rf_system.configured_count (Scenario.rf_system s);
      rr_all_green_s = to_s_opt (Scenario.all_configured_at s);
      rr_converged_s = to_s_opt (Scenario.routing_converged_at s);
      rr_reconverged_s = to_s_opt (Scenario.reconverged_at s);
      rr_state_digest = rf_state_digest s;
      rr_sent = Rf_rpc.Rpc_client.sent client;
      rr_retx = Rf_rpc.Rpc_client.retransmissions client;
      rr_gave_up = Rf_rpc.Rpc_client.gave_up client;
      rr_pings = Rf_rpc.Rpc_client.pings_sent client;
      rr_snapshots = Rf_rpc.Rpc_client.snapshots_sent client;
      rr_resyncs = Rf_rpc.Rpc_client.resyncs client;
      rr_handled = Rf_rpc.Rpc_server.requests_handled server;
      rr_dups = Rf_rpc.Rpc_server.duplicates_dropped server;
      (* Config events the handler never saw and never will: frames
         still parked/unacknowledged at the horizon plus frames stuck in
         the server's reorder buffer behind a gap that will never close.
         Zero under reconciliation (the resync drops parked frames and
         covers them with the snapshot). *)
      rr_undelivered = undelivered client server;
      rr_incarnation = Int32.to_int (Rf_rpc.Rpc_server.incarnation server);
      rr_trace_fingerprint = trace_fingerprint s;
      rr_audit = audit_run;
    }
  in
  let baseline = replay "no-fault" ~faulty:false ~resync:true in
  let supervised =
    replay ?telemetry "crash+reconciliation" ~faulty:true ~resync:true
  in
  let legacy = replay "crash, legacy rpc" ~faulty:true ~resync:false in
  {
    rs_seed = seed;
    rs_switches = switches;
    rs_crash_at_s = crash_at_s;
    rs_cut_at_s = cut_at_s;
    rs_recover_at_s = recover_at_s;
    rs_baseline = baseline;
    rs_supervised = supervised;
    rs_legacy = legacy;
    rs_supervised_matches =
      String.equal supervised.rr_state_digest baseline.rr_state_digest;
    rs_legacy_matches =
      String.equal legacy.rr_state_digest baseline.rr_state_digest;
    rs_sync_overhead_msgs =
      supervised.rr_sent - baseline.rr_sent + supervised.rr_retx;
    rs_recovery_s =
      Option.map (fun t -> t -. recover_at_s) supervised.rr_reconverged_s;
  }

let print_restart ppf (r : restart_result) =
  Format.fprintf ppf
    "Controller restart — %d-switch ring; RF-controller down t=%.0fs..%.0fs, \
     link sw2-sw3 cut at t=%.0fs while it is down@."
    r.rs_switches r.rs_crash_at_s r.rs_recover_at_s r.rs_cut_at_s;
  let opt = opt ~none:"never" "%.1f s" in
  Format.fprintf ppf "%-24s %12s %12s %12s@." "" "no-fault"
    "reconciled" "legacy rpc";
  let row name f =
    Format.fprintf ppf "%-24s %12s %12s %12s@." name (f r.rs_baseline)
      (f r.rs_supervised) (f r.rs_legacy)
  in
  row "switches configured" (fun x -> string_of_int x.rr_configured);
  row "routing converged" (fun x -> opt x.rr_converged_s);
  row "config events lost" (fun x -> string_of_int x.rr_undelivered);
  row "rpc frames sent" (fun x -> string_of_int x.rr_sent);
  row "retransmissions" (fun x -> string_of_int x.rr_retx);
  row "heartbeat pings" (fun x -> string_of_int x.rr_pings);
  row "state snapshots" (fun x -> string_of_int x.rr_snapshots);
  row "server incarnation" (fun x -> string_of_int x.rr_incarnation);
  row "state digest" (fun x -> String.sub x.rr_state_digest 0 12);
  Format.fprintf ppf "  reconciled state == no-fault state   %b@."
    r.rs_supervised_matches;
  Format.fprintf ppf "  legacy state == no-fault state       %b@."
    r.rs_legacy_matches;
  Format.fprintf ppf "  reconvergence after restart          %s@."
    (opt r.rs_recovery_s);
  Format.fprintf ppf "  sync overhead (extra frames)         %d@."
    r.rs_sync_overhead_msgs;
  Format.fprintf ppf "  seed %d, trace fingerprints %s / %s / %s@." r.rs_seed
    (String.sub r.rs_baseline.rr_trace_fingerprint 0 12)
    (String.sub r.rs_supervised.rr_trace_fingerprint 0 12)
    (String.sub r.rs_legacy.rr_trace_fingerprint 0 12);
  Format.fprintf ppf
    "  (rerun with the same seed to reproduce the fingerprints exactly)@."

(* --- E5: GUI frames ------------------------------------------------ *)

let gui_frames ?(vm_boot_s = 8.0) ?(every_s = 30.0) () =
  let options =
    {
      Scenario.default_options with
      rf_params = params ~vm_boot_s ~parallel_boot:1;
    }
  in
  let frames = ref [] in
  let setup s =
    ignore
      (Rf_sim.Engine.periodic
         ~entity:(Rf_obs.Profiler.component "experiment")
         (Scenario.engine s) (Vtime.span_s every_s) (fun () ->
           frames :=
             Gui.render
               ~label:(fun d -> Topo_gen.pan_european_city d)
               (Scenario.gui s)
             :: !frames))
  in
  ignore
    (run ~setup ~options
       ~horizon_s:((vm_boot_s *. 28.) +. 60.)
       (Topo_gen.pan_european ()));
  List.rev !frames

(* --- X1: scaling ---------------------------------------------------- *)

type scaling_row = {
  sc_switches : int;
  sc_auto_s : float;
  sc_manual_min : float;
  sc_events : int;
}

let scaling ?(sizes = [ 50; 100; 250; 500; 1000 ]) () =
  List.map
    (fun n ->
      let options =
        { Scenario.default_options with probe_interval = Vtime.span_s 30.0 }
      in
      let s, (), _ =
        run ~setup:ignore ~options
          ~horizon_s:((8.0 *. float_of_int n) +. 180.)
          (Topo_gen.ring n)
      in
      {
        sc_switches = n;
        sc_auto_s = all_green_or_nan s;
        sc_manual_min =
          Manual_model.total_minutes Manual_model.paper_costs ~switches:n;
        sc_events = Rf_sim.Engine.events_executed (Scenario.engine s);
      })
    sizes

let print_scaling ppf rows =
  Format.fprintf ppf "Scaling — rings beyond the paper's 28 switches@.";
  Format.fprintf ppf "%-10s %12s %16s %12s@." "switches" "auto" "manual"
    "sim events";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-10d %11.0fs %16s %12d@." r.sc_switches r.sc_auto_s
        (Format.asprintf "%a" Manual_model.pp_duration r.sc_manual_min)
        r.sc_events)
    rows

(* --- X2: ablations --------------------------------------------------- *)

type ablation_row = {
  ab_label : string;
  ab_all_green_s : float option;
  ab_converged_s : float option;
}

let run_ablation ~switches options label =
  let s, (), _ =
    run ~setup:ignore ~options
      ~horizon_s:((8.0 *. float_of_int switches) +. 180.)
      (Topo_gen.ring switches)
  in
  {
    ab_label = label;
    ab_all_green_s = to_s_opt (Scenario.all_configured_at s);
    ab_converged_s = to_s_opt (Scenario.routing_converged_at s);
  }

let ablation_parallel_boot ?(switches = 28) () =
  List.map
    (fun p ->
      run_ablation ~switches
        {
          Scenario.default_options with
          rf_params = { Rf_system.default_params with parallel_boot = p };
        }
        (Printf.sprintf "parallel_boot=%d" p))
    [ 1; 2; 4; 8 ]

let ablation_probe_interval ?(switches = 28) () =
  List.map
    (fun secs ->
      run_ablation ~switches
        { Scenario.default_options with probe_interval = Vtime.span_s secs }
        (Printf.sprintf "probe_interval=%.0fs" secs))
    [ 1.; 5.; 15.; 30. ]

let ablation_rpc_latency ?(switches = 28) () =
  List.map
    (fun ms ->
      run_ablation ~switches
        { Scenario.default_options with rpc_latency = Vtime.span_ms ms }
        (Printf.sprintf "rpc_latency=%dms" ms))
    [ 1; 10; 50; 200 ]

let ablation_protocol ?(switches = 28) () =
  List.map
    (fun (label, proto) ->
      run_ablation ~switches
        {
          Scenario.default_options with
          rf_params =
            { Rf_system.default_params with routing_protocol = proto };
        }
        label)
    [ ("protocol=ospf", Rf_system.Proto_ospf); ("protocol=rip", Rf_system.Proto_rip) ]

let print_ablation ppf title rows =
  Format.fprintf ppf "Ablation — %s (28-switch ring)@." title;
  Format.fprintf ppf "%-24s %14s %16s@." "variant" "all green (s)" "converged (s)";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-24s %14s %16s@." r.ab_label
        (opt "%.1f" r.ab_all_green_s)
        (opt "%.1f" r.ab_converged_s))
    rows

(* --- X4: control-plane message census --------------------------------- *)

type census = {
  cn_switches : int;
  cn_links : int;
  cn_lldp_probes : int;
  cn_lldp_received : int;
  cn_rpc_messages : int;
  cn_fv_to_topology : int;
  cn_fv_to_routeflow : int;
  cn_fv_from_topology : int;
  cn_fv_from_routeflow : int;
  cn_flow_mods : int;
  cn_packet_ins_relayed : int;
  cn_packet_outs : int;
  cn_slow_path : int;
  cn_sim_events : int;
}

let census ?(switches = 28) () =
  let s, (), _ =
    run ~setup:ignore ~options:Scenario.default_options
      ~horizon_s:(ring_horizon_s ~vm_boot_s:8.0 ~parallel_boot:1 switches)
      (Topo_gen.ring switches)
  in
  let fv = Scenario.flowvisor s in
  let disc = Scenario.discovery s in
  let app = Scenario.rf_app s in
  {
    cn_switches = switches;
    cn_links = switches;
    cn_lldp_probes = Rf_controller.Discovery.probes_sent disc;
    cn_lldp_received = Rf_controller.Discovery.lldp_received disc;
    cn_rpc_messages = Rf_rpc.Rpc_client.sent (Scenario.rpc_client s);
    cn_fv_to_topology = Rf_flowvisor.Flowvisor.messages_to_slice fv "topology";
    cn_fv_to_routeflow = Rf_flowvisor.Flowvisor.messages_to_slice fv "routeflow";
    cn_fv_from_topology = Rf_flowvisor.Flowvisor.messages_from_slice fv "topology";
    cn_fv_from_routeflow = Rf_flowvisor.Flowvisor.messages_from_slice fv "routeflow";
    cn_flow_mods = Rf_routeflow.Rf_controller_app.flow_mods_sent app;
    cn_packet_ins_relayed = Rf_routeflow.Rf_controller_app.packet_ins_relayed app;
    cn_packet_outs = Rf_routeflow.Rf_controller_app.packet_outs_sent app;
    cn_slow_path = slow_path_total s;
    cn_sim_events = Rf_sim.Engine.events_executed (Scenario.engine s);
  }

let print_census ppf c =
  Format.fprintf ppf
    "Control-plane census — %d-switch ring, full autoconfiguration run@."
    c.cn_switches;
  let row name v = Format.fprintf ppf "  %-36s %10d@." name v in
  row "LLDP probes sent" c.cn_lldp_probes;
  row "LLDP packet-ins received" c.cn_lldp_received;
  row "RPC configuration messages" c.cn_rpc_messages;
  row "FlowVisor -> topology slice msgs" c.cn_fv_to_topology;
  row "FlowVisor <- topology slice msgs" c.cn_fv_from_topology;
  row "FlowVisor -> routeflow slice msgs" c.cn_fv_to_routeflow;
  row "FlowVisor <- routeflow slice msgs" c.cn_fv_from_routeflow;
  row "flow-mods installed" c.cn_flow_mods;
  row "packet-ins relayed into VMs" c.cn_packet_ins_relayed;
  row "packet-outs from VMs" c.cn_packet_outs;
  row "slow-path forwards inside VMs" c.cn_slow_path;
  row "simulator events executed" c.cn_sim_events

(* --- X3: topology families ------------------------------------------ *)

type family_row = {
  fam_name : string;
  fam_switches : int;
  fam_links : int;
  fam_all_green_s : float option;
  fam_converged_s : float option;
}

let topo_families ?(n = 16) () =
  let families =
    [
      ("ring", Topo_gen.ring n);
      ("line", Topo_gen.line n);
      ("star", Topo_gen.star n);
      ("grid", Topo_gen.grid 4 (n / 4));
      ("random", Topo_gen.random ~seed:7 ~n ~extra_edges:(n / 2) ());
    ]
  in
  List.map
    (fun (name, topo) ->
      let s, (), _ =
        run ~setup:ignore ~options:Scenario.default_options
          ~horizon_s:((8.0 *. float_of_int n) +. 180.)
          topo
      in
      {
        fam_name = name;
        fam_switches = Topology.switch_count topo;
        fam_links = List.length (Topology.switch_switch_edges topo);
        fam_all_green_s = to_s_opt (Scenario.all_configured_at s);
        fam_converged_s = to_s_opt (Scenario.routing_converged_at s);
      })
    families

let print_families ppf rows =
  Format.fprintf ppf "Topology families (n≈16, 8 s serialized boots)@.";
  Format.fprintf ppf "%-10s %9s %7s %14s %16s@." "family" "switches" "links"
    "all green (s)" "converged (s)";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-10s %9d %7d %14s %16s@." r.fam_name r.fam_switches
        r.fam_links
        (opt "%.1f" r.fam_all_green_s)
        (opt "%.1f" r.fam_converged_s))
    rows

(* --- E6: data-plane traffic ----------------------------------------- *)

module Traffic_spec = Rf_traffic.Spec
module Traffic_measure = Rf_traffic.Measure
module Traffic_gen = Rf_traffic.Generator

type traffic_run = {
  tw_label : string;
  tw_flows : int;
  tw_offered : int;  (** weighted data-plane packets *)
  tw_delivered : int;
  tw_lost : int;
  tw_disrupted_flows : int;
  tw_window : (float * float) option;
  tw_disruption_s : float;
  tw_reconverged_s : float option;
  tw_queue_dropped : int;
  tw_classes : Traffic_measure.class_summary list;
}

type traffic_result = {
  tr_seed : int;
  tr_switches : int;
  tr_fail_at_s : float;
  tr_manual_response_s : float;
  tr_crash_at_s : float;
  tr_cut_at_s : float;
  tr_recover_at_s : float;
  tr_auto : traffic_run;
  tr_manual : traffic_run;
  tr_reconciled : traffic_run;
  tr_legacy : traffic_run;
  tr_auto_shorter : bool;
}

(* The standard E6 workload: three classes over a ring of hosts, named
   so some flows must cross the sw2-sw3 link that the fault plans cut
   (h02->h03 has no one-hop alternative) and some act as controls on
   the far side of the ring. *)
let traffic_spec ?(start_s = 20.0) ~switches ~horizon_s () =
  let h i = Printf.sprintf "h%02d" (((i - 1) mod switches) + 1) in
  let stop_s = horizon_s -. 10.0 in
  let on_dur = stop_s -. start_s in
  let web_pairs =
    List.init 4 (fun i -> (h (i + 1), h (i + 1 + (switches / 2))))
    |> List.filter (fun (a, b) -> not (String.equal a b))
  in
  Traffic_spec.make ~sample_cap:4 ~loss_timeout_s:2.0
    [
      Traffic_spec.cls ~name:"video" ~payload:200 ~port:5006 ~start_s
        ~pairs:[ (h 2, h 3); (h 1, h 4); (h 7, h 5) ]
        (Traffic_spec.Cbr { rate_pps = 20.0; duration_s = on_dur });
      Traffic_spec.cls ~name:"bursty" ~payload:120 ~port:5007 ~start_s
        ~pairs:[ (h 3, h 2) ]
        (Traffic_spec.On_off
           { rate_pps = 40.0; on_s = 1.0; off_s = 2.0; duration_s = on_dur });
      Traffic_spec.cls ~name:"web" ~payload:64 ~port:5008 ~start_s
        ~pairs:web_pairs
        (Traffic_spec.Poisson
           {
             arrivals_per_s = 4.0;
             size_packets =
               Traffic_spec.Pareto { alpha = 1.3; xmin = 10; cap = 500 };
             packet_rate_pps = 200.0;
             until_s = stop_s;
           });
    ]

let traffic_link_capacity =
  { Rf_net.Link.bandwidth_bps = 10_000_000; queue_frames = 64 }

(* A ring with one host per switch, h01 behind sw1 and so on: every
   switch owns a host subnet, so traffic pairs and audit coverage span
   the whole ring. *)
let hosted_ring switches =
  let topo = Topo_gen.ring switches in
  for i = 1 to switches do
    let name = Printf.sprintf "h%02d" i in
    Topology.add_host topo name;
    ignore
      (Topology.connect topo (Topology.Host name)
         (Topology.Switch (Int64.of_int i)))
  done;
  topo

type cluster_run = {
  cw_traffic : traffic_run;
  cw_replicas : int;
  cw_digest : string;  (** {!rf_state_digest} at the end of the run *)
  cw_elections : int;
  cw_failovers : int;
  cw_failover_s : float option;
      (** most recent leaderless interval, fault to re-election *)
  cw_leader : int option;
  cw_epoch : int32;
  cw_agree : bool;  (** live replicas end on the same committed log *)
  cw_applied : int;  (** committed entries surfaced to RouteFlow *)
  cw_reassignments : int;  (** switch sessions whose OpenFlow role flipped *)
  cw_rejected : int;  (** mutations fenced off outside the commit path *)
  cw_audit : audit_run option;
}

(* One measured scenario run: ring + one host per switch, the given
   fault plan, and the standard workload through the live data plane,
   with the RF-controller replicated [replicas] ways ([1] keeps the
   legacy single controller, so every baseline goes through the same
   code). [experiment] is the telemetry meta tag; [audit_from]
   attaches the forwarding-state auditor, its value being the first
   planned fault time, the steady-state upper bound. *)
let cluster_ring_run ?telemetry ?profiler ?audit_from ~experiment ~label
    ~seed ~switches ~replicas ~horizon_s ~traffic_start_s ~parallel_boot
    ~resync ~faults () =
  let spec = traffic_spec ~start_s:traffic_start_s ~switches ~horizon_s () in
  let options =
    {
      Scenario.default_options with
      seed;
      rf_params = params ~vm_boot_s:2.0 ~parallel_boot;
      rpc_params = fault_rpc_params ~resync;
      faults;
      link_capacity = Some traffic_link_capacity;
      cluster_replicas = replicas;
      profiler;
    }
  in
  let setup s =
    let engine = Scenario.engine s in
    let measure =
      Traffic_measure.create engine
        ~loss_timeout_s:spec.Traffic_spec.loss_timeout_s ()
    in
    let fabric =
      Traffic_gen.live_fabric measure
        ~hosts:(Rf_net.Network.hosts (Scenario.network s))
    in
    let rng = Rf_sim.Rng.create (seed + 1009) in
    ignore (Traffic_gen.start engine ~rng ~measure ~fabric spec);
    measure
  in
  let meta _ measure audit =
    audit
    @ [
        ("experiment", experiment);
        ("run", label);
        ("flows", string_of_int (Traffic_measure.flow_count measure));
        ("offered", string_of_int (Traffic_measure.total_offered measure));
        ("delivered", string_of_int (Traffic_measure.total_delivered measure));
        ("lost", string_of_int (Traffic_measure.total_lost measure));
        ( "disruption_s",
          Printf.sprintf "%.3f" (Traffic_measure.disruption_seconds measure) );
      ]
  in
  let s, measure, audit_run =
    run ~setup ~finish:Traffic_measure.finalize
      ?audit:(Option.map (fun f -> (label, f)) audit_from)
      ?telemetry ~meta ~options ~horizon_s (hosted_ring switches)
  in
  let traffic =
    {
      tw_label = label;
      tw_flows = Traffic_measure.flow_count measure;
      tw_offered = Traffic_measure.total_offered measure;
      tw_delivered = Traffic_measure.total_delivered measure;
      tw_lost = Traffic_measure.total_lost measure;
      tw_disrupted_flows = Traffic_measure.disrupted_flows measure;
      tw_window = Traffic_measure.disruption_window measure;
      tw_disruption_s = Traffic_measure.disruption_seconds measure;
      tw_reconverged_s = to_s_opt (Scenario.reconverged_at s);
      tw_queue_dropped =
        Rf_net.Network.queue_dropped_frames (Scenario.network s);
      tw_classes = Traffic_measure.summaries measure;
    }
  in
  let elections, failovers, failover_s, leader, epoch, agree, applied =
    match Scenario.cluster s with
    | Some cl ->
        ( Rf_rpc.Cluster.elections cl,
          Rf_rpc.Cluster.failovers cl,
          Rf_rpc.Cluster.last_failover_s cl,
          Rf_rpc.Cluster.leader cl,
          Rf_rpc.Cluster.leader_epoch cl,
          Rf_rpc.Cluster.converged cl,
          Rf_rpc.Cluster.applied cl )
    | None -> (0, 0, None, None, 0l, true, 0)
  in
  {
    cw_traffic = traffic;
    cw_replicas = replicas;
    cw_digest = rf_state_digest s;
    cw_elections = elections;
    cw_failovers = failovers;
    cw_failover_s = failover_s;
    cw_leader = leader;
    cw_epoch = epoch;
    cw_agree = agree;
    cw_applied = applied;
    cw_reassignments =
      Rf_routeflow.Rf_controller_app.reassignments (Scenario.rf_app s);
    cw_rejected = Rf_system.mutations_rejected (Scenario.rf_system s);
    cw_audit = audit_run;
  }

let traffic_disruption ?(seed = 42) ?(switches = 8) ?(fail_at_s = 40.0)
    ?(manual_response_s = 25.0) ?(horizon_s = 90.0) ?telemetry ?profiler () =
  if switches < 8 then invalid_arg "traffic_disruption: need a ring of >= 8";
  let crash_at_s = 25.0 and cut_at_s = 30.0 and recover_at_s = 45.0 in
  let cut_fault at = Rf_sim.Faults.link_down ~at_s:at 2L 3L in
  let run ?telemetry ?profiler ~label ~resync faults =
    (cluster_ring_run ?telemetry ?profiler ~experiment:"traffic" ~label ~seed
       ~switches ~replicas:1 ~horizon_s ~traffic_start_s:20.0 ~parallel_boot:4
       ~resync ~faults ())
      .cw_traffic
  in
  (* E3 scenario, automatic: the controller is up, hears the port-down,
     and the virtual topology reconverges on its own. *)
  let auto =
    run ?telemetry ?profiler ~label:"automatic" ~resync:true
      (Rf_sim.Faults.plan [ cut_fault fail_at_s ])
  in
  (* Manual baseline: the same cut, but the routing control platform is
     down across it — the operator notices and brings it back only
     [manual_response_s] later, as with hand-driven configuration. *)
  let manual =
    run ~label:"manual" ~resync:true
      Rf_sim.Faults.(
        plan
          [
            controller_crash ~at_s:(fail_at_s -. 2.0) ();
            cut_fault fail_at_s;
            controller_recover ~at_s:(fail_at_s +. manual_response_s) ();
          ])
  in
  (* E4 scenario: crash + cut + restart, reconciled vs legacy RPC. *)
  let restart_faults =
    Rf_sim.Faults.(
      plan
        [
          controller_crash ~at_s:crash_at_s ();
          cut_fault cut_at_s;
          controller_recover ~at_s:recover_at_s ();
        ])
  in
  let reconciled =
    run ~label:"reconciled" ~resync:true restart_faults
  in
  let legacy =
    run ~label:"legacy" ~resync:false restart_faults
  in
  {
    tr_seed = seed;
    tr_switches = switches;
    tr_fail_at_s = fail_at_s;
    tr_manual_response_s = manual_response_s;
    tr_crash_at_s = crash_at_s;
    tr_cut_at_s = cut_at_s;
    tr_recover_at_s = recover_at_s;
    tr_auto = auto;
    tr_manual = manual;
    tr_reconciled = reconciled;
    tr_legacy = legacy;
    tr_auto_shorter = auto.tw_disruption_s < manual.tw_disruption_s;
  }

let print_traffic_run ppf (r : traffic_run) =
  let window =
    Option.fold ~none:"none"
      ~some:(fun (a, b) -> Printf.sprintf "%.1f-%.1f s" a b)
      r.tw_window
  in
  Format.fprintf ppf
    "  %-12s disruption %6.1f s (window %s), %d/%d flows disrupted@."
    r.tw_label r.tw_disruption_s window r.tw_disrupted_flows r.tw_flows;
  Format.fprintf ppf
    "  %-12s packets: %d offered, %d delivered, %d lost; %d queue drops; \
     routes settled %s@."
    "" r.tw_offered r.tw_delivered r.tw_lost r.tw_queue_dropped
    (opt ~none:"never" "%.1f s" r.tw_reconverged_s)

let print_traffic_classes ppf (r : traffic_run) =
  Format.fprintf ppf "  per-class (%s run):@." r.tw_label;
  Format.fprintf ppf "    %-8s %6s %9s %10s %6s %6s %9s %9s@." "class" "flows"
    "offered" "delivered" "lost" "late" "p50 (ms)" "p99 (ms)";
  List.iter
    (fun (c : Traffic_measure.class_summary) ->
      let ms p =
        opt "%.2f"
          (Option.map (fun s -> 1000.0 *. p s) c.Traffic_measure.cs_latency)
      in
      Format.fprintf ppf "    %-8s %6d %9d %10d %6d %6d %9s %9s@."
        c.Traffic_measure.cs_class c.Traffic_measure.cs_flows
        c.Traffic_measure.cs_offered c.Traffic_measure.cs_delivered
        c.Traffic_measure.cs_lost c.Traffic_measure.cs_late
        (ms (fun s -> s.Rf_sim.Stats.p50))
        (ms (fun s -> s.Rf_sim.Stats.p99)))
    r.tw_classes

let print_traffic ppf (r : traffic_result) =
  Format.fprintf ppf
    "Traffic disruption — %d-switch ring, one host per switch, 10 Mbit/s \
     links, 64-frame queues@."
    r.tr_switches;
  Format.fprintf ppf
    "E3 scenario: link sw2-sw3 cut at t=%.0fs (manual operator responds \
     %.0f s after the cut)@."
    r.tr_fail_at_s r.tr_manual_response_s;
  print_traffic_run ppf r.tr_auto;
  print_traffic_run ppf r.tr_manual;
  Format.fprintf ppf "  automatic disruption strictly shorter than manual: %b@."
    r.tr_auto_shorter;
  Format.fprintf ppf
    "E4 scenario: controller down t=%.0fs..%.0fs, cut at t=%.0fs while it \
     is down@."
    r.tr_crash_at_s r.tr_recover_at_s r.tr_cut_at_s;
  print_traffic_run ppf r.tr_reconciled;
  print_traffic_run ppf r.tr_legacy;
  print_traffic_classes ppf r.tr_auto;
  Format.fprintf ppf "  seed %d@." r.tr_seed

(* --- E6b: traffic scaling (fat-tree, aggregated flows) -------------- *)

type traffic_scale_result = {
  ts_k : int;
  ts_switches : int;
  ts_hosts : int;
  ts_links : int;
  ts_pairs : int;
  ts_flows : int;
  ts_samples : int;
  ts_offered : int;
  ts_delivered : int;
  ts_lost : int;
  ts_horizon_s : float;
  ts_events : int;
  ts_elapsed_s : float;
      (** wall-clock cost (CPU seconds); excluded from deterministic
          summaries *)
}

let traffic_scaling_run ?(seed = 42) ?(k = 20) ?(pairs_per_host = 2)
    ?(arrivals_per_s = 2500.0) ?(horizon_s = 60.0) ?profiler () =
  let topo = Topo_gen.fat_tree k in
  let hosts = Topo_gen.fat_tree_host_count k in
  (* A deterministic random pair list stands in for "everyone talks to
     a few peers". *)
  let pair_rng = Rf_sim.Rng.create (seed + 7919) in
  let pairs =
    List.init (hosts * pairs_per_host) (fun i ->
        let src = i mod hosts in
        let dst =
          let d = ref (Rf_sim.Rng.int pair_rng hosts) in
          while !d = src do
            d := Rf_sim.Rng.int pair_rng hosts
          done;
          !d
        in
        (Topo_gen.fat_tree_host_name src, Topo_gen.fat_tree_host_name dst))
  in
  let host_index name =
    int_of_string (String.sub name 1 (String.length name - 1))
  in
  let latency ~src ~dst =
    Vtime.span_ms
      (max 1 (Topo_gen.fat_tree_hops ~k (host_index src) (host_index dst)))
  in
  let spec =
    Traffic_spec.make ~sample_cap:4 ~loss_timeout_s:2.0
      [
        Traffic_spec.cls ~name:"poisson" ~payload:512 ~port:5009 ~start_s:1.0
          ~pairs
          (Traffic_spec.Poisson
             {
               arrivals_per_s;
               size_packets =
                 Traffic_spec.Pareto { alpha = 1.3; xmin = 8; cap = 2000 };
               packet_rate_pps = 500.0;
               until_s = horizon_s -. 5.0;
             });
      ]
  in
  let engine = Rf_sim.Engine.create ~seed () in
  (match profiler with
  | Some p -> Rf_sim.Engine.set_profiler engine (Some p)
  | None -> ());
  let measure = Traffic_measure.create engine ~loss_timeout_s:2.0 () in
  let fabric = Traffic_gen.aggregate_fabric engine measure ~latency in
  let rng = Rf_sim.Rng.create (seed + 1009) in
  let gen = Traffic_gen.start engine ~rng ~measure ~fabric spec in
  let t0 = Sys.time () in
  ignore (Rf_sim.Engine.run ~until:(Vtime.of_s horizon_s) engine);
  let elapsed = Sys.time () -. t0 in
  Traffic_measure.finalize measure;
  ( {
    ts_k = k;
    ts_switches = Topology.switch_count topo;
    ts_hosts = hosts;
    ts_links = Topology.edge_count topo;
    ts_pairs = List.length pairs;
    ts_flows = Traffic_gen.flows_launched gen;
    ts_samples = Traffic_gen.samples_sent gen;
    ts_offered = Traffic_measure.total_offered measure;
    ts_delivered = Traffic_measure.total_delivered measure;
    ts_lost = Traffic_measure.total_lost measure;
    ts_horizon_s = horizon_s;
    ts_events = Rf_sim.Engine.events_executed engine;
    ts_elapsed_s = elapsed;
  },
  engine )

let traffic_scaling ?seed ?k ?pairs_per_host ?arrivals_per_s ?horizon_s () =
  fst
    (traffic_scaling_run ?seed ?k ?pairs_per_host ?arrivals_per_s ?horizon_s
       ())

(* --- E9: controller-cluster failover under live traffic ------------- *)

type cluster_result = {
  cf_seed : int;
  cf_switches : int;
  cf_replicas : int;
  cf_crash_at_s : float;
  cf_cut_at_s : float;
  cf_recover_at_s : float;
  cf_manual_response_s : float;
  cf_auto : cluster_run;  (** replicated: leader crash, automatic failover *)
  cf_legacy : cluster_run;
      (** single controller: same crash needs the operator *)
  cf_digest_match : bool;
      (** both deployments configured the network identically *)
  cf_auto_shorter : bool;
}

let cluster_failover ?(seed = 42) ?(switches = 28) ?(replicas = 3)
    ?(crash_at_s = 30.0) ?(cut_at_s = 36.0) ?(recover_at_s = 60.0)
    ?(manual_response_s = 25.0) ?(horizon_s = 120.0) ?(traffic_start_s = 20.0)
    ?(parallel_boot = 4) ?(audit = false) ?telemetry ?profiler
    () =
  if switches < 8 then invalid_arg "cluster_failover: need a ring of >= 8";
  if replicas < 3 then invalid_arg "cluster_failover: need >= 3 replicas";
  if not (crash_at_s < cut_at_s && cut_at_s < recover_at_s) then
    invalid_arg "cluster_failover: need crash < cut < recover";
  let cut_fault at = Rf_sim.Faults.link_down ~at_s:at 2L 3L in
  (* Replicated: the acting leader (replica 0, the deterministic
     bootstrap winner) dies just before the link cut. The survivors
     elect a new leader within seconds, it takes the switch sessions
     back as master, and the cut is rerouted as if nothing happened to
     the control plane. Replica 0 later rejoins as a follower. *)
  let audit_from = if audit then Some crash_at_s else None in
  let auto =
    cluster_ring_run ?telemetry ?profiler ?audit_from ~experiment:"cluster"
      ~label:"automatic" ~seed ~switches ~replicas ~horizon_s ~traffic_start_s
      ~parallel_boot ~resync:true
      ~faults:
        Rf_sim.Faults.(
          plan
            [
              controller_crash ~at_s:crash_at_s ~replica:0 ();
              cut_fault cut_at_s;
              controller_recover ~at_s:recover_at_s ~replica:0 ();
            ])
      ()
  in
  (* Single controller: the same crash takes the whole control plane
     down across the cut; the operator notices and restarts it only
     [manual_response_s] later, and resync reconciles from there. *)
  let legacy =
    cluster_ring_run ?audit_from ~experiment:"cluster" ~label:"legacy" ~seed
      ~switches ~replicas:1 ~horizon_s ~traffic_start_s ~parallel_boot
      ~resync:true
      ~faults:
        Rf_sim.Faults.(
          plan
            [
              controller_crash ~at_s:crash_at_s ();
              cut_fault cut_at_s;
              controller_recover ~at_s:(crash_at_s +. manual_response_s) ();
            ])
      ()
  in
  {
    cf_seed = seed;
    cf_switches = switches;
    cf_replicas = replicas;
    cf_crash_at_s = crash_at_s;
    cf_cut_at_s = cut_at_s;
    cf_recover_at_s = recover_at_s;
    cf_manual_response_s = manual_response_s;
    cf_auto = auto;
    cf_legacy = legacy;
    cf_digest_match = String.equal auto.cw_digest legacy.cw_digest;
    cf_auto_shorter =
      auto.cw_traffic.tw_disruption_s < legacy.cw_traffic.tw_disruption_s;
  }

let print_cluster ppf (r : cluster_result) =
  Format.fprintf ppf
    "Cluster failover — %d-switch ring, %d RF-controller replicas, 10 \
     Mbit/s links@."
    r.cf_switches r.cf_replicas;
  Format.fprintf ppf
    "scenario: leader crash at t=%.0fs, link sw2-sw3 cut at t=%.0fs, \
     crashed replica back at t=%.0fs@."
    r.cf_crash_at_s r.cf_cut_at_s r.cf_recover_at_s;
  print_traffic_run ppf r.cf_auto.cw_traffic;
  Format.fprintf ppf
    "  cluster: %d elections, %d failover(s), re-election in %s; leader %s \
     epoch %ld@."
    r.cf_auto.cw_elections r.cf_auto.cw_failovers
    (opt "%.3f s" r.cf_auto.cw_failover_s)
    (opt ~none:"none" "%d" r.cf_auto.cw_leader)
    r.cf_auto.cw_epoch;
  Format.fprintf ppf
    "  cluster: replicas agree on committed log %b, %d entries applied, %d \
     fenced mutations, %d session role flips@."
    r.cf_auto.cw_agree r.cf_auto.cw_applied r.cf_auto.cw_rejected
    r.cf_auto.cw_reassignments;
  Format.fprintf ppf
    "legacy baseline: single controller, operator restarts it %.0f s after \
     the crash@."
    r.cf_manual_response_s;
  print_traffic_run ppf r.cf_legacy.cw_traffic;
  Format.fprintf ppf "  RF state digest (cluster): %s@." r.cf_auto.cw_digest;
  Format.fprintf ppf "  RF state digest (legacy):  %s@." r.cf_legacy.cw_digest;
  Format.fprintf ppf
    "  both deployments configured the network identically: %b@."
    r.cf_digest_match;
  Format.fprintf ppf
    "  automatic disruption strictly shorter than legacy: %b@."
    r.cf_auto_shorter;
  Format.fprintf ppf "  seed %d@." r.cf_seed

let print_traffic_scaling ?(show_rate = false) ppf (r : traffic_scale_result) =
  Format.fprintf ppf
    "Traffic scaling — fat-tree k=%d: %d switches, %d links, %d hosts@."
    r.ts_k r.ts_switches r.ts_links r.ts_hosts;
  Format.fprintf ppf
    "  %d aggregated flows over %d pairs in %.0f s of virtual time@."
    r.ts_flows r.ts_pairs r.ts_horizon_s;
  Format.fprintf ppf
    "  %d probe datagrams standing for %d packets (%.1fx aggregation)@."
    r.ts_samples r.ts_offered
    (float_of_int r.ts_offered /. float_of_int (max 1 r.ts_samples));
  Format.fprintf ppf "  delivered %d, lost %d@." r.ts_delivered r.ts_lost;
  Format.fprintf ppf "  engine events %d@." r.ts_events;
  if show_rate then
    Format.fprintf ppf "  events/sec %.0f (%.2f s elapsed)@."
      (float_of_int r.ts_events /. Float.max 1e-9 r.ts_elapsed_s)
      r.ts_elapsed_s

(* --- E10: engine profile ---------------------------------------------- *)

type profile_result = {
  pf_scale : traffic_scale_result;
  pf_snapshot : Rf_obs.Profiler.snapshot;
  pf_overhead_pct : float option;
}

let profile_scaling ?(seed = 42) ?(k = 20) ?(horizon_s = 60.0)
    ?(measure_overhead = false) ?telemetry () =
  (* Best-of-3 on both sides: single-sample wall-clock deltas on a
     shared machine swing by more than the effect being measured. The
     first baseline run also warms caches for everything after it. *)
  let best_of_3 run = Float.min (run ()) (Float.min (run ()) (run ())) in
  let baseline =
    if measure_overhead then
      Some
        (best_of_3 (fun () ->
             (traffic_scaling ~seed ~k ~horizon_s ()).ts_elapsed_s))
    else None
  in
  let profiler = Rf_obs.Profiler.create () in
  let scale, engine =
    traffic_scaling_run ~seed ~k ~horizon_s ~profiler ()
  in
  let profiled_s =
    if measure_overhead then
      Float.min scale.ts_elapsed_s
        (best_of_3 (fun () ->
             let again, _ =
               traffic_scaling_run ~seed ~k ~horizon_s
                 ~profiler:(Rf_obs.Profiler.create ())
                 ()
             in
             again.ts_elapsed_s))
    else scale.ts_elapsed_s
  in
  let sn = Rf_obs.Profiler.snapshot profiler in
  Rf_obs.Profiler.emit sn
    ~tracer:(Rf_sim.Engine.tracer engine)
    ~metrics:(Rf_sim.Engine.metrics engine)
    ~now_us:(Vtime.to_us (Rf_sim.Engine.now engine));
  (match telemetry with
  | Some path ->
      let meta =
        [
          ("experiment", "profile");
          ("seed", string_of_int seed);
          ("k", string_of_int k);
          ("horizon_s", Printf.sprintf "%.0f" horizon_s);
        ]
        @ Rf_obs.Profiler.meta sn
      in
      Rf_obs.Export.write_jsonl ~meta (Rf_sim.Engine.tracer engine) path
  | None -> ());
  let overhead =
    Option.map
      (fun b -> (profiled_s -. b) /. Float.max 1e-9 b *. 100.)
      baseline
  in
  {
    pf_scale = scale;
    pf_snapshot = sn;
    pf_overhead_pct = overhead;
  }

let print_profile ?(wall = false) ?(top = 10) ppf (r : profile_result) =
  print_traffic_scaling ~show_rate:wall ppf r.pf_scale;
  Rf_obs.Profiler.pp_top ~wall ~top ppf r.pf_snapshot;
  Rf_obs.Profiler.pp_depth_curve ppf r.pf_snapshot;
  match (wall, r.pf_overhead_pct) with
  | true, Some pct ->
      Format.fprintf ppf "profiling overhead: %+.1f%% wall clock@." pct
  | true, None | false, _ -> ()

(* --- E12: forwarding-state audit of the fault replays -------------- *)

type audit_pair = {
  ap_name : string;
  ap_detail : string;
  ap_switches : int;
  ap_auto : audit_run;
  ap_legacy : audit_run;
}

type audit_result = {
  ad_seed : int;
  ad_pairs : audit_pair list;
  ad_steady_total : int;  (** steady-state violations across every run *)
}

(* One audited control-plane replay: the ring with one host per switch
   (every subnet is a configured prefix, so blackhole coverage is
   total), the aggressive RPC supervision of the fault experiments, no
   traffic workload — E12 watches the forwarding *state*, not the
   packets, so the runs stay cheap enough to fingerprint in CI. *)
let audit_ring_run ?telemetry ~scenario ~label ~seed ~switches ~replicas
    ~resync ~faults ~first_fault_s ~horizon_s () =
  let options =
    {
      Scenario.default_options with
      seed;
      rf_params = params ~vm_boot_s:2.0 ~parallel_boot:4;
      rpc_params = fault_rpc_params ~resync;
      faults;
      cluster_replicas = replicas;
    }
  in
  let meta _ () audit =
    [ ("experiment", "audit"); ("scenario", scenario); ("run", label) ] @ audit
  in
  let _, (), audit_run =
    run ~setup:ignore ~audit:(label, first_fault_s) ?telemetry ~meta ~options
      ~horizon_s (hosted_ring switches)
  in
  Option.get audit_run

let audit_windows ?(seed = 42) ?(e3_switches = 6) ?(e4_switches = 8)
    ?(e9_switches = 28) ?(e9_replicas = 3) ?telemetry () =
  if e3_switches < 4 || e4_switches < 4 then
    invalid_arg "audit_windows: need rings of >= 4";
  if e9_switches < 8 then invalid_arg "audit_windows: need an E9 ring >= 8";
  if e9_replicas < 3 then invalid_arg "audit_windows: need >= 3 replicas";
  let cut at = Rf_sim.Faults.link_down ~at_s:at 2L 3L in
  (* E3 replay: link sw2-sw3 cut at t=60 s with the controller up
     (automatic) vs. down across the cut until the operator responds
     (legacy, the E6 manual baseline). *)
  let e3 =
    let auto =
      audit_ring_run ~scenario:"e3-link-cut" ~label:"automatic" ~seed
        ~switches:e3_switches ~replicas:1 ~resync:true
        ~faults:(Rf_sim.Faults.plan [ cut 60.0 ])
        ~first_fault_s:60.0 ~horizon_s:150.0 ()
    in
    let legacy =
      audit_ring_run ~scenario:"e3-link-cut" ~label:"legacy" ~seed
        ~switches:e3_switches ~replicas:1 ~resync:true
        ~faults:
          Rf_sim.Faults.(
            plan
              [
                controller_crash ~at_s:58.0 ();
                cut 60.0;
                controller_recover ~at_s:85.0 ();
              ])
        ~first_fault_s:58.0 ~horizon_s:150.0 ()
    in
    {
      ap_name = "e3-link-cut";
      ap_detail =
        "link sw2-sw3 cut at t=60s; legacy: controller down 58s..85s";
      ap_switches = e3_switches;
      ap_auto = auto;
      ap_legacy = legacy;
    }
  in
  (* E4 replay: crash at 4 s, cut at 8 s while down, restart at 20 s —
     reconciling RPC session (automatic) vs. the legacy session that
     never hears of the cut. *)
  let e4 =
    let faults =
      Rf_sim.Faults.(
        plan
          [
            controller_crash ~at_s:4.0 ();
            cut 8.0;
            controller_recover ~at_s:20.0 ();
          ])
    in
    let run label resync =
      audit_ring_run ~scenario:"e4-restart" ~label ~seed
        ~switches:e4_switches ~replicas:1 ~resync ~faults ~first_fault_s:4.0
        ~horizon_s:120.0 ()
    in
    {
      ap_name = "e4-restart";
      ap_detail =
        "controller down 4s..20s, link sw2-sw3 cut at t=8s; legacy: no \
         resync";
      ap_switches = e4_switches;
      ap_auto = run "automatic" true;
      ap_legacy = run "legacy" false;
    }
  in
  (* E9 replay: the acting leader dies at 30 s, the cut lands at 36 s —
     replicated failover (automatic) vs. the single controller waiting
     25 s for the operator (legacy). Telemetry captures the automatic
     run: its audit.violation spans are the headline windows. *)
  let e9 =
    let auto =
      audit_ring_run ?telemetry ~scenario:"e9-leader-crash" ~label:"automatic"
        ~seed ~switches:e9_switches ~replicas:e9_replicas ~resync:true
        ~faults:
          Rf_sim.Faults.(
            plan
              [
                controller_crash ~at_s:30.0 ~replica:0 ();
                cut 36.0;
                controller_recover ~at_s:60.0 ~replica:0 ();
              ])
        ~first_fault_s:30.0 ~horizon_s:120.0 ()
    in
    let legacy =
      audit_ring_run ~scenario:"e9-leader-crash" ~label:"legacy" ~seed
        ~switches:e9_switches ~replicas:1 ~resync:true
        ~faults:
          Rf_sim.Faults.(
            plan
              [
                controller_crash ~at_s:30.0 ();
                cut 36.0;
                controller_recover ~at_s:55.0 ();
              ])
        ~first_fault_s:30.0 ~horizon_s:120.0 ()
    in
    {
      ap_name = "e9-leader-crash";
      ap_detail =
        "leader crash at t=30s, link sw2-sw3 cut at t=36s; legacy: single \
         controller back at t=55s";
      ap_switches = e9_switches;
      ap_auto = auto;
      ap_legacy = legacy;
    }
  in
  let pairs = [ e3; e4; e9 ] in
  {
    ad_seed = seed;
    ad_pairs = pairs;
    ad_steady_total =
      List.fold_left
        (fun acc p ->
          acc + p.ap_auto.ar_steady_windows + p.ap_legacy.ar_steady_windows)
        0 pairs;
  }

let print_audit ppf (r : audit_result) =
  Format.fprintf ppf
    "Forwarding-state audit — E3/E4/E9 fault replays, one host per switch \
     (seed %d)@."
    r.ad_seed;
  List.iter
    (fun p ->
      Format.fprintf ppf "[%s] %d-switch ring — %s@." p.ap_name p.ap_switches
        p.ap_detail;
      print_audit_run ppf p.ap_auto;
      print_audit_run ppf p.ap_legacy)
    r.ad_pairs;
  Format.fprintf ppf "steady-state violations across all runs: %d@."
    r.ad_steady_total
