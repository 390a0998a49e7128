(* The benchmark's workloads, rebuilt from the library's public
   constructors so that set-up (topology generation, Scenario.build,
   traffic-schedule construction) and run (Engine.run, in steps of
   virtual time) can be timed apart. Every case also checks its own
   outputs and renders a virtual-clock summary, which must not depend
   on wall-clock time or on whether a profiler was attached. *)

module Scenario = Rf_core.Scenario
module Engine = Rf_sim.Engine
module Vtime = Rf_sim.Vtime
module Faults = Rf_sim.Faults
module Topology = Rf_net.Topology
module Topo_gen = Rf_net.Topo_gen
module Spec = Rf_traffic.Spec
module Generator = Rf_traffic.Generator
module Measure = Rf_traffic.Measure

type size = Full | Tiny

type parts = {
  scenarios : Scenario.t list;  (** control-plane scenarios, run order *)
  engines : Engine.t list;  (** every engine the case ran *)
  traffic : (Generator.t * Measure.t) list;
}

type outcome = {
  summary : string;  (** virtual-clock figures only *)
  failures : string list;  (** failed correctness checks *)
}

type prepared = {
  run : (unit -> unit) -> unit;
      (** the timed run calls; the argument is called between steps of
          virtual time, outside them *)
  finish : unit -> outcome;
  parts : parts;
}

type case = {
  label : string;
  setup : Rf_obs.Profiler.t option -> prepared;
      (** everything before the first run call; the profiler, when
          given, is attached before anything is scheduled *)
}

type t = { name : string; cases : seed:int -> size -> case list }

let check cond msg acc = if cond then acc else msg :: acc

let rf_params ~boot_s ~parallel_boot =
  {
    Rf_routeflow.Rf_system.vm_boot_time = Vtime.span_s boot_s;
    parallel_boot;
    config_apply_delay = Vtime.span_ms 200;
    routing_protocol = Rf_routeflow.Rf_system.Proto_ospf;
  }

let us_opt = function Some t -> string_of_int (Vtime.to_us t) | None -> "-"

(* Runs [engine] to [horizon_s] in steps of [step_s] of virtual time and
   calls [pause] between steps. Events run in the same order as in one
   run to the horizon. *)
let run_in_steps engine ~step_s ~horizon_s pause =
  let rec go t =
    let t = Float.min horizon_s (t +. step_s) in
    ignore (Engine.run ~until:(Vtime.of_s t) engine);
    if t < horizon_s then begin
      pause ();
      go t
    end
  in
  go (Vtime.to_s (Engine.now engine))

(* --- Rings: Fig. 3 and X1 ------------------------------------------ *)

(* One serialized-boot ring. Boots are 8 s and strictly serialized, so
   the last switch turns green 8·n s after the first switch-up reaches
   the RF-controller, a few milliseconds into the run, whatever the
   seed. *)
let ring_case ~seed ~n ~probe_s ~horizon_s =
  let setup profiler =
    let options =
      {
        Scenario.default_options with
        seed;
        rf_params = rf_params ~boot_s:8.0 ~parallel_boot:1;
        probe_interval = Vtime.span_s probe_s;
        profiler;
      }
    in
    let s = Scenario.build ~options (Topo_gen.ring n) in
    let finish () =
      let green = Scenario.all_configured_at s in
      let conv = Scenario.routing_converged_at s in
      let failures =
        []
        |> check
             (match green with
             | Some g ->
                 let late_us = Vtime.to_us g - (8_000_000 * n) in
                 late_us >= 0 && late_us < 100_000
             | None -> false)
             (Printf.sprintf "ring-%d seed %d: all-green at %s us, want %d.0 s"
                n seed (us_opt green) (8 * n))
        |> check
             (match conv with
             | Some c -> Vtime.(c < of_s horizon_s)
             | None -> false)
             (Printf.sprintf "ring-%d seed %d: routes not converged" n seed)
      in
      {
        summary =
          Printf.sprintf "ring-%d seed=%d green_us=%s converged_us=%s events=%d"
            n seed (us_opt green) (us_opt conv)
            (Engine.events_executed (Scenario.engine s));
        failures;
      }
    in
    {
      run = run_in_steps (Scenario.engine s) ~step_s:10.0 ~horizon_s;
      finish;
      parts =
        { scenarios = [ s ]; engines = [ Scenario.engine s ]; traffic = [] };
    }
  in
  { label = Printf.sprintf "ring-%d/seed-%d" n seed; setup }

(* Paper Fig. 3: rings 4..28, 5 s probes, 8 s serialized boots. *)
let fig3_sweep =
  let cases ~seed size =
    let sizes, seeds =
      match size with
      | Full -> ([ 4; 8; 12; 16; 20; 24; 28 ], 8)
      | Tiny -> ([ 4; 8 ], 2)
    in
    List.concat_map
      (fun i ->
        List.map
          (fun n ->
            ring_case ~seed:(seed + i) ~n ~probe_s:5.0
              ~horizon_s:((8.0 *. float_of_int n) +. 120.))
          sizes)
      (List.init seeds Fun.id)
  in
  { name = "fig3-sweep"; cases }

let x1_switches = 60

(* X1: one large ring with the scaling experiment's 30 s probes. *)
let x1_ring =
  let cases ~seed size =
    let n = match size with Full -> x1_switches | Tiny -> 8 in
    [
      ring_case ~seed ~n ~probe_s:30.0
        ~horizon_s:((8.0 *. float_of_int n) +. 180.);
    ]
  in
  { name = Printf.sprintf "x1-ring-%d" x1_switches; cases }

(* --- E9: controller failover under live traffic -------------------- *)

let e9_horizon_s = 120.0

let e9_line ~label ~flows ~offered ~delivered ~lost ~disruption_s ~elections
    ~failover_s =
  Printf.sprintf
    "%s flows=%d offered=%d delivered=%d lost=%d disruption_s=%.3f \
     elections=%d failover_s=%s"
    label flows offered delivered lost disruption_s elections
    (match failover_s with Some s -> Printf.sprintf "%.3f" s | None -> "-")

(* Selected routes of every VM, in dpid order. *)
let routes_digest s =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (dpid, vm) ->
      Buffer.add_string buf (Printf.sprintf "vm-%Ld:" dpid);
      List.iter
        (fun (r : Rf_routing.Rib.route) ->
          Buffer.add_string buf
            (Printf.sprintf "%s/%s/%s;"
               (Rf_packet.Ipv4_addr.Prefix.to_string r.r_prefix)
               (match r.r_next_hop with
               | Some nh -> Rf_packet.Ipv4_addr.to_string nh
               | None -> "direct")
               r.r_iface))
        (Rf_routing.Rib.selected (Rf_routeflow.Vm.rib vm));
      Buffer.add_char buf '\n')
    (Rf_routeflow.Rf_system.vms (Scenario.rf_system s));
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* One deployment of the E9 scenario: a ring with one host per switch,
   10 Mbit/s links and the standard E6 traffic, as Experiment builds
   it. *)
let e9_deployment ~seed ~switches ~replicas ~faults profiler =
  let spec =
    Rf_core.Experiment.traffic_spec ~start_s:20.0 ~switches
      ~horizon_s:e9_horizon_s ()
  in
  let topo = Topo_gen.ring switches in
  for i = 1 to switches do
    let name = Printf.sprintf "h%02d" i in
    Topology.add_host topo name;
    ignore
      (Topology.connect topo (Topology.Host name)
         (Topology.Switch (Int64.of_int i)))
  done;
  let options =
    {
      Scenario.default_options with
      seed;
      rf_params = rf_params ~boot_s:2.0 ~parallel_boot:4;
      rpc_params =
        {
          Rf_rpc.Rpc_client.rto = Vtime.span_s 0.5;
          rto_max = Vtime.span_s 4.0;
          max_retries = 3;
          heartbeat_every = Vtime.span_s 1.0;
          heartbeat_jitter = 0.0;
          dead_after = 3;
          resync = true;
        };
      faults;
      link_capacity =
        Some { Rf_net.Link.bandwidth_bps = 10_000_000; queue_frames = 64 };
      cluster_replicas = replicas;
      profiler;
    }
  in
  let s = Scenario.build ~options topo in
  let engine = Scenario.engine s in
  let measure =
    Measure.create engine ~loss_timeout_s:spec.Spec.loss_timeout_s ()
  in
  let fabric =
    Generator.live_fabric measure
      ~hosts:(Rf_net.Network.hosts (Scenario.network s))
  in
  let gen =
    Generator.start engine ~rng:(Rf_sim.Rng.create (seed + 1009)) ~measure
      ~fabric spec
  in
  (s, gen, measure)

let e9_case ~seed ~switches =
  let setup profiler =
    let cut = Faults.link_down ~at_s:36.0 2L 3L in
    let auto =
      e9_deployment ~seed ~switches ~replicas:3 profiler
        ~faults:
          (Faults.plan
             [
               Faults.controller_crash ~at_s:30.0 ~replica:0 ();
               cut;
               Faults.controller_recover ~at_s:60.0 ~replica:0 ();
             ])
    in
    let legacy =
      e9_deployment ~seed ~switches ~replicas:1 profiler
        ~faults:
          (Faults.plan
             [
               Faults.controller_crash ~at_s:30.0 ();
               cut;
               Faults.controller_recover ~at_s:55.0 ();
             ])
    in
    let deployments = [ ("automatic", auto); ("legacy", legacy) ] in
    let s_auto, _, m_auto = auto and s_legacy, _, m_legacy = legacy in
    let run pause =
      List.iter
        (fun (_, (s, _, _)) ->
          run_in_steps (Scenario.engine s) ~step_s:10.0 ~horizon_s:e9_horizon_s
            pause)
        deployments
    in
    let finish () =
      List.iter (fun (_, (_, _, m)) -> Measure.finalize m) deployments;
      let line (label, (s, _, m)) =
        let cl = Scenario.cluster s in
        e9_line ~label ~flows:(Measure.flow_count m)
          ~offered:(Measure.total_offered m)
          ~delivered:(Measure.total_delivered m) ~lost:(Measure.total_lost m)
          ~disruption_s:(Measure.disruption_seconds m)
          ~elections:(Option.fold ~none:0 ~some:Rf_rpc.Cluster.elections cl)
          ~failover_s:(Option.bind cl Rf_rpc.Cluster.last_failover_s)
      in
      let routes_auto = routes_digest s_auto
      and routes_legacy = routes_digest s_legacy in
      let tag = Printf.sprintf "e9 seed %d" seed in
      let failures =
        []
        |> check
             (Option.fold ~none:false ~some:Rf_rpc.Cluster.converged
                (Scenario.cluster s_auto))
             (tag ^ ": replicas disagree")
        |> check
             (Rf_routeflow.Rf_system.mutations_rejected
                (Scenario.rf_system s_auto)
             = 0)
             (tag ^ ": fenced mutations")
        |> check
             (Measure.disruption_seconds m_auto
             < Measure.disruption_seconds m_legacy)
             (tag ^ ": automatic disruption not shorter than legacy")
        |> check
             (List.for_all
                (fun (_, (_, _, m)) ->
                  Measure.total_offered m
                  = Measure.total_delivered m + Measure.total_lost m)
                deployments)
             (tag ^ ": offered <> delivered + lost")
        |> check
             (String.equal routes_auto routes_legacy)
             (tag ^ ": per-VM routes differ between deployments")
      in
      {
        summary =
          String.concat "\n"
            (List.map line deployments
            @ [
                Printf.sprintf "routes=%s events=%d" routes_auto
                  (Engine.events_executed (Scenario.engine s_auto)
                  + Engine.events_executed (Scenario.engine s_legacy));
              ]);
        failures;
      }
    in
    {
      run;
      finish;
      parts =
        {
          scenarios = [ s_auto; s_legacy ];
          engines = [ Scenario.engine s_auto; Scenario.engine s_legacy ];
          traffic = List.map (fun (_, (_, g, m)) -> (g, m)) deployments;
        };
    }
  in
  { label = Printf.sprintf "e9/seed-%d" seed; setup }

let e9_failover =
  let cases ~seed size =
    let switches, seeds = match size with Full -> (28, 3) | Tiny -> (8, 1) in
    List.init seeds (fun i -> e9_case ~seed:(seed + i) ~switches)
  in
  { name = "e9-failover-28"; cases }

(* --- E6b: aggregate fat-tree fabric, no control plane --------------- *)

let e6b_line ~flows ~samples ~offered ~delivered ~lost ~events =
  Printf.sprintf "flows=%d samples=%d offered=%d delivered=%d lost=%d events=%d"
    flows samples offered delivered lost events

let host_index name = int_of_string (String.sub name 1 (String.length name - 1))

(* The E6b scaling workload as Experiment.traffic_scaling builds it:
   two random peers per host, Poisson arrivals with Pareto sizes, and
   delivery after the structural fat-tree hop latency. *)
let e6b_case ~seed ~k ~horizon_s ~min_flows =
  let setup profiler =
    let topo = Topo_gen.fat_tree k in
    let hosts = Topo_gen.fat_tree_host_count k in
    let pair_rng = Rf_sim.Rng.create (seed + 7919) in
    let pairs =
      List.init (hosts * 2) (fun i ->
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
    let latency ~src ~dst =
      Vtime.span_ms
        (max 1 (Topo_gen.fat_tree_hops ~k (host_index src) (host_index dst)))
    in
    let spec =
      Spec.make ~sample_cap:4 ~loss_timeout_s:2.0
        [
          Spec.cls ~name:"poisson" ~payload:512 ~port:5009 ~start_s:1.0 ~pairs
            (Spec.Poisson
               {
                 arrivals_per_s = 2500.0;
                 size_packets =
                   Spec.Pareto { alpha = 1.3; xmin = 8; cap = 2000 };
                 packet_rate_pps = 500.0;
                 until_s = horizon_s -. 5.0;
               });
        ]
    in
    let engine = Engine.create ~seed () in
    Option.iter (fun p -> Engine.set_profiler engine (Some p)) profiler;
    let measure = Measure.create engine ~loss_timeout_s:2.0 () in
    let fabric = Generator.aggregate_fabric engine measure ~latency in
    let gen =
      Generator.start engine ~rng:(Rf_sim.Rng.create (seed + 1009)) ~measure
        ~fabric spec
    in
    let finish () =
      Measure.finalize measure;
      let flows = Generator.flows_launched gen
      and lost = Measure.total_lost measure in
      let tag = Printf.sprintf "e6b k=%d seed %d" k seed in
      let failures =
        []
        |> check (lost = 0) (Printf.sprintf "%s: %d packets lost" tag lost)
        |> check (flows >= min_flows)
             (Printf.sprintf "%s: %d flows, want >= %d" tag flows min_flows)
      in
      {
        summary =
          Printf.sprintf "switches=%d %s" (Topology.switch_count topo)
            (e6b_line ~flows ~samples:(Generator.samples_sent gen)
               ~offered:(Measure.total_offered measure)
               ~delivered:(Measure.total_delivered measure)
               ~lost ~events:(Engine.events_executed engine));
        failures;
      }
    in
    {
      run = run_in_steps engine ~step_s:1.0 ~horizon_s;
      finish;
      parts =
        { scenarios = []; engines = [ engine ]; traffic = [ (gen, measure) ] };
    }
  in
  { label = Printf.sprintf "e6b-k%d/seed-%d" k seed; setup }

let e6b_fattree =
  let cases ~seed size =
    let k, horizon_s, min_flows, seeds =
      match size with
      | Full -> (20, 60.0, 100_000, 4)
      | Tiny -> (4, 10.0, 1_000, 1)
    in
    List.init seeds (fun i ->
        e6b_case ~seed:(seed + i) ~k ~horizon_s ~min_flows)
  in
  { name = "e6b-fattree-k20"; cases }

let all = [ fig3_sweep; x1_ring; e9_failover; e6b_fattree ]

let find name = List.find_opt (fun w -> String.equal w.name name) all
