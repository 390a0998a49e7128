(* A fabric hands out one sender closure per (src, dst, port) pair, so
   endpoint lookups (host resolution, path latency, attribution
   handles) happen once per pair rather than on every probe — Poisson
   classes draw hundreds of thousands of flows from a few thousand
   pairs, and the probe path is the hot path at high arrival rates. *)
type fabric = {
  fab_pair :
    src:string ->
    dst:string ->
    port:int ->
    flow_id:int ->
    seq:int ->
    size:int ->
    unit;
}

let live_fabric measure ~hosts =
  let tbl = Hashtbl.create (List.length hosts * 2) in
  List.iter (fun (name, h) -> Hashtbl.replace tbl name h) hosts;
  let host name =
    match Hashtbl.find_opt tbl name with
    | Some h -> h
    | None -> invalid_arg ("Generator.live_fabric: unknown host " ^ name)
  in
  (* Demux deliveries by probe header, not by port: one handler serves
     every class. *)
  List.iter
    (fun (_, h) ->
      Rf_net.Host.set_udp_handler h
        (fun ~src:_ ~src_port:_ ~dst_port:_ ~payload ->
          match Spec.decode_probe payload with
          | Some (flow_id, seq) -> Measure.delivered measure ~flow_id ~seq
          | None -> ()))
    hosts;
  {
    fab_pair =
      (fun ~src ~dst ~port ->
        let src_h = host src in
        let dst_ip = Rf_net.Host.ip (host dst) in
        fun ~flow_id ~seq ~size ->
          Rf_net.Host.send_udp src_h ~dst:dst_ip ~dst_port:port
            (Spec.encode_probe ~flow_id ~seq ~size));
  }

(* Host attribution handles, cached one per host name; [None] for every
   host when no profiler is installed. *)
let host_entities engine =
  match Rf_sim.Engine.profiler engine with
  | None -> fun _ -> None
  | Some _ ->
      let tbl = Hashtbl.create 64 in
      fun name ->
        match Hashtbl.find_opt tbl name with
        | Some opt -> opt
        | None ->
            let opt = Some (Rf_obs.Profiler.host name) in
            Hashtbl.replace tbl name opt;
            opt

(* With a profiler installed, deliveries are attributed to the
   destination host. *)
let aggregate_fabric engine measure ~latency =
  let ent = host_entities engine in
  {
    fab_pair =
      (fun ~src ~dst ~port:_ ->
        let lat = latency ~src ~dst in
        let entity = ent dst in
        fun ~flow_id ~seq ~size:_ ->
          ignore
            (Rf_sim.Engine.schedule ?entity engine lat (fun () ->
                 Measure.delivered measure ~flow_id ~seq)));
  }

type t = {
  engine : Rf_sim.Engine.t;
  measure : Measure.t;
  fabric : fabric;
  spec : Spec.t;
  class_entity : Rf_obs.Profiler.entity;
  ent_for : string -> Rf_obs.Profiler.entity option;
  mutable flows_launched : int;
  mutable samples_sent : int;
}

(* Everything a pair needs at probe time, resolved once. *)
type pair_ctx = {
  pc_src : string;
  pc_dst : string;
  pc_entity : Rf_obs.Profiler.entity option;
  pc_send : flow_id:int -> seq:int -> size:int -> unit;
}

let pair_ctx t (c : Spec.cls) (src, dst) =
  {
    pc_src = src;
    pc_dst = dst;
    pc_entity = t.ent_for src;
    pc_send = t.fabric.fab_pair ~src ~dst ~port:c.Spec.c_port;
  }

let send t (c : Spec.cls) flow pc ~seq ~weight =
  Measure.sent t.measure flow ~seq ~weight ~bytes:(weight * c.Spec.c_payload);
  t.samples_sent <- t.samples_sent + 1;
  pc.pc_send ~flow_id:(Measure.flow_id flow) ~seq ~size:c.Spec.c_payload

let schedule_at_s t at_s f =
  let at = Rf_sim.Vtime.of_s at_s in
  let now = Rf_sim.Engine.now t.engine in
  if Rf_sim.Vtime.compare at now <= 0 then f ()
  else ignore (Rf_sim.Engine.schedule_at ~entity:t.class_entity t.engine at f)

(* One aggregated flow: [weights] probes paced [gap_s] apart starting
   now. *)
let launch_flow t (c : Spec.cls) pc ~weights ~gap_s =
  let flow =
    Measure.register_flow t.measure ~cls:c.Spec.c_name ~src:pc.pc_src
      ~dst:pc.pc_dst
  in
  t.flows_launched <- t.flows_launched + 1;
  let n = Array.length weights in
  let rec probe seq =
    send t c flow pc ~seq ~weight:weights.(seq);
    if seq + 1 < n then
      ignore
        (Rf_sim.Engine.schedule ?entity:pc.pc_entity t.engine
           (Rf_sim.Vtime.span_s gap_s)
           (fun () -> probe (seq + 1)))
    else Measure.close_flow flow
  in
  probe 0

(* Aggregation: S packets represented by K = min(S, sample_cap) probes
   whose integer weights sum to S. *)
let weights_for ~sample_cap size =
  let k = max 1 (min size sample_cap) in
  let base = size / k and rem = size mod k in
  Array.init k (fun i -> base + if i < rem then 1 else 0)

let start_cbr t (c : Spec.cls) ~rate_pps ~duration_s =
  let period = 1.0 /. rate_pps in
  let n = max 1 (int_of_float (duration_s *. rate_pps)) in
  List.iter
    (fun pair ->
      launch_flow t c (pair_ctx t c pair) ~weights:(Array.make n 1)
        ~gap_s:period)
    c.Spec.c_pairs

let start_on_off t (c : Spec.cls) ~rate_pps ~on_s ~off_s ~duration_s =
  let period = 1.0 /. rate_pps in
  let cycle = on_s +. off_s in
  List.iter
    (fun pair ->
      let pc = pair_ctx t c pair in
      let flow =
        Measure.register_flow t.measure ~cls:c.Spec.c_name ~src:pc.pc_src
          ~dst:pc.pc_dst
      in
      t.flows_launched <- t.flows_launched + 1;
      let seq = ref 0 in
      (* [off_t] is the offset in seconds since the class started; the
         step function runs exactly at class start + off_t. *)
      let rec step off_t =
        if off_t >= duration_s then Measure.close_flow flow
        else
          let pos = Float.rem off_t cycle in
          if pos < on_s then begin
            send t c flow pc ~seq:!seq ~weight:1;
            incr seq;
            after off_t (off_t +. period)
          end
          else after off_t (off_t -. pos +. cycle)
      and after from_t next_t =
        ignore
          (Rf_sim.Engine.schedule ?entity:pc.pc_entity t.engine
             (Rf_sim.Vtime.span_s (next_t -. from_t))
             (fun () -> step next_t))
      in
      step 0.0)
    c.Spec.c_pairs

let start_poisson t rng (c : Spec.cls) ~arrivals_per_s ~size_packets
    ~packet_rate_pps ~until_s =
  let pairs = Array.of_list c.Spec.c_pairs in
  if Array.length pairs = 0 then invalid_arg "Generator: Poisson class with no pairs";
  (* Flows vastly outnumber pairs, so resolve each pair's context once
     up front; [Rng.pick] consumes the same stream either way, keeping
     same-seed runs byte-identical. *)
  let ctxs = Array.map (pair_ctx t c) pairs in
  let sample_cap = t.spec.Spec.sample_cap in
  let rec arrival () =
    let now_s = Rf_sim.Vtime.to_s (Rf_sim.Engine.now t.engine) in
    if now_s < until_s then begin
      let pc = Rf_sim.Rng.pick rng ctxs in
      let size = Spec.draw_size rng size_packets in
      let weights = weights_for ~sample_cap size in
      let duration = float_of_int size /. packet_rate_pps in
      let gap_s = duration /. float_of_int (Array.length weights) in
      launch_flow t c pc ~weights ~gap_s;
      let gap = Rf_sim.Rng.exponential rng (1.0 /. arrivals_per_s) in
      ignore
        (Rf_sim.Engine.schedule ~entity:t.class_entity t.engine
           (Rf_sim.Vtime.span_s gap) arrival)
    end
  in
  arrival ()

let start engine ~rng ~measure ~fabric spec =
  let t =
    {
      engine;
      measure;
      fabric;
      spec;
      class_entity = Rf_obs.Profiler.component "traffic";
      ent_for = host_entities engine;
      flows_launched = 0;
      samples_sent = 0;
    }
  in
  List.iter
    (fun (c : Spec.cls) ->
      (* One independent generator per class, split in class order so
         adding a class never perturbs earlier ones. *)
      let class_rng = Rf_sim.Rng.split rng in
      schedule_at_s t c.Spec.c_start_s (fun () ->
          match c.Spec.c_kind with
          | Spec.Cbr { rate_pps; duration_s } ->
              start_cbr t c ~rate_pps ~duration_s
          | Spec.On_off { rate_pps; on_s; off_s; duration_s } ->
              start_on_off t c ~rate_pps ~on_s ~off_s ~duration_s
          | Spec.Poisson
              { arrivals_per_s; size_packets; packet_rate_pps; until_s } ->
              start_poisson t class_rng c ~arrivals_per_s ~size_packets
                ~packet_rate_pps ~until_s))
    spec.Spec.classes;
  t

let flows_launched t = t.flows_launched

let samples_sent t = t.samples_sent
