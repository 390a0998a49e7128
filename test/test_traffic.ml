(* Tests for the data-plane traffic engine: the probe codec, capacity
   links (conservation under tail drop), the measurement plane's
   disruption windows, the aggregated workload generator, and the
   determinism of the fat-tree scaling experiment. *)

open Rf_packet
module Engine = Rf_sim.Engine
module Vtime = Rf_sim.Vtime
module Rng = Rf_sim.Rng
module Host = Rf_net.Host
module Link = Rf_net.Link
module Spec = Rf_traffic.Spec
module Measure = Rf_traffic.Measure
module Generator = Rf_traffic.Generator
module G = QCheck.Gen

let ip = Ipv4_addr.of_string_exn

let long_factor =
  match Sys.getenv_opt "QCHECK_LONG" with
  | None | Some "" | Some "0" -> 1
  | Some _ -> 10

let prop ?(count = 100) name gen print f =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count:(count * long_factor)
       (QCheck.make ~print gen) f)

(* Two hosts on the same subnet joined by a real link. *)
let linked_host_pair engine ?capacity () =
  let h1 =
    Host.create engine ~name:"h1" ~mac:(Mac.make_local 1) ~ip:(ip "10.0.0.1")
      ~prefix_len:24 ~gateway:(ip "10.0.0.254") ()
  in
  let h2 =
    Host.create engine ~name:"h2" ~mac:(Mac.make_local 2) ~ip:(ip "10.0.0.2")
      ~prefix_len:24 ~gateway:(ip "10.0.0.254") ()
  in
  let link =
    Link.connect engine ~latency:(Vtime.span_ms 1) ?capacity (Link.To_host h1)
      (Link.To_host h2)
  in
  (h1, h2, link)

(* Prime both ARP caches so bursts hit the link instead of the hosts'
   3-deep unresolved-neighbour queue. *)
let prime_arp engine h1 h2 =
  Host.gratuitous_arp h1;
  Host.gratuitous_arp h2;
  ignore (Engine.run ~until:(Vtime.of_s 1.0) engine)

(* --- probe codec ------------------------------------------------------ *)

let prop_probe_roundtrip =
  prop "probe header round-trips"
    (G.pair (G.int_range 0 0xff_ffff) (G.int_range 0 0xffff))
    (fun (f, s) -> Printf.sprintf "flow=%d seq=%d" f s)
    (fun (flow_id, seq) ->
      let size = Spec.probe_header_bytes + 20 in
      Spec.decode_probe (Spec.encode_probe ~flow_id ~seq ~size)
      = Some (flow_id, seq))

let test_probe_rejects_noise () =
  Alcotest.(check (option (pair int int))) "short" None (Spec.decode_probe "xy");
  Alcotest.(check (option (pair int int)))
    "wrong magic" None
    (Spec.decode_probe "NOPEnopenope....")

let prop_draw_size_positive =
  prop "flow sizes are >= 1 and capped"
    (G.pair (G.int_range 0 100_000) (G.int_range 1 500))
    (fun (seed, cap) -> Printf.sprintf "seed=%d cap=%d" seed cap)
    (fun (seed, cap) ->
      let rng = Rng.create seed in
      let d = Spec.Pareto { alpha = 1.3; xmin = 3; cap } in
      let cap = max cap 3 in
      let ok = ref true in
      for _ = 1 to 50 do
        let s = Spec.draw_size rng d in
        if s < 1 || s > cap then ok := false
      done;
      !ok)

(* --- link capacity: conservation under tail drop ---------------------- *)

let prop_link_conservation =
  prop ~count:40 "capacity link: offered = carried + dropped"
    (G.quad (G.int_range 64 2048) (G.int_range 1 16) (G.int_range 1 120)
       (G.int_range 100 3000))
    (fun (bw, q, n, per) ->
      Printf.sprintf "bw=%dkbit q=%d n=%d period=%dus" bw q n per)
    (fun (bw_kbit, queue_frames, n, period_us) ->
      let engine = Engine.create () in
      let capacity = { Link.bandwidth_bps = bw_kbit * 1000; queue_frames } in
      let h1, h2, link = linked_host_pair engine ~capacity () in
      prime_arp engine h1 h2;
      let s =
        Host.start_udp_stream h1 ~dst:(ip "10.0.0.2") ~dst_port:9
          ~period:(Vtime.span_us period_us) ~payload_size:128 ~count:n ()
      in
      ignore (Engine.run ~until:(Vtime.of_s 120.0) engine);
      Host.stop_stream s;
      Link.frames_offered link
      = Link.frames_carried link + Link.frames_dropped link
      && Link.frames_queue_dropped link <= Link.frames_dropped link
      && Host.udp_received h2 <= n)

let test_link_tail_drop_bounds_queue () =
  (* 100 frames blasted back-to-back into a 8-deep queue at 64 kbit/s:
     only the queue depth survives, the rest are tail drops. *)
  let engine = Engine.create () in
  let capacity = { Link.bandwidth_bps = 64_000; queue_frames = 8 } in
  let h1, h2, link = linked_host_pair engine ~capacity () in
  prime_arp engine h1 h2;
  let s =
    Host.start_udp_stream h1 ~dst:(ip "10.0.0.2") ~dst_port:9
      ~period:(Vtime.span_us 1) ~payload_size:256 ~count:100 ()
  in
  ignore (Engine.run ~until:(Vtime.of_s 60.0) engine);
  Host.stop_stream s;
  Alcotest.(check bool) "tail drops happened" true
    (Link.frames_queue_dropped link > 0);
  Alcotest.(check int) "conservation"
    (Link.frames_offered link)
    (Link.frames_carried link + Link.frames_dropped link);
  Alcotest.(check bool) "some datagrams survived" true (Host.udp_received h2 > 0);
  Alcotest.(check bool) "not all datagrams survived" true
    (Host.udp_received h2 < 100)

(* --- link hop: serialization, propagation, flaps ---------------------- *)

(* Sends [n] equal datagrams from h1 at [at], all in one instant, over a
   link with 1 ms latency, by default of 64 kbit/s with a 4-deep queue;
   [flap] may schedule link changes. Returns the link and, earliest
   first, the instant and length of each frame the tap saw arrive. *)
let hop_burst ?(flap = fun _ _ -> ())
    ?(capacity = Some { Link.bandwidth_bps = 64_000; queue_frames = 4 }) ~at n =
  let engine = Engine.create () in
  let h1, h2, link = linked_host_pair engine ?capacity () in
  prime_arp engine h1 h2;
  let arrivals = ref [] in
  Link.set_tap link (fun frame ->
      arrivals := (Engine.now engine, String.length frame) :: !arrivals);
  ignore
    (Engine.schedule_at engine at (fun () ->
         for _ = 1 to n do
           Host.send_udp h1 ~src_port:5000 ~dst:(ip "10.0.0.2") ~dst_port:9
             (String.make 100 'x')
         done));
  flap engine link;
  ignore (Engine.run ~until:(Vtime.of_s 10.0) engine);
  (link, List.rev !arrivals)

let test_link_burst_arrivals () =
  (* The k-th accepted frame waits for k serializations, then the 1 ms
     latency; the frames beyond the queue depth are tail drops. *)
  let t0 = Vtime.of_s 2.0 in
  let link, arrivals = hop_burst ~at:t0 10 in
  let len = match arrivals with (_, len) :: _ -> len | [] -> 0 in
  let serialization_us = 8 * len * 1_000_000 / 64_000 in
  Alcotest.(check (list int))
    "arrivals"
    (List.init 4 (fun k -> Vtime.to_us t0 + ((k + 1) * serialization_us) + 1000))
    (List.map (fun (at, _) -> Vtime.to_us at) arrivals);
  Alcotest.(check int) "queue drops" 6 (Link.frames_queue_dropped link);
  Alcotest.(check int) "conservation"
    (Link.frames_offered link)
    (Link.frames_carried link + Link.frames_dropped link)

let test_link_flap_drops_in_flight () =
  (* Down and up again while the frame is in flight: it is lost,
     although the link is up when it would have arrived. On the capacity
     link the flap falls while the frame serializes; on the link without
     capacity, within its 1 ms latency. *)
  let t0 = Vtime.of_s 2.0 in
  List.iter
    (fun (name, capacity, down_us, up_us) ->
      let flap engine link =
        ignore
          (Engine.schedule_at engine
             (Vtime.add t0 (Vtime.span_us down_us))
             (fun () -> Link.set_up link false));
        ignore
          (Engine.schedule_at engine
             (Vtime.add t0 (Vtime.span_us up_us))
             (fun () -> Link.set_up link true))
      in
      let link, arrivals = hop_burst ~flap ~capacity ~at:t0 1 in
      let check what = Alcotest.(check int) (name ^ ": " ^ what) in
      check "nothing arrives" 0 (List.length arrivals);
      Alcotest.(check bool) (name ^ ": link up") true (Link.is_up link);
      check "offered" 3 (Link.frames_offered link);
      check "dropped" 1 (Link.frames_dropped link);
      check "not a queue drop" 0 (Link.frames_queue_dropped link))
    [
      ( "64 kbit/s",
        Some { Link.bandwidth_bps = 64_000; queue_frames = 4 },
        5_000,
        6_000 );
      ("no capacity", None, 200, 500);
    ]

(* --- workload conservation over an ideal fabric ----------------------- *)

let workload_spec =
  Spec.make ~sample_cap:4 ~loss_timeout_s:1.0
    [
      Spec.cls ~name:"web"
        ~pairs:[ ("a", "b"); ("b", "c"); ("c", "a") ]
        (Spec.Poisson
           {
             arrivals_per_s = 50.0;
             size_packets = Spec.Pareto { alpha = 1.3; xmin = 5; cap = 200 };
             packet_rate_pps = 100.0;
             until_s = 5.0;
           });
      Spec.cls ~name:"video" ~pairs:[ ("a", "c") ]
        (Spec.Cbr { rate_pps = 25.0; duration_s = 4.0 });
      Spec.cls ~name:"bursty" ~pairs:[ ("b", "a") ]
        (Spec.On_off
           { rate_pps = 40.0; on_s = 0.5; off_s = 0.5; duration_s = 4.0 });
    ]

let prop_workload_conservation =
  prop ~count:15 "any seed: delivered + lost = offered; no loss => no window"
    (G.int_range 0 100_000) string_of_int (fun seed ->
      let engine = Engine.create ~seed () in
      let measure = Measure.create engine ~loss_timeout_s:1.0 () in
      let fabric =
        Generator.aggregate_fabric engine measure ~latency:(fun ~src:_ ~dst:_ ->
            Vtime.span_ms 5)
      in
      let gen =
        Generator.start engine ~rng:(Rng.create seed) ~measure ~fabric
          workload_spec
      in
      ignore (Engine.run ~until:(Vtime.of_s 30.0) engine);
      Measure.finalize measure;
      Generator.flows_launched gen > 0
      && Measure.total_offered measure
         = Measure.total_delivered measure + Measure.total_lost measure
      && Measure.total_lost measure = 0
      && Measure.disruption_window measure = None
      && Measure.disrupted_flows measure = 0)

(* --- disruption window on a live fabric ------------------------------- *)

let test_loss_window_detected () =
  let engine = Engine.create ~seed:7 () in
  let measure = Measure.create engine ~loss_timeout_s:0.5 () in
  let h1, h2, link = linked_host_pair engine () in
  let fabric =
    Generator.live_fabric measure ~hosts:[ ("h1", h1); ("h2", h2) ]
  in
  let spec =
    Spec.make ~sample_cap:1 ~loss_timeout_s:0.5
      [
        Spec.cls ~name:"cbr" ~pairs:[ ("h1", "h2") ]
          (Spec.Cbr { rate_pps = 10.0; duration_s = 5.0 });
      ]
  in
  (* Link down over (1.95 s, 3.05 s): probes sent in [2.0, 3.0] are
     lost, everything else arrives. *)
  ignore
    (Engine.schedule_at engine (Vtime.of_s 1.95) (fun () ->
         Link.set_up link false));
  ignore
    (Engine.schedule_at engine (Vtime.of_s 3.05) (fun () ->
         Link.set_up link true));
  let _gen = Generator.start engine ~rng:(Rng.create 7) ~measure ~fabric spec in
  ignore (Engine.run ~until:(Vtime.of_s 10.0) engine);
  Measure.finalize measure;
  Alcotest.(check int) "conservation"
    (Measure.total_offered measure)
    (Measure.total_delivered measure + Measure.total_lost measure);
  Alcotest.(check bool) "losses recorded" true (Measure.total_lost measure >= 5);
  Alcotest.(check int) "one disrupted flow" 1 (Measure.disrupted_flows measure);
  match Measure.disruption_window measure with
  | None -> Alcotest.fail "no disruption window"
  | Some (lo, hi) ->
      Alcotest.(check bool) "window starts at the cut" true
        (lo >= 1.9 && lo <= 2.2);
      Alcotest.(check bool) "window ends at the last loss" true
        (hi >= 2.8 && hi <= 3.1)

(* --- the measurement plane against its list-and-table model ---------- *)

(* The accounting the flat measurement plane replaced: every flow kept
   for the whole run in a table and a list, the class found by name on
   every probe, outstanding probes as (seq, sample) pairs. Summaries,
   totals, metrics and spans must come out the same from both. *)
module Ref_measure = struct
  type sample = { s_sent : Vtime.t; s_weight : int; s_bytes : int }

  type flow = {
    f_id : int;
    f_class : string;
    f_src : string;
    f_dst : string;
    mutable f_offered : int;
    mutable f_delivered : int;
    mutable f_lost : int;
    mutable f_late : int;
    mutable f_bytes : int;
    mutable f_outstanding : (int * sample) list;  (* newest first *)
    mutable f_first_loss : Vtime.t option;
    mutable f_last_loss : Vtime.t option;
    mutable f_disruption_span : int option;
    mutable f_closed : bool;
    mutable f_watched : bool;
  }

  type cls_state = {
    k_name : string;
    k_latency : Rf_sim.Stats.series;
    k_offered : Rf_obs.Metrics.counter;
    k_delivered : Rf_obs.Metrics.counter;
    k_lost : Rf_obs.Metrics.counter;
    k_hist : Rf_obs.Metrics.histogram;
  }

  type t = {
    engine : Engine.t;
    loss_timeout : Vtime.span;
    by_id : (int, flow) Hashtbl.t;
    cls_tbl : (string, cls_state) Hashtbl.t;
    mutable cls_order : cls_state list;
    mutable all_flows : flow list;  (* newest first *)
    mutable watched : flow list;
    mutable next_id : int;
    mutable reaper : Engine.timer option;
    mutable finalized : bool;
  }

  let create engine ~loss_timeout_s =
    {
      engine;
      loss_timeout = Vtime.span_s loss_timeout_s;
      by_id = Hashtbl.create 16;
      cls_tbl = Hashtbl.create 8;
      cls_order = [];
      all_flows = [];
      watched = [];
      next_id = 0;
      reaper = None;
      finalized = false;
    }

  let cls_state t name =
    match Hashtbl.find_opt t.cls_tbl name with
    | Some k -> k
    | None ->
        let m = Engine.metrics t.engine in
        let labels = [ ("class", name) ] in
        let k =
          {
            k_name = name;
            k_latency = Rf_sim.Stats.series ();
            k_offered =
              Rf_obs.Metrics.counter m ~labels
                ~help:"Weighted data-plane packets offered"
                "traffic_offered_packets_total";
            k_delivered =
              Rf_obs.Metrics.counter m ~labels
                ~help:"Weighted data-plane packets delivered"
                "traffic_delivered_packets_total";
            k_lost =
              Rf_obs.Metrics.counter m ~labels
                ~help:"Weighted data-plane packets lost"
                "traffic_lost_packets_total";
            k_hist =
              Rf_obs.Metrics.histogram m ~labels ~help:"Probe one-way delay"
                "traffic_latency_seconds";
          }
        in
        Hashtbl.replace t.cls_tbl name k;
        t.cls_order <- k :: t.cls_order;
        k

  let register_flow t ~cls ~src ~dst =
    ignore (cls_state t cls);
    let f =
      {
        f_id = t.next_id;
        f_class = cls;
        f_src = src;
        f_dst = dst;
        f_offered = 0;
        f_delivered = 0;
        f_lost = 0;
        f_late = 0;
        f_bytes = 0;
        f_outstanding = [];
        f_first_loss = None;
        f_last_loss = None;
        f_disruption_span = None;
        f_closed = false;
        f_watched = false;
      }
    in
    t.next_id <- t.next_id + 1;
    Hashtbl.replace t.by_id f.f_id f;
    t.all_flows <- f :: t.all_flows;
    f

  let mark_lost t f s =
    f.f_lost <- f.f_lost + s.s_weight;
    Rf_obs.Metrics.incr ~by:s.s_weight (cls_state t f.f_class).k_lost;
    (match f.f_first_loss with
    | Some w when Vtime.compare s.s_sent w >= 0 -> ()
    | _ -> f.f_first_loss <- Some s.s_sent);
    (match f.f_last_loss with
    | Some w when Vtime.compare s.s_sent w <= 0 -> ()
    | _ -> f.f_last_loss <- Some s.s_sent);
    if f.f_disruption_span = None then
      f.f_disruption_span <-
        Some
          (Rf_obs.Tracer.span_start (Engine.tracer t.engine)
             ~start_us:(Vtime.to_us s.s_sent)
             ~attrs:
               [
                 ("class", f.f_class);
                 ("flow", string_of_int f.f_id);
                 ("src", f.f_src);
                 ("dst", f.f_dst);
               ]
             "traffic.disruption")

  let close_disruption t f =
    match f.f_disruption_span with
    | None -> ()
    | Some id ->
        Rf_obs.Tracer.span_end (Engine.tracer t.engine)
          ~attrs:[ ("lost_packets", string_of_int f.f_lost) ]
          id;
        f.f_disruption_span <- None

  let reap_flow t ?(all_outstanding = false) f ~now =
    let deadline =
      Vtime.add now (Vtime.span_scale (-1.0) t.loss_timeout)
    in
    let kept, lost =
      List.partition
        (fun (_, s) ->
          (not all_outstanding) && Vtime.compare s.s_sent deadline > 0)
        f.f_outstanding
    in
    if lost <> [] then begin
      List.iter (fun (_, s) -> mark_lost t f s) (List.rev lost);
      f.f_outstanding <- kept
    end

  let sent t f ~seq ~weight ~bytes =
    let now = Engine.now t.engine in
    f.f_offered <- f.f_offered + weight;
    f.f_outstanding <-
      (seq, { s_sent = now; s_weight = weight; s_bytes = bytes })
      :: f.f_outstanding;
    Rf_obs.Metrics.incr ~by:weight (cls_state t f.f_class).k_offered;
    if not f.f_watched then begin
      f.f_watched <- true;
      t.watched <- f :: t.watched
    end;
    if t.reaper = None && not t.finalized then
      t.reaper <-
        Some
          (Engine.periodic
             ~entity:(Rf_obs.Profiler.component "measure")
             t.engine (Vtime.span_ms 500) (fun () ->
               let now = Engine.now t.engine in
               t.watched <-
                 List.filter
                   (fun f ->
                     reap_flow t f ~now;
                     not (f.f_closed && f.f_outstanding = []))
                   t.watched))

  let delivered t ~flow_id ~seq =
    match Hashtbl.find_opt t.by_id flow_id with
    | None -> ()
    | Some f -> (
        match List.assoc_opt seq f.f_outstanding with
        | None -> f.f_late <- f.f_late + 1
        | Some s ->
            let now = Engine.now t.engine in
            f.f_outstanding <-
              List.filter (fun (q, _) -> q <> seq) f.f_outstanding;
            f.f_delivered <- f.f_delivered + s.s_weight;
            f.f_bytes <- f.f_bytes + s.s_bytes;
            let k = cls_state t f.f_class in
            Rf_obs.Metrics.incr ~by:s.s_weight k.k_delivered;
            let latency = Vtime.span_to_s (Vtime.diff now s.s_sent) in
            Rf_sim.Stats.add k.k_latency latency;
            Rf_obs.Metrics.observe k.k_hist latency;
            close_disruption t f)

  let close_flow f = f.f_closed <- true

  let finalize t =
    if not t.finalized then begin
      t.finalized <- true;
      Option.iter Engine.cancel t.reaper;
      t.reaper <- None;
      let now = Engine.now t.engine in
      List.iter
        (fun f ->
          f.f_closed <- true;
          reap_flow t ~all_outstanding:true f ~now;
          close_disruption t f)
        t.watched;
      t.watched <- []
    end

  let window_of_flow f =
    match (f.f_first_loss, f.f_last_loss) with
    | Some a, Some b -> Some (Vtime.to_s a, Vtime.to_s b)
    | _ -> None

  let merge_window acc w =
    match (acc, w) with
    | None, w -> w
    | acc, None -> acc
    | Some (a1, b1), Some (a2, b2) -> Some (min a1 a2, max b1 b2)

  let class_summary t name =
    let k = cls_state t name in
    List.fold_left
      (fun (acc : Measure.class_summary) f ->
        if not (String.equal f.f_class name) then acc
        else
          {
            acc with
            cs_flows = acc.cs_flows + 1;
            cs_offered = acc.cs_offered + f.f_offered;
            cs_delivered = acc.cs_delivered + f.f_delivered;
            cs_lost = acc.cs_lost + f.f_lost;
            cs_late = acc.cs_late + f.f_late;
            cs_bytes = acc.cs_bytes + f.f_bytes;
            cs_disrupted_flows =
              (acc.cs_disrupted_flows + if f.f_lost > 0 then 1 else 0);
            cs_window = merge_window acc.cs_window (window_of_flow f);
          })
      {
        Measure.cs_class = name;
        cs_flows = 0;
        cs_offered = 0;
        cs_delivered = 0;
        cs_lost = 0;
        cs_late = 0;
        cs_bytes = 0;
        cs_latency = Rf_sim.Stats.summarize k.k_latency;
        cs_disrupted_flows = 0;
        cs_window = None;
      }
      (List.rev t.all_flows)

  let summaries t = List.rev_map (fun k -> class_summary t k.k_name) t.cls_order

  let sum t field = List.fold_left (fun acc f -> acc + field f) 0 t.all_flows

  let disruption_window t =
    List.fold_left
      (fun acc f -> merge_window acc (window_of_flow f))
      None t.all_flows

  let disrupted_flows t = sum t (fun f -> if f.f_lost > 0 then 1 else 0)
end

type measure_op =
  | Register of int  (** class *)
  | Send of int * int  (** flow pick, weight *)
  | Deliver of int * int  (** flow pick, pick among the flow's sent seqs *)
  | Deliver_id of int * int  (** raw flow id, seq *)
  | Close of int  (** flow pick *)
  | Advance of int  (** milliseconds *)

let measure_classes = [| "web"; "video" |]

let show_measure_op = function
  | Register c -> Printf.sprintf "register %s" measure_classes.(c)
  | Send (f, w) -> Printf.sprintf "send f%d w%d" f w
  | Deliver (f, k) -> Printf.sprintf "deliver f%d #%d" f k
  | Deliver_id (id, seq) -> Printf.sprintf "deliver id=%d seq=%d" id seq
  | Close f -> Printf.sprintf "close f%d" f
  | Advance ms -> Printf.sprintf "advance %dms" ms

let gen_measure_op =
  G.frequency
    [
      (2, G.map (fun c -> Register c) (G.int_bound 1));
      (6, G.map2 (fun f w -> Send (f, w)) G.nat (G.int_range 1 5));
      (5, G.map2 (fun f k -> Deliver (f, k)) G.nat G.nat);
      ( 1,
        G.map2 (fun id seq -> Deliver_id (id, seq)) (G.int_range (-3) 24)
          (G.int_bound 3) );
      (2, G.map (fun f -> Close f) G.nat);
      (3, G.map (fun ms -> Advance ms) (G.int_bound 1500));
    ]

let span_view (s : Rf_obs.Tracer.span) =
  (s.id, s.parent, s.name, s.start_us, s.end_us, s.attrs)

(* Both planes, each on its own engine, must report the same. *)
let check_same_measure ~stage (rm, re) (m, e) =
  let fail what = QCheck.Test.fail_reportf "%s: %s differs" stage what in
  if Measure.summaries m <> Ref_measure.summaries rm then fail "summaries";
  if Measure.total_offered m <> Ref_measure.sum rm (fun f -> f.f_offered) then
    fail "total_offered";
  if Measure.total_delivered m <> Ref_measure.sum rm (fun f -> f.f_delivered)
  then fail "total_delivered";
  if Measure.total_lost m <> Ref_measure.sum rm (fun f -> f.f_lost) then
    fail "total_lost";
  if Measure.disruption_window m <> Ref_measure.disruption_window rm then
    fail "disruption_window";
  if Measure.disrupted_flows m <> Ref_measure.disrupted_flows rm then
    fail "disrupted_flows";
  if Measure.flow_count m <> rm.Ref_measure.next_id then fail "flow_count";
  if
    Rf_obs.Metrics.to_prometheus (Engine.metrics e)
    <> Rf_obs.Metrics.to_prometheus (Engine.metrics re)
  then fail "class counters and histograms";
  if
    List.map span_view (Rf_obs.Tracer.spans (Engine.tracer e))
    <> List.map span_view (Rf_obs.Tracer.spans (Engine.tracer re))
  then fail "spans"

let prop_measure_matches_model =
  prop ~count:300 "measure: flat plane = list-and-table model"
    (G.list_size (G.int_range 1 80) gen_measure_op)
    (fun ops -> String.concat "; " (List.map show_measure_op ops))
    (fun ops ->
      let re = Engine.create () and e = Engine.create () in
      let rm = Ref_measure.create re ~loss_timeout_s:1.0
      and m = Measure.create e ~loss_timeout_s:1.0 () in
      (* (model flow, flow, seqs sent) in registration order *)
      let flows = ref [||] in
      let pick i = !flows.(i mod Array.length !flows) in
      let deliver ~flow_id ~seq =
        Ref_measure.delivered rm ~flow_id ~seq;
        Measure.delivered m ~flow_id ~seq
      in
      let apply = function
        | Register c ->
            let cls = measure_classes.(c) in
            let src = "h" ^ string_of_int (Array.length !flows) in
            let rf = Ref_measure.register_flow rm ~cls ~src ~dst:"sink" in
            let f = Measure.register_flow m ~cls ~src ~dst:"sink" in
            flows := Array.append !flows [| (rf, f, ref 0) |]
        | _ when Array.length !flows = 0 -> ()
        | Send (i, weight) ->
            let rf, f, seqs = pick i in
            (* A generator sends nothing after closing a flow. *)
            if not rf.Ref_measure.f_closed then begin
              let seq = !seqs and bytes = 100 * weight in
              incr seqs;
              Ref_measure.sent rm rf ~seq ~weight ~bytes;
              Measure.sent m f ~seq ~weight ~bytes
            end
        | Deliver (i, k) ->
            let _, f, seqs = pick i in
            if !seqs > 0 then
              deliver ~flow_id:(Measure.flow_id f) ~seq:(k mod !seqs)
        | Deliver_id (flow_id, seq) -> deliver ~flow_id ~seq
        | Close i ->
            let rf, f, _ = pick i in
            Ref_measure.close_flow rf;
            Measure.close_flow f
        | Advance ms ->
            let until = Vtime.add (Engine.now e) (Vtime.span_ms ms) in
            ignore (Engine.run ~until re);
            ignore (Engine.run ~until e)
      in
      List.iter apply ops;
      check_same_measure ~stage:"before finalize" (rm, re) (m, e);
      Ref_measure.finalize rm;
      Measure.finalize m;
      check_same_measure ~stage:"after finalize" (rm, re) (m, e);
      (* Every probe again: each arrival is now late, most of them on
         flows that have been folded into their class. *)
      Array.iter
        (fun (_, f, seqs) ->
          for seq = 0 to !seqs - 1 do
            deliver ~flow_id:(Measure.flow_id f) ~seq
          done)
        !flows;
      check_same_measure ~stage:"after late arrivals" (rm, re) (m, e);
      true)

(* --- measurement-plane budgets ------------------------------------------ *)

(* Minor words per call of [f], averaged over [n] calls after a warm-up
   call. *)
let minor_words_per_call n f =
  f ();
  let before = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  (Gc.minor_words () -. before) /. float_of_int n

(* A probe's round trip costs a sample, its list cell and the boxed
   latency, however many flows the plane has seen. *)
let test_probe_roundtrip_word_budget () =
  List.iter
    (fun n_flows ->
      let engine = Engine.create () in
      let m = Measure.create engine ~loss_timeout_s:1.0 () in
      let flows =
        Array.init n_flows (fun _ ->
            Measure.register_flow m ~cls:"web" ~src:"a" ~dst:"b")
      in
      let f = flows.(n_flows / 2) in
      let flow_id = Measure.flow_id f in
      let seq = ref 0 in
      let words =
        minor_words_per_call 10_000 (fun () ->
            incr seq;
            Measure.sent m f ~seq:!seq ~weight:3 ~bytes:300;
            Measure.delivered m ~flow_id ~seq:!seq)
      in
      Alcotest.(check int) "all delivered" (3 * 10_001)
        (Measure.total_delivered m);
      Alcotest.(check bool)
        (Printf.sprintf "%.1f minor words per round trip at %d flows" words
           n_flows)
        true (words <= 28.))
    [ 1_000; 100_000 ]

(* Once its probes resolve and the reaper has run, a flow keeps its id
   slot and its latency samples: a few words, not a record. *)
let test_resolved_flow_word_budget () =
  let engine = Engine.create () in
  let m = Measure.create engine ~loss_timeout_s:1.0 () in
  let n = 100_000 in
  for _ = 1 to n do
    let f = Measure.register_flow m ~cls:"web" ~src:"a" ~dst:"b" in
    for seq = 0 to 3 do
      Measure.sent m f ~seq ~weight:1 ~bytes:100;
      Measure.delivered m ~flow_id:(Measure.flow_id f) ~seq
    done;
    Measure.close_flow f
  done;
  ignore (Engine.run ~until:(Vtime.of_s 1.0) engine);
  Alcotest.(check int) "all delivered" (4 * n) (Measure.total_delivered m);
  let words =
    float_of_int (Obj.reachable_words (Obj.repr m)) /. float_of_int n
  in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f words per resolved flow" words)
    true (words <= 8.)

(* --- scaling experiment determinism ----------------------------------- *)

let test_scaling_deterministic () =
  let open Rf_core.Experiment in
  let run () =
    traffic_scaling ~seed:11 ~k:4 ~pairs_per_host:2 ~arrivals_per_s:120.0
      ~horizon_s:10.0 ()
  in
  let a = run () in
  let b = run () in
  Alcotest.(check int) "flows" a.ts_flows b.ts_flows;
  Alcotest.(check int) "samples" a.ts_samples b.ts_samples;
  Alcotest.(check int) "offered" a.ts_offered b.ts_offered;
  Alcotest.(check int) "delivered" a.ts_delivered b.ts_delivered;
  Alcotest.(check int) "lost" a.ts_lost b.ts_lost;
  Alcotest.(check int) "events" a.ts_events b.ts_events;
  Alcotest.(check int) "pairs" a.ts_pairs b.ts_pairs;
  Alcotest.(check int) "conservation" a.ts_offered
    (a.ts_delivered + a.ts_lost);
  Alcotest.(check int) "k=4 switches" 20 a.ts_switches;
  Alcotest.(check int) "k=4 hosts" 16 a.ts_hosts;
  Alcotest.(check bool) "flows launched" true (a.ts_flows > 0)

let suite =
  [
    prop_probe_roundtrip;
    Alcotest.test_case "probe decode rejects noise" `Quick
      test_probe_rejects_noise;
    prop_draw_size_positive;
    prop_link_conservation;
    Alcotest.test_case "tail drop bounds the queue" `Quick
      test_link_tail_drop_bounds_queue;
    prop_workload_conservation;
    Alcotest.test_case "loss window spans the outage" `Quick
      test_loss_window_detected;
    prop_measure_matches_model;
    Alcotest.test_case "probe round trip allocates a fixed budget" `Quick
      test_probe_roundtrip_word_budget;
    Alcotest.test_case "a resolved flow keeps a few words" `Quick
      test_resolved_flow_word_budget;
    Alcotest.test_case "scaling run is deterministic" `Quick
      test_scaling_deterministic;
    Alcotest.test_case "burst arrives one serialization apart" `Quick
      test_link_burst_arrivals;
    Alcotest.test_case "a flap loses the frame in flight" `Quick
      test_link_flap_drops_in_flight;
  ]
