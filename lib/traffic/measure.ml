(* One probe in flight. [s_seq] identifies it within its flow. *)
type sample = {
  s_seq : int;
  s_sent : Rf_sim.Vtime.t;
  s_weight : int;
  s_bytes : int;
}

type cls_state = {
  k_name : string;
  k_latency : Rf_sim.Stats.series;
  k_offered : Rf_obs.Metrics.counter;
  k_delivered : Rf_obs.Metrics.counter;
  k_lost : Rf_obs.Metrics.counter;
  k_hist : Rf_obs.Metrics.histogram;
  k_retired : flow;
      (* Stand-in for every retired flow of the class: it holds their
         summed counts and loss envelope, and takes their late
         arrivals. Closed, with nothing outstanding. *)
  mutable k_retired_flows : int;
  mutable k_retired_disrupted : int;
}

and flow = {
  f_id : int;  (* -1 for a class's stand-in *)
  f_cls : cls_state;
  f_src : string;
  f_dst : string;
  mutable f_offered : int;  (* weighted packets *)
  mutable f_delivered : int;
  mutable f_lost : int;
  mutable f_late : int;  (* samples arriving after being declared lost *)
  mutable f_bytes : int;  (* weighted delivered bytes *)
  mutable f_outstanding : sample list;  (* newest first *)
  mutable f_first_loss : Rf_sim.Vtime.t option;
  mutable f_last_loss : Rf_sim.Vtime.t option;
  mutable f_disruption_span : int option;
  mutable f_closed : bool;  (* no more probes will be sent *)
  mutable f_watched : bool;
}

type t = {
  engine : Rf_sim.Engine.t;
  loss_timeout : Rf_sim.Vtime.span;
  cls_tbl : (string, cls_state) Hashtbl.t;
  mutable cls_order : cls_state list;  (* reverse creation order *)
  mutable by_id : flow array;
      (* Slot i holds flow i while it is live, then its class's
         stand-in; slots from [next_id] on are filler. *)
  mutable next_id : int;
  mutable watched : flow list;  (* flows with probes possibly in flight *)
  mutable reaper : Rf_sim.Engine.timer option;
  mutable finalized : bool;
}

let reap_period = Rf_sim.Vtime.span_ms 500

let create engine ~loss_timeout_s () =
  {
    engine;
    loss_timeout = Rf_sim.Vtime.span_s loss_timeout_s;
    cls_tbl = Hashtbl.create 8;
    cls_order = [];
    by_id = [||];
    next_id = 0;
    watched = [];
    reaper = None;
    finalized = false;
  }

let cls_state t name =
  match Hashtbl.find_opt t.cls_tbl name with
  | Some k -> k
  | None ->
      let m = Rf_sim.Engine.metrics t.engine in
      let labels = [ ("class", name) ] in
      let latency = Rf_sim.Stats.series () in
      let offered =
        Rf_obs.Metrics.counter m ~labels
          ~help:"Weighted data-plane packets offered"
          "traffic_offered_packets_total"
      in
      let delivered =
        Rf_obs.Metrics.counter m ~labels
          ~help:"Weighted data-plane packets delivered"
          "traffic_delivered_packets_total"
      in
      let lost =
        Rf_obs.Metrics.counter m ~labels
          ~help:"Weighted data-plane packets lost"
          "traffic_lost_packets_total"
      in
      let hist =
        Rf_obs.Metrics.histogram m ~labels ~help:"Probe one-way delay"
          "traffic_latency_seconds"
      in
      let rec k =
        {
          k_name = name;
          k_latency = latency;
          k_offered = offered;
          k_delivered = delivered;
          k_lost = lost;
          k_hist = hist;
          k_retired = retired;
          k_retired_flows = 0;
          k_retired_disrupted = 0;
        }
      and retired =
        {
          f_id = -1;
          f_cls = k;
          f_src = "";
          f_dst = "";
          f_offered = 0;
          f_delivered = 0;
          f_lost = 0;
          f_late = 0;
          f_bytes = 0;
          f_outstanding = [];
          f_first_loss = None;
          f_last_loss = None;
          f_disruption_span = None;
          f_closed = true;
          f_watched = true;
        }
      in
      Hashtbl.replace t.cls_tbl name k;
      t.cls_order <- k :: t.cls_order;
      k

let register_flow t ~cls ~src ~dst =
  let k = cls_state t cls in
  let id = t.next_id in
  let f =
    {
      f_id = id;
      f_cls = k;
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
  if id = Array.length t.by_id then begin
    let grown = Array.make (max 1024 (2 * id)) k.k_retired in
    Array.blit t.by_id 0 grown 0 id;
    t.by_id <- grown
  end;
  t.by_id.(id) <- f;
  t.next_id <- id + 1;
  f

let flow_id f = f.f_id

let mark_lost t f (s : sample) =
  f.f_lost <- f.f_lost + s.s_weight;
  Rf_obs.Metrics.incr ~by:s.s_weight f.f_cls.k_lost;
  (match f.f_first_loss with
  | None -> f.f_first_loss <- Some s.s_sent
  | Some w ->
      if Rf_sim.Vtime.compare s.s_sent w < 0 then f.f_first_loss <- Some s.s_sent);
  (match f.f_last_loss with
  | None -> f.f_last_loss <- Some s.s_sent
  | Some w ->
      if Rf_sim.Vtime.compare s.s_sent w > 0 then f.f_last_loss <- Some s.s_sent);
  if f.f_disruption_span = None then begin
    let tracer = Rf_sim.Engine.tracer t.engine in
    let id =
      Rf_obs.Tracer.span_start tracer
        ~start_us:(Rf_sim.Vtime.to_us s.s_sent)
        ~attrs:
          [
            ("class", f.f_cls.k_name);
            ("flow", string_of_int f.f_id);
            ("src", f.f_src);
            ("dst", f.f_dst);
          ]
        "traffic.disruption"
    in
    f.f_disruption_span <- Some id
  end

let close_disruption t f =
  match f.f_disruption_span with
  | None -> ()
  | Some id ->
      Rf_obs.Tracer.span_end
        (Rf_sim.Engine.tracer t.engine)
        ~attrs:[ ("lost_packets", string_of_int f.f_lost) ]
        id;
      f.f_disruption_span <- None

(* Oldest first, so the disruption span opens at the earliest lost
   probe. *)
let rec mark_all_lost t f = function
  | [] -> ()
  | s :: older ->
      mark_all_lost t f older;
      mark_lost t f s

(* Send times never decrease, so along a newest-first list the samples
   sent after [deadline] form a prefix: keep it, declare the rest
   lost. *)
let rec keep_fresh t f deadline = function
  | s :: older when Rf_sim.Vtime.compare s.s_sent deadline > 0 ->
      s :: keep_fresh t f deadline older
  | expired ->
      mark_all_lost t f expired;
      []

let rec oldest s = function [] -> s | s' :: older -> oldest s' older

(* Declare outstanding samples sent at or before [deadline] lost. *)
let reap_flow t f ~deadline =
  match f.f_outstanding with
  | [] -> ()
  | s :: older ->
      if Rf_sim.Vtime.compare (oldest s older).s_sent deadline <= 0 then
        f.f_outstanding <- keep_fresh t f deadline f.f_outstanding

let earliest a b =
  match (a, b) with
  | None, w | w, None -> w
  | Some x, Some y -> if Rf_sim.Vtime.compare y x < 0 then b else a

let latest a b =
  match (a, b) with
  | None, w | w, None -> w
  | Some x, Some y -> if Rf_sim.Vtime.compare y x > 0 then b else a

(* A closed flow with nothing outstanding can change only by a late
   arrival. Fold it into its class's stand-in, which then takes those
   arrivals through the flow's id slot, and let the record go. *)
let retire t f =
  let k = f.f_cls in
  let r = k.k_retired in
  r.f_offered <- r.f_offered + f.f_offered;
  r.f_delivered <- r.f_delivered + f.f_delivered;
  r.f_lost <- r.f_lost + f.f_lost;
  r.f_late <- r.f_late + f.f_late;
  r.f_bytes <- r.f_bytes + f.f_bytes;
  r.f_first_loss <- earliest r.f_first_loss f.f_first_loss;
  r.f_last_loss <- latest r.f_last_loss f.f_last_loss;
  k.k_retired_flows <- k.k_retired_flows + 1;
  if f.f_lost > 0 then k.k_retired_disrupted <- k.k_retired_disrupted + 1;
  t.by_id.(f.f_id) <- r

let sent t f ~seq ~weight ~bytes =
  let now = Rf_sim.Engine.now t.engine in
  f.f_offered <- f.f_offered + weight;
  f.f_outstanding <-
    { s_seq = seq; s_sent = now; s_weight = weight; s_bytes = bytes }
    :: f.f_outstanding;
  Rf_obs.Metrics.incr ~by:weight f.f_cls.k_offered;
  if not f.f_watched then begin
    f.f_watched <- true;
    t.watched <- f :: t.watched
  end;
  if t.reaper = None && not t.finalized then
    t.reaper <-
      Some
        (Rf_sim.Engine.periodic
           ~entity:(Rf_obs.Profiler.component "measure")
           t.engine reap_period (fun () ->
             let deadline =
               Rf_sim.Vtime.add
                 (Rf_sim.Engine.now t.engine)
                 (Rf_sim.Vtime.span_scale (-1.0) t.loss_timeout)
             in
             t.watched <-
               List.filter
                 (fun f ->
                   reap_flow t f ~deadline;
                   if f.f_closed && f.f_outstanding = [] then begin
                     retire t f;
                     false
                   end
                   else true)
                 t.watched))

let no_sample =
  { s_seq = -1; s_sent = Rf_sim.Vtime.zero; s_weight = 0; s_bytes = 0 }

(* The newest outstanding sample numbered [seq], or [no_sample]. *)
let rec find_sample seq = function
  | [] -> no_sample
  | s :: older -> if s.s_seq = seq then s else find_sample seq older

(* [l] without its samples numbered [seq]; the tail past the last of
   them is shared. *)
let rec without seq = function
  | [] -> []
  | s :: older as l ->
      let older' = without seq older in
      if s.s_seq = seq then older'
      else if older' == older then l
      else s :: older'

let delivered t ~flow_id ~seq =
  if flow_id >= 0 && flow_id < t.next_id then begin
    let f = t.by_id.(flow_id) in
    let s = find_sample seq f.f_outstanding in
    if s == no_sample then
      (* Duplicate, or arrived after being declared lost: the original
         verdict stands so conservation holds. *)
      f.f_late <- f.f_late + 1
    else begin
      let now = Rf_sim.Engine.now t.engine in
      f.f_outstanding <- without seq f.f_outstanding;
      f.f_delivered <- f.f_delivered + s.s_weight;
      f.f_bytes <- f.f_bytes + s.s_bytes;
      let k = f.f_cls in
      Rf_obs.Metrics.incr ~by:s.s_weight k.k_delivered;
      let latency = Rf_sim.Vtime.span_to_s (Rf_sim.Vtime.diff now s.s_sent) in
      Rf_sim.Stats.add k.k_latency latency;
      Rf_obs.Metrics.observe k.k_hist latency;
      close_disruption t f
    end
  end

let close_flow f = f.f_closed <- true

let finalize t =
  if not t.finalized then begin
    t.finalized <- true;
    (match t.reaper with
    | Some timer ->
        Rf_sim.Engine.cancel timer;
        t.reaper <- None
    | None -> ());
    List.iter
      (fun f ->
        f.f_closed <- true;
        mark_all_lost t f f.f_outstanding;
        f.f_outstanding <- [];
        close_disruption t f;
        retire t f)
      t.watched;
    t.watched <- []
  end

(** {1 Summaries} *)

type class_summary = {
  cs_class : string;
  cs_flows : int;
  cs_offered : int;
  cs_delivered : int;
  cs_lost : int;
  cs_late : int;
  cs_bytes : int;
  cs_latency : Rf_sim.Stats.summary option;
  cs_disrupted_flows : int;
  cs_window : (float * float) option;
}

let flow_count t = t.next_id

(* [fn] on every live flow, in id order. *)
let iter_live t fn =
  for i = 0 to t.next_id - 1 do
    let f = t.by_id.(i) in
    if f.f_id = i then fn f
  done

let window_of_flow f =
  match (f.f_first_loss, f.f_last_loss) with
  | Some a, Some b -> Some (Rf_sim.Vtime.to_s a, Rf_sim.Vtime.to_s b)
  | _ -> None

let merge_window acc w =
  match (acc, w) with
  | None, w -> w
  | acc, None -> acc
  | Some (a1, b1), Some (a2, b2) -> Some (min a1 a2, max b1 b2)

let add_flow acc f =
  {
    acc with
    cs_offered = acc.cs_offered + f.f_offered;
    cs_delivered = acc.cs_delivered + f.f_delivered;
    cs_lost = acc.cs_lost + f.f_lost;
    cs_late = acc.cs_late + f.f_late;
    cs_bytes = acc.cs_bytes + f.f_bytes;
    cs_window = merge_window acc.cs_window (window_of_flow f);
  }

(* The class's retired totals plus its live flows. *)
let class_summary t name =
  let k = cls_state t name in
  let retired =
    {
      cs_class = name;
      cs_flows = k.k_retired_flows;
      cs_offered = 0;
      cs_delivered = 0;
      cs_lost = 0;
      cs_late = 0;
      cs_bytes = 0;
      cs_latency = Rf_sim.Stats.summarize k.k_latency;
      cs_disrupted_flows = k.k_retired_disrupted;
      cs_window = None;
    }
  in
  let acc = ref (add_flow retired k.k_retired) in
  iter_live t (fun f ->
      if f.f_cls == k then
        acc :=
          add_flow
            {
              !acc with
              cs_flows = !acc.cs_flows + 1;
              cs_disrupted_flows =
                (!acc.cs_disrupted_flows + if f.f_lost > 0 then 1 else 0);
            }
            f);
  !acc

let summaries t =
  List.rev_map (fun k -> class_summary t k.k_name) t.cls_order

(* [field] summed over the retired stand-ins and the live flows. *)
let total t field =
  let sum =
    ref (List.fold_left (fun acc k -> acc + field k.k_retired) 0 t.cls_order)
  in
  iter_live t (fun f -> sum := !sum + field f);
  !sum

let total_offered t = total t (fun f -> f.f_offered)

let total_delivered t = total t (fun f -> f.f_delivered)

let total_lost t = total t (fun f -> f.f_lost)

let disruption_window t =
  let w =
    ref
      (List.fold_left
         (fun acc k -> merge_window acc (window_of_flow k.k_retired))
         None t.cls_order)
  in
  iter_live t (fun f -> w := merge_window !w (window_of_flow f));
  !w

let disruption_seconds t =
  match disruption_window t with Some (a, b) -> b -. a | None -> 0.0

let disrupted_flows t =
  let n =
    ref
      (List.fold_left (fun acc k -> acc + k.k_retired_disrupted) 0 t.cls_order)
  in
  iter_live t (fun f -> if f.f_lost > 0 then incr n);
  !n
