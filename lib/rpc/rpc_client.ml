module Engine = Rf_sim.Engine
module Vtime = Rf_sim.Vtime
module Rng = Rf_sim.Rng
module Faults = Rf_sim.Faults

type params = {
  rto : Vtime.span;
  rto_max : Vtime.span;
  max_retries : int;
  heartbeat_every : Vtime.span;
  heartbeat_jitter : float;
      (** extra seeded-uniform fraction of [heartbeat_every] added to
          each tick, so co-seeded failure detectors don't fire in
          lockstep; 0 keeps the historical fixed cadence *)
  dead_after : int;
  resync : bool;
}

let default_params =
  {
    rto = Vtime.span_s 2.0;
    rto_max = Vtime.span_s 30.0;
    max_retries = 10;
    heartbeat_every = Vtime.span_s 5.0;
    (* The pinned experiment fingerprints (E1/E3/E4/E6/E7) encode the
       unjittered cadence; cluster scenarios opt into jitter. *)
    heartbeat_jitter = 0.0;
    dead_after = 3;
    resync = true;
  }

type pending = {
  p_seq : int32;
  p_body : Rpc_msg.body;  (** [Request _] or [Sync_snapshot _] *)
  p_span : int;  (** telemetry span open from first send to ack *)
  mutable p_attempts : int;  (** retransmissions so far *)
  mutable p_timer : Engine.timer option;
  mutable p_parked : bool;  (** gave up; waiting for peer revival *)
}

type t = {
  engine : Rf_sim.Engine.t;
  entity : Rf_obs.Profiler.entity;
  chan : Rf_net.Channel.endpoint;
  params : params;
  jitter_rng : Rng.t;
  pending : (int32, pending) Hashtbl.t;
  mutable epoch : int32;
  mutable next_seq : int32;  (** last tracked seq used; 0 = none yet *)
  mutable server_incarnation : int32 option;
  mutable resynced_for : int32 option;
      (** incarnation already resynced to, to avoid a double resync when
          both the beacon and the explicit [Sync_request] arrive *)
  mutable snapshot_provider : (unit -> Rpc_msg.t list) option;
  mutable faults : (Rng.t * Faults.chan_profile) option;
  mutable peer_alive : bool;
  mutable last_heard : Vtime.t;
  mutable crashed : bool;
  mutable pings : int;
  mutable snapshots : int;
  mutable dropped_while_down : int;
  m_sent : Rf_obs.Metrics.counter;
  m_retx : Rf_obs.Metrics.counter;
  m_gave_up : Rf_obs.Metrics.counter;
  m_resyncs : Rf_obs.Metrics.counter;
  m_delivery : Rf_obs.Metrics.histogram;
}

let record t event detail =
  Engine.record t.engine ~component:"rpc-client" ~event detail

let body_kind = function
  | Rpc_msg.Request (Rpc_msg.Switch_up _) -> "switch-up"
  | Rpc_msg.Request (Rpc_msg.Switch_down _) -> "switch-down"
  | Rpc_msg.Request (Rpc_msg.Link_up _) -> "link-up"
  | Rpc_msg.Request (Rpc_msg.Link_down _) -> "link-down"
  | Rpc_msg.Request (Rpc_msg.Edge_subnet _) -> "edge-subnet"
  | Rpc_msg.Sync_snapshot _ -> "sync-snapshot"
  | Rpc_msg.Ack _ -> "ack"
  | Rpc_msg.Ping -> "ping"
  | Rpc_msg.Pong -> "pong"
  | Rpc_msg.Sync_request -> "sync-request"
  | Rpc_msg.Elect_request _ -> "elect-request"
  | Rpc_msg.Elect_vote _ -> "elect-vote"
  | Rpc_msg.Leader_heartbeat _ -> "leader-heartbeat"
  | Rpc_msg.Replicate _ -> "replicate"
  | Rpc_msg.Replicate_ack _ -> "replicate-ack"

(* A Switch_up frame delivers *the* configuration message of the
   switch's RPC phase, so its span nests under that phase span (opened
   by autoconfig); everything else hangs free. *)
let frame_parent t body =
  match body with
  | Rpc_msg.Request (Rpc_msg.Switch_up { dpid; _ }) ->
      Rf_obs.Phase.current (Engine.tracer t.engine) Rpc dpid
  | _ -> None

(* Ack received: close the frame span; for a Switch_up also close the
   switch's whole RPC phase (the ack proves the RF-controller has the
   configuration message). *)
let frame_acked t p =
  let tracer = Engine.tracer t.engine in
  (match Rf_obs.Tracer.find_span tracer p.p_span with
  | Some sp when sp.Rf_obs.Tracer.end_us = None ->
      Rf_obs.Metrics.observe t.m_delivery
        (float_of_int (Rf_obs.Tracer.now_us tracer - sp.Rf_obs.Tracer.start_us)
        /. 1e6)
  | Some _ | None -> ());
  Rf_obs.Tracer.span_end tracer
    ~attrs:[ ("attempts", string_of_int p.p_attempts) ]
    p.p_span;
  match p.p_body with
  | Rpc_msg.Request (Rpc_msg.Switch_up { dpid; _ }) ->
      ignore (Rf_obs.Phase.finish tracer Rpc dpid)
  | _ -> ()

(* Per-frame fault application, as Of_conn does for the OpenFlow
   control channel: every transmission consults the profile so a seeded
   run replays the same drops and delays. *)
let transmit t frame =
  if not t.crashed then
    match
      Faults.transmit t.engine ~entity:t.entity t.faults (fun () ->
          Rf_net.Channel.send t.chan frame)
    with
    | Faults.Drop -> record t "fault-drop" ""
    | Faults.Deliver | Faults.Duplicate | Faults.Delay _ -> ()

let encode_pending t p = Rpc_msg.to_wire { Rpc_msg.epoch = t.epoch; seq = p.p_seq; body = p.p_body }

let send_control t body =
  transmit t (Rpc_msg.to_wire { Rpc_msg.epoch = t.epoch; seq = 0l; body })

let cancel_timer p =
  match p.p_timer with
  | Some timer ->
      Engine.cancel timer;
      p.p_timer <- None
  | None -> ()

(* Exponential backoff with a cap and seeded jitter; after
   [max_retries] retransmissions the frame is parked and the peer is
   declared dead. The timer handle lives on the pending entry and is
   cancelled the moment the ack arrives, so an ack landing mid-flight
   can never leave a stale timer re-arming itself (the bug in the old
   [watch] loop, which looked the seq up again after the timeout and
   re-armed even across seq reuse). *)
let rec arm t p =
  let backoff =
    let scaled =
      Vtime.span_s
        (Vtime.span_to_s t.params.rto *. (2. ** float_of_int p.p_attempts))
    in
    if Vtime.span_to_s scaled > Vtime.span_to_s t.params.rto_max then
      t.params.rto_max
    else scaled
  in
  let jitter =
    Vtime.span_s (Rng.float t.jitter_rng (0.1 *. Vtime.span_to_s backoff))
  in
  let wait = Vtime.span_s (Vtime.span_to_s backoff +. Vtime.span_to_s jitter) in
  p.p_timer <-
    Some
      (Engine.schedule ~entity:t.entity t.engine wait (fun () ->
           p.p_timer <- None;
           if (not t.crashed) && Hashtbl.mem t.pending p.p_seq && not p.p_parked
           then
             if p.p_attempts >= t.params.max_retries then begin
               p.p_parked <- true;
               Rf_obs.Metrics.incr t.m_gave_up;
               if t.peer_alive then begin
                 t.peer_alive <- false;
                 record t "peer-dead"
                   (Printf.sprintf "seq=%ld exhausted %d retries" p.p_seq
                      p.p_attempts)
               end
             end
             else begin
               p.p_attempts <- p.p_attempts + 1;
               Rf_obs.Metrics.incr t.m_retx;
               transmit t (encode_pending t p);
               arm t p
             end))

let alloc_seq t =
  t.next_seq <- Rpc_msg.seq_succ t.next_seq;
  t.next_seq

let send_tracked t body =
  let seq = alloc_seq t in
  let span =
    Rf_obs.Tracer.span_start (Engine.tracer t.engine) ?parent:(frame_parent t body)
      ~attrs:[ ("kind", body_kind body); ("seq", Int32.to_string seq) ]
      "rpc.frame"
  in
  let p =
    {
      p_seq = seq;
      p_body = body;
      p_span = span;
      p_attempts = 0;
      p_timer = None;
      p_parked = false;
    }
  in
  Hashtbl.replace t.pending p.p_seq p;
  Rf_obs.Metrics.incr t.m_sent;
  transmit t (encode_pending t p);
  arm t p

let send t msg =
  if t.crashed then t.dropped_while_down <- t.dropped_while_down + 1
  else send_tracked t (Rpc_msg.Request msg)

let sort_by_seq =
  List.sort (fun a b ->
      if Int32.equal a.p_seq b.p_seq then 0
      else if Rpc_msg.seq_after a.p_seq b.p_seq then 1
      else -1)

let pending_in_order t =
  sort_by_seq (Hashtbl.fold (fun _ p acc -> p :: acc) t.pending [])

let send_snapshot t msgs =
  t.snapshots <- t.snapshots + 1;
  record t "sync-snapshot" (Printf.sprintf "%d messages" (List.length msgs));
  send_tracked t (Rpc_msg.Sync_snapshot msgs)

(* Session resynchronisation: new epoch, sequence numbers restart at 1,
   and the full authoritative state goes out again — as a single
   snapshot when a provider is installed, otherwise by renumbering and
   resending whatever was still in flight. *)
let resync t =
  Rf_obs.Metrics.incr t.m_resyncs;
  t.epoch <- Rpc_msg.seq_succ t.epoch;
  t.next_seq <- 0l;
  let old = pending_in_order t in
  List.iter cancel_timer old;
  Hashtbl.reset t.pending;
  record t "resync" (Printf.sprintf "epoch=%ld" t.epoch);
  match t.snapshot_provider with
  | Some f -> send_snapshot t (f ())
  | None ->
      List.iter
        (fun p ->
          match p.p_body with
          | Rpc_msg.Request _ as body -> send_tracked t body
          | Rpc_msg.Sync_snapshot _ | Rpc_msg.Ack _ | Rpc_msg.Ping
          | Rpc_msg.Pong | Rpc_msg.Sync_request | Rpc_msg.Elect_request _
          | Rpc_msg.Elect_vote _ | Rpc_msg.Leader_heartbeat _
          | Rpc_msg.Replicate _ | Rpc_msg.Replicate_ack _ ->
              ())
        old

let resync_for t incarnation =
  if t.params.resync && t.resynced_for <> Some incarnation then begin
    t.resynced_for <- Some incarnation;
    resync t
  end

(* A parked frame is not dead state: the first sign of life from the
   peer resends everything that gave up, with the backoff restarted. *)
let revive t =
  if not t.peer_alive then begin
    t.peer_alive <- true;
    record t "peer-revived" "";
    if t.params.resync then
      List.iter
        (fun p ->
          if p.p_parked then begin
            p.p_parked <- false;
            p.p_attempts <- 0;
            Rf_obs.Metrics.incr t.m_retx;
            transmit t (encode_pending t p);
            arm t p
          end)
        (pending_in_order t)
  end

let clear_acked t (a : Rpc_msg.ack) =
  if Int32.equal a.a_epoch t.epoch then begin
    let clear p =
      cancel_timer p;
      Hashtbl.remove t.pending p.p_seq;
      frame_acked t p
    in
    (match Hashtbl.find_opt t.pending a.a_seq with
    | Some p -> clear p
    | None -> ());
    (* Only the frames at or before [a_cum] are sorted, not every
       pending one. *)
    Hashtbl.fold
      (fun _ p acc ->
        if Rpc_msg.seq_after p.p_seq a.a_cum then acc else p :: acc)
      t.pending []
    |> sort_by_seq |> List.iter clear
  end

let handle_envelope t (env : Rpc_msg.envelope) =
  t.last_heard <- Engine.now t.engine;
  (* The epoch field of every server envelope carries its incarnation:
     any reply after a restart is a restart beacon. *)
  (match t.server_incarnation with
  | Some inc when not (Int32.equal inc env.Rpc_msg.epoch) ->
      record t "server-restarted"
        (Printf.sprintf "incarnation %ld -> %ld" inc env.Rpc_msg.epoch);
      t.server_incarnation <- Some env.Rpc_msg.epoch;
      resync_for t env.Rpc_msg.epoch
  | Some _ -> ()
  | None -> t.server_incarnation <- Some env.Rpc_msg.epoch);
  (match env.Rpc_msg.body with
  | Rpc_msg.Ack a -> clear_acked t a
  | Rpc_msg.Pong -> ()
  | Rpc_msg.Sync_request -> resync_for t env.Rpc_msg.epoch
  | Rpc_msg.Request _ | Rpc_msg.Ping | Rpc_msg.Sync_snapshot _
  | Rpc_msg.Elect_request _ | Rpc_msg.Elect_vote _ | Rpc_msg.Leader_heartbeat _
  | Rpc_msg.Replicate _ | Rpc_msg.Replicate_ack _ ->
      (* the server never originates these *)
      ());
  (* Last, so that a resync above (which rebuilds pending under a fresh
     epoch) wins over resending parked old-epoch frames. *)
  revive t

let heartbeat_tick t =
  if not t.crashed then begin
    let silence =
      Vtime.to_s (Engine.now t.engine) -. Vtime.to_s t.last_heard
    in
    let threshold =
      float_of_int t.params.dead_after *. Vtime.span_to_s t.params.heartbeat_every
    in
    if silence > threshold && t.peer_alive then begin
      t.peer_alive <- false;
      record t "peer-dead" (Printf.sprintf "silent for %.1fs" silence)
    end;
    t.pings <- t.pings + 1;
    send_control t Rpc_msg.Ping
  end

let create engine ?(params = default_params) chan =
  if params.max_retries < 0 then invalid_arg "Rpc_client: max_retries >= 0";
  if params.dead_after < 1 then invalid_arg "Rpc_client: dead_after >= 1";
  if params.heartbeat_jitter < 0. then
    invalid_arg "Rpc_client: heartbeat_jitter >= 0";
  let t =
    {
      engine;
      entity = Rf_obs.Profiler.component "rpc-client";
      chan;
      params;
      jitter_rng = Rng.split (Engine.rng engine);
      pending = Hashtbl.create 32;
      epoch = 1l;
      next_seq = 0l;
      server_incarnation = None;
      resynced_for = None;
      snapshot_provider = None;
      faults = None;
      peer_alive = true;
      last_heard = Engine.now engine;
      crashed = false;
      pings = 0;
      snapshots = 0;
      dropped_while_down = 0;
      m_sent =
        Rf_obs.Metrics.counter
          (Engine.metrics engine)
          ~help:"Tracked RPC frames sent" "rpc_client_sent_total";
      m_retx =
        Rf_obs.Metrics.counter
          (Engine.metrics engine)
          ~help:"RPC frame retransmissions" "rpc_client_retx_total";
      m_gave_up =
        Rf_obs.Metrics.counter
          (Engine.metrics engine)
          ~help:"RPC frames parked after exhausting retries"
          "rpc_client_gave_up_total";
      m_resyncs =
        Rf_obs.Metrics.counter
          (Engine.metrics engine)
          ~help:"Epoch-bumping session resyncs" "rpc_client_resyncs_total";
      m_delivery =
        Rf_obs.Metrics.histogram
          (Engine.metrics engine)
          ~help:"First send to acknowledgement per tracked frame"
          "rpc_delivery_seconds";
    }
  in
  Rf_net.Channel.set_receiver chan (fun bytes ->
      if not t.crashed then
        match Rpc_msg.of_wire bytes with
        | Ok env -> handle_envelope t env
        | Error e -> record t "decode-error" e);
  (* Heartbeat cadence: fixed interval plus an optional seeded-uniform
     jitter drawn from a derived generator, so enabling jitter never
     shifts the draw sequence of any other component. *)
  if params.heartbeat_jitter = 0. then
    ignore
      (Engine.periodic ~entity:t.entity engine params.heartbeat_every
         (fun () -> heartbeat_tick t))
  else begin
    let hb_rng = Rng.derive (Engine.rng engine) 0x4842 in
    let base_s = Vtime.span_to_s params.heartbeat_every in
    let rec tick () =
      let wait =
        Vtime.span_s (base_s +. Rng.float hb_rng (params.heartbeat_jitter *. base_s))
      in
      ignore
        (Engine.schedule ~entity:t.entity engine wait (fun () ->
             heartbeat_tick t;
             tick ()))
    in
    tick ()
  end;
  t

let set_snapshot_provider t f = t.snapshot_provider <- Some f

let set_fault_profile t rng profile = t.faults <- Some (rng, profile)

let crash t =
  if not t.crashed then begin
    t.crashed <- true;
    List.iter cancel_timer (pending_in_order t);
    Hashtbl.reset t.pending;
    record t "crash" ""
  end

let restart t =
  if t.crashed then begin
    t.crashed <- false;
    t.last_heard <- Engine.now t.engine;
    t.peer_alive <- true;
    record t "restart" "";
    if t.params.resync then begin
      t.epoch <- Rpc_msg.seq_succ t.epoch;
      t.next_seq <- 0l;
      match t.snapshot_provider with
      | Some f -> send_snapshot t (f ())
      | None -> ()
    end
    else
      (* legacy behaviour: the restarted process starts numbering from
         scratch in the same session, colliding with the server's dedup
         state — the exact bug epochs exist to fix *)
      t.next_seq <- 0l
  end

let unacked t = Hashtbl.length t.pending

let sent t = Rf_obs.Metrics.counter_value t.m_sent

let retransmissions t = Rf_obs.Metrics.counter_value t.m_retx

let gave_up t = Rf_obs.Metrics.counter_value t.m_gave_up

let pings_sent t = t.pings

let snapshots_sent t = t.snapshots

let resyncs t = Rf_obs.Metrics.counter_value t.m_resyncs

let dropped_while_down t = t.dropped_while_down

let peer_alive t = t.peer_alive

let epoch t = t.epoch

let set_next_seq t seq = t.next_seq <- seq
