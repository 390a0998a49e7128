module Engine = Rf_sim.Engine
module Rng = Rf_sim.Rng
module Faults = Rf_sim.Faults

(* How far ahead of the watermark an out-of-order frame may arrive and
   still be buffered for in-order delivery. Beyond this the frame is
   dropped unacknowledged and the client's retransmission recovers it
   once the gap closes. *)
let window = 512

type t = {
  engine : Engine.t;
  entity : Rf_obs.Profiler.entity;
  chan : Rf_net.Channel.endpoint;
  mutable incarnation : int32;
  mutable epoch : int32;  (** client session being tracked; 0 = none *)
  mutable watermark : int32;
      (** every seq of [epoch] serially <= this has been delivered *)
  ooo : (int32, Rpc_msg.body) Hashtbl.t;
      (** acknowledged frames ahead of the watermark, buffered until the
          gap closes so delivery stays in order *)
  mutable handler : Rpc_msg.t -> unit;
  mutable snapshot_handler : Rpc_msg.t list -> unit;
  mutable faults : (Rng.t * Faults.chan_profile) option;
  mutable crashed : bool;
  m_handled : Rf_obs.Metrics.counter;
  m_dups : Rf_obs.Metrics.counter;
  m_snapshots : Rf_obs.Metrics.counter;
}

let record t event detail =
  Engine.record t.engine ~component:"rpc-server" ~event detail

let transmit t frame =
  if not t.crashed then
    match
      Faults.transmit t.engine ~entity:t.entity t.faults (fun () ->
          Rf_net.Channel.send t.chan frame)
    with
    | Faults.Drop -> record t "fault-drop" ""
    | Faults.Deliver | Faults.Duplicate | Faults.Delay _ -> ()

(* Server envelopes carry the incarnation in the epoch field: every
   reply doubles as a restart beacon for the client. *)
let reply t body =
  transmit t (Rpc_msg.to_wire { Rpc_msg.epoch = t.incarnation; seq = 0l; body })

let ack t seq =
  reply t (Rpc_msg.Ack { a_epoch = t.epoch; a_cum = t.watermark; a_seq = seq })

let deliver t body =
  Rf_obs.Metrics.incr t.m_handled;
  match body with
  | Rpc_msg.Request req -> t.handler req
  | Rpc_msg.Sync_snapshot msgs ->
      Rf_obs.Metrics.incr t.m_snapshots;
      record t "sync-snapshot" (Printf.sprintf "%d messages" (List.length msgs));
      t.snapshot_handler msgs
  | Rpc_msg.Ack _ | Rpc_msg.Ping | Rpc_msg.Pong | Rpc_msg.Sync_request
  | Rpc_msg.Elect_request _ | Rpc_msg.Elect_vote _ | Rpc_msg.Leader_heartbeat _
  | Rpc_msg.Replicate _ | Rpc_msg.Replicate_ack _ ->
      ()

(* Deliver everything buffered contiguously past the new watermark. *)
let rec drain t =
  let next = Rpc_msg.seq_succ t.watermark in
  match Hashtbl.find_opt t.ooo next with
  | Some body ->
      Hashtbl.remove t.ooo next;
      t.watermark <- next;
      deliver t body;
      drain t
  | None -> ()

let adopt_epoch t epoch =
  if not (Int32.equal t.epoch epoch) then begin
    record t "epoch"
      (Printf.sprintf "%ld -> %ld (dedup state evicted)" t.epoch epoch);
    t.epoch <- epoch;
    t.watermark <- 0l;
    Hashtbl.reset t.ooo
  end

let handle_tracked t (env : Rpc_msg.envelope) =
  if Int32.equal t.epoch 0l then adopt_epoch t env.epoch;
  if not (Int32.equal env.epoch t.epoch) then
    if Rpc_msg.seq_after env.epoch t.epoch then adopt_epoch t env.epoch
    else begin
      (* a late frame from a session the client has already abandoned:
         acking it would corrupt the live session's bookkeeping *)
      record t "stale-epoch" (Printf.sprintf "epoch=%ld seq=%ld" env.epoch env.seq)
    end;
  if Int32.equal env.epoch t.epoch then
    if not (Rpc_msg.seq_after env.seq t.watermark) then begin
      (* already delivered; re-ack so the client stops retransmitting *)
      Rf_obs.Metrics.incr t.m_dups;
      ack t env.seq
    end
    else if Int32.equal env.seq (Rpc_msg.seq_succ t.watermark) then begin
      t.watermark <- env.seq;
      deliver t env.body;
      drain t;
      ack t env.seq
    end
    else if Hashtbl.mem t.ooo env.seq then begin
      Rf_obs.Metrics.incr t.m_dups;
      ack t env.seq
    end
    else if Hashtbl.length t.ooo < window then begin
      (* ahead of the watermark: ack now, deliver once the gap closes *)
      Hashtbl.replace t.ooo env.seq env.body;
      ack t env.seq
    end
    (* window overflow: drop silently; retransmission will recover *)

let handle_envelope t (env : Rpc_msg.envelope) =
  match env.body with
  | Rpc_msg.Request _ | Rpc_msg.Sync_snapshot _ -> handle_tracked t env
  | Rpc_msg.Ping -> reply t Rpc_msg.Pong
  | Rpc_msg.Pong | Rpc_msg.Ack _ | Rpc_msg.Sync_request
  | Rpc_msg.Elect_request _ | Rpc_msg.Elect_vote _ | Rpc_msg.Leader_heartbeat _
  | Rpc_msg.Replicate _ | Rpc_msg.Replicate_ack _ ->
      (* the client never originates these; cluster traffic rides its
         own replica mesh, not the client session *)
      ()

let create engine chan =
  let t =
    {
      engine;
      entity = Rf_obs.Profiler.component "rpc-server";
      chan;
      incarnation = 1l;
      epoch = 0l;
      watermark = 0l;
      ooo = Hashtbl.create 64;
      handler = (fun _ -> ());
      snapshot_handler = (fun _ -> ());
      faults = None;
      crashed = false;
      m_handled =
        Rf_obs.Metrics.counter
          (Engine.metrics engine)
          ~help:"Configuration messages delivered to the RF-controller"
          "rpc_server_handled_total";
      m_dups =
        Rf_obs.Metrics.counter
          (Engine.metrics engine)
          ~help:"Duplicate RPC frames dropped by dedup"
          "rpc_server_dups_total";
      m_snapshots =
        Rf_obs.Metrics.counter
          (Engine.metrics engine)
          ~help:"Anti-entropy snapshots applied" "rpc_server_snapshots_total";
    }
  in
  Rf_net.Channel.set_receiver chan (fun bytes ->
      if not t.crashed then
        match Rpc_msg.of_wire bytes with
        | Ok env -> handle_envelope t env
        | Error e -> record t "decode-error" e);
  t

let set_handler t f = t.handler <- f

let set_snapshot_handler t f = t.snapshot_handler <- f

let set_fault_profile t rng profile = t.faults <- Some (rng, profile)

let crash t =
  if not t.crashed then begin
    t.crashed <- true;
    (* volatile session state dies with the process *)
    t.epoch <- 0l;
    t.watermark <- 0l;
    Hashtbl.reset t.ooo;
    record t "crash" ""
  end

let restart t =
  if t.crashed then begin
    t.crashed <- false;
    t.incarnation <- Rpc_msg.seq_succ t.incarnation;
    record t "restart" (Printf.sprintf "incarnation=%ld" t.incarnation);
    (* anti-entropy: ask the client for its authoritative state rather
       than waiting for the next beacon-carrying reply *)
    reply t Rpc_msg.Sync_request
  end

let requests_handled t = Rf_obs.Metrics.counter_value t.m_handled

let duplicates_dropped t = Rf_obs.Metrics.counter_value t.m_dups

let snapshots_received t = Rf_obs.Metrics.counter_value t.m_snapshots

let incarnation t = t.incarnation

let dedup_size t = Hashtbl.length t.ooo

let set_watermark t seq =
  t.watermark <- seq;
  if Int32.equal t.epoch 0l then t.epoch <- 1l
