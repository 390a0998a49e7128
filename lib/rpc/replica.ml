module Engine = Rf_sim.Engine
module Vtime = Rf_sim.Vtime
module Rng = Rf_sim.Rng

type role = Follower | Candidate | Leader

let pp_role ppf = function
  | Follower -> Format.pp_print_string ppf "follower"
  | Candidate -> Format.pp_print_string ppf "candidate"
  | Leader -> Format.pp_print_string ppf "leader"

type config = { id : int; replicas : int }

(* Minimum silence before standing for election, in seconds; a leader's
   heartbeat period, and its extra uniform delay as a fraction of it. *)
let election_base = 2.0

let heartbeat_every = 0.5

let heartbeat_jitter = 0.25

type t = {
  engine : Engine.t;
  entity : Rf_obs.Profiler.entity;
  rng : Rng.t;
  cfg : config;
  send : dst:int -> Rpc_msg.body -> unit;
  (* stable storage: survives crash *)
  mutable term : int32;
  mutable voted_for : int option;
  mutable log_rev : Rpc_msg.t list;  (** newest first *)
  mutable log_len : int;
  (* volatile *)
  mutable role : role;
  mutable crashed : bool;
  mutable leader : int option;
  mutable accepted_leader_epoch : int32;
      (** last epoch in which we accepted a leader; first acceptance per
          epoch truncates the uncommitted tail *)
  mutable votes : int list;
  mutable match_index : int array;  (** leader only, per replica *)
  mutable commit : int;
  mutable applied : int;
  mutable election_timer : Engine.timer option;
  mutable hb_gen : int;  (** invalidates stale heartbeat loops *)
  mutable on_commit : int -> Rpc_msg.t -> unit;
  mutable on_role : role -> int32 -> unit;
}

let record t event detail =
  Engine.record t.engine
    ~component:(Printf.sprintf "replica-%d" t.cfg.id)
    ~event detail

let majority t = (t.cfg.replicas / 2) + 1

let broadcast t body =
  for dst = 0 to t.cfg.replicas - 1 do
    if dst <> t.cfg.id then t.send ~dst body
  done

(* 1-based access into the reversed log. *)
let entry t i = List.nth t.log_rev (t.log_len - i)

let log t = List.rev t.log_rev

let apply_committed t =
  while t.applied < min t.commit t.log_len do
    t.applied <- t.applied + 1;
    t.on_commit t.applied (entry t t.applied)
  done

let set_role t role =
  if t.role <> role then begin
    t.role <- role;
    if role <> Leader then t.hb_gen <- t.hb_gen + 1;
    record t "role"
      (Format.asprintf "%a epoch=%ld log=%d" pp_role role t.term t.log_len);
    t.on_role role t.term
  end

(* Deterministic bias by id plus a seeded jitter smaller than the bias
   step, so timeouts never collide and replica 0 bootstraps first. *)
let timeout_span t =
  let n = float_of_int (max 1 t.cfg.replicas) in
  let bias = election_base *. (float_of_int t.cfg.id /. n) in
  let jitter = Rng.float t.rng (election_base /. (2. *. n)) in
  Vtime.span_s (election_base +. bias +. jitter)

let cancel_election_timer t =
  match t.election_timer with
  | Some timer ->
      Engine.cancel timer;
      t.election_timer <- None
  | None -> ()

let rec arm_election t =
  cancel_election_timer t;
  if (not t.crashed) && t.role <> Leader then
    t.election_timer <-
      Some
        (Engine.schedule ~entity:t.entity t.engine (timeout_span t) (fun () ->
             election t))

and election t =
  if (not t.crashed) && t.role <> Leader then begin
    t.term <- Rpc_msg.seq_succ t.term;
    t.voted_for <- Some t.cfg.id;
    t.leader <- None;
    t.votes <- [ t.cfg.id ];
    set_role t Candidate;
    broadcast t
      (Rpc_msg.Elect_request
         {
           el_epoch = t.term;
           el_candidate = t.cfg.id;
           el_last = Int32.of_int t.log_len;
         });
    if List.length t.votes >= majority t then become_leader t
    else arm_election t
  end

and become_leader t =
  t.leader <- Some t.cfg.id;
  t.accepted_leader_epoch <- t.term;
  cancel_election_timer t;
  t.match_index <- Array.make t.cfg.replicas 0;
  t.match_index.(t.cfg.id) <- t.log_len;
  set_role t Leader;
  t.hb_gen <- t.hb_gen + 1;
  recompute_commit t;
  heartbeat_loop t t.hb_gen

and recompute_commit t =
  if t.role = Leader then begin
    let sorted = Array.copy t.match_index in
    Array.sort (fun a b -> compare b a) sorted;
    let held = sorted.(majority t - 1) in
    if held > t.commit then begin
      t.commit <- held;
      apply_committed t
    end
  end

and send_heartbeat t =
  broadcast t
    (Rpc_msg.Leader_heartbeat
       {
         lh_epoch = t.term;
         lh_leader = t.cfg.id;
         lh_commit = Int32.of_int t.commit;
         lh_len = Int32.of_int t.log_len;
       })

and heartbeat_loop t gen =
  if (not t.crashed) && t.role = Leader && gen = t.hb_gen then begin
    send_heartbeat t;
    let wait =
      heartbeat_every +. Rng.float t.rng (heartbeat_jitter *. heartbeat_every)
    in
    ignore
      (Engine.schedule ~entity:t.entity t.engine (Vtime.span_s wait)
         (fun () -> heartbeat_loop t gen))
  end

(* Newer epoch observed in a vote request: adopt it, but keep the log
   intact — the candidate may well lose. A pending election timeout is
   deliberately NOT reset: only a granted vote defers the voter's own
   candidacy, otherwise a rejoining replica with a stale log, an
   inflated epoch and the shortest timeout could depose the leader on
   every timeout while never winning itself (the disruptive-server
   livelock). Ex-leaders carry no timer and get one armed here. *)
let step_down t epoch =
  if Rpc_msg.seq_after epoch t.term then begin
    t.term <- epoch;
    t.voted_for <- None;
    t.leader <- None;
    set_role t Follower;
    if t.election_timer = None then arm_election t
  end

(* A leader the cluster elected without us may have won on a log that
   lacks our uncommitted tail; committed entries are safe (commit and
   election quorums intersect), everything past them is forfeit. *)
let truncate_to_commit t =
  if t.log_len > t.commit then begin
    record t "truncate"
      (Printf.sprintf "uncommitted tail %d..%d dropped" (t.commit + 1)
         t.log_len);
    let rec drop n l = if n <= 0 then l else drop (n - 1) (List.tl l) in
    t.log_rev <- drop (t.log_len - t.commit) t.log_rev;
    t.log_len <- t.commit
  end

(* Heartbeat or append from an acting leader at a current-or-newer
   epoch: follow it and reset the election clock. *)
let follow_leader t epoch ldr =
  if Rpc_msg.seq_after epoch t.term then begin
    t.term <- epoch;
    t.voted_for <- None
  end;
  if not (Int32.equal t.accepted_leader_epoch epoch) then begin
    truncate_to_commit t;
    t.accepted_leader_epoch <- epoch
  end;
  t.leader <- Some ldr;
  set_role t Follower;
  arm_election t

let ack_prefix t dst =
  t.send ~dst
    (Rpc_msg.Replicate_ack
       {
         ra_epoch = t.term;
         ra_replica = t.cfg.id;
         ra_index = Int32.of_int t.log_len;
       })

let receive t ~src body =
  if not t.crashed then
    match body with
    | Rpc_msg.Elect_request { el_epoch; el_candidate; el_last } ->
        step_down t el_epoch;
        let grant =
          Int32.equal el_epoch t.term
          && (match t.voted_for with
             | None -> true
             | Some v -> v = el_candidate)
          && Int32.to_int el_last >= t.log_len
        in
        if grant then begin
          t.voted_for <- Some el_candidate;
          arm_election t
        end;
        t.send ~dst:el_candidate
          (Rpc_msg.Elect_vote
             { ev_epoch = el_epoch; ev_voter = t.cfg.id; ev_granted = grant })
    | Rpc_msg.Elect_vote { ev_epoch; ev_voter; ev_granted } ->
        if
          t.role = Candidate
          && Int32.equal ev_epoch t.term
          && ev_granted
          && not (List.mem ev_voter t.votes)
        then begin
          t.votes <- ev_voter :: t.votes;
          if List.length t.votes >= majority t then become_leader t
        end
    | Rpc_msg.Leader_heartbeat { lh_epoch; lh_leader; lh_commit; lh_len } ->
        if not (Rpc_msg.seq_after t.term lh_epoch) then begin
          follow_leader t lh_epoch lh_leader;
          if Int32.to_int lh_len > t.log_len then
            t.send ~dst:lh_leader Rpc_msg.Sync_request
          else
            (* in sync; the cumulative ack lets a fresh leader advance
               the commit point over pre-election entries *)
            ack_prefix t lh_leader;
          let seen = min (Int32.to_int lh_commit) t.log_len in
          if seen > t.commit then begin
            t.commit <- seen;
            apply_committed t
          end
        end
    | Rpc_msg.Replicate { rp_epoch; rp_leader; rp_index; rp_msg } ->
        if not (Rpc_msg.seq_after t.term rp_epoch) then begin
          follow_leader t rp_epoch rp_leader;
          let idx = Int32.to_int rp_index in
          if idx = t.log_len + 1 then begin
            t.log_rev <- rp_msg :: t.log_rev;
            t.log_len <- idx;
            ack_prefix t rp_leader
          end
          else if idx <= t.log_len then
            (* duplicate delivery; re-ack the prefix we hold *)
            ack_prefix t rp_leader
          else
            (* gap: recover the missing prefix by anti-entropy *)
            t.send ~dst:rp_leader Rpc_msg.Sync_request
        end
    | Rpc_msg.Replicate_ack { ra_epoch; ra_replica; ra_index } ->
        if
          t.role = Leader
          && Int32.equal ra_epoch t.term
          && ra_replica >= 0
          && ra_replica < t.cfg.replicas
        then begin
          t.match_index.(ra_replica) <-
            max t.match_index.(ra_replica) (Int32.to_int ra_index);
          recompute_commit t
        end
    | Rpc_msg.Sync_request ->
        if t.role = Leader then t.send ~dst:src (Rpc_msg.Sync_snapshot (log t))
    | Rpc_msg.Sync_snapshot msgs ->
        (* full-log anti-entropy from the leader we follow *)
        if t.role = Follower && t.leader = Some src then begin
          t.log_rev <- List.rev msgs;
          t.log_len <- List.length msgs;
          if t.applied > t.log_len then t.applied <- t.log_len;
          ack_prefix t src;
          apply_committed t
        end
    | Rpc_msg.Request _ | Rpc_msg.Ack _ | Rpc_msg.Ping | Rpc_msg.Pong -> ()

let submit t msg =
  if t.crashed || t.role <> Leader then false
  else begin
    t.log_len <- t.log_len + 1;
    t.log_rev <- msg :: t.log_rev;
    t.match_index.(t.cfg.id) <- t.log_len;
    broadcast t
      (Rpc_msg.Replicate
         {
           rp_epoch = t.term;
           rp_leader = t.cfg.id;
           rp_index = Int32.of_int t.log_len;
           rp_msg = msg;
         });
    recompute_commit t;
    true
  end

let crash t =
  if not t.crashed then begin
    t.crashed <- true;
    cancel_election_timer t;
    t.hb_gen <- t.hb_gen + 1;
    t.role <- Follower;
    t.leader <- None;
    t.accepted_leader_epoch <- 0l;
    t.votes <- [];
    t.match_index <- [||];
    t.commit <- 0;
    t.applied <- 0;
    record t "crash" (Printf.sprintf "epoch=%ld log=%d" t.term t.log_len)
  end

let restart t =
  if t.crashed then begin
    t.crashed <- false;
    record t "restart" (Printf.sprintf "epoch=%ld log=%d" t.term t.log_len);
    arm_election t
  end

let create engine ~rng cfg ~send =
  if cfg.replicas < 1 then invalid_arg "Replica.create: replicas < 1";
  if cfg.id < 0 || cfg.id >= cfg.replicas then
    invalid_arg "Replica.create: id out of range";
  let t =
    {
      engine;
      entity = Rf_obs.Profiler.controller cfg.id;
      rng;
      cfg;
      send;
      term = 0l;
      voted_for = None;
      log_rev = [];
      log_len = 0;
      role = Follower;
      crashed = false;
      leader = None;
      accepted_leader_epoch = 0l;
      votes = [];
      match_index = [||];
      commit = 0;
      applied = 0;
      election_timer = None;
      hb_gen = 0;
      on_commit = (fun _ _ -> ());
      on_role = (fun _ _ -> ());
    }
  in
  arm_election t;
  t

let set_on_commit t f = t.on_commit <- f

let set_on_role t f = t.on_role <- f

let id t = t.cfg.id

let role t = t.role

let term t = t.term

let leader t = t.leader

let crashed t = t.crashed

let log_digest t =
  let committed = min t.commit t.log_len in
  let buf = Buffer.create 256 in
  List.iteri
    (fun i msg ->
      if i < committed then
        Buffer.add_string buf (Format.asprintf "%d %a\n" (i + 1) Rpc_msg.pp msg))
    (log t);
  Digest.to_hex (Digest.string (Buffer.contents buf))
