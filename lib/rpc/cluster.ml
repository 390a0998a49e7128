module Engine = Rf_sim.Engine
module Vtime = Rf_sim.Vtime
module Rng = Rf_sim.Rng
module Faults = Rf_sim.Faults

type t = {
  engine : Engine.t;
  entity : Rf_obs.Profiler.entity;
  n : int;
  mutable members : Replica.t array;
  links : Rf_net.Channel.endpoint option array array;
      (** [links.(i).(j)] is replica [i]'s endpoint towards [j] *)
  mutable partition : (int list * int list) option;
  mutable faults : (Rng.t * Faults.chan_profile) option;
  mutable current : (int * int32) option;  (** acting leader, epoch *)
  mutable history : (int32 * int) list;
  mutable pending : Rpc_msg.t list;  (** submission order *)
  mutable applied_global : int;  (** highest log index surfaced *)
  mutable applied_count : int;
  mutable failover_started : (Vtime.t * int) option;  (** start, span id *)
  mutable failovers : int;
  mutable last_failover_s : float option;
  mutable partition_drops : int;
  mutable on_apply : Rpc_msg.t -> unit;
  mutable on_leader_change : int -> unit;
  mutable on_failover : unit -> unit;
  g_epoch : Rf_obs.Metrics.gauge;
  c_elections : Rf_obs.Metrics.counter;
  h_election : Rf_obs.Metrics.histogram;
}

let record t event detail =
  Engine.record t.engine ~component:"cluster" ~event detail

let blocked t i j =
  match t.partition with
  | None -> false
  | Some (a, b) ->
      (List.mem i a && List.mem j b) || (List.mem i b && List.mem j a)

let transmit t ~src ~dst frame =
  match t.links.(src).(dst) with
  | None -> ()
  | Some ep ->
      let drop () = t.partition_drops <- t.partition_drops + 1 in
      if blocked t src dst then drop ()
      else
        ignore
          (Faults.transmit t.engine ~entity:t.entity t.faults (fun () ->
               (* the partition is re-checked at delivery time *)
               if blocked t src dst then drop ()
               else Rf_net.Channel.send ep frame))

let send_from t src ~dst body =
  let frame = Rpc_msg.to_wire { Rpc_msg.epoch = 0l; seq = 0l; body } in
  transmit t ~src ~dst frame

let majority t = (t.n / 2) + 1

(* The acting leader, if it is alive and can reach a quorum. *)
let active_leader t =
  match t.current with
  | Some (id, _) when not (Replica.crashed t.members.(id)) -> Some id
  | _ -> None

let reachable_quorum t id =
  let count = ref 1 in
  for j = 0 to t.n - 1 do
    if j <> id && (not (Replica.crashed t.members.(j))) && not (blocked t id j)
    then incr count
  done;
  !count >= majority t

let begin_failover t reason =
  if t.failover_started = None then begin
    let span =
      Rf_obs.Tracer.span_start (Engine.tracer t.engine)
        ~attrs:[ ("reason", reason) ]
        "cluster.failover"
    in
    t.failover_started <- Some (Engine.now t.engine, span);
    record t "failover-begin" reason;
    t.on_failover ()
  end

let end_failover t leader epoch =
  match t.failover_started with
  | None -> ()
  | Some (since, span) ->
      let dur =
        Vtime.span_to_s (Vtime.diff (Engine.now t.engine) since)
      in
      t.failover_started <- None;
      t.failovers <- t.failovers + 1;
      t.last_failover_s <- Some dur;
      Rf_obs.Metrics.observe t.h_election dur;
      Rf_obs.Tracer.span_end (Engine.tracer t.engine)
        ~attrs:
          [ ("leader", string_of_int leader); ("epoch", Int32.to_string epoch) ]
        span;
      record t "failover-end"
        (Printf.sprintf "leader=%d epoch=%ld after %.3fs" leader epoch dur)

(* Re-offer the uncommitted tail to the new leader; committed entries
   that raced the failover show up as duplicate log entries, which the
   idempotent RouteFlow mutations absorb. *)
let resubmit_pending t leader =
  List.iter (fun msg -> ignore (Replica.submit t.members.(leader) msg)) t.pending

let adopt_leader t id epoch =
  let newer =
    match t.current with
    | None -> true
    | Some (_, e) -> Rpc_msg.seq_after epoch e
  in
  if newer then begin
    t.current <- Some (id, epoch);
    t.history <- (epoch, id) :: t.history;
    Rf_obs.Metrics.incr t.c_elections;
    Rf_obs.Metrics.set t.g_epoch (Int32.to_float epoch);
    record t "leader" (Printf.sprintf "replica=%d epoch=%ld" id epoch);
    end_failover t id epoch;
    resubmit_pending t id;
    t.on_leader_change id
  end

let remove_first msg l =
  let rec go = function
    | [] -> []
    | x :: rest -> if x = msg then rest else x :: go rest
  in
  go l

let handle_commit t idx msg =
  if idx > t.applied_global then begin
    t.applied_global <- idx;
    t.applied_count <- t.applied_count + 1;
    t.pending <- remove_first msg t.pending;
    t.on_apply msg
  end

let create engine ~rng ?(replicas = 3) ?(latency = Vtime.span_ms 1) () =
  if replicas < 1 then invalid_arg "Cluster.create: replicas < 1";
  let metrics = Engine.metrics engine in
  let t =
    {
      engine;
      entity = Rf_obs.Profiler.component "cluster";
      n = replicas;
      members = [||];
      links = Array.make_matrix replicas replicas None;
      partition = None;
      faults = None;
      current = None;
      history = [];
      pending = [];
      applied_global = 0;
      applied_count = 0;
      failover_started = None;
      failovers = 0;
      last_failover_s = None;
      partition_drops = 0;
      on_apply = (fun _ -> ());
      on_leader_change = (fun _ -> ());
      on_failover = (fun () -> ());
      g_epoch =
        Rf_obs.Metrics.gauge metrics
          ~help:"Epoch of the acting cluster leader" "cluster_leader_epoch";
      c_elections =
        Rf_obs.Metrics.counter metrics ~help:"Completed leader elections"
          "cluster_elections_total";
      h_election =
        Rf_obs.Metrics.histogram metrics
          ~help:"Leaderless interval from fault to re-election"
          "cluster_election_seconds";
    }
  in
  (* full mesh: one channel per unordered pair *)
  for i = 0 to replicas - 1 do
    for j = i + 1 to replicas - 1 do
      let a, b = Rf_net.Channel.create engine ~latency ~entity:t.entity () in
      t.links.(i).(j) <- Some a;
      t.links.(j).(i) <- Some b
    done
  done;
  t.members <-
    Array.init replicas (fun i ->
        let cfg = { Replica.id = i; replicas } in
        Replica.create engine
          ~rng:(Rng.derive rng (i + 1))
          cfg
          ~send:(fun ~dst body -> send_from t i ~dst body));
  Array.iteri
    (fun i r ->
      (* frames from j land on i's endpoint towards j *)
      for j = 0 to replicas - 1 do
        match t.links.(i).(j) with
        | None -> ()
        | Some ep ->
            Rf_net.Channel.set_receiver ep (fun bytes ->
                match Rpc_msg.of_wire bytes with
                | Ok env -> Replica.receive r ~src:j env.body
                | Error e -> record t "decode-error" e)
      done;
      Replica.set_on_commit r (fun idx msg -> handle_commit t idx msg);
      Replica.set_on_role r (fun role epoch ->
          if role = Replica.Leader then adopt_leader t i epoch))
    t.members;
  t

let set_on_apply t f = t.on_apply <- f

let set_on_leader_change t f = t.on_leader_change <- f

let set_on_failover t f = t.on_failover <- f

let set_fault_profile t rng profile = t.faults <- Some (rng, profile)

let submit t msg =
  t.pending <- t.pending @ [ msg ];
  match active_leader t with
  | Some id -> ignore (Replica.submit t.members.(id) msg)
  | None -> ()

let crash t i =
  if i < 0 || i >= t.n then invalid_arg "Cluster.crash: bad replica";
  if not (Replica.crashed t.members.(i)) then begin
    Replica.crash t.members.(i);
    record t "crash" (Printf.sprintf "replica=%d" i);
    match t.current with
    | Some (id, _) when id = i -> begin_failover t "leader-crash"
    | _ -> ()
  end

let restart t i =
  if i < 0 || i >= t.n then invalid_arg "Cluster.restart: bad replica";
  if Replica.crashed t.members.(i) then begin
    Replica.restart t.members.(i);
    record t "restart" (Printf.sprintf "replica=%d" i)
  end

let partition t a b =
  t.partition <- Some (a, b);
  record t "partition"
    (Printf.sprintf "{%s} | {%s}"
       (String.concat "," (List.map string_of_int a))
       (String.concat "," (List.map string_of_int b)));
  match active_leader t with
  | Some id when not (reachable_quorum t id) ->
      begin_failover t "leader-partitioned"
  | _ -> ()

let heal t =
  if t.partition <> None then begin
    t.partition <- None;
    record t "heal" ""
  end

let replicas t = t.n

let leader t = active_leader t

let leader_epoch t = match t.current with None -> 0l | Some (_, e) -> e

let member t i = t.members.(i)

let leadership_history t = t.history

let elections t = List.length t.history

let failovers t = t.failovers

let last_failover_s t = t.last_failover_s

let pending t = List.length t.pending

let applied t = t.applied_count

let partition_drops t = t.partition_drops

let log_digest t i = Replica.log_digest t.members.(i)

let converged t =
  let digests = ref [] in
  Array.iter
    (fun r ->
      if not (Replica.crashed r) then digests := Replica.log_digest r :: !digests)
    t.members;
  match !digests with
  | [] -> true
  | d :: rest -> List.for_all (String.equal d) rest
