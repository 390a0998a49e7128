type attachment = To_switch of Datapath.t * int | To_host of Host.t

type capacity = { bandwidth_bps : int; queue_frames : int }

(* Per-direction transmitter state: [busy_until] is when the serializer
   frees up, [draining] holds the finish times of the frames buffered or
   on the wire, oldest first (the frame being serialized occupies a
   queue slot until transmission ends). A frame leaves it lazily, at
   the next transmit at or after its finish time, so a frame costs no
   event of its own when serialization ends. *)
type direction = {
  mutable busy_until : Rf_sim.Vtime.t;
  draining : Rf_sim.Vtime.t Queue.t;
  mutable queue_dropped : int;
}

type t = {
  engine : Rf_sim.Engine.t;
  latency : Rf_sim.Vtime.span;
  entity : Rf_obs.Profiler.entity;
  a : attachment;
  b : attachment;
  mutable up : bool;
  mutable downs : int;  (* [set_up false] transitions so far *)
  mutable capacity : capacity option;
  dir_ab : direction;
  dir_ba : direction;
  mutable offered : int;
  mutable carried : int;
  mutable dropped : int;
  mutable tap : (string -> unit) option;
}

let deliver side frame =
  match side with
  | To_switch (dp, port) -> Datapath.receive_frame dp ~in_port:port frame
  | To_host h -> Host.receive_frame h frame

let carry t other frame =
  t.carried <- t.carried + 1;
  (match t.tap with Some f -> f frame | None -> ());
  deliver other frame

(* A frame's one event, at its arrival: a link that went down since the
   frame was accepted lost it, even if it is up again by then. *)
let propagate t other ~at frame =
  let downs = t.downs in
  ignore
    (Rf_sim.Engine.schedule_at ~entity:t.entity t.engine at (fun () ->
         if t.up && t.downs = downs then carry t other frame
         else t.dropped <- t.dropped + 1))

let serialization_delay cap frame =
  let bits = 8 * String.length frame in
  let us = bits * 1_000_000 / cap.bandwidth_bps in
  Rf_sim.Vtime.span_us (max 1 us)

let attach t side other dir =
  let transmit frame =
    t.offered <- t.offered + 1;
    if not t.up then t.dropped <- t.dropped + 1
    else
      let now = Rf_sim.Engine.now t.engine in
      match t.capacity with
      | None -> propagate t other ~at:(Rf_sim.Vtime.add now t.latency) frame
      | Some cap ->
          while
            (not (Queue.is_empty dir.draining))
            && Rf_sim.Vtime.(Queue.peek dir.draining <= now)
          do
            ignore (Queue.pop dir.draining)
          done;
          if Queue.length dir.draining >= cap.queue_frames then begin
            (* Bounded FIFO: tail drop. *)
            dir.queue_dropped <- dir.queue_dropped + 1;
            t.dropped <- t.dropped + 1
          end
          else begin
            let start =
              if Rf_sim.Vtime.compare dir.busy_until now > 0 then
                dir.busy_until
              else now
            in
            let finish =
              Rf_sim.Vtime.add start (serialization_delay cap frame)
            in
            dir.busy_until <- finish;
            Queue.push finish dir.draining;
            propagate t other ~at:(Rf_sim.Vtime.add finish t.latency) frame
          end
  in
  match side with
  | To_switch (dp, port) -> Datapath.set_transmit dp ~port transmit
  | To_host h -> Host.set_transmit h transmit

(* Load attribution: switch-switch links are entities of their own
   (their propagation work sits between two domains); host access
   links fold into the host, whose placement follows its edge
   switch. *)
let attribution a b =
  match (a, b) with
  | To_switch (da, _), To_switch (db, _) ->
      Rf_obs.Profiler.link (Datapath.dpid da) (Datapath.dpid db)
  | To_host h, _ | _, To_host h -> Rf_obs.Profiler.host (Host.name h)

let connect engine ?(latency = Rf_sim.Vtime.span_ms 1) ?capacity a b =
  let direction () =
    {
      busy_until = Rf_sim.Vtime.zero;
      draining = Queue.create ();
      queue_dropped = 0;
    }
  in
  let t =
    {
      engine;
      latency;
      entity = attribution a b;
      a;
      b;
      up = true;
      downs = 0;
      capacity;
      dir_ab = direction ();
      dir_ba = direction ();
      offered = 0;
      carried = 0;
      dropped = 0;
      tap = None;
    }
  in
  attach t a b t.dir_ab;
  attach t b a t.dir_ba;
  t

let set_capacity t capacity = t.capacity <- capacity

let capacity t = t.capacity

let set_up t up =
  if t.up <> up then begin
    t.up <- up;
    if not up then t.downs <- t.downs + 1;
    let toggle = function
      | To_switch (dp, port) -> Datapath.set_port_up dp port up
      | To_host _ -> ()
    in
    toggle t.a;
    toggle t.b
  end

let is_up t = t.up

let set_tap t f = t.tap <- Some f

let frames_offered t = t.offered

let frames_carried t = t.carried

let frames_dropped t = t.dropped

let frames_queue_dropped t = t.dir_ab.queue_dropped + t.dir_ba.queue_dropped
