type endpoint = {
  engine : Rf_sim.Engine.t;
  latency : Rf_sim.Vtime.span;
  entity : Rf_obs.Profiler.entity option;
  mutable peer : endpoint option;
  mutable receiver : (string -> unit) option;
  mutable pending : string list;  (** reversed buffer until receiver set *)
  mutable open_ : bool;
  mutable on_close : (unit -> unit) option;
}

let make engine latency entity =
  {
    engine;
    latency;
    entity;
    peer = None;
    receiver = None;
    pending = [];
    open_ = true;
    on_close = None;
  }

let create engine ?(latency = Rf_sim.Vtime.span_ms 1) ?entity () =
  let a = make engine latency entity in
  let b = make engine latency entity in
  a.peer <- Some b;
  b.peer <- Some a;
  (a, b)

let deliver ep bytes =
  if ep.open_ then begin
    match ep.receiver with
    | Some f -> f bytes
    | None -> ep.pending <- bytes :: ep.pending
  end

let send ep bytes =
  match ep.peer with
  | Some peer when ep.open_ && peer.open_ ->
      ignore
        (Rf_sim.Engine.schedule ?entity:ep.entity ep.engine ep.latency
           (fun () -> deliver peer bytes))
  | Some _ | None -> ()

let set_receiver ep f =
  ep.receiver <- Some f;
  let buffered = List.rev ep.pending in
  ep.pending <- [];
  List.iter f buffered

let do_close ep =
  if ep.open_ then begin
    ep.open_ <- false;
    match ep.on_close with Some f -> f () | None -> ()
  end

let close ep =
  if ep.open_ then begin
    ep.open_ <- false;
    (match ep.on_close with Some f -> f () | None -> ());
    match ep.peer with
    | Some peer ->
        ignore
          (Rf_sim.Engine.schedule ?entity:ep.entity ep.engine ep.latency
             (fun () -> do_close peer))
    | None -> ()
  end

let set_on_close ep f = ep.on_close <- Some f

let is_open ep = ep.open_
