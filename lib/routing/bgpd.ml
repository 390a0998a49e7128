open Rf_packet

type peer_state = Idle | Open_sent | Established

module Pfx_map = Map.Make (Ipv4_addr.Prefix)

type learned = { l_path : int list; l_next_hop : Ipv4_addr.t }

type peer = {
  daemon : t;
  remote_asn : int;
  next_hop_hint : Ipv4_addr.t;
  send_bytes : string -> unit;
  mutable state : peer_state;
  mutable learned : learned Pfx_map.t;
  mutable last_heard : Rf_sim.Vtime.t;
  mutable keepalive_timer : Rf_sim.Engine.timer option;
  mutable hold_timer : Rf_sim.Engine.timer option;
}

and t = {
  engine : Rf_sim.Engine.t;
  entity : Rf_obs.Profiler.entity option;
  asn : int;
  router_id : Ipv4_addr.t;
  rib : Rib.t;
  mutable peers : peer list;
  mutable networks : Ipv4_addr.Prefix.t list;
}

(* Hold time in seconds, advertised in OPEN and enforced locally (the
   value RFC 4271 suggests); keepalives go every third of it. *)
let hold_time = 90

let create engine ?entity ~asn ~router_id rib =
  { engine; entity; asn; router_id; rib; peers = []; networks = [] }

let asn t = t.asn

let send_msg peer m = peer.send_bytes (Bgp_msg.to_wire m)

(* --- best path selection ------------------------------------------ *)

let reselect t =
  (* Collect, per prefix, the shortest AS path across established
     peers. *)
  let best : (Ipv4_addr.Prefix.t, learned) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun peer ->
      if peer.state = Established then
        Pfx_map.iter
          (fun prefix l ->
            match Hashtbl.find_opt best prefix with
            | Some cur when List.length cur.l_path <= List.length l.l_path -> ()
            | Some _ | None -> Hashtbl.replace best prefix l)
          peer.learned)
    t.peers;
  let routes =
    Hashtbl.fold
      (fun prefix l acc ->
        {
          Rib.r_prefix = prefix;
          r_proto = Rib.Bgp;
          r_distance = Rib.default_distance Rib.Bgp;
          r_metric = List.length l.l_path;
          r_next_hop = Some l.l_next_hop;
          r_iface = "";
        }
        :: acc)
      best []
    |> List.sort (fun (a : Rib.route) b ->
           Ipv4_addr.Prefix.compare a.r_prefix b.r_prefix)
  in
  Rib.replace_proto t.rib Rib.Bgp routes

let announce_to peer prefixes =
  if prefixes <> [] && peer.state = Established then
    send_msg peer
      (Bgp_msg.Update
         {
           u_withdrawn = [];
           u_as_path = [ peer.daemon.asn ];
           u_next_hop = Some peer.next_hop_hint;
           u_nlri = prefixes;
         })

let drop_session peer =
  if peer.state <> Idle then begin
    peer.state <- Idle;
    peer.learned <- Pfx_map.empty;
    (match peer.keepalive_timer with
    | Some timer -> Rf_sim.Engine.cancel timer
    | None -> ());
    peer.keepalive_timer <- None;
    reselect peer.daemon
  end

let establish peer =
  peer.state <- Established;
  Rf_obs.Metrics.incr
    (Rf_obs.Metrics.counter
       (Rf_sim.Engine.metrics peer.daemon.engine)
       ~help:"BGP sessions reaching Established"
       "bgp_sessions_established_total");
  send_msg peer Bgp_msg.Keepalive;
  let interval =
    Rf_sim.Vtime.span_s (float_of_int (max 1 (hold_time / 3)))
  in
  peer.keepalive_timer <-
    Some
      (Rf_sim.Engine.periodic ?entity:peer.daemon.entity peer.daemon.engine
         interval (fun () -> send_msg peer Bgp_msg.Keepalive));
  announce_to peer peer.daemon.networks;
  (* Propagate routes learned from other peers (simple full-mesh
     re-advertisement with path prepend). *)
  List.iter
    (fun other ->
      if other != peer && other.state = Established then
        Pfx_map.iter
          (fun prefix l ->
            send_msg peer
              (Bgp_msg.Update
                 {
                   u_withdrawn = [];
                   u_as_path = peer.daemon.asn :: l.l_path;
                   u_next_hop = Some peer.next_hop_hint;
                   u_nlri = [ prefix ];
                 }))
          other.learned)
    peer.daemon.peers

let handle_update peer (u : Bgp_msg.update) =
  let t = peer.daemon in
  (* Loop prevention. *)
  let looped = List.exists (Int.equal t.asn) u.u_as_path in
  peer.learned <-
    List.fold_left (fun acc p -> Pfx_map.remove p acc) peer.learned u.u_withdrawn;
  (if (not looped) && u.u_nlri <> [] then
     match u.u_next_hop with
     | Some nh ->
         peer.learned <-
           List.fold_left
             (fun acc p ->
               Pfx_map.add p { l_path = u.u_as_path; l_next_hop = nh } acc)
             peer.learned u.u_nlri
     | None -> ());
  reselect t;
  (* Re-advertise to the other peers. *)
  if (not looped) && u.u_nlri <> [] then
    List.iter
      (fun other ->
        if other != peer && other.state = Established then
          send_msg other
            (Bgp_msg.Update
               {
                 u_withdrawn = [];
                 u_as_path = t.asn :: u.u_as_path;
                 u_next_hop = Some other.next_hop_hint;
                 u_nlri = u.u_nlri;
               }))
      t.peers

let handle peer m =
  peer.last_heard <- Rf_sim.Engine.now peer.daemon.engine;
  match m with
  | Bgp_msg.Open o ->
      if o.o_asn <> peer.remote_asn then
        send_msg peer (Bgp_msg.Notification { code = 2; subcode = 2 })
      else if peer.state <> Established then establish peer
  | Bgp_msg.Keepalive -> ()
  | Bgp_msg.Update u -> if peer.state = Established then handle_update peer u
  | Bgp_msg.Notification _ -> drop_session peer

let input peer bytes =
  match Bgp_msg.of_wire bytes with
  | Ok m -> handle peer m
  | Error _ -> drop_session peer

let add_peer t ~remote_asn ~next_hop_hint ~send =
  let peer =
    {
      daemon = t;
      remote_asn;
      next_hop_hint;
      send_bytes = send;
      state = Idle;
      learned = Pfx_map.empty;
      last_heard = Rf_sim.Engine.now t.engine;
      keepalive_timer = None;
      hold_timer = None;
    }
  in
  t.peers <- t.peers @ [ peer ];
  peer

let start_peer peer =
  let t = peer.daemon in
  send_msg peer
    (Bgp_msg.Open
       { o_asn = t.asn; o_hold_time = hold_time; o_router_id = t.router_id });
  peer.state <- Open_sent;
  if peer.hold_timer = None then
    peer.hold_timer <-
      Some
        (Rf_sim.Engine.periodic ?entity:t.entity t.engine
           (Rf_sim.Vtime.span_s 1.0) (fun () ->
             if peer.state = Established then begin
               let silence =
                 Rf_sim.Vtime.diff (Rf_sim.Engine.now t.engine) peer.last_heard
               in
               if
                 Rf_sim.Vtime.span_compare silence
                   (Rf_sim.Vtime.span_s (float_of_int hold_time))
                 > 0
               then drop_session peer
             end))

let announce t prefix =
  if not (List.exists (Ipv4_addr.Prefix.equal prefix) t.networks) then begin
    t.networks <- t.networks @ [ prefix ];
    List.iter (fun peer -> announce_to peer [ prefix ]) t.peers
  end

let withdraw_network t prefix =
  t.networks <- List.filter (fun p -> not (Ipv4_addr.Prefix.equal p prefix)) t.networks;
  List.iter
    (fun peer ->
      if peer.state = Established then
        send_msg peer
          (Bgp_msg.Update
             { u_withdrawn = [ prefix ]; u_as_path = []; u_next_hop = None; u_nlri = [] }))
    t.peers

let peer_state peer = peer.state

let established_peers t =
  List.length (List.filter (fun p -> p.state = Established) t.peers)

let routes_learned t =
  List.length (List.filter (fun r -> r.Rib.r_proto = Rib.Bgp) (Rib.selected t.rib))
