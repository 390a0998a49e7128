open Rf_packet

type host_config = {
  hc_ip : Ipv4_addr.t;
  hc_prefix_len : int;
  hc_gateway : Ipv4_addr.t;
}

type t = {
  engine : Rf_sim.Engine.t;
  topo : Topology.t;
  dps : (int64, Datapath.t) Hashtbl.t;
  host_tbl : (string, Host.t) Hashtbl.t;
  agents : (int64, Of_agent.t) Hashtbl.t;
  links : (Topology.node * Topology.node, Link.t) Hashtbl.t;
  mutable reconnect : (int64 -> unit) option;
  mutable on_link_state : Topology.node -> Topology.node -> bool -> unit;
}

let engine t = t.engine

let topology t = t.topo

let datapath t dpid =
  match Hashtbl.find_opt t.dps dpid with
  | Some dp -> dp
  | None -> invalid_arg (Printf.sprintf "Network.datapath: unknown dpid %Ld" dpid)

let datapaths t =
  Hashtbl.fold (fun d dp acc -> (d, dp) :: acc) t.dps []
  |> List.sort (fun (a, _) (b, _) -> Int64.compare a b)

let host t name =
  match Hashtbl.find_opt t.host_tbl name with
  | Some h -> h
  | None -> invalid_arg (Printf.sprintf "Network.host: unknown host %s" name)

let hosts t =
  Hashtbl.fold (fun n h acc -> (n, h) :: acc) t.host_tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let link t a b =
  match Hashtbl.find_opt t.links (a, b) with
  | Some l -> Some l
  | None -> Hashtbl.find_opt t.links (b, a)

let set_link_up t a b up =
  match link t a b with
  | Some l ->
      Link.set_up l up;
      t.on_link_state a b up
  | None -> raise Not_found

let set_on_link_state t f = t.on_link_state <- f

let node_key = function
  | Topology.Switch d -> (0, d, "")
  | Topology.Host n -> (1, 0L, n)

let links t =
  Hashtbl.fold (fun k l acc -> (k, l) :: acc) t.links []
  |> List.sort (fun ((a1, b1), _) ((a2, b2), _) ->
         match compare (node_key a1) (node_key a2) with
         | 0 -> compare (node_key b1) (node_key b2)
         | c -> c)

let set_all_link_capacity t capacity =
  List.iter (fun (_, l) -> Link.set_capacity l capacity) (links t)

let queue_dropped_frames t =
  Hashtbl.fold (fun _ l acc -> acc + Link.frames_queue_dropped l) t.links 0

let disconnect_switch t dpid =
  match Hashtbl.find_opt t.agents dpid with
  | Some agent -> Of_agent.disconnect agent
  | None -> ()

let reconnect_switch t dpid =
  match t.reconnect with Some f -> f dpid | None -> ()

let build engine topo ~host_config ~attach_controller
    ?(switch_boot_delay = fun _ -> Rf_sim.Vtime.span_zero) () =
  let t =
    {
      engine;
      topo;
      dps = Hashtbl.create 64;
      host_tbl = Hashtbl.create 16;
      agents = Hashtbl.create 64;
      links = Hashtbl.create 64;
      reconnect = None;
      on_link_state = (fun _ _ _ -> ());
    }
  in
  (* Datapaths, with one port per topology edge endpoint. *)
  List.iter
    (fun dpid ->
      let n_ports = Topology.degree topo (Topology.Switch dpid) in
      let dp = Datapath.create engine ~dpid ~n_ports:(max 1 n_ports) in
      Hashtbl.replace t.dps dpid dp)
    (Topology.switches topo);
  (* Hosts. *)
  let host_index = ref 0 in
  List.iter
    (fun name ->
      incr host_index;
      let cfg = host_config name in
      let mac = Mac.make_local ((1 lsl 36) lor !host_index) in
      let h =
        Host.create engine ~name ~mac ~ip:cfg.hc_ip ~prefix_len:cfg.hc_prefix_len
          ~gateway:cfg.hc_gateway ()
      in
      Hashtbl.replace t.host_tbl name h)
    (Topology.hosts topo);
  (* Data-plane links. *)
  List.iter
    (fun (e : Topology.edge) ->
      let attachment node port =
        match node with
        | Topology.Switch dpid -> Link.To_switch (datapath t dpid, port)
        | Topology.Host name -> Link.To_host (host t name)
      in
      let l =
        Link.connect engine ~latency:e.latency (attachment e.a e.a_port)
          (attachment e.b e.b_port)
      in
      Hashtbl.replace t.links (e.a, e.b) l)
    (Topology.edges topo);
  (* Control connections, possibly staggered. *)
  let connect dpid =
    let dp = datapath t dpid in
    let switch_end, controller_end =
      Channel.create engine ~entity:(Datapath.entity dp) ()
    in
    let agent = Of_agent.create engine dp switch_end in
    Hashtbl.replace t.agents dpid agent;
    attach_controller ~dpid controller_end
  in
  t.reconnect <- Some connect;
  List.iter
    (fun (dpid, _dp) ->
      let delay = switch_boot_delay dpid in
      if Rf_sim.Vtime.span_compare delay Rf_sim.Vtime.span_zero <= 0 then
        connect dpid
      else
        ignore
          (Rf_sim.Engine.schedule
             ~entity:(Datapath.entity (datapath t dpid))
             engine delay
             (fun () -> connect dpid)))
    (datapaths t);
  (* Host self-announcement. *)
  List.iter (fun (_, h) -> Host.gratuitous_arp h) (hosts t);
  t
