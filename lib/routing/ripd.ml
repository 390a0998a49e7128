open Rf_packet

type config = { update_interval : float; timeout : float; garbage : float }

let default_config = { update_interval = 30.; timeout = 180.; garbage = 120. }

type rentry = {
  re_prefix : Ipv4_addr.Prefix.t;
  mutable re_metric : int;
  mutable re_next_hop : Ipv4_addr.t option;  (** [None] = connected *)
  mutable re_iface : string;
  mutable re_expires : Rf_sim.Vtime.t option;
  mutable re_garbage : Rf_sim.Vtime.t option;
  mutable re_changed : bool;
}

type riface = { ifc : Iface.t; passive : bool }

type t = {
  engine : Rf_sim.Engine.t;
  entity : Rf_obs.Profiler.entity option;
  cfg : config;
  rib : Rib.t;
  mutable ifaces : riface list;
  table : (Ipv4_addr.Prefix.t, rentry) Hashtbl.t;
  mutable started : bool;
  mutable timers : Rf_sim.Engine.timer list;
  mutable trig_scheduled : bool;
  mutable triggered : int;
}

let create engine ?entity ?(config = default_config) rib =
  {
    engine;
    entity;
    cfg = config;
    rib;
    ifaces = [];
    table = Hashtbl.create 32;
    started = false;
    timers = [];
    trig_scheduled = false;
    triggered = 0;
  }

(* --- sending -------------------------------------------------------- *)

let entries_for t rif ~only_changed =
  (* Split horizon with poisoned reverse: routes learned through this
     interface are advertised back with metric infinity. *)
  Hashtbl.fold
    (fun _ e acc ->
      if only_changed && not e.re_changed then acc
      else begin
        let metric =
          if
            e.re_next_hop <> None
            && String.equal e.re_iface (Iface.name rif.ifc)
          then Rip_pkt.infinity_metric
          else e.re_metric
        in
        { Rip_pkt.e_prefix = e.re_prefix; e_next_hop = Ipv4_addr.any; e_metric = metric }
        :: acc
      end)
    t.table []

let send_response rif entries =
  if (not rif.passive) && Iface.is_up rif.ifc && entries <> [] then begin
    let rec batches = function
      | [] -> ()
      | es ->
          let batch, rest =
            if List.length es <= Rip_pkt.max_entries then (es, [])
            else
              ( List.filteri (fun i _ -> i < Rip_pkt.max_entries) es,
                List.filteri (fun i _ -> i >= Rip_pkt.max_entries) es )
          in
          Iface.send rif.ifc
            (Packet.udp ~src_mac:(Iface.mac rif.ifc) ~dst_mac:Rip_pkt.multicast_mac
               ~src_ip:(Iface.ip rif.ifc) ~dst_ip:Rip_pkt.multicast_group ~ttl:1
               (Udp.make ~src_port:Rip_pkt.port ~dst_port:Rip_pkt.port
                  (Rip_pkt.to_wire (Rip_pkt.Response batch))));
          batches rest
    in
    batches entries
  end

let broadcast t ~only_changed =
  List.iter (fun rif -> send_response rif (entries_for t rif ~only_changed)) t.ifaces

let clear_changed t = Hashtbl.iter (fun _ e -> e.re_changed <- false) t.table

(* --- RIB synchronization ---------------------------------------------- *)

let sync_rib t =
  let routes =
    Hashtbl.fold
      (fun _ e acc ->
        match e.re_next_hop with
        | Some nh when e.re_metric < Rip_pkt.infinity_metric ->
            {
              Rib.r_prefix = e.re_prefix;
              r_proto = Rib.Rip;
              r_distance = Rib.default_distance Rib.Rip;
              r_metric = e.re_metric;
              r_next_hop = Some nh;
              r_iface = e.re_iface;
            }
            :: acc
        | Some _ | None -> acc)
      t.table []
    |> List.sort (fun (a : Rib.route) b ->
           Ipv4_addr.Prefix.compare a.r_prefix b.r_prefix)
  in
  Rib.replace_proto t.rib Rib.Rip routes

let schedule_triggered t =
  if t.started && not t.trig_scheduled then begin
    t.trig_scheduled <- true;
    ignore
      (Rf_sim.Engine.schedule ?entity:t.entity t.engine
         (Rf_sim.Vtime.span_s 1.0) (fun () ->
           t.trig_scheduled <- false;
           t.triggered <- t.triggered + 1;
           broadcast t ~only_changed:true;
           clear_changed t))
  end

let mark_unreachable t e =
  if e.re_metric <> Rip_pkt.infinity_metric then begin
    e.re_metric <- Rip_pkt.infinity_metric;
    e.re_changed <- true;
    e.re_expires <- None;
    e.re_garbage <-
      Some
        (Rf_sim.Vtime.add (Rf_sim.Engine.now t.engine)
           (Rf_sim.Vtime.span_s t.cfg.garbage));
    sync_rib t;
    schedule_triggered t
  end

(* --- receiving ----------------------------------------------------------- *)

let process_entry t rif ~src (entry : Rip_pkt.entry) =
  let now = Rf_sim.Engine.now t.engine in
  let metric = min (entry.e_metric + 1) Rip_pkt.infinity_metric in
  let fresh_expiry = Some (Rf_sim.Vtime.add now (Rf_sim.Vtime.span_s t.cfg.timeout)) in
  match Hashtbl.find_opt t.table entry.e_prefix with
  | None ->
      if metric < Rip_pkt.infinity_metric then begin
        Hashtbl.replace t.table entry.e_prefix
          {
            re_prefix = entry.e_prefix;
            re_metric = metric;
            re_next_hop = Some src;
            re_iface = Iface.name rif.ifc;
            re_expires = fresh_expiry;
            re_garbage = None;
            re_changed = true;
          };
        sync_rib t;
        schedule_triggered t
      end
  | Some e -> (
      match e.re_next_hop with
      | None -> () (* connected routes are never overridden *)
      | Some current_nh ->
          let same_source = Ipv4_addr.equal current_nh src in
          if same_source then begin
            if metric >= Rip_pkt.infinity_metric then mark_unreachable t e
            else begin
              if e.re_metric <> metric then begin
                e.re_metric <- metric;
                e.re_changed <- true;
                sync_rib t;
                schedule_triggered t
              end;
              e.re_expires <- fresh_expiry;
              e.re_garbage <- None
            end
          end
          else if metric < e.re_metric then begin
            e.re_metric <- metric;
            e.re_next_hop <- Some src;
            e.re_iface <- Iface.name rif.ifc;
            e.re_expires <- fresh_expiry;
            e.re_garbage <- None;
            e.re_changed <- true;
            sync_rib t;
            schedule_triggered t
          end)

let handle_packet t rif ~src pkt =
  match pkt with
  | Rip_pkt.Request -> send_response rif (entries_for t rif ~only_changed:false)
  | Rip_pkt.Response entries ->
      List.iter (process_entry t rif ~src) entries

let add_interface t ?(passive = false) ifc =
  if not (Iface.is_addressed ifc) then
    invalid_arg "Ripd.add_interface: interface has no address";
  let rif = { ifc; passive } in
  t.ifaces <- t.ifaces @ [ rif ];
  (* The connected subnet, at metric 1 as RIP counts and advertises it;
     zebra installs the connected route itself. *)
  Hashtbl.replace t.table (Iface.prefix ifc)
    {
      re_prefix = Iface.prefix ifc;
      re_metric = 1;
      re_next_hop = None;
      re_iface = Iface.name ifc;
      re_expires = None;
      re_garbage = None;
      re_changed = true;
    };
  Iface.add_receiver ifc (fun (frame : Packet.t) ->
      match frame.l3 with
      | Packet.Ipv4 (iph, Packet.Udp u)
        when u.Udp.dst_port = Rip_pkt.port
             && not (Ipv4_addr.equal iph.Ipv4.src (Iface.ip ifc)) -> (
          match Rip_pkt.of_wire u.Udp.payload with
          | Ok pkt -> handle_packet t rif ~src:iph.Ipv4.src pkt
          | Error _ -> ())
      | Packet.Ipv4 _ | Packet.Arp _ | Packet.Lldp _ | Packet.Raw_l3 _ -> ());
  Iface.add_state_listener ifc (fun up ->
      if not up then
        Hashtbl.iter
          (fun _ e ->
            if e.re_next_hop <> None && String.equal e.re_iface (Iface.name ifc)
            then mark_unreachable t e)
          t.table)

let start t =
  if not t.started then begin
    t.started <- true;
    (* Ask neighbours for their tables and announce ours at once. *)
    List.iter
      (fun rif ->
        if (not rif.passive) && Iface.is_up rif.ifc then
          Iface.send rif.ifc
            (Packet.udp ~src_mac:(Iface.mac rif.ifc)
               ~dst_mac:Rip_pkt.multicast_mac ~src_ip:(Iface.ip rif.ifc)
               ~dst_ip:Rip_pkt.multicast_group ~ttl:1
               (Udp.make ~src_port:Rip_pkt.port ~dst_port:Rip_pkt.port
                  (Rip_pkt.to_wire Rip_pkt.Request))))
      t.ifaces;
    broadcast t ~only_changed:false;
    clear_changed t;
    t.timers <-
      [
        Rf_sim.Engine.periodic ?entity:t.entity t.engine
          ~jitter:(Rf_sim.Vtime.span_s (t.cfg.update_interval /. 6.))
          (Rf_sim.Vtime.span_s t.cfg.update_interval)
          (fun () ->
            broadcast t ~only_changed:false;
            clear_changed t);
        Rf_sim.Engine.periodic ?entity:t.entity t.engine
          (Rf_sim.Vtime.span_s 1.0) (fun () ->
            let now = Rf_sim.Engine.now t.engine in
            let dead = ref [] in
            Hashtbl.iter
              (fun prefix e ->
                (match e.re_expires with
                | Some at when Rf_sim.Vtime.(at < now) -> mark_unreachable t e
                | Some _ | None -> ());
                match e.re_garbage with
                | Some at when Rf_sim.Vtime.(at < now) -> dead := prefix :: !dead
                | Some _ | None -> ())
              t.table;
            if !dead <> [] then begin
              List.iter (Hashtbl.remove t.table) !dead;
              sync_rib t
            end);
      ]
  end

let stop t =
  if t.started then begin
    t.started <- false;
    List.iter Rf_sim.Engine.cancel t.timers;
    t.timers <- [];
    Rib.replace_proto t.rib Rib.Rip []
  end

let table t =
  Hashtbl.fold
    (fun prefix e acc -> (prefix, e.re_metric, e.re_next_hop) :: acc)
    t.table []
  |> List.sort (fun (a, _, _) (b, _, _) -> Ipv4_addr.Prefix.compare a b)

let triggered_updates t = t.triggered
