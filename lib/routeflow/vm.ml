open Rf_packet
open Rf_routing

module Prefix_tbl = Ipv4_addr.Prefix.Tbl

type pending_packet = { pp_ipv4 : Ipv4.t }

type flow_route = {
  fr_prefix : Ipv4_addr.Prefix.t;
  fr_port : int;
  fr_src_mac : Mac.t;
  fr_dst_mac : Mac.t;
}

type t = {
  engine : Rf_sim.Engine.t;
  dpid : int64;
  entity : Rf_obs.Profiler.entity;
  hostname : string;
  nics : Iface.t array;
  zebra : Zebra.t;
  mutable ospfd : Ospfd.t option;
  mutable ripd : Ripd.t option;
  mutable bgpd : Bgpd.t option;
  (* The neighbour tables, keyed by {!arp_key}. *)
  arp : (int, Mac.t) Hashtbl.t;
  arp_confirmed : (int, Rf_sim.Vtime.t) Hashtbl.t;
  arp_probing : (int, int) Hashtbl.t;  (** probes left *)
  pending : (int, pending_packet list ref) Hashtbl.t;
  configs : (string, string) Hashtbl.t;
  mutable ospf_enabled : string list;  (** NIC names already under OSPF *)
  mutable rip_enabled : string list;
  table : flow_route list Prefix_tbl.t;
      (** The exported flows by prefix; each list is non-empty and sorted
          by [compare_flow]. *)
  (* What the next export recomputes: the prefixes the RIB reported
     since the last export, those whose next hop still awaited ARP at
     it, and those resolved through another route. [export_all] asks
     for every prefix instead: set when the ARP table, a NIC address or
     a connected route changes, since connected flows come from ARP
     entries. *)
  rib_changed : unit Prefix_tbl.t;
  unresolved : unit Prefix_tbl.t;
  recursive : unit Prefix_tbl.t;
  connected : unit Prefix_tbl.t;
  mutable export_all : bool;
  mutable flow_listeners :
    (removed:flow_route list -> added:flow_route list -> unit) list;
      (** in registration order *)
  mutable flows_dirty : bool;
  mutable slow_forwarded : int;
  m_slow_path : Rf_obs.Metrics.counter;
  m_flow_exports : Rf_obs.Metrics.counter;
}

let arp_retry = Rf_sim.Vtime.span_s 1.0

(* A neighbour's port and address in one immediate int, so a lookup
   allocates no key. *)
let arp_key port ip = (port lsl 32) lor Ipv4_addr.to_int ip

let key_port key = key lsr 32

let key_ip key = Ipv4_addr.of_int key

let max_arp_retries = 30

let dpid t = t.dpid

let entity t = t.entity

let hostname t = t.hostname

let n_ports t = Array.length t.nics

let nic t port =
  if port < 1 || port > Array.length t.nics then
    invalid_arg (Printf.sprintf "Vm.nic: port %d out of range" port);
  t.nics.(port - 1)

let zebra t = t.zebra

let rib t = Zebra.rib t.zebra

let ospfd t = t.ospfd

let ripd t = t.ripd

let bgpd t = t.bgpd

let config_file t name = Hashtbl.find_opt t.configs name

(* --- flow export --------------------------------------------------- *)

let compare_flow a b =
  match Ipv4_addr.Prefix.compare a.fr_prefix b.fr_prefix with
  | 0 -> (
      match Int.compare a.fr_port b.fr_port with
      | 0 -> (
          match Mac.compare a.fr_src_mac b.fr_src_mac with
          | 0 -> Mac.compare a.fr_dst_mac b.fr_dst_mac
          | c -> c)
      | c -> c)
  | c -> c

(* One walk over two sorted lists: the flows only in [olds] and those
   only in [fresh], each in order. *)
let diff_flows olds fresh =
  let rec go olds fresh removed added =
    match (olds, fresh) with
    | [], _ -> (List.rev removed, List.rev_append added fresh)
    | _, [] -> (List.rev_append removed olds, List.rev added)
    | o :: os, f :: fs ->
        let c = compare_flow o f in
        if c = 0 then go os fs removed added
        else if c < 0 then go os fresh (o :: removed) added
        else go olds fs removed (f :: added)
  in
  go olds fresh [] []

(* The port of the last NIC named [name] among ports 1 to [i], or 0. *)
let rec last_port_named nics name i =
  if i = 0 || String.equal (Iface.name nics.(i - 1)) name then i
  else last_port_named nics name (i - 1)

let port_named t name = last_port_named t.nics name (Array.length t.nics)

let send_arp_request t port target =
  let ifc = nic t port in
  if Iface.is_addressed ifc then
    Iface.send ifc
      (Packet.arp ~src:(Iface.mac ifc) ~dst:Mac.broadcast
         (Arp.request ~sender_mac:(Iface.mac ifc) ~sender_ip:(Iface.ip ifc)
            ~target_ip:target))

(* Routes without an interface (statics) resolve recursively through
   the connected route covering their next hop, as zebra does. *)
let is_recursive (r : Rib.route) =
  Option.is_some r.Rib.r_next_hop && String.equal r.Rib.r_iface ""

(* A route's output port, or 0: its interface's, or a recursive
   route's connected one. *)
let route_port t (r : Rib.route) =
  match r.Rib.r_next_hop with
  | Some nh when is_recursive r -> (
      match Rib.lookup (rib t) nh with
      | Some { Rib.r_proto = Rib.Connected; r_iface; _ } -> port_named t r_iface
      | Some _ | None -> 0)
  | Some _ | None -> port_named t r.Rib.r_iface

(* The flows one selected route contributes, consed onto [acc]: one
   host flow per ARP entry on a connected subnet, else one flow toward
   the resolved next hop. A next hop without an ARP entry contributes
   nothing yet: it is asked for over the virtual link (the export
   re-runs when the reply is learned) and its prefix noted in
   [unresolved]. *)
let add_route_flows t acc (r : Rib.route) =
  match r.r_proto with
  | Rib.Connected -> (
      match port_named t r.r_iface with
      | 0 -> acc
      | port ->
          let ifc = nic t port in
          Hashtbl.fold
            (fun key mac acc ->
              let ip = key_ip key in
              if
                key_port key = port
                && Ipv4_addr.Prefix.mem ip r.r_prefix
                && not (Ipv4_addr.equal ip (Iface.ip ifc))
              then
                {
                  fr_prefix = Ipv4_addr.Prefix.make ip 32;
                  fr_port = port;
                  fr_src_mac = Iface.mac ifc;
                  fr_dst_mac = mac;
                }
                :: acc
              else acc)
            t.arp acc)
  | Rib.Static | Rib.Ospf | Rib.Rip | Rib.Bgp -> (
      match r.r_next_hop with
      | None -> acc
      | Some nh -> (
          let port = route_port t r in
          if port = 0 then acc
          else
            match Hashtbl.find t.arp (arp_key port nh) with
            | mac ->
                {
                  fr_prefix = r.r_prefix;
                  fr_port = port;
                  fr_src_mac = Iface.mac (nic t port);
                  fr_dst_mac = mac;
                }
                :: acc
            | exception Not_found ->
                Prefix_tbl.replace t.unresolved r.r_prefix ();
                send_arp_request t port nh;
                acc))

let flow_routes t =
  Array.fold_right
    (fun p acc -> Prefix_tbl.find t.table p @ acc)
    (Ipv4_addr.Prefix.sorted_keys t.table) []

(* The flows that changed under one prefix [p] when only routes not
   connected were recomputed: the route's flow, if any, lies under its
   own prefix. *)
let export_prefix t p ~removed ~added =
  let olds = try Prefix_tbl.find t.table p with Not_found -> [] in
  let fresh =
    match Rib.best (rib t) p with
    | Some r -> add_route_flows t [] r
    | None -> []
  in
  if not (List.equal (fun a b -> compare_flow a b = 0) olds fresh) then begin
    let r, a = diff_flows olds fresh in
    removed := List.rev_append r !removed;
    added := List.rev_append a !added;
    match fresh with
    | [] -> Prefix_tbl.remove t.table p
    | _ :: _ -> Prefix_tbl.replace t.table p fresh
  end

(* Every flow recomputed from every selected route. *)
let export_every_prefix t =
  let fresh =
    List.sort_uniq compare_flow
      (List.fold_left (add_route_flows t) [] (Rib.selected (rib t)))
  in
  let removed, added = diff_flows (flow_routes t) fresh in
  if removed <> [] || added <> [] then begin
    Prefix_tbl.reset t.table;
    List.iter
      (fun f ->
        let flows =
          try Prefix_tbl.find t.table f.fr_prefix with Not_found -> []
        in
        Prefix_tbl.replace t.table f.fr_prefix (f :: flows))
      (List.rev fresh)
  end;
  (removed, added)

let add_all dst src =
  Prefix_tbl.iter (fun p () -> Prefix_tbl.replace dst p ()) src

(* One export: recompute the flows of the prefixes that can have
   changed, in prefix order (every prefix when [export_all], or when one
   of them is a host route that a connected subnet's host flow could
   share), diff them against the table and store them there. Returns
   the flows removed and added, each sorted. Routes outside that set
   read only inputs that did not change — their own route, the ARP
   table and the NIC addresses — so their flows stand. ARP requests go
   out for every unresolved next hop in prefix order, exactly as a full
   recompute sends them. *)
let export_flows t =
  let pending = t.rib_changed in
  add_all pending t.unresolved;
  add_all pending t.recursive;
  let ps = Ipv4_addr.Prefix.sorted_keys pending in
  let all =
    t.export_all || Array.exists (fun p -> Ipv4_addr.Prefix.length p = 32) ps
  in
  Prefix_tbl.reset pending;
  Prefix_tbl.reset t.unresolved;
  t.export_all <- false;
  if all then export_every_prefix t
  else begin
    let removed = ref [] and added = ref [] in
    Array.iter (fun p -> export_prefix t p ~removed ~added) ps;
    (List.rev !removed, List.rev !added)
  end

let refresh_flows t =
  if not t.flows_dirty then begin
    t.flows_dirty <- true;
    (* Debounce: RIB replacement fires one event per route. *)
    ignore
      (Rf_sim.Engine.schedule ~entity:t.entity t.engine
         (Rf_sim.Vtime.span_ms 10) (fun () ->
           t.flows_dirty <- false;
           let removed, added = export_flows t in
           if removed <> [] || added <> [] then begin
             Rf_obs.Metrics.incr t.m_flow_exports;
             List.iter (fun f -> f ~removed ~added) t.flow_listeners
           end))
  end

(* RIB listener: note the prefix for the next export. A connected
   route, before or after, changes host flows under other prefixes. *)
let note_route t ev =
  let p =
    match ev with
    | Rib.Best_added r | Rib.Best_changed r -> r.Rib.r_prefix
    | Rib.Best_removed p -> p
  in
  if Prefix_tbl.mem t.connected p then t.export_all <- true;
  Prefix_tbl.remove t.connected p;
  Prefix_tbl.remove t.recursive p;
  (match ev with
  | Rib.Best_added r | Rib.Best_changed r ->
      if r.Rib.r_proto = Rib.Connected then begin
        Prefix_tbl.replace t.connected p ();
        t.export_all <- true
      end
      else if is_recursive r then Prefix_tbl.replace t.recursive p ()
  | Rib.Best_removed _ -> ());
  Prefix_tbl.replace t.rib_changed p ();
  refresh_flows t

let add_on_flows_changed t f = t.flow_listeners <- t.flow_listeners @ [ f ]

(* --- data plane ----------------------------------------------------- *)

(* Whether [dst] is the address of one of [nics] from index [i] on;
   a scan in place, with no list built per frame. *)
let rec owns_address nics dst i =
  i < Array.length nics
  && ((Iface.is_addressed nics.(i) && Ipv4_addr.equal (Iface.ip nics.(i)) dst)
     || owns_address nics dst (i + 1))

let learn t port ip mac =
  if not (Ipv4_addr.equal ip Ipv4_addr.any) then begin
    let key = arp_key port ip in
    Hashtbl.replace t.arp_confirmed key (Rf_sim.Engine.now t.engine);
    Hashtbl.remove t.arp_probing key;
    (match Hashtbl.find t.arp key with
    | known when Mac.equal known mac -> ()
    | _ | (exception Not_found) ->
        Hashtbl.replace t.arp key mac;
        t.export_all <- true;
        refresh_flows t);
    match Hashtbl.find_opt t.pending key with
    | Some queue ->
        Hashtbl.remove t.pending key;
        let ifc = nic t port in
        List.iter
          (fun pp ->
            t.slow_forwarded <- t.slow_forwarded + 1;
            Rf_obs.Metrics.incr t.m_slow_path;
            Iface.send ifc
              (Packet.ipv4 ~src_mac:(Iface.mac ifc) ~dst_mac:mac pp.pp_ipv4))
          (List.rev !queue)
    | None -> ()
  end

let rec arp_retry_tick t key retries =
  if Hashtbl.mem t.pending key then begin
    if retries <= 0 then Hashtbl.remove t.pending key
    else begin
      send_arp_request t (key_port key) (key_ip key);
      ignore
        (Rf_sim.Engine.schedule ~entity:t.entity t.engine arp_retry (fun () ->
             arp_retry_tick t key (retries - 1)))
    end
  end

let enqueue_pending t port next_hop ipv4 =
  let key = arp_key port next_hop in
  match Hashtbl.find_opt t.pending key with
  | Some queue -> queue := { pp_ipv4 = ipv4 } :: !queue
  | None ->
      Hashtbl.replace t.pending key (ref [ { pp_ipv4 = ipv4 } ]);
      send_arp_request t port next_hop;
      ignore
        (Rf_sim.Engine.schedule ~entity:t.entity t.engine arp_retry (fun () ->
             arp_retry_tick t key max_arp_retries))

let forward_ipv4 t (ip : Ipv4.t) =
  match Ipv4.decrement_ttl ip with
  | None -> ()
  | Some ip -> (
      match Rib.lookup (rib t) ip.dst with
      | None -> ()
      | Some route -> (
          match route_port t route with
          | 0 -> ()
          | port -> (
              let next_hop =
                match route.Rib.r_next_hop with Some nh -> nh | None -> ip.dst
              in
              let ifc = nic t port in
              match Hashtbl.find_opt t.arp (arp_key port next_hop) with
              | Some mac ->
                  t.slow_forwarded <- t.slow_forwarded + 1;
                  Rf_obs.Metrics.incr t.m_slow_path;
                  Iface.send ifc
                    (Packet.ipv4 ~src_mac:(Iface.mac ifc) ~dst_mac:mac ip)
              | None -> enqueue_pending t port next_hop ip)))

let handle_frame t port (pkt : Packet.t) =
  let ifc = nic t port in
  match pkt.l3 with
  | Packet.Arp a ->
      if Iface.is_addressed ifc && Ipv4_addr.Prefix.mem a.sender_ip (Iface.prefix ifc)
      then learn t port a.sender_ip a.sender_mac;
      (match a.op with
      | Arp.Request
        when Iface.is_addressed ifc && Ipv4_addr.equal a.target_ip (Iface.ip ifc)
        ->
          Iface.send ifc
            (Packet.arp ~src:(Iface.mac ifc) ~dst:a.sender_mac
               (Arp.reply ~sender_mac:(Iface.mac ifc)
                  ~sender_ip:(Iface.ip ifc) ~target_mac:a.sender_mac
                  ~target_ip:a.sender_ip))
      | Arp.Request | Arp.Reply -> ())
  | Packet.Ipv4 (ip, l4) ->
      (* Passive neighbour learning from any on-subnet source. *)
      if Iface.is_addressed ifc && Ipv4_addr.Prefix.mem ip.src (Iface.prefix ifc)
      then learn t port ip.src pkt.eth.src;
      if owns_address t.nics ip.dst 0 then begin
        (* Local delivery: the guest answers pings; OSPF packets are
           consumed by ospfd's own receiver. *)
        match l4 with
        | Packet.Icmp (Icmp.Echo_request { ident; seq; payload }) ->
            Iface.send ifc
              (Packet.icmp ~src_mac:(Iface.mac ifc) ~dst_mac:pkt.eth.src
                 ~src_ip:ip.dst ~dst_ip:ip.src
                 (Icmp.Echo_reply { ident; seq; payload }))
        | Packet.Icmp _ | Packet.Udp _ | Packet.Tcp _ | Packet.Ospf _
        | Packet.Raw_l4 _ ->
            ()
      end
      else if Ipv4_addr.is_multicast ip.dst then ()
      else if Mac.equal pkt.eth.dst (Iface.mac ifc) || Mac.is_broadcast pkt.eth.dst
      then forward_ipv4 t ip
  | Packet.Lldp _ | Packet.Raw_l3 _ -> ()

let create engine ~dpid ~n_ports () =
  if n_ports < 1 then invalid_arg "Vm.create: need at least one port";
  let hostname = Printf.sprintf "vm-%Ld" dpid in
  let nics =
    Array.init n_ports (fun i ->
        Iface.create
          ~name:(Printf.sprintf "eth%d" (i + 1))
          ~mac:(Mac.make_local ((0x2 lsl 40) lor (Int64.to_int dpid lsl 12) lor (i + 1)))
          ())
  in
  let t =
    {
      engine;
      dpid;
      entity = Rf_obs.Profiler.switch dpid;
      hostname;
      nics;
      zebra = Zebra.create ~hostname ();
      ospfd = None;
      ripd = None;
      bgpd = None;
      arp = Hashtbl.create 32;
      arp_confirmed = Hashtbl.create 32;
      arp_probing = Hashtbl.create 8;
      pending = Hashtbl.create 8;
      configs = Hashtbl.create 4;
      ospf_enabled = [];
      rip_enabled = [];
      table = Prefix_tbl.create 64;
      rib_changed = Prefix_tbl.create 16;
      unresolved = Prefix_tbl.create 8;
      recursive = Prefix_tbl.create 4;
      connected = Prefix_tbl.create 8;
      export_all = false;
      flow_listeners = [];
      flows_dirty = false;
      slow_forwarded = 0;
      m_slow_path =
        Rf_obs.Metrics.counter
          (Rf_sim.Engine.metrics engine)
          ~help:"Packets forwarded by the VM slow path" "vm_slow_path_total";
      m_flow_exports =
        Rf_obs.Metrics.counter
          (Rf_sim.Engine.metrics engine)
          ~help:"Flow-table exports pushed to the datapath"
          "vm_flow_exports_total";
    }
  in
  Array.iteri
    (fun i ifc ->
      Zebra.add_interface t.zebra ifc;
      Iface.add_receiver ifc (handle_frame t (i + 1));
      (* Host flows skip the NIC's own address. *)
      Iface.add_address_listener ifc (fun () -> t.export_all <- true))
    nics;
  Rib.add_listener (rib t) (note_route t);
  (* Neighbour aging, Linux-style: entries unconfirmed for 300 s are
     probed (3 unicast-equivalent ARP requests); only unanswered probes
     remove the entry, so healthy next hops never cause flow churn. *)
  let reachable = Rf_sim.Vtime.span_s 300.0 in
  ignore
    (Rf_sim.Engine.periodic ~entity:t.entity engine (Rf_sim.Vtime.span_s 30.0)
       (fun () ->
         let now = Rf_sim.Engine.now engine in
         (* The stale keys first, in table order, then the probes and
            evictions, which change the tables being read. *)
         let stale =
           Hashtbl.fold
             (fun key _ acc ->
               let confirmed =
                 Option.value
                   (Hashtbl.find_opt t.arp_confirmed key)
                   ~default:Rf_sim.Vtime.zero
               in
               if Rf_sim.Vtime.(add confirmed reachable < now) then key :: acc
               else acc)
             t.arp []
         in
         List.iter
           (fun key ->
             match Hashtbl.find_opt t.arp_probing key with
             | None ->
                 Hashtbl.replace t.arp_probing key 3;
                 send_arp_request t (key_port key) (key_ip key)
             | Some 0 ->
                 Hashtbl.remove t.arp_probing key;
                 Hashtbl.remove t.arp key;
                 Hashtbl.remove t.arp_confirmed key;
                 t.export_all <- true;
                 refresh_flows t
             | Some n ->
                 Hashtbl.replace t.arp_probing key (n - 1);
                 send_arp_request t (key_port key) (key_ip key))
           (List.rev stale)));
  t

(* --- configuration -------------------------------------------------- *)

(* Re-applying the exact text already in force is a no-op, so the
   reconciliation pass after a controller restart can blindly push the
   full desired state without restarting daemons or re-adding routes. *)
let already_applied t file text =
  match Hashtbl.find_opt t.configs file with
  | Some current -> String.equal current text
  | None -> false

let apply_zebra_config t text =
  if already_applied t "zebra.conf" text then Ok ()
  else
    match Quagga_conf.parse_zebra text with
    | Error e -> Error e
    | Ok conf ->
        Zebra.apply_config t.zebra conf
        |> Result.map (fun () -> Hashtbl.replace t.configs "zebra.conf" text)

(* Hands [add] every addressed NIC inside one of [networks] and not yet
   in [enabled], in port order, each passive when [passive] names it.
   Returns [enabled] with their names added. *)
let enable_covered t ~networks ~passive ~enabled
    (add : ?passive:bool -> Iface.t -> unit) =
  Array.fold_left
    (fun enabled ifc ->
      let name = Iface.name ifc in
      if
        Iface.is_addressed ifc
        && List.exists (Ipv4_addr.Prefix.subset (Iface.prefix ifc)) networks
        && not (List.mem name enabled)
      then begin
        add ~passive:(List.mem name passive) ifc;
        name :: enabled
      end
      else enabled)
    enabled t.nics

let apply_ospfd_config t text =
  if already_applied t "ospfd.conf" text then Ok ()
  else
  match Quagga_conf.parse_ospfd text with
  | Error e -> Error e
  | Ok conf ->
      let daemon =
        match t.ospfd with
        | Some d -> d
        | None ->
            let cfg =
              {
                Ospfd.router_id = conf.o_router_id;
                hello_interval = conf.o_hello_interval;
                dead_interval = conf.o_dead_interval;
              }
            in
            let d = Ospfd.create t.engine ~entity:t.entity cfg (rib t) in
            t.ospfd <- Some d;
            d
      in
      t.ospf_enabled <-
        enable_covered t ~networks:(List.map fst conf.o_networks)
          ~passive:conf.o_passive ~enabled:t.ospf_enabled
          (Ospfd.add_interface daemon);
      Ospfd.start daemon;
      Hashtbl.replace t.configs "ospfd.conf" text;
      Ok ()

let apply_ripd_config t text =
  if already_applied t "ripd.conf" text then Ok ()
  else
  match Quagga_conf.parse_ripd text with
  | Error e -> Error e
  | Ok conf ->
      let daemon =
        match t.ripd with
        | Some d -> d
        | None ->
            let cfg =
              {
                Ripd.update_interval = float_of_int conf.r_update;
                timeout = float_of_int conf.r_timeout;
                garbage = float_of_int conf.r_garbage;
              }
            in
            let d = Ripd.create t.engine ~entity:t.entity ~config:cfg (rib t) in
            t.ripd <- Some d;
            d
      in
      t.rip_enabled <-
        enable_covered t ~networks:conf.r_networks ~passive:conf.r_passive
          ~enabled:t.rip_enabled (Ripd.add_interface daemon);
      Ripd.start daemon;
      Hashtbl.replace t.configs "ripd.conf" text;
      Ok ()

let apply_bgpd_config t ~peer_channel text =
  match Quagga_conf.parse_bgpd text with
  | Error e -> Error e
  | Ok conf ->
      let daemon =
        match t.bgpd with
        | Some d -> d
        | None ->
            let d =
              Bgpd.create t.engine ~entity:t.entity ~asn:conf.b_asn
                ~router_id:conf.b_router_id
                (rib t)
            in
            t.bgpd <- Some d;
            d
      in
      List.iter (fun p -> Bgpd.announce daemon p) conf.b_networks;
      List.iter
        (fun (addr, remote_asn) ->
          match peer_channel addr with
          | None -> ()
          | Some (send, set_receive) ->
              (* Our address on the shared link is the NIC that owns the
                 neighbour's subnet. *)
              let hint =
                Array.fold_left
                  (fun acc ifc ->
                    if
                      Iface.is_addressed ifc
                      && Ipv4_addr.Prefix.mem addr (Iface.prefix ifc)
                    then Some (Iface.ip ifc)
                    else acc)
                  None t.nics
              in
              let hint = Option.value hint ~default:conf.b_router_id in
              let peer =
                Bgpd.add_peer daemon ~remote_asn ~next_hop_hint:hint ~send
              in
              set_receive (fun bytes -> Bgpd.input peer bytes);
              Bgpd.start_peer peer)
        conf.b_neighbors;
      Hashtbl.replace t.configs "bgpd.conf" text;
      Ok ()

let arp_entries t =
  Hashtbl.fold
    (fun key mac acc -> (key_port key, key_ip key, mac) :: acc)
    t.arp []
  |> List.sort compare

let packets_forwarded_slow_path t = t.slow_forwarded
