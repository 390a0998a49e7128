open Rf_packet

type config = {
  router_id : Ipv4_addr.t;
  area_id : Ipv4_addr.t;
  hello_interval : int;
  dead_interval : int;
  rxmt_interval : int;
  spf_delay : Rf_sim.Vtime.span;
  reference_cost : int;
}

let default_config ~router_id =
  {
    router_id;
    area_id = Ipv4_addr.any;
    hello_interval = 10;
    dead_interval = 40;
    rxmt_interval = 5;
    spf_delay = Rf_sim.Vtime.span_s 1.0;
    reference_cost = 10;
  }

type neighbor_state = Down | Init | Exstart | Exchange | Loading | Full

type neighbor_info = {
  ni_router_id : Ipv4_addr.t;
  ni_addr : Ipv4_addr.t;
  ni_iface : string;
  ni_state : neighbor_state;
}

type oiface = {
  ifc : Iface.t;
  cost : int;
  passive : bool;
  mutable hello_timer : Rf_sim.Engine.timer option;
}

type neighbor = {
  n_router_id : Ipv4_addr.t;
  mutable n_addr : Ipv4_addr.t;
  n_oiface : oiface;
  mutable n_state : neighbor_state;
  mutable n_last_hello : Rf_sim.Vtime.t;
  mutable n_req : Ospf_pkt.lsa_key list;
  n_rxmt : (Ospf_pkt.lsa_key, unit) Hashtbl.t;
  mutable n_rxmt_timer : Rf_sim.Engine.timer option;
}

type t = {
  engine : Rf_sim.Engine.t;
  entity : Rf_obs.Profiler.entity option;
  cfg : config;
  rib : Rib.t;
  mutable ifaces : oiface list;
  nbr_tbl : (Ipv4_addr.t, neighbor) Hashtbl.t;
  lsdb : (Ospf_pkt.lsa_key, Ospf_pkt.lsa) Hashtbl.t;
  spf : Spf.t;
  graph : Spf.graph;
  (* Advertising routers whose LSAs changed since the last SPF run;
     drives the incremental recomputation. *)
  spf_dirty : (Ipv4_addr.t, unit) Hashtbl.t;
  (* Parsed stub links per advertising router — prefix, link metric —
     refreshed when the router's LSA changes, so route publication does
     not re-derive masks and prefixes from unchanged LSAs every run. *)
  stub_cache : (Ipv4_addr.t, (Ipv4_addr.Prefix.t * int) array) Hashtbl.t;
  (* Prefix -> routers whose cached stub links list it: the inverse of
     [stub_cache], so a publication recomputes one prefix from its
     advertisers alone. *)
  advertisers : (Ipv4_addr.Prefix.t, Ipv4_addr.t list) Hashtbl.t;
  mutable my_seq : int32;
  mutable spf_scheduled : bool;
  mutable spf_count : int;
  mutable started : bool;
  (* Origin of the 1 s grid the inactivity deadlines fire on. *)
  mutable started_at : Rf_sim.Vtime.t;
  (* What every route also depends on besides the tree and the stub
     links, as of the last publication: (router id, address, interface)
     of each Full neighbour, and our own prefixes. A change in either
     forces a full publication. *)
  mutable hops : (Ipv4_addr.t * Ipv4_addr.t * string) list;
  mutable own_prefixes : Ipv4_addr.Prefix.t list;
  m_spf : Rf_obs.Metrics.counter;
  m_hellos : Rf_obs.Metrics.counter;
  m_floods : Rf_obs.Metrics.counter;
  m_adjacencies : Rf_obs.Metrics.counter;
}

let ospf_multicast_mac = Mac.of_int64 0x01005E000005L

let create engine ?entity cfg rib =
  {
    engine;
    entity;
    cfg;
    rib;
    ifaces = [];
    nbr_tbl = Hashtbl.create 16;
    lsdb = Hashtbl.create 64;
    spf = Spf.create ~root:cfg.router_id;
    graph = Spf.graph_create ();
    spf_dirty = Hashtbl.create 16;
    stub_cache = Hashtbl.create 64;
    advertisers = Hashtbl.create 64;
    my_seq = Ospf_pkt.initial_seq;
    spf_scheduled = false;
    spf_count = 0;
    started = false;
    started_at = Rf_sim.Vtime.zero;
    hops = [];
    own_prefixes = [];
    m_spf =
      Rf_obs.Metrics.counter
        (Rf_sim.Engine.metrics engine)
        ~help:"SPF runs across all OSPF daemons" "ospf_spf_runs_total";
    m_hellos =
      Rf_obs.Metrics.counter
        (Rf_sim.Engine.metrics engine)
        ~help:"OSPF hellos sent" "ospf_hellos_total";
    m_floods =
      Rf_obs.Metrics.counter
        (Rf_sim.Engine.metrics engine)
        ~help:"LSA flood operations" "ospf_floods_total";
    m_adjacencies =
      Rf_obs.Metrics.counter
        (Rf_sim.Engine.metrics engine)
        ~help:"Adjacencies reaching Full" "ospf_adjacencies_full_total";
  }

let config t = t.cfg

let router_id t = t.cfg.router_id

let send_pkt t (oif : oiface) payload =
  let pkt =
    { Ospf_pkt.router_id = t.cfg.router_id; area_id = t.cfg.area_id; payload }
  in
  Iface.send oif.ifc
    (Packet.ospf ~src_mac:(Iface.mac oif.ifc) ~dst_mac:ospf_multicast_mac
       ~src_ip:(Iface.ip oif.ifc) ~dst_ip:Ipv4_addr.ospf_all_routers pkt)

(* --- hello ------------------------------------------------------- *)

let neighbors_on t oif =
  Hashtbl.fold
    (fun _ n acc ->
      if String.equal (Iface.name n.n_oiface.ifc) (Iface.name oif.ifc) then
        n :: acc
      else acc)
    t.nbr_tbl []

let send_hello t oif =
  if (not oif.passive) && Iface.is_up oif.ifc then begin
    Rf_obs.Metrics.incr t.m_hellos;
    send_pkt t oif
      (Ospf_pkt.Hello
         {
           netmask = Iface.netmask oif.ifc;
           hello_interval = t.cfg.hello_interval;
           dead_interval = t.cfg.dead_interval;
           priority = 1;
           dr = Ipv4_addr.any;
           bdr = Ipv4_addr.any;
           neighbors = List.map (fun n -> n.n_router_id) (neighbors_on t oif);
         })
  end

(* --- LSA origination and flooding -------------------------------- *)

(* The retransmit timer runs only while the neighbour's retransmission
   list is non-empty (RFC 2328 §13.6): a firing that finds nothing left
   to resend disarms it, and the next flood or LS request arms it again,
   one interval after that send. *)
let arm_rxmt t nbr =
  if nbr.n_rxmt_timer = None then begin
    let every = Rf_sim.Vtime.span_s (float_of_int t.cfg.rxmt_interval) in
    let rec fire () =
      let lsas =
        Hashtbl.fold
          (fun key () acc ->
            match Hashtbl.find_opt t.lsdb key with
            | Some lsa -> lsa :: acc
            | None ->
                Hashtbl.remove nbr.n_rxmt key;
                acc)
          nbr.n_rxmt []
      in
      if lsas = [] then nbr.n_rxmt_timer <- None
      else begin
        send_pkt t nbr.n_oiface (Ospf_pkt.Ls_update lsas);
        nbr.n_rxmt_timer <-
          Some (Rf_sim.Engine.schedule ?entity:t.entity t.engine every fire)
      end
    in
    nbr.n_rxmt_timer <-
      Some (Rf_sim.Engine.schedule ?entity:t.entity t.engine every fire)
  end

let flood t ?except lsa =
  Rf_obs.Metrics.incr t.m_floods;
  let key = Ospf_pkt.key_of_lsa lsa in
  List.iter
    (fun oif ->
      let skip =
        match except with
        | Some name -> String.equal (Iface.name oif.ifc) name
        | None -> false
      in
      if (not skip) && not oif.passive then begin
        let targets =
          List.filter
            (fun n ->
              match n.n_state with
              | Exchange | Loading | Full -> true
              | Down | Init | Exstart -> false)
            (neighbors_on t oif)
        in
        if targets <> [] then begin
          send_pkt t oif (Ospf_pkt.Ls_update [ lsa ]);
          List.iter
            (fun n ->
              Hashtbl.replace n.n_rxmt key ();
              arm_rxmt t n)
            targets
        end
      end)
    t.ifaces

let router_lsa t rid =
  Hashtbl.find_opt t.lsdb { Ospf_pkt.k_type = 1; k_id = rid; k_adv = rid }

let p2p_pairs lsa =
  match lsa.Ospf_pkt.body with
  | Ospf_pkt.Router { links } ->
      List.filter_map
        (fun (l : Ospf_pkt.router_link) ->
          if l.link_type = Ospf_pkt.Point_to_point then Some (l.link_id, l.metric)
          else None)
        links
  | Ospf_pkt.Network _ | Ospf_pkt.Opaque _ -> []

(* Vertices = router LSAs; a p2p edge A->B counts only when B's LSA
   links back to A (bidirectionality check of RFC 2328 §16.1) — the
   back-link check lives in {!Spf}. *)
let refresh_graph_node t rid =
  match router_lsa t rid with
  | Some lsa -> Spf.graph_set_links t.graph rid (p2p_pairs lsa)
  | None -> Spf.graph_remove t.graph rid

let mark_dirty t rid = Hashtbl.replace t.spf_dirty rid ()

(* Set bits of the 32-bit netmask (SWAR popcount, replacing a 32-step
   shift loop on the route-build hot path). *)
let mask_len_of m =
  let v = Ipv4_addr.to_int m in
  let v = v - ((v lsr 1) land 0x55555555) in
  let v = (v land 0x33333333) + ((v lsr 2) land 0x33333333) in
  let v = (v + (v lsr 4)) land 0x0F0F0F0F in
  ((v * 0x01010101) land 0xFFFFFFFF) lsr 24

(* Stub links of [rid]'s router LSA as (prefix, metric) pairs, parsed
   once per LSA generation and entered into [advertisers]. A prefix is
   an immediate int, so it is its own cheap hash key. *)
let stub_links_of t rid =
  match Hashtbl.find_opt t.stub_cache rid with
  | Some a -> a
  | None ->
      let a =
        match router_lsa t rid with
        | Some { Ospf_pkt.body = Ospf_pkt.Router { links }; _ } ->
            List.filter_map
              (fun (l : Ospf_pkt.router_link) ->
                if l.link_type = Ospf_pkt.Stub then
                  Some
                    ( Ipv4_addr.Prefix.make l.link_id (mask_len_of l.link_data),
                      l.metric )
                else None)
              links
            |> Array.of_list
        | Some _ | None -> [||]
      in
      Hashtbl.add t.stub_cache rid a;
      Array.iter
        (fun (p, _) ->
          let advs =
            Option.value (Hashtbl.find_opt t.advertisers p) ~default:[]
          in
          if not (List.exists (Ipv4_addr.equal rid) advs) then
            Hashtbl.replace t.advertisers p (rid :: advs))
        a;
      a

(* Drops [rid]'s cached stub links, adding their prefixes to the set
   [affected]. *)
let forget_stub_links t rid affected =
  match Hashtbl.find_opt t.stub_cache rid with
  | None -> ()
  | Some a ->
      Hashtbl.remove t.stub_cache rid;
      Array.iter
        (fun (p, _) ->
          Hashtbl.replace affected p ();
          match Hashtbl.find_opt t.advertisers p with
          | Some advs -> (
              match List.filter (fun r -> not (Ipv4_addr.equal r rid)) advs with
              | [] -> Hashtbl.remove t.advertisers p
              | rest -> Hashtbl.replace t.advertisers p rest)
          | None -> ())
        a

(* Takes the routers whose LSAs changed since the last run, refreshing
   their graph nodes and stub links. Returns them with the set of
   prefixes their old and new stub links cover. *)
let take_dirty t =
  let dirty = Hashtbl.fold (fun rid () acc -> rid :: acc) t.spf_dirty [] in
  Hashtbl.reset t.spf_dirty;
  let affected = Hashtbl.create 16 in
  List.iter
    (fun rid ->
      refresh_graph_node t rid;
      forget_stub_links t rid affected;
      Array.iter
        (fun (p, _) -> Hashtbl.replace affected p ())
        (stub_links_of t rid))
    dirty;
  (dirty, affected)

let full_hops t =
  Hashtbl.fold
    (fun rid n acc ->
      if n.n_state = Full then (rid, n.n_addr, Iface.name n.n_oiface.ifc) :: acc
      else acc)
    t.nbr_tbl []
  |> List.sort (fun (a, _, _) (b, _, _) -> Ipv4_addr.compare a b)

let same_hops =
  List.equal (fun (r, a, i) (r', a', i') ->
      Ipv4_addr.equal r r' && Ipv4_addr.equal a a' && String.equal i i')

(* Publish OSPF routes from remote routers' stub links, using the SPT
   held in [t.spf]. [changed] is [Some routers] after a repaired tree:
   only the prefixes in [affected] and those advertised by [routers]
   are recomputed, from their advertisers alone. [None] (a full SPF
   run) recomputes every prefix. Equal-cost prefix candidates break
   ties on the advertising router id, so the result is independent of
   hash and advertiser order. *)
let publish_routes t ~changed affected =
  let hops = full_hops t in
  let own_prefixes = List.map (fun oif -> Iface.prefix oif.ifc) t.ifaces in
  let changed =
    if
      same_hops hops t.hops
      && List.equal Ipv4_addr.Prefix.equal own_prefixes t.own_prefixes
    then changed
    else None
  in
  t.hops <- hops;
  t.own_prefixes <- own_prefixes;
  let candidates : (Ipv4_addr.Prefix.t, Rib.route * Ipv4_addr.t) Hashtbl.t =
    Hashtbl.create 64
  in
  (* Distinct first hops number at most the root's degree, so the
     neighbor lookup memoizes on the previous hop. *)
  let memo_hop = ref Ipv4_addr.any in
  let memo_info = ref None in
  let hop_info hop =
    if Ipv4_addr.equal hop !memo_hop then !memo_info
    else begin
      memo_hop := hop;
      let info =
        match Hashtbl.find_opt t.nbr_tbl hop with
        | Some hop_nbr when hop_nbr.n_state = Full ->
            Some (Some hop_nbr.n_addr, Iface.name hop_nbr.n_oiface.ifc)
        | Some _ | None -> None
      in
      memo_info := info;
      info
    end
  in
  let offer ~wanted rid d hop =
    match hop_info hop with
    | Some (next_hop, iface) ->
        Array.iter
          (fun (prefix, link_metric) ->
            if wanted prefix then begin
              let metric = d + link_metric in
              let better =
                match Hashtbl.find_opt candidates prefix with
                | None -> true
                | Some (existing, adv) ->
                    metric < existing.Rib.r_metric
                    || metric = existing.Rib.r_metric
                       && Ipv4_addr.compare rid adv < 0
              in
              if better then
                Hashtbl.replace candidates prefix
                  ( {
                      Rib.r_prefix = prefix;
                      r_proto = Rib.Ospf;
                      r_distance = Rib.default_distance Rib.Ospf;
                      r_metric = metric;
                      r_next_hop = next_hop;
                      r_iface = iface;
                    },
                    rid )
            end)
          (stub_links_of t rid)
    | None -> ()
  in
  (match changed with
  | None -> Spf.iter t.spf (offer ~wanted:(fun _ -> true))
  | Some routers ->
      List.iter
        (fun rid ->
          Array.iter
            (fun (p, _) -> Hashtbl.replace affected p ())
            (stub_links_of t rid))
        routers;
      let seen = Hashtbl.create 16 in
      Hashtbl.iter
        (fun p () ->
          List.iter
            (fun rid ->
              if not (Hashtbl.mem seen rid) then begin
                Hashtbl.add seen rid ();
                match (Spf.dist t.spf rid, Spf.first_hop t.spf rid) with
                | Some d, Some hop ->
                    offer ~wanted:(Hashtbl.mem affected) rid d hop
                | (Some _ | None), _ -> ()
              end)
            (Option.value (Hashtbl.find_opt t.advertisers p) ~default:[]))
        affected);
  (* Prefixes we own directly are left out: connected wins anyway, but
     keeping them out of the OSPF table matches Quagga. Both lists go
     to the RIB in prefix order. A full run republishes every OSPF
     prefix; a repaired one only the affected prefixes. *)
  let fresh =
    Hashtbl.fold
      (fun p (route, _) acc ->
        if List.exists (Ipv4_addr.Prefix.equal p) own_prefixes then acc
        else route :: acc)
      candidates []
    |> List.sort (fun (a : Rib.route) b ->
           Ipv4_addr.Prefix.compare a.r_prefix b.r_prefix)
  in
  let scope =
    match changed with
    | None -> None
    | Some _ ->
        Some
          (Hashtbl.fold (fun p () acc -> p :: acc) affected []
          |> List.sort Ipv4_addr.Prefix.compare)
  in
  Rib.replace_proto t.rib ?scope Rib.Ospf fresh

let rec schedule_spf t =
  if not t.spf_scheduled then begin
    t.spf_scheduled <- true;
    ignore
      (Rf_sim.Engine.schedule ?entity:t.entity t.engine t.cfg.spf_delay
         (fun () -> run_spf t))
  end

and run_spf t =
  Rf_obs.Metrics.incr t.m_spf;
  t.spf_scheduled <- false;
  t.spf_count <- t.spf_count + 1;
  (* Incremental SPF: refresh the adjacency cache and stub links of
     the routers whose LSAs changed, repair only the affected part of
     the tree, then republish only the prefixes it touched. *)
  let dirty, affected = take_dirty t in
  match Spf.update t.spf t.graph ~dirty with
  | Spf.Full -> publish_routes t ~changed:None affected
  | Spf.Repaired routers -> publish_routes t ~changed:(Some routers) affected

let spf_now_full t =
  Rf_obs.Metrics.incr t.m_spf;
  t.spf_count <- t.spf_count + 1;
  (* Reference oracle: rebuild the adjacency cache from the LSDB,
     recompute the tree from scratch and republish every prefix. *)
  let _, affected = take_dirty t in
  Spf.graph_reset t.graph;
  Hashtbl.iter
    (fun (k : Ospf_pkt.lsa_key) lsa ->
      if k.k_type = 1 then Spf.graph_set_links t.graph k.k_adv (p2p_pairs lsa))
    t.lsdb;
  Spf.full t.spf t.graph;
  publish_routes t ~changed:None affected;
  Rib.count t.rib Rib.Ospf

(* A MaxAge instance purges the LSA, as in the LS Update handler. *)
let install_lsa t lsa =
  let key = Ospf_pkt.key_of_lsa lsa in
  if lsa.Ospf_pkt.age >= Ospf_pkt.max_age then Hashtbl.remove t.lsdb key
  else Hashtbl.replace t.lsdb key lsa;
  mark_dirty t lsa.Ospf_pkt.adv_router;
  schedule_spf t

let originate_router_lsa t =
  let links =
    List.concat_map
      (fun oif ->
        if not (Iface.is_up oif.ifc) then []
        else begin
          let p2p =
            if oif.passive then []
            else
              List.filter_map
                (fun n ->
                  if n.n_state = Full then
                    Some
                      {
                        Ospf_pkt.link_id = n.n_router_id;
                        link_data = Iface.ip oif.ifc;
                        link_type = Ospf_pkt.Point_to_point;
                        metric = oif.cost;
                      }
                  else None)
                (neighbors_on t oif)
          in
          let stub =
            {
              Ospf_pkt.link_id = Ipv4_addr.Prefix.network (Iface.prefix oif.ifc);
              link_data = Iface.netmask oif.ifc;
              link_type = Ospf_pkt.Stub;
              metric = oif.cost;
            }
          in
          p2p @ [ stub ]
        end)
      t.ifaces
  in
  t.my_seq <- Int32.add t.my_seq 1l;
  let lsa =
    Ospf_pkt.make_lsa ~age:1 ~options:0x02 ~link_state_id:t.cfg.router_id
      ~adv_router:t.cfg.router_id ~seq:t.my_seq (Ospf_pkt.Router { links })
  in
  install_lsa t lsa;
  flood t lsa

(* --- adjacency ---------------------------------------------------- *)

let my_headers t =
  Hashtbl.fold (fun _ lsa acc -> Ospf_pkt.header_of_lsa lsa :: acc) t.lsdb []

let send_dd t nbr =
  send_pkt t nbr.n_oiface
    (Ospf_pkt.Db_desc
       {
         mtu = 1500;
         dd_init = false;
         dd_more = false;
         dd_master = Ipv4_addr.compare t.cfg.router_id nbr.n_router_id > 0;
         dd_seq = 1l;
         headers = my_headers t;
       })

let to_full t nbr =
  if nbr.n_state <> Full then begin
    nbr.n_state <- Full;
    Rf_obs.Metrics.incr t.m_adjacencies;
    Rf_sim.Engine.record t.engine
      ~component:(Printf.sprintf "ospfd.%s" (Ipv4_addr.to_string t.cfg.router_id))
      ~event:"adjacency-full"
      (Ipv4_addr.to_string nbr.n_router_id);
    originate_router_lsa t;
    schedule_spf t
  end

let kill_neighbor t nbr =
  (match nbr.n_rxmt_timer with
  | Some timer -> Rf_sim.Engine.cancel timer
  | None -> ());
  Hashtbl.remove t.nbr_tbl nbr.n_router_id;
  if nbr.n_state = Full then begin
    originate_router_lsa t;
    schedule_spf t
  end

(* RFC 2328 §10's InactivityTimer, checked lazily. A neighbour's
   deadline is the first point of the 1 s grid from [start] strictly
   after its last hello plus the dead interval. When it fires, a hello
   that arrived meanwhile moves it on; otherwise the neighbour dies.
   A killed or replaced record, or one dropped when the daemon
   stopped, is no longer in [nbr_tbl], and its deadline does nothing.
   One closure per neighbour, re-armed as it is. *)
let dead_deadline t nbr =
  let second = 1_000_000 in
  let origin = Rf_sim.Vtime.to_us t.started_at in
  let expires =
    Rf_sim.Vtime.to_us nbr.n_last_hello + (t.cfg.dead_interval * second)
    - origin
  in
  Rf_sim.Vtime.of_us (origin + (((expires / second) + 1) * second))

let watch_inactivity t nbr =
  let rec check () =
    match Hashtbl.find_opt t.nbr_tbl nbr.n_router_id with
    | Some current when current == nbr ->
        let deadline = dead_deadline t nbr in
        if Rf_sim.Vtime.(Rf_sim.Engine.now t.engine < deadline) then
          ignore
            (Rf_sim.Engine.schedule_at ?entity:t.entity t.engine deadline check)
        else kill_neighbor t nbr
    | Some _ | None -> ()
  in
  ignore
    (Rf_sim.Engine.schedule_at ?entity:t.entity t.engine (dead_deadline t nbr)
       check)

let handle_hello t oif ~src (h : Ospf_pkt.hello) ~from_rid =
  if
    h.hello_interval <> t.cfg.hello_interval
    || h.dead_interval <> t.cfg.dead_interval
  then
    (* RFC 2328 §10.5: hello/dead intervals must agree or the packet is
       dropped — a classic cause of stuck adjacencies that the
       autoconfig framework avoids by writing both sides' configs. *)
    Rf_sim.Engine.record t.engine
      ~component:(Printf.sprintf "ospfd.%s" (Ipv4_addr.to_string t.cfg.router_id))
      ~event:"hello-mismatch"
      (Ipv4_addr.to_string from_rid)
  else begin
  let now = Rf_sim.Engine.now t.engine in
  let nbr =
    match Hashtbl.find_opt t.nbr_tbl from_rid with
    | Some n ->
        n.n_addr <- src;
        n.n_last_hello <- now;
        n
    | None ->
        let n =
          {
            n_router_id = from_rid;
            n_addr = src;
            n_oiface = oif;
            n_state = Init;
            n_last_hello = now;
            n_req = [];
            n_rxmt = Hashtbl.create 16;
            n_rxmt_timer = None;
          }
        in
        Hashtbl.replace t.nbr_tbl from_rid n;
        watch_inactivity t n;
        (* Answer at once so the peer learns about us without waiting a
           full hello interval. *)
        send_hello t oif;
        n
  in
  let sees_us = List.exists (Ipv4_addr.equal t.cfg.router_id) h.neighbors in
  (match nbr.n_state with
  | Down | Init ->
      if sees_us then begin
        nbr.n_state <- Exstart;
        send_dd t nbr
      end
  | Exstart | Exchange | Loading | Full -> ())
  end

let handle_dd t nbr (dd : Ospf_pkt.db_desc) =
  (match nbr.n_state with
  | Down | Init ->
      (* Their hello listing us must have been lost; a DD is itself
         evidence of bidirectionality, so answer with ours. *)
      nbr.n_state <- Exstart;
      send_dd t nbr
  | Full | Exchange | Loading ->
      (* A DD from a neighbour we believe is synchronized means it
         restarted (RFC 2328 SeqNumberMismatch): describe our database
         again so it can reload. *)
      send_dd t nbr
  | Exstart -> ());
  let missing =
    List.filter_map
      (fun (h : Ospf_pkt.lsa_header) ->
        match Hashtbl.find_opt t.lsdb h.h_key with
        | None -> Some h.h_key
        | Some mine ->
            if Ospf_pkt.compare_instance h (Ospf_pkt.header_of_lsa mine) > 0
            then Some h.h_key
            else None)
      dd.headers
  in
  match missing with
  | [] -> if nbr.n_state <> Full then to_full t nbr
  | keys ->
      nbr.n_req <- keys;
      nbr.n_state <- Loading;
      send_pkt t nbr.n_oiface (Ospf_pkt.Ls_request keys)

let handle_lsr t nbr keys =
  let lsas =
    List.filter_map (fun key -> Hashtbl.find_opt t.lsdb key) keys
  in
  if lsas <> [] then begin
    send_pkt t nbr.n_oiface (Ospf_pkt.Ls_update lsas);
    List.iter
      (fun lsa ->
        Hashtbl.replace nbr.n_rxmt (Ospf_pkt.key_of_lsa lsa) ();
        arm_rxmt t nbr)
      lsas
  end

let send_ack t oif headers =
  if headers <> [] then send_pkt t oif (Ospf_pkt.Ls_ack headers)

let handle_lsu t nbr lsas =
  let acks = ref [] in
  List.iter
    (fun (lsa : Ospf_pkt.lsa) ->
      let key = Ospf_pkt.key_of_lsa lsa in
      let header = Ospf_pkt.header_of_lsa lsa in
      (* Receiving an instance is an implied ack. *)
      Hashtbl.remove nbr.n_rxmt key;
      if Ipv4_addr.equal lsa.adv_router t.cfg.router_id then begin
        (* A copy of our own LSA. If it is newer (pre-restart state),
           take over its sequence number. *)
        match Hashtbl.find_opt t.lsdb key with
        | Some mine
          when Ospf_pkt.compare_instance header (Ospf_pkt.header_of_lsa mine) > 0
          ->
            t.my_seq <- Int32.add lsa.seq 1l;
            originate_router_lsa t
        | Some _ | None -> acks := header :: !acks
      end
      else begin
        let action =
          match Hashtbl.find_opt t.lsdb key with
          | None -> if lsa.age >= Ospf_pkt.max_age then `Ack else `Install
          | Some mine ->
              let c =
                Ospf_pkt.compare_instance header (Ospf_pkt.header_of_lsa mine)
              in
              if c > 0 then if lsa.age >= Ospf_pkt.max_age then `Purge else `Install
              else if c = 0 then `Ack
              else `Send_back mine
        in
        match action with
        | `Install ->
            install_lsa t lsa;
            acks := header :: !acks;
            flood t ~except:(Iface.name nbr.n_oiface.ifc) lsa
        | `Purge ->
            (* A MaxAge instance flushes the LSA from the database. *)
            Hashtbl.remove t.lsdb key;
            mark_dirty t lsa.adv_router;
            schedule_spf t;
            acks := header :: !acks;
            flood t ~except:(Iface.name nbr.n_oiface.ifc) lsa
        | `Ack -> acks := header :: !acks
        | `Send_back mine -> send_pkt t nbr.n_oiface (Ospf_pkt.Ls_update [ mine ])
      end;
      (* Progress database loading. *)
      nbr.n_req <- List.filter (fun k -> k <> key) nbr.n_req;
      if nbr.n_state = Loading && nbr.n_req = [] then to_full t nbr)
    lsas;
  send_ack t nbr.n_oiface !acks

let handle_lsack _t nbr headers =
  List.iter
    (fun (h : Ospf_pkt.lsa_header) -> Hashtbl.remove nbr.n_rxmt h.h_key)
    headers

let handle_packet t oif ~src (pkt : Ospf_pkt.t) =
  if not t.started then () (* a stopped daemon is deaf *)
  else if Ipv4_addr.equal pkt.router_id t.cfg.router_id then ()
  else if not (Ipv4_addr.equal pkt.area_id t.cfg.area_id) then ()
  else
    match pkt.payload with
    | Ospf_pkt.Hello h -> handle_hello t oif ~src h ~from_rid:pkt.router_id
    | Ospf_pkt.Db_desc dd -> (
        match Hashtbl.find_opt t.nbr_tbl pkt.router_id with
        | Some nbr -> handle_dd t nbr dd
        | None -> ())
    | Ospf_pkt.Ls_request keys -> (
        match Hashtbl.find_opt t.nbr_tbl pkt.router_id with
        | Some nbr -> handle_lsr t nbr keys
        | None -> ())
    | Ospf_pkt.Ls_update lsas -> (
        match Hashtbl.find_opt t.nbr_tbl pkt.router_id with
        | Some nbr -> handle_lsu t nbr lsas
        | None -> ())
    | Ospf_pkt.Ls_ack headers -> (
        match Hashtbl.find_opt t.nbr_tbl pkt.router_id with
        | Some nbr -> handle_lsack t nbr headers
        | None -> ())

let arm_iface t oif =
  if (not oif.passive) && oif.hello_timer = None then begin
    send_hello t oif;
    oif.hello_timer <-
      Some
        (Rf_sim.Engine.periodic ?entity:t.entity t.engine
           ~jitter:(Rf_sim.Vtime.span_ms 100)
           (Rf_sim.Vtime.span_s (float_of_int t.cfg.hello_interval))
           (fun () -> send_hello t oif))
  end

let add_interface t ?(passive = false) ifc =
  if not (Iface.is_addressed ifc) then
    invalid_arg "Ospfd.add_interface: interface has no address";
  let oif = { ifc; cost = t.cfg.reference_cost; passive; hello_timer = None } in
  t.ifaces <- t.ifaces @ [ oif ];
  (* Connected route. *)
  Rib.update t.rib
    {
      Rib.r_prefix = Iface.prefix ifc;
      r_proto = Rib.Connected;
      r_distance = Rib.default_distance Rib.Connected;
      r_metric = 0;
      r_next_hop = None;
      r_iface = Iface.name ifc;
    };
  Iface.add_receiver ifc (fun frame ->
      match Packet.parse frame with
      | Ok { l3 = Packet.Ipv4 (ip, Packet.Ospf pkt); _ } ->
          if
            Ipv4_addr.equal ip.dst Ipv4_addr.ospf_all_routers
            || Ipv4_addr.equal ip.dst (Iface.ip ifc)
          then handle_packet t oif ~src:ip.src pkt
      | Ok _ | Error _ -> ());
  (* Interface state drives immediate reconvergence: a downed link
     kills its adjacencies and re-originates at once instead of waiting
     out the dead interval. *)
  Iface.add_state_listener ifc (fun up ->
      if t.started then begin
        if not up then
          List.iter (kill_neighbor t) (neighbors_on t oif)
        else send_hello t oif;
        originate_router_lsa t;
        schedule_spf t
      end);
  (* Quagga accepts new `network` statements at runtime; adding an
     interface to a running instance brings it up immediately. *)
  if t.started then begin
    arm_iface t oif;
    originate_router_lsa t;
    schedule_spf t
  end

let start t =
  if not t.started then begin
    t.started <- true;
    t.started_at <- Rf_sim.Engine.now t.engine;
    List.iter (fun oif -> arm_iface t oif) t.ifaces;
    originate_router_lsa t
  end

let stop t =
  if t.started then begin
    (* Graceful shutdown (RFC 2328 §14.1): flush our router LSA by
       flooding a MaxAge instance so neighbours withdraw immediately
       instead of waiting out the dead interval. *)
    t.my_seq <- Int32.add t.my_seq 1l;
    let flush =
      Ospf_pkt.make_lsa ~age:Ospf_pkt.max_age ~options:0x02
        ~link_state_id:t.cfg.router_id ~adv_router:t.cfg.router_id
        ~seq:t.my_seq (Ospf_pkt.Router { links = [] })
    in
    Hashtbl.remove t.lsdb
      { Ospf_pkt.k_type = 1; k_id = t.cfg.router_id; k_adv = t.cfg.router_id };
    mark_dirty t t.cfg.router_id;
    flood t flush;
    t.started <- false;
    List.iter
      (fun oif ->
        match oif.hello_timer with
        | Some timer ->
            Rf_sim.Engine.cancel timer;
            oif.hello_timer <- None
        | None -> ())
      t.ifaces;
    Hashtbl.iter
      (fun _ n ->
        match n.n_rxmt_timer with
        | Some timer -> Rf_sim.Engine.cancel timer
        | None -> ())
      t.nbr_tbl;
    Hashtbl.reset t.nbr_tbl;
    Rib.replace_proto t.rib Rib.Ospf []
  end

let neighbors t =
  Hashtbl.fold
    (fun _ n acc ->
      {
        ni_router_id = n.n_router_id;
        ni_addr = n.n_addr;
        ni_iface = Iface.name n.n_oiface.ifc;
        ni_state = n.n_state;
      }
      :: acc)
    t.nbr_tbl []
  |> List.sort (fun a b -> Ipv4_addr.compare a.ni_router_id b.ni_router_id)

let lsdb t = Hashtbl.fold (fun _ lsa acc -> lsa :: acc) t.lsdb []

let lsdb_size t = Hashtbl.length t.lsdb

let spf_runs t = t.spf_count

let spf_now t =
  run_spf t;
  Rib.count t.rib Rib.Ospf

let is_adjacent_to t rid =
  match Hashtbl.find_opt t.nbr_tbl rid with
  | Some n -> n.n_state = Full
  | None -> false

let full_neighbor_count t =
  Hashtbl.fold (fun _ n acc -> if n.n_state = Full then acc + 1 else acc) t.nbr_tbl 0
