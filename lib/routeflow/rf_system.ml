open Rf_packet
open Rf_routing

type protocol = Proto_ospf | Proto_rip

type params = {
  vm_boot_time : Rf_sim.Vtime.span;
  parallel_boot : int;
  config_apply_delay : Rf_sim.Vtime.span;
  routing_protocol : protocol;
}

let default_params =
  {
    vm_boot_time = Rf_sim.Vtime.span_s 8.0;
    parallel_boot = 1;
    config_apply_delay = Rf_sim.Vtime.span_ms 200;
    routing_protocol = Proto_ospf;
  }

type nic_role = P2p | Edge

type nic_desired = { nd_ip : Ipv4_addr.t; nd_len : int; nd_role : nic_role }

type sw_state = {
  ss_dpid : int64;
  ss_entity : Rf_obs.Profiler.entity;
  ss_ports : int;
  mutable ss_vm : Vm.t option;
  ss_nics : (int, nic_desired) Hashtbl.t;
  mutable ss_dirty : bool;  (** config regeneration scheduled *)
}

type t = {
  engine : Rf_sim.Engine.t;
  app : Rf_controller_app.t;
  vs : Rf_vs.t;
  params : params;
  switches : (int64, sw_state) Hashtbl.t;
  mutable vlinks : ((int64 * int) * (int64 * int)) list;
  mutable boot_queue : sw_state list;  (** FIFO, head = oldest *)
  mutable booting : int;
  mutable created : int;
  mutable on_vm_ready : int64 -> unit;
  boot_faults : (int64, int ref) Hashtbl.t;
      (** armed clone failures remaining, per dpid *)
  mutable boot_failures : int;
  mutable mutation_guard : unit -> bool;
      (** consulted before every configuration mutation; in clustered
          deployments only the committed-entry apply path may pass *)
  mutable mutations_rejected : int;
  m_boots : Rf_obs.Metrics.counter;
  m_boot_failures : Rf_obs.Metrics.counter;
  m_provision : Rf_obs.Metrics.histogram;
}

let tracer t = Rf_sim.Engine.tracer t.engine

let span_key prefix dpid = Printf.sprintf "%s:%Ld" prefix dpid

let create engine app vs params =
  if params.parallel_boot < 1 then invalid_arg "Rf_system: parallel_boot >= 1";
  {
    engine;
    app;
    vs;
    params;
    switches = Hashtbl.create 64;
    vlinks = [];
    boot_queue = [];
    booting = 0;
    created = 0;
    on_vm_ready = (fun _ -> ());
    boot_faults = Hashtbl.create 4;
    boot_failures = 0;
    mutation_guard = (fun () -> true);
    mutations_rejected = 0;
    m_boots =
      Rf_obs.Metrics.counter
        (Rf_sim.Engine.metrics engine)
        ~help:"VM clone+boot attempts started" "vm_boots_total";
    m_boot_failures =
      Rf_obs.Metrics.counter
        (Rf_sim.Engine.metrics engine)
        ~help:"VM clone failures injected" "vm_boot_failures_total";
    m_provision =
      Rf_obs.Metrics.histogram
        (Rf_sim.Engine.metrics engine)
        ~help:"Switch_up delivery to VM ready (queue wait + boots)"
        "vm_provision_seconds";
  }

let router_id_of dpid =
  let d = Int64.to_int dpid in
  Ipv4_addr.of_octets 10 255 ((d lsr 8) land 0xff) (d land 0xff)

(* --- config generation -------------------------------------------- *)

let generate_configs t ss =
  let nics =
    Hashtbl.fold (fun port nd acc -> (port, nd) :: acc) ss.ss_nics []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  let zebra =
    Quagga_conf.generate_zebra
      {
        Quagga_conf.z_hostname = Printf.sprintf "vm-%Ld" ss.ss_dpid;
        z_password = "rfauto";
        z_ifaces =
          List.map
            (fun (port, nd) ->
              {
                Quagga_conf.ic_name = Printf.sprintf "eth%d" port;
                ic_ip = nd.nd_ip;
                ic_prefix_len = nd.nd_len;
              })
            nics;
        z_statics = [];
      }
  in
  let passive =
    List.filter_map
      (fun (port, nd) ->
        match nd.nd_role with
        | Edge -> Some (Printf.sprintf "eth%d" port)
        | P2p -> None)
      nics
  in
  let routing =
    match t.params.routing_protocol with
    | Proto_ospf ->
        ( "ospfd.conf",
          Quagga_conf.generate_ospfd
            {
              Quagga_conf.o_hostname = Printf.sprintf "vm-%Ld" ss.ss_dpid;
              o_router_id = router_id_of ss.ss_dpid;
              o_networks =
                List.map
                  (fun (_port, nd) ->
                    (Ipv4_addr.Prefix.make nd.nd_ip nd.nd_len, Ipv4_addr.any))
                  nics;
              o_passive = passive;
              o_hello_interval = 10;
              o_dead_interval = 40;
            } )
    | Proto_rip ->
        ( "ripd.conf",
          Quagga_conf.generate_ripd
            {
              Quagga_conf.r_hostname = Printf.sprintf "vm-%Ld" ss.ss_dpid;
              r_networks =
                List.map
                  (fun (_port, nd) -> Ipv4_addr.Prefix.make nd.nd_ip nd.nd_len)
                  nics;
              r_passive = passive;
              r_update = 30;
              r_timeout = 180;
              r_garbage = 120;
            } )
  in
  (zebra, routing)

(* --- reconciliation ------------------------------------------------ *)

let reconcile_vlinks t =
  List.iter
    (fun ((a_dpid, a_port), (b_dpid, b_port)) ->
      let nic_ready dpid port =
        match Hashtbl.find_opt t.switches dpid with
        | Some { ss_vm = Some vm; _ } when port >= 1 && port <= Vm.n_ports vm ->
            Iface.is_addressed (Vm.nic vm port)
        | Some _ | None -> false
      in
      if
        nic_ready a_dpid a_port && nic_ready b_dpid b_port
        && not (Rf_vs.has_virtual_link t.vs (a_dpid, a_port))
      then
        Rf_vs.connect_ports t.vs ~a:(a_dpid, a_port) ~b:(b_dpid, b_port))
    t.vlinks

let apply_configs t ss =
  match ss.ss_vm with
  | None -> ()
  | Some vm ->
      if Hashtbl.length ss.ss_nics > 0 then begin
        let zebra, (routing_file, routing_text) = generate_configs t ss in
        (match Vm.apply_zebra_config vm zebra with
        | Ok () -> ()
        | Error e ->
            Rf_sim.Engine.record t.engine ~component:"rf-server"
              ~event:"config-error" e);
        let apply_routing =
          match routing_file with
          | "ripd.conf" -> Vm.apply_ripd_config vm
          | _ -> Vm.apply_ospfd_config vm
        in
        (match apply_routing routing_text with
        | Ok () -> ()
        | Error e ->
            Rf_sim.Engine.record t.engine ~component:"rf-server"
              ~event:"config-error" e);
        Rf_sim.Engine.record t.engine ~component:"rf-server" ~event:"configured"
          (Printf.sprintf "vm-%Ld" ss.ss_dpid);
        (match
           Rf_obs.Tracer.take (tracer t) ~key:(span_key "quagga" ss.ss_dpid)
         with
        | Some span -> Rf_obs.Tracer.span_end (tracer t) span
        | None -> ());
        (match
           Rf_obs.Tracer.take (tracer t) ~key:(span_key "cfg" ss.ss_dpid)
         with
        | Some root -> Rf_obs.Tracer.span_end (tracer t) root
        | None -> ());
        reconcile_vlinks t
      end

let schedule_apply t ss =
  if not ss.ss_dirty then begin
    ss.ss_dirty <- true;
    ignore
      (Rf_sim.Engine.schedule ~entity:ss.ss_entity t.engine
         t.params.config_apply_delay (fun () ->
           ss.ss_dirty <- false;
           apply_configs t ss))
  end

(* --- VM boot queue -------------------------------------------------- *)

(* An armed clone failure consumes the whole boot time and then
   re-queues the switch: the retry policy of a server that notices the
   LXC clone died and tries again. *)
let boot_fails t ss =
  match Hashtbl.find_opt t.boot_faults ss.ss_dpid with
  | Some n when !n > 0 ->
      decr n;
      t.boot_failures <- t.boot_failures + 1;
      true
  | Some _ | None -> false

let rec start_boots t =
  match t.boot_queue with
  | [] -> ()
  | ss :: rest ->
      if t.booting < t.params.parallel_boot then begin
        t.boot_queue <- rest;
        t.booting <- t.booting + 1;
        Rf_obs.Metrics.incr t.m_boots;
        Rf_sim.Engine.record t.engine
          ?span:(Rf_obs.Tracer.correlated (tracer t)
                   ~key:(span_key "vm" ss.ss_dpid))
          ~component:"rf-server" ~event:"vm-boot-start"
          (Printf.sprintf "vm-%Ld" ss.ss_dpid);
        ignore
          (Rf_sim.Engine.schedule ~entity:ss.ss_entity t.engine
             t.params.vm_boot_time (fun () ->
               t.booting <- t.booting - 1;
               if boot_fails t ss then begin
                 Rf_obs.Metrics.incr t.m_boot_failures;
                 Rf_sim.Engine.record t.engine
                   ?span:(Rf_obs.Tracer.correlated (tracer t)
                            ~key:(span_key "vm" ss.ss_dpid))
                   ~component:"rf-server" ~event:"vm-boot-failed"
                   (Printf.sprintf "vm-%Ld" ss.ss_dpid);
                 (* Retry unless the switch went away while booting. *)
                 if Hashtbl.mem t.switches ss.ss_dpid then
                   t.boot_queue <- t.boot_queue @ [ ss ]
               end
               else finish_boot t ss;
               start_boots t));
        start_boots t
      end

and finish_boot t ss =
  let vm = Vm.create t.engine ~dpid:ss.ss_dpid ~n_ports:ss.ss_ports () in
  ss.ss_vm <- Some vm;
  t.created <- t.created + 1;
  Rf_vs.register_vm t.vs vm;
  Vm.add_on_flows_changed vm
    (Rf_controller_app.sync_flows t.app ~dpid:ss.ss_dpid vm);
  (match Rf_obs.Tracer.take (tracer t) ~key:(span_key "vm" ss.ss_dpid) with
  | Some vm_span ->
      (match Rf_obs.Tracer.find_span (tracer t) vm_span with
      | Some sp ->
          Rf_obs.Metrics.observe t.m_provision
            (float_of_int
               (Rf_obs.Tracer.now_us (tracer t) - sp.Rf_obs.Tracer.start_us)
            /. 1e6)
      | None -> ());
      Rf_obs.Tracer.span_end (tracer t) vm_span
  | None -> ());
  (* The Quagga phase runs from VM ready to the first non-empty config
     application (zebra + routing daemon), which also completes the
     switch's configuration span. *)
  let parent =
    Rf_obs.Tracer.correlated (tracer t) ~key:(span_key "cfg" ss.ss_dpid)
  in
  let quagga = Rf_obs.Tracer.span_start (tracer t) ?parent "phase.quagga" in
  Rf_obs.Tracer.correlate (tracer t) ~key:(span_key "quagga" ss.ss_dpid) quagga;
  Rf_sim.Engine.record t.engine ~component:"rf-server" ~event:"vm-ready"
    (Printf.sprintf "vm-%Ld" ss.ss_dpid);
  t.on_vm_ready ss.ss_dpid;
  (* Any configuration that arrived while the VM was booting. *)
  schedule_apply t ss

(* Every configuration mutation funnels through the guard: a replica
   that lost leadership (but does not know yet) keeps calling these,
   and must not corrupt the state the new leader owns. *)
let permitted t op =
  t.mutation_guard ()
  ||
  (t.mutations_rejected <- t.mutations_rejected + 1;
   Rf_sim.Engine.record t.engine ~component:"rf-server"
     ~event:"mutation-rejected" op;
   false)

let switch_up t ~dpid ~n_ports =
  if permitted t "switch-up" && not (Hashtbl.mem t.switches dpid) then begin
    let ss =
      {
        ss_dpid = dpid;
        ss_entity = Rf_obs.Profiler.switch dpid;
        ss_ports = max 1 n_ports;
        ss_vm = None;
        ss_nics = Hashtbl.create 4;
        ss_dirty = false;
      }
    in
    Hashtbl.replace t.switches dpid ss;
    (* The VM phase covers the whole provisioning wait: time in the
       serialized boot queue plus the boots themselves (including
       failed clones). *)
    let parent =
      Rf_obs.Tracer.correlated (tracer t) ~key:(span_key "cfg" dpid)
    in
    let vm_span = Rf_obs.Tracer.span_start (tracer t) ?parent "phase.vm" in
    Rf_obs.Tracer.correlate (tracer t) ~key:(span_key "vm" dpid) vm_span;
    t.boot_queue <- t.boot_queue @ [ ss ];
    start_boots t
  end

let switch_down t ~dpid =
  match
    if permitted t "switch-down" then Hashtbl.find_opt t.switches dpid else None
  with
  | None -> ()
  | Some ss ->
      (match ss.ss_vm with
      | Some vm ->
          (match Vm.ospfd vm with Some d -> Ospfd.stop d | None -> ());
          (match Vm.ripd vm with Some d -> Ripd.stop d | None -> ());
          List.iter
            (fun ((a, b) as link) ->
              if fst a = dpid || fst b = dpid then begin
                Rf_vs.disconnect_ports t.vs ~a ~b;
                ignore link
              end)
            t.vlinks;
          t.vlinks <-
            List.filter
              (fun ((a, _), (b, _)) ->
                not (Int64.equal a dpid || Int64.equal b dpid))
              t.vlinks
      | None ->
          t.boot_queue <-
            List.filter (fun q -> not (Int64.equal q.ss_dpid dpid)) t.boot_queue);
      Hashtbl.remove t.switches dpid

let link_config t ~a:(a_dpid, a_port, a_ip, a_len) ~b:(b_dpid, b_port, b_ip, b_len)
    =
  if permitted t "link-config" then begin
  let record dpid port ip len =
    match Hashtbl.find_opt t.switches dpid with
    | None ->
        Rf_sim.Engine.record t.engine ~component:"rf-server" ~event:"link-unknown-switch"
          (Printf.sprintf "sw%Ld" dpid)
    | Some ss ->
        Hashtbl.replace ss.ss_nics port { nd_ip = ip; nd_len = len; nd_role = P2p };
        schedule_apply t ss
  in
  record a_dpid a_port a_ip a_len;
  record b_dpid b_port b_ip b_len;
  let link = ((a_dpid, a_port), (b_dpid, b_port)) in
  if not (List.mem link t.vlinks) then t.vlinks <- link :: t.vlinks
  end

let set_nic_state t (dpid, port) up =
  match Hashtbl.find_opt t.switches dpid with
  | Some { ss_vm = Some vm; _ } when port >= 1 && port <= Vm.n_ports vm ->
      Iface.set_up (Vm.nic vm port) up
  | Some _ | None -> ()

let link_down t ~a ~b =
  if permitted t "link-down" then begin
    Rf_vs.disconnect_ports t.vs ~a ~b;
    set_nic_state t a false;
    set_nic_state t b false
  end

let link_up_again t ~a ~b =
  if permitted t "link-up" then begin
    set_nic_state t a true;
    set_nic_state t b true;
    reconcile_vlinks t
  end

let edge_config t ~dpid ~port ~gateway ~prefix_len =
  match
    if permitted t "edge-config" then Hashtbl.find_opt t.switches dpid else None
  with
  | None -> ()
  | Some ss ->
      Hashtbl.replace ss.ss_nics port
        { nd_ip = gateway; nd_len = prefix_len; nd_role = Edge };
      schedule_apply t ss

(* --- reconciliation against a topology snapshot -------------------- *)

let switches_known t =
  Hashtbl.fold (fun dpid _ acc -> dpid :: acc) t.switches []
  |> List.sort Int64.compare

let prune_vlinks t ~keep =
  if permitted t "prune-vlinks" then begin
  let keeps link =
    let ((a, b) : (int64 * int) * (int64 * int)) = link in
    List.exists (fun (ka, kb) -> (ka = a && kb = b) || (ka = b && kb = a)) keep
  in
  let stale = List.filter (fun l -> not (keeps l)) t.vlinks in
  List.iter
    (fun (a, b) ->
      (* Same teardown as [link_down]: the NICs must go down too so the
         routing daemons withdraw the link's subnet. *)
      Rf_vs.disconnect_ports t.vs ~a ~b;
      set_nic_state t a false;
      set_nic_state t b false;
      Rf_sim.Engine.record t.engine ~component:"rf-server" ~event:"vlink-pruned"
        (Printf.sprintf "sw%Ld/%d <-> sw%Ld/%d" (fst a) (snd a) (fst b) (snd b)))
    stale;
  if stale <> [] then t.vlinks <- List.filter keeps t.vlinks
  end

let vm t dpid =
  match Hashtbl.find_opt t.switches dpid with
  | Some ss -> ss.ss_vm
  | None -> None

let vms t =
  Hashtbl.fold
    (fun dpid ss acc ->
      match ss.ss_vm with Some v -> (dpid, v) :: acc | None -> acc)
    t.switches []
  |> List.sort (fun (a, _) (b, _) -> Int64.compare a b)

let is_configured t dpid = vm t dpid <> None

let configured_count t = List.length (vms t)

let set_on_vm_ready t f = t.on_vm_ready <- f

let set_mutation_guard t f = t.mutation_guard <- f

let mutations_rejected t = t.mutations_rejected

let arm_boot_failures t ~dpid ~failures =
  if failures < 0 then invalid_arg "Rf_system.arm_boot_failures: negative count";
  Hashtbl.replace t.boot_faults dpid (ref failures)

let boot_failures_injected t = t.boot_failures

let vms_created t = t.created
