type link_ref = { l_a : int64; l_b : int64 }

type event =
  | Link_down of link_ref
  | Link_up of link_ref
  | Switch_crash of int64
  | Switch_recover of int64
  | Vm_boot_failure of { dpid : int64; failures : int }
  | Controller_crash of int
  | Controller_recover of int
  | Controller_partition of { cp_a : int list; cp_b : int list }
  | Controller_heal

type timed = { at : Vtime.t; ev : event }

let link ~at_s a b ev_of =
  let l = if Int64.compare a b <= 0 then { l_a = a; l_b = b } else { l_a = b; l_b = a } in
  { at = Vtime.of_s at_s; ev = ev_of l }

let link_down ~at_s a b = link ~at_s a b (fun l -> Link_down l)

let link_up ~at_s a b = link ~at_s a b (fun l -> Link_up l)

let switch_crash ~at_s dpid = { at = Vtime.of_s at_s; ev = Switch_crash dpid }

let switch_recover ~at_s dpid = { at = Vtime.of_s at_s; ev = Switch_recover dpid }

let vm_boot_failure ~at_s ~dpid ~failures =
  if failures < 0 then invalid_arg "Faults.vm_boot_failure: negative count";
  { at = Vtime.of_s at_s; ev = Vm_boot_failure { dpid; failures } }

let controller_crash ~at_s ?(replica = 0) () =
  if replica < 0 then invalid_arg "Faults.controller_crash: negative replica";
  { at = Vtime.of_s at_s; ev = Controller_crash replica }

let controller_recover ~at_s ?(replica = 0) () =
  if replica < 0 then invalid_arg "Faults.controller_recover: negative replica";
  { at = Vtime.of_s at_s; ev = Controller_recover replica }

let controller_partition ~at_s a b =
  { at = Vtime.of_s at_s; ev = Controller_partition { cp_a = a; cp_b = b } }

let controller_heal ~at_s = { at = Vtime.of_s at_s; ev = Controller_heal }

let pp_event ppf = function
  | Link_down { l_a; l_b } -> Format.fprintf ppf "link-down sw%Ld-sw%Ld" l_a l_b
  | Link_up { l_a; l_b } -> Format.fprintf ppf "link-up sw%Ld-sw%Ld" l_a l_b
  | Switch_crash d -> Format.fprintf ppf "switch-crash sw%Ld" d
  | Switch_recover d -> Format.fprintf ppf "switch-recover sw%Ld" d
  | Vm_boot_failure { dpid; failures } ->
      Format.fprintf ppf "vm-boot-failure sw%Ld x%d" dpid failures
  (* replica 0 keeps the historical single-controller spelling, so the
     pinned E4 trace fingerprint is unchanged *)
  | Controller_crash 0 -> Format.fprintf ppf "controller-crash"
  | Controller_crash r -> Format.fprintf ppf "controller-crash replica=%d" r
  | Controller_recover 0 -> Format.fprintf ppf "controller-recover"
  | Controller_recover r -> Format.fprintf ppf "controller-recover replica=%d" r
  | Controller_partition { cp_a; cp_b } ->
      Format.fprintf ppf "controller-partition {%s}|{%s}"
        (String.concat "," (List.map string_of_int cp_a))
        (String.concat "," (List.map string_of_int cp_b))
  | Controller_heal -> Format.fprintf ppf "controller-heal"

type chan_profile = {
  cf_drop : float;
  cf_duplicate : float;
  cf_delay : float;
  cf_max_delay : Vtime.span;
}

let reliable =
  { cf_drop = 0.; cf_duplicate = 0.; cf_delay = 0.; cf_max_delay = Vtime.span_zero }

let lossy ?(drop = 0.02) ?(duplicate = 0.01) ?(delay = 0.05)
    ?(max_delay = Vtime.span_ms 100) () =
  if drop < 0. || duplicate < 0. || delay < 0. || drop +. duplicate +. delay > 1.
  then invalid_arg "Faults.lossy: probabilities must be >= 0 and sum to <= 1";
  { cf_drop = drop; cf_duplicate = duplicate; cf_delay = delay; cf_max_delay = max_delay }

type fate = Deliver | Drop | Duplicate | Delay of Vtime.span

let fate rng p =
  let u = Rng.float rng 1.0 in
  if u < p.cf_drop then Drop
  else if u < p.cf_drop +. p.cf_duplicate then Duplicate
  else if u < p.cf_drop +. p.cf_duplicate +. p.cf_delay then
    Delay (Vtime.span_s (Rng.float rng (Vtime.span_to_s p.cf_max_delay)))
  else Deliver

let transmit engine ~entity ?(exempt = false) faults send =
  match faults with
  | None ->
      send ();
      Deliver
  | Some (rng, profile) -> (
      match fate rng profile with
      | (Drop | Duplicate) when exempt ->
          send ();
          Deliver
      | Deliver ->
          send ();
          Deliver
      | Drop -> Drop
      | Duplicate ->
          send ();
          send ();
          Duplicate
      | Delay span as f ->
          ignore (Engine.schedule ~entity engine span send);
          f)

type plan = {
  events : timed list;
  control_faults : chan_profile option;
  rpc_faults : chan_profile option;
}

let empty = { events = []; control_faults = None; rpc_faults = None }

let plan ?control_faults ?rpc_faults events =
  { events; control_faults; rpc_faults }

let is_empty p = p.events = [] && p.control_faults = None && p.rpc_faults = None

type injector = {
  inj_link : up:bool -> link_ref -> unit;
  inj_switch : up:bool -> int64 -> unit;
  inj_vm_boot_failure : dpid:int64 -> failures:int -> unit;
  inj_controller : up:bool -> int -> unit;
  inj_partition : (int list * int list) option -> unit;
}

type handle = {
  mutable fired : int;
  mutable last_at : Vtime.t option;
}

let dispatch inj = function
  | Link_down l -> inj.inj_link ~up:false l
  | Link_up l -> inj.inj_link ~up:true l
  | Switch_crash d -> inj.inj_switch ~up:false d
  | Switch_recover d -> inj.inj_switch ~up:true d
  | Vm_boot_failure { dpid; failures } -> inj.inj_vm_boot_failure ~dpid ~failures
  | Controller_crash r -> inj.inj_controller ~up:false r
  | Controller_recover r -> inj.inj_controller ~up:true r
  | Controller_partition { cp_a; cp_b } -> inj.inj_partition (Some (cp_a, cp_b))
  | Controller_heal -> inj.inj_partition None

(* Injections targeting one switch link into that switch's open
   configuration span, so a span tree shows which faults landed inside
   which phase. *)
let span_of_event engine = function
  | Switch_crash d | Switch_recover d | Vm_boot_failure { dpid = d; _ } ->
      Rf_obs.Phase.current (Engine.tracer engine) Configure d
  | Link_down _ | Link_up _ | Controller_crash _ | Controller_recover _
  | Controller_partition _ | Controller_heal ->
      None

let schedule engine inj p =
  let h = { fired = 0; last_at = None } in
  let injections =
    Rf_obs.Metrics.counter (Engine.metrics engine)
      ~help:"Fault-plan events fired" "fault_injections_total"
  in
  List.iter
    (fun { at; ev } ->
      let fire () =
        h.fired <- h.fired + 1;
        h.last_at <- Some (Engine.now engine);
        Rf_obs.Metrics.incr injections;
        Engine.record engine
          ?span:(span_of_event engine ev)
          ~component:"faults" ~event:"inject"
          (Format.asprintf "%a" pp_event ev);
        dispatch inj ev
      in
      let now = Engine.now engine in
      if Vtime.(at < now) then fire ()
      else
        ignore
          (Engine.schedule_at
             ~entity:(Rf_obs.Profiler.component "faults")
             engine at fire))
    p.events;
  h

let fired_count h = h.fired

let last_fired_at h = h.last_at
