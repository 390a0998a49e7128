type milestone =
  | Switch_detected of int64
  | Link_detected of string
  | Vm_boot_started of int64
  | Vm_ready of int64
  | Vm_configured of int64

type entry = { at : Rf_sim.Vtime.t; milestone : milestone }

let dpid_of_detail detail =
  (* details look like "sw7 ports=3" or "vm-7" *)
  let digits =
    String.to_seq detail
    |> Seq.drop_while (fun c -> not (c >= '0' && c <= '9'))
    |> Seq.take_while (fun c -> c >= '0' && c <= '9')
    |> String.of_seq
  in
  Int64.of_string_opt digits

let of_event (ev : Rf_obs.Tracer.event) =
  let at = Rf_sim.Vtime.of_us ev.time_us in
  let with_dpid make =
    Option.map (fun d -> { at; milestone = make d }) (dpid_of_detail ev.detail)
  in
  match (ev.component, ev.kind) with
  | "autoconf", "switch-detected" -> with_dpid (fun d -> Switch_detected d)
  | "autoconf", "link-detected" ->
      Some { at; milestone = Link_detected ev.detail }
  | "rf-server", "vm-boot-start" -> with_dpid (fun d -> Vm_boot_started d)
  | "rf-server", "vm-ready" -> with_dpid (fun d -> Vm_ready d)
  | "rf-server", "configured" -> with_dpid (fun d -> Vm_configured d)
  | _ -> None

let of_scenario s =
  List.filter_map of_event
    (Rf_obs.Tracer.events (Rf_sim.Engine.tracer (Scenario.engine s)))

type summary = {
  switches_detected : int;
  links_detected : int;
  vms_ready : int;
  vms_configured : int;
  first_detection_s : float option;
  last_vm_ready_s : float option;
  last_configured_s : float option;
}

let summarize entries =
  let count f = List.length (List.filter f entries) in
  let times f =
    List.filter_map
      (fun e -> if f e then Some (Rf_sim.Vtime.to_s e.at) else None)
      entries
  in
  let kind_detected e =
    match e.milestone with
    | Switch_detected _ | Link_detected _ -> true
    | Vm_boot_started _ | Vm_ready _ | Vm_configured _ -> false
  in
  let ready e = match e.milestone with Vm_ready _ -> true | _ -> false in
  let configured e =
    match e.milestone with Vm_configured _ -> true | _ -> false
  in
  let last l = match List.rev l with x :: _ -> Some x | [] -> None in
  {
    switches_detected =
      count (fun e ->
          match e.milestone with Switch_detected _ -> true | _ -> false);
    links_detected =
      count (fun e -> match e.milestone with Link_detected _ -> true | _ -> false);
    vms_ready = count ready;
    vms_configured =
      List.sort_uniq compare
        (List.filter_map
           (fun e ->
             match e.milestone with Vm_configured d -> Some d | _ -> None)
           entries)
      |> List.length;
    first_detection_s =
      (match times kind_detected with x :: _ -> Some x | [] -> None);
    last_vm_ready_s = last (times ready);
    last_configured_s = last (times configured);
  }

let pp_milestone ppf = function
  | Switch_detected d -> Format.fprintf ppf "switch %Ld detected" d
  | Link_detected desc -> Format.fprintf ppf "link detected: %s" desc
  | Vm_boot_started d -> Format.fprintf ppf "vm-%Ld clone+boot started" d
  | Vm_ready d -> Format.fprintf ppf "vm-%Ld ready (switch green)" d
  | Vm_configured d -> Format.fprintf ppf "vm-%Ld configured (files written)" d

let render entries =
  let b = Buffer.create 1024 in
  List.iter
    (fun e ->
      Buffer.add_string b
        (Format.asprintf "[%a] %a\n" Rf_sim.Vtime.pp e.at pp_milestone
           e.milestone))
    entries;
  Buffer.contents b
