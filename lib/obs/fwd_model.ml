open Rf_packet
module Of_match = Rf_openflow.Of_match
module Of_action = Rf_openflow.Of_action
module Of_port = Rf_openflow.Of_port

type rule = {
  ru_match : Of_match.t;
  ru_priority : int;
  ru_seq : int;
  ru_out_ports : int list;
  ru_set_dl_src : Mac.t option;
  ru_set_dl_dst : Mac.t option;
}

let rule_of_actions ~match_ ~priority ~seq actions =
  let out_ports = Of_action.outputs actions in
  let last f =
    List.fold_left (fun acc a -> match f a with Some _ as s -> s | None -> acc)
      None actions
  in
  {
    ru_match = match_;
    ru_priority = priority;
    ru_seq = seq;
    ru_out_ports = out_ports;
    ru_set_dl_src = last (function Of_action.Set_dl_src m -> Some m | _ -> None);
    ru_set_dl_dst = last (function Of_action.Set_dl_dst m -> Some m | _ -> None);
  }

type verdict = Delivered of int64 * int | Blackhole of int64 | Loop of int64 list

let verdict_to_string = function
  | Delivered _ -> "delivered"
  | Blackhole _ -> "blackhole"
  | Loop _ -> "loop"

(* Priority descending, then installation order — the Flow_table
   lookup order — then the whole rule, so that two snapshots diff as
   sorted lists. *)
let compare_rules a b =
  match Int.compare b.ru_priority a.ru_priority with
  | 0 -> ( match Int.compare a.ru_seq b.ru_seq with 0 -> compare a b | c -> c)
  | c -> c

type t = {
  switches : (int64, rule array) Hashtbl.t;
  peers : (int64 * int, int64 * int) Hashtbl.t;
  down : (int64 * int, unit) Hashtbl.t;
  host_ports : (int64 * int, Ipv4_addr.Prefix.t) Hashtbl.t;
}

let create () =
  {
    switches = Hashtbl.create 64;
    peers = Hashtbl.create 256;
    down = Hashtbl.create 16;
    host_ports = Hashtbl.create 64;
  }

let add_switch t dpid =
  if not (Hashtbl.mem t.switches dpid) then Hashtbl.replace t.switches dpid [||]

let set_switch_rules t dpid rules =
  let a = Array.of_list rules in
  Array.sort compare_rules a;
  Hashtbl.replace t.switches dpid a

let switch_rules t dpid =
  match Hashtbl.find_opt t.switches dpid with
  | None -> []
  | Some a -> Array.to_list a

let switches t =
  Hashtbl.fold (fun d _ acc -> d :: acc) t.switches []
  |> List.sort Int64.compare

let add_link t ~a ~b =
  Hashtbl.replace t.peers a b;
  Hashtbl.replace t.peers b a

let set_link_state t ~a ~b up =
  add_link t ~a ~b;
  if up then begin
    Hashtbl.remove t.down a;
    Hashtbl.remove t.down b
  end
  else begin
    Hashtbl.replace t.down a ();
    Hashtbl.replace t.down b ()
  end

let add_host t ~dpid ~port prefix =
  Hashtbl.replace t.host_ports (dpid, port) prefix

let host_port t dpid =
  Hashtbl.fold
    (fun (d, p) prefix acc ->
      if Int64.equal d dpid then
        match acc with
        | Some (p0, _) when p0 <= p -> acc
        | _ -> Some (p, prefix)
      else acc)
    t.host_ports None

(* RouteFlow's data plane is reactive at the edge: the destination
   switch installs host /32s only after its VM has ARP-resolved the
   host, so a packet that matches no rule at a switch owning a
   connected prefix covering its destination is not blackholed — it
   goes packet-in to the VM's slow path, which ARPs and delivers.
   Lowest port wins for determinism. *)
let local_delivery t dpid nw_dst =
  Hashtbl.fold
    (fun (d, p) prefix acc ->
      if Int64.equal d dpid && Ipv4_addr.Prefix.mem nw_dst prefix then
        match acc with Some p0 when p0 <= p -> acc | _ -> Some p
      else acc)
    t.host_ports None

let first_match rules (key : Of_match.key) =
  let n = Array.length rules in
  let rec go i =
    if i >= n then None
    else if Of_match.matches rules.(i).ru_match key then Some rules.(i)
    else go (i + 1)
  in
  go 0

let apply_rewrites ru (key : Of_match.key) =
  let key =
    match ru.ru_set_dl_src with
    | Some m -> { key with Of_match.dl_src = m }
    | None -> key
  in
  match ru.ru_set_dl_dst with
  | Some m -> { key with Of_match.dl_dst = m }
  | None -> key

(* The first usable physical output of a rule (OFPP_IN_PORT resolved
   against the ingress port). RouteFlow installs unicast rules, so
   following one output is exact for the audited system; synthetic
   multi-output rules follow their first port, and the test oracle
   mirrors that convention. *)
let first_physical ~in_port ports =
  let rec go = function
    | [] -> None
    | p :: rest ->
        let p = if p = Of_port.in_port then in_port else p in
        if Of_port.is_physical p then Some p else go rest
  in
  go ports

let walk t ~dpid ~in_port key =
  let seen = Hashtbl.create 16 in
  let rec go dpid in_port (key : Of_match.key) trail =
    if Hashtbl.mem seen (dpid, in_port) then (Loop (List.rev trail), trail)
    else begin
      Hashtbl.add seen (dpid, in_port) ();
      let trail = if List.mem dpid trail then trail else dpid :: trail in
      match Hashtbl.find_opt t.switches dpid with
      | None -> (Blackhole dpid, trail)
      | Some rules -> (
          let key = { key with Of_match.in_port } in
          match first_match rules key with
          | None -> (
              match local_delivery t dpid key.Of_match.nw_dst with
              | Some port -> (Delivered (dpid, port), trail)
              | None -> (Blackhole dpid, trail))
          | Some ru -> (
              let key = apply_rewrites ru key in
              match first_physical ~in_port ru.ru_out_ports with
              | None -> (Blackhole dpid, trail)
              | Some port -> (
                  match Hashtbl.find_opt t.host_ports (dpid, port) with
                  | Some prefix ->
                      if Ipv4_addr.Prefix.mem key.Of_match.nw_dst prefix then
                        (Delivered (dpid, port), trail)
                      else (Blackhole dpid, trail)
                  | None -> (
                      if Hashtbl.mem t.down (dpid, port) then
                        (Blackhole dpid, trail)
                      else
                        match Hashtbl.find_opt t.peers (dpid, port) with
                        | None -> (Blackhole dpid, trail)
                        | Some (d2, p2) -> go d2 p2 key trail))))
    end
  in
  let verdict, trail = go dpid in_port key [] in
  (verdict, List.rev trail)
