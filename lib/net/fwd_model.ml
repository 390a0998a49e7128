open Rf_packet
module Of_match = Rf_openflow.Of_match
module Of_action = Rf_openflow.Of_action
module Of_port = Rf_openflow.Of_port

type verdict = Delivered | Blackhole | Loop

let verdict_to_string = function
  | Delivered -> "delivered"
  | Blackhole -> "blackhole"
  | Loop -> "loop"

type t = {
  tables : (int64, Flow_table.t) Hashtbl.t;
  peers : (int64 * int, int64 * int) Hashtbl.t;
  down : (int64 * int, unit) Hashtbl.t;
  hosts : (int64, (int * Ipv4_addr.Prefix.t) list) Hashtbl.t;
      (* per switch, lowest port first *)
}

let create () =
  {
    tables = Hashtbl.create 64;
    peers = Hashtbl.create 256;
    down = Hashtbl.create 16;
    hosts = Hashtbl.create 64;
  }

let add_switch t dpid table = Hashtbl.replace t.tables dpid table

let table t dpid = Hashtbl.find_opt t.tables dpid

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

let hosts_of t dpid = Option.value (Hashtbl.find_opt t.hosts dpid) ~default:[]

let add_host t ~dpid ~port prefix =
  Hashtbl.replace t.hosts dpid
    (List.sort
       (fun (p1, _) (p2, _) -> Int.compare p1 p2)
       ((port, prefix) :: hosts_of t dpid))

let host_port t dpid =
  match hosts_of t dpid with [] -> None | first :: _ -> Some first

(* RouteFlow's data plane is reactive at the edge: the destination
   switch installs host /32s only after its VM has ARP-resolved the
   host, so a packet that matches no entry at a switch owning a
   connected prefix covering its destination is not blackholed — it
   goes packet-in to the VM's slow path, which ARPs and delivers. *)
let local_delivery t dpid nw_dst =
  List.exists
    (fun (_, prefix) -> Ipv4_addr.Prefix.mem nw_dst prefix)
    (hosts_of t dpid)

(* The entry's MAC rewrites applied to [key], and its first usable
   physical output (OFPP_IN_PORT resolved against the ingress port).
   RouteFlow installs unicast entries, so following one output is
   exact for the audited system; synthetic multi-output entries follow
   their first port, and the test oracle mirrors that convention. *)
let rec follow ~in_port (key : Of_match.key) out = function
  | [] -> (key, out)
  | Of_action.Set_dl_src m :: rest ->
      follow ~in_port { key with Of_match.dl_src = m } out rest
  | Of_action.Set_dl_dst m :: rest ->
      follow ~in_port { key with Of_match.dl_dst = m } out rest
  | Of_action.Output { port; _ } :: rest when out = None ->
      let p = if port = Of_port.in_port then in_port else port in
      follow ~in_port key (if Of_port.is_physical p then Some p else None) rest
  | _ :: rest -> follow ~in_port key out rest

let walk t ~dpid ~in_port key =
  let seen = Hashtbl.create 16 in
  let rec go dpid in_port (key : Of_match.key) trail =
    if Hashtbl.mem seen (dpid, in_port) then (Loop, trail)
    else begin
      Hashtbl.add seen (dpid, in_port) ();
      let trail = if List.mem dpid trail then trail else dpid :: trail in
      let key = { key with Of_match.in_port } in
      let hit =
        match table t dpid with
        | Some tbl -> Flow_table.lookup tbl key
        | None -> None
      in
      match hit with
      | None ->
          if local_delivery t dpid key.Of_match.nw_dst then (Delivered, trail)
          else (Blackhole, trail)
      | Some e -> (
          match follow ~in_port key None e.Flow_table.e_actions with
          | _, None -> (Blackhole, trail)
          | key, Some port -> (
              match List.assoc_opt port (hosts_of t dpid) with
              | Some prefix ->
                  if Ipv4_addr.Prefix.mem key.Of_match.nw_dst prefix then
                    (Delivered, trail)
                  else (Blackhole, trail)
              | None -> (
                  if Hashtbl.mem t.down (dpid, port) then (Blackhole, trail)
                  else
                    match Hashtbl.find_opt t.peers (dpid, port) with
                    | None -> (Blackhole, trail)
                    | Some (d2, p2) -> go d2 p2 key trail)))
    end
  in
  let verdict, trail = go dpid in_port key [] in
  (verdict, List.rev trail)
