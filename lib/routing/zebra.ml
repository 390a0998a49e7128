type t = {
  hostname : string;
  rib : Rib.t;
  mutable ifaces : Iface.t list;
}

let create ~hostname () = { hostname; rib = Rib.create (); ifaces = [] }

let rib t = t.rib

let connected_route ifc =
  {
    Rib.r_prefix = Iface.prefix ifc;
    r_proto = Rib.Connected;
    r_distance = Rib.default_distance Rib.Connected;
    r_metric = 0;
    r_next_hop = None;
    r_iface = Iface.name ifc;
  }

let add_interface t ifc =
  t.ifaces <- t.ifaces @ [ ifc ];
  if Iface.is_up ifc && Iface.is_addressed ifc then
    Rib.update t.rib (connected_route ifc);
  Iface.add_state_listener ifc (fun up ->
      if not (Iface.is_addressed ifc) then ()
      else if up then Rib.update t.rib (connected_route ifc)
      else Rib.withdraw t.rib Rib.Connected (Iface.prefix ifc));
  (* Re-addressing replaces the connected route. The old prefix is not
     tracked here: RouteFlow addresses each NIC exactly once. *)
  Iface.add_address_listener ifc (fun () ->
      if Iface.is_up ifc && Iface.is_addressed ifc then
        Rib.update t.rib (connected_route ifc))

let add_static t prefix next_hop =
  Rib.update t.rib
    {
      Rib.r_prefix = prefix;
      r_proto = Rib.Static;
      r_distance = Rib.default_distance Rib.Static;
      r_metric = 0;
      r_next_hop = Some next_hop;
      r_iface = "";
    }

(* Addresses the interfaces in config order, stopping at the first
   unknown name; the statics go in only once every address is set. *)
let apply_config t (c : Quagga_conf.zebra_conf) =
  let rec address = function
    | [] -> Ok ()
    | (ic : Quagga_conf.iface_conf) :: rest -> (
        let named i = String.equal (Iface.name i) ic.ic_name in
        match List.find_opt named t.ifaces with
        | None ->
            Error
              (Printf.sprintf "zebra %s: no such interface %s" t.hostname
                 ic.ic_name)
        | Some ifc ->
            Iface.set_address ifc ~ip:ic.ic_ip ~prefix_len:ic.ic_prefix_len;
            address rest)
  in
  Result.map
    (fun () ->
      List.iter
        (fun (s : Quagga_conf.static_route) ->
          add_static t s.sr_prefix s.sr_next_hop)
        c.z_statics)
    (address c.z_ifaces)

let connected_routes t =
  List.filter (fun r -> r.Rib.r_proto = Rib.Connected) (Rib.selected t.rib)
