open Rf_packet

type t = {
  name : string;
  mac : Mac.t;
  mutable ip : Ipv4_addr.t;
  mutable prefix_len : int;
  mutable up : bool;
  mutable transmit : (string -> unit) option;
  mutable receivers : (Packet.t -> unit) list;
  mutable state_listeners : (bool -> unit) list;
  mutable address_listeners : (unit -> unit) list;
  mutable rx : int;
}

let create ~name ~mac ?(ip = Ipv4_addr.any) ?(prefix_len = 0) () =
  {
    name;
    mac;
    ip;
    prefix_len;
    up = true;
    transmit = None;
    receivers = [];
    state_listeners = [];
    address_listeners = [];
    rx = 0;
  }

let name t = t.name

let mac t = t.mac

let ip t = t.ip

let prefix_len t = t.prefix_len

let is_addressed t = not (Ipv4_addr.equal t.ip Ipv4_addr.any)

let set_address t ~ip ~prefix_len =
  if not (Ipv4_addr.equal t.ip ip && t.prefix_len = prefix_len) then begin
    t.ip <- ip;
    t.prefix_len <- prefix_len;
    List.iter (fun f -> f ()) t.address_listeners
  end

let prefix t = Ipv4_addr.Prefix.make t.ip t.prefix_len

let netmask t = Ipv4_addr.Prefix.mask (prefix t)

let is_up t = t.up

let set_up t up =
  if t.up <> up then begin
    t.up <- up;
    List.iter (fun f -> f up) t.state_listeners
  end

let set_transmit t f = t.transmit <- Some f

let send t frame =
  if t.up then begin
    match t.transmit with
    | Some f -> f frame
    | None -> ()
  end

let deliver t frame =
  if t.up then begin
    t.rx <- t.rx + 1;
    if t.receivers <> [] then
      match Packet.parse frame with
      | Ok pkt -> List.iter (fun f -> f pkt) t.receivers
      | Error _ -> ()
  end

let add_receiver t f = t.receivers <- t.receivers @ [ f ]

let add_state_listener t f = t.state_listeners <- t.state_listeners @ [ f ]

let add_address_listener t f = t.address_listeners <- t.address_listeners @ [ f ]

let frames_received t = t.rx
