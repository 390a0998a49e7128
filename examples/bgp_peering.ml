(* Inter-domain routing on the Quagga substrate: two OSPF domains, each
   a 3-router line, joined by an eBGP session between their border
   routers — the bgpd.conf side of the routing control platform the
   paper's framework configures.

   Domain A (AS 65001):  a1 -- a2 -- a3(border)
   Domain B (AS 65002):  b1(border) -- b2 -- b3
   eBGP:                 a3 ==== b1

   Run with:  dune exec examples/bgp_peering.exe *)

open Rf_packet
open Rf_routing
module Engine = Rf_sim.Engine
module Vtime = Rf_sim.Vtime

let ip = Ipv4_addr.of_string_exn

let pfx = Ipv4_addr.Prefix.of_string_exn

let join engine a b =
  Iface.set_transmit a (fun f ->
      ignore (Engine.schedule engine (Vtime.span_ms 2) (fun () -> Iface.deliver b f)));
  Iface.set_transmit b (fun f ->
      ignore (Engine.schedule engine (Vtime.span_ms 2) (fun () -> Iface.deliver a f)))

type router = { name : string; zebra : Zebra.t; rib : Rib.t; ospf : Ospfd.t }

(* Zebra owns each router's interfaces and connected routes; ospfd
   shares its RIB. *)
let make_router engine ~name ~rid =
  let zebra = Zebra.create ~hostname:name () in
  let rib = Zebra.rib zebra in
  let ospf = Ospfd.create engine (Ospfd.default_config ~router_id:(ip rid)) rib in
  { name; zebra; rib; ospf }

let add_iface r ?passive ifc =
  Zebra.add_interface r.zebra ifc;
  Ospfd.add_interface r.ospf ?passive ifc

(* A 3-router OSPF line with stubs [base].{1,2,3}.0/24 and transfer
   nets under [tbase]. *)
let build_domain engine ~names ~rids ~base ~tbase ~mac_base =
  let routers =
    Array.init 3 (fun i -> make_router engine ~name:names.(i) ~rid:rids.(i))
  in
  Array.iteri
    (fun i r ->
      let stub =
        Iface.create
          ~name:(Printf.sprintf "stub%d" i)
          ~mac:(Mac.make_local (mac_base + i))
          ~ip:(ip (Printf.sprintf "%s.%d.1" base (i + 1)))
          ~prefix_len:24 ()
      in
      add_iface r ~passive:true stub)
    routers;
  for i = 0 to 1 do
    let ia =
      Iface.create
        ~name:(Printf.sprintf "r%d" i)
        ~mac:(Mac.make_local (mac_base + 10 + (2 * i)))
        ~ip:(ip (Printf.sprintf "%s.%d.1" tbase i))
        ~prefix_len:30 ()
    in
    let ib =
      Iface.create
        ~name:(Printf.sprintf "l%d" (i + 1))
        ~mac:(Mac.make_local (mac_base + 11 + (2 * i)))
        ~ip:(ip (Printf.sprintf "%s.%d.2" tbase i))
        ~prefix_len:30 ()
    in
    join engine ia ib;
    add_iface routers.(i) ia;
    add_iface routers.(i + 1) ib
  done;
  Array.iter (fun r -> Ospfd.start r.ospf) routers;
  routers

let () =
  let engine = Engine.create () in
  let domain_a =
    build_domain engine
      ~names:[| "a1"; "a2"; "a3" |]
      ~rids:[| "10.255.1.1"; "10.255.1.2"; "10.255.1.3" |]
      ~base:"10.1" ~tbase:"172.21" ~mac_base:100
  in
  let domain_b =
    build_domain engine
      ~names:[| "b1"; "b2"; "b3" |]
      ~rids:[| "10.255.2.1"; "10.255.2.2"; "10.255.2.3" |]
      ~base:"10.2" ~tbase:"172.22" ~mac_base:200
  in
  let a3 = domain_a.(2) and b1 = domain_b.(0) in

  (* The eBGP session between the borders, over a dedicated channel
     (the 192.168.100.0/30 inter-domain link). *)
  let bgp_a = Bgpd.create engine ~asn:65001 ~router_id:(ip "10.255.1.3") a3.rib in
  let bgp_b = Bgpd.create engine ~asn:65002 ~router_id:(ip "10.255.2.1") b1.rib in
  let ea, eb = Rf_net.Channel.create engine ~latency:(Vtime.span_ms 5) () in
  let peer_a =
    Bgpd.add_peer bgp_a ~remote_asn:65002 ~next_hop_hint:(ip "192.168.100.1")
      ~send:(Rf_net.Channel.send ea)
  in
  let peer_b =
    Bgpd.add_peer bgp_b ~remote_asn:65001 ~next_hop_hint:(ip "192.168.100.2")
      ~send:(Rf_net.Channel.send eb)
  in
  Rf_net.Channel.set_receiver ea (fun bytes -> Bgpd.input peer_a bytes);
  Rf_net.Channel.set_receiver eb (fun bytes -> Bgpd.input peer_b bytes);
  Bgpd.start_peer peer_a;
  Bgpd.start_peer peer_b;

  (* Let OSPF converge inside both domains, then originate each
     domain's prefixes into BGP (Quagga: `network` statements in
     bgpd.conf). *)
  ignore (Engine.run ~until:(Vtime.of_s 30.0) engine);
  List.iter (fun p -> Bgpd.announce bgp_a (pfx p)) [ "10.1.1.0/24"; "10.1.2.0/24"; "10.1.3.0/24" ];
  List.iter (fun p -> Bgpd.announce bgp_b (pfx p)) [ "10.2.1.0/24"; "10.2.2.0/24"; "10.2.3.0/24" ];
  ignore (Engine.run ~until:(Vtime.of_s 60.0) engine);

  (* The bgpd.conf the autoconfig framework would write for a3. *)
  let conf =
    Quagga_conf.generate_bgpd
      {
        Quagga_conf.b_hostname = "a3";
        b_asn = 65001;
        b_router_id = ip "10.255.1.3";
        b_neighbors = [ (ip "192.168.100.2", 65002) ];
        b_networks = [ pfx "10.1.1.0/24"; pfx "10.1.2.0/24"; pfx "10.1.3.0/24" ];
      }
  in
  Format.printf "bgpd.conf for border a3:@.%s@." conf;

  Format.printf "=== a3: show ip bgp summary ===@.%s@." (Show.ip_bgp_summary bgp_a);
  Format.printf "=== a3: show ip route (OSPF intra-domain + BGP inter-domain) ===@.%s@."
    (Show.ip_route a3.rib);
  Format.printf "=== b1: show ip route ===@.%s@." (Show.ip_route b1.rib);

  (* Sanity: a3 reaches domain B's farthest stub via BGP; b1 reaches
     domain A's. *)
  (match Rib.best a3.rib (pfx "10.2.3.0/24") with
  | Some r ->
      Format.printf "a3 -> 10.2.3.0/24: %a@." Rib.pp_route r
  | None -> Format.printf "a3 has NO route to domain B!@.");
  match Rib.best b1.rib (pfx "10.1.1.0/24") with
  | Some r -> Format.printf "b1 -> 10.1.1.0/24: %a@." Rib.pp_route r
  | None -> Format.printf "b1 has NO route to domain A!@."
