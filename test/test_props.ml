(* Property-based tests: the OpenFlow and RPC wire codecs round-trip
   every message they can emit, [Packet.parse] returns what each frame
   builder encoded, every wire decoder is total on
   corrupted input, address parsing round-trips, and the prefix trie
   agrees with a naive longest-prefix-match scan. *)

open Rf_openflow
open Rf_packet
module G = QCheck.Gen

(* The nightly CI job sets QCHECK_LONG to multiply every iteration
   count; interactive runs keep the fast defaults. *)
let long_factor =
  match Sys.getenv_opt "QCHECK_LONG" with
  | None | Some "" | Some "0" -> 1
  | Some _ -> 10

let prop ?(count = 300) name gen print f =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count:(count * long_factor)
       (QCheck.make ~print gen) f)

(* --- generators ----------------------------------------------------- *)

let gen_u8 = G.int_range 0 0xff

let gen_u16 = G.int_range 0 0xffff

let gen_mac = G.map Mac.of_bytes (G.string_size ~gen:G.char (G.return 6))

let gen_ip = G.map Ipv4_addr.of_int32 G.int32

(* Length 0 encodes as a full wildcard on the wire, so matches carry
   1..32. *)
let gen_prefix =
  G.map2
    (fun a len -> Ipv4_addr.Prefix.make (Ipv4_addr.of_int32 a) len)
    G.int32 (G.int_range 1 32)

(* 0xffffffff is the "no buffer" sentinel. *)
let gen_buffer_opt =
  G.opt (G.map (fun b -> if Int32.equal b (-1l) then 0l else b) G.ui32)

(* 0xffff is Of_port.none, the "no port filter" sentinel. *)
let gen_out_port_opt = G.opt (G.int_range 0 (Of_port.none - 1))

let gen_small_string = G.string_size ~gen:G.char (G.int_range 0 64)

(* NUL terminates fixed-width name fields on the wire. *)
let gen_name len = G.string_size ~gen:G.printable (G.int_range 0 len)

let gen_match =
  let open G in
  let* m_in_port = opt gen_u16 in
  let* m_dl_src = opt gen_mac in
  let* m_dl_dst = opt gen_mac in
  let* m_dl_vlan = opt gen_u16 in
  let* m_dl_pcp = opt gen_u8 in
  let* m_dl_type = opt gen_u16 in
  let* m_nw_tos = opt gen_u8 in
  let* m_nw_proto = opt gen_u8 in
  let* m_nw_src = opt gen_prefix in
  let* m_nw_dst = opt gen_prefix in
  let* m_tp_src = opt gen_u16 in
  let* m_tp_dst = opt gen_u16 in
  return
    {
      Of_match.m_in_port;
      m_dl_src;
      m_dl_dst;
      m_dl_vlan;
      m_dl_pcp;
      m_dl_type;
      m_nw_tos;
      m_nw_proto;
      m_nw_src;
      m_nw_dst;
      m_tp_src;
      m_tp_dst;
    }

let gen_action =
  G.oneof
    [
      G.map2 (fun port max_len -> Of_action.Output { port; max_len }) gen_u16 gen_u16;
      G.map (fun m -> Of_action.Set_dl_src m) gen_mac;
      G.map (fun m -> Of_action.Set_dl_dst m) gen_mac;
      G.map (fun ip -> Of_action.Set_nw_src ip) gen_ip;
      G.map (fun ip -> Of_action.Set_nw_dst ip) gen_ip;
      G.map (fun t -> Of_action.Set_nw_tos t) gen_u8;
      G.map (fun p -> Of_action.Set_tp_src p) gen_u16;
      G.map (fun p -> Of_action.Set_tp_dst p) gen_u16;
      G.return Of_action.Strip_vlan;
    ]

let gen_actions = G.list_size (G.int_range 0 4) gen_action

let gen_phys_port =
  let open G in
  let* port_no = gen_u16 in
  let* hw_addr = gen_mac in
  let* name = gen_name 15 in
  let* up = bool in
  return { Of_msg.port_no; hw_addr; name; up }

let gen_flow_mod =
  let open G in
  let* fm_match = gen_match in
  let* fm_cookie = ui64 in
  let* fm_command =
    oneofl Of_msg.[ Add; Modify; Modify_strict; Delete; Delete_strict ]
  in
  let* fm_idle_timeout = gen_u16 in
  let* fm_hard_timeout = gen_u16 in
  let* fm_priority = gen_u16 in
  let* fm_buffer_id = gen_buffer_opt in
  let* fm_out_port = gen_out_port_opt in
  let* fm_notify_removed = bool in
  let* fm_actions = gen_actions in
  return
    {
      Of_msg.fm_match;
      fm_cookie;
      fm_command;
      fm_idle_timeout;
      fm_hard_timeout;
      fm_priority;
      fm_buffer_id;
      fm_out_port;
      fm_notify_removed;
      fm_actions;
    }

let gen_flow_stats =
  let open G in
  let* fs_match = gen_match in
  let* fs_priority = gen_u16 in
  let* fs_cookie = ui64 in
  let* fs_duration_s = int_range 0 1_000_000 in
  let* fs_packet_count = ui64 in
  let* fs_byte_count = ui64 in
  let* fs_actions = gen_actions in
  return
    {
      Of_msg.fs_match;
      fs_priority;
      fs_cookie;
      fs_duration_s;
      fs_packet_count;
      fs_byte_count;
      fs_actions;
    }

let gen_port_stats =
  let open G in
  let* ps_port_no = gen_u16 in
  let* ps_rx_packets = ui64 in
  let* ps_tx_packets = ui64 in
  let* ps_rx_bytes = ui64 in
  let* ps_tx_bytes = ui64 in
  let* ps_rx_dropped = ui64 in
  let* ps_tx_dropped = ui64 in
  return
    {
      Of_msg.ps_port_no;
      ps_rx_packets;
      ps_tx_packets;
      ps_rx_bytes;
      ps_tx_bytes;
      ps_rx_dropped;
      ps_tx_dropped;
    }

let gen_payload =
  let open G in
  oneof
    [
      return Of_msg.Hello;
      return Of_msg.Features_request;
      return Of_msg.Get_config_request;
      return Of_msg.Barrier_request;
      return Of_msg.Barrier_reply;
      (let* err_type = gen_u16 in
       let* err_code = gen_u16 in
       let* err_data = gen_small_string in
       return (Of_msg.Error { err_type; err_code; err_data }));
      map (fun d -> Of_msg.Echo_request d) gen_small_string;
      map (fun d -> Of_msg.Echo_reply d) gen_small_string;
      (let* vendor = ui32 in
       let* data = gen_small_string in
       return (Of_msg.Vendor { vendor; data }));
      (let* datapath_id = ui64 in
       let* n_buffers = ui32 in
       let* n_tables = gen_u8 in
       let* capabilities = ui32 in
       let* supported_actions = ui32 in
       let* ports = list_size (int_range 0 4) gen_phys_port in
       return
         (Of_msg.Features_reply
            {
              datapath_id;
              n_buffers;
              n_tables;
              capabilities;
              supported_actions;
              ports;
            }));
      (let* flags = gen_u16 in
       let* miss_send_len = gen_u16 in
       return (Of_msg.Get_config_reply { flags; miss_send_len }));
      (let* flags = gen_u16 in
       let* miss_send_len = gen_u16 in
       return (Of_msg.Set_config { flags; miss_send_len }));
      (let* pi_buffer_id = gen_buffer_opt in
       let* pi_total_len = gen_u16 in
       let* pi_in_port = gen_u16 in
       let* pi_reason = oneofl Of_msg.[ No_match; Action_to_controller ] in
       let* pi_data = gen_small_string in
       return
         (Of_msg.Packet_in
            { pi_buffer_id; pi_total_len; pi_in_port; pi_reason; pi_data }));
      (let* fr_match = gen_match in
       let* fr_cookie = ui64 in
       let* fr_priority = gen_u16 in
       let* fr_reason =
         oneofl Of_msg.[ Removed_idle; Removed_hard; Removed_delete ]
       in
       let* fr_duration_s = int_range 0 1_000_000 in
       let* fr_packet_count = ui64 in
       let* fr_byte_count = ui64 in
       return
         (Of_msg.Flow_removed
            {
              fr_match;
              fr_cookie;
              fr_priority;
              fr_reason;
              fr_duration_s;
              fr_packet_count;
              fr_byte_count;
            }));
      (let* reason = oneofl Of_msg.[ Port_add; Port_delete; Port_modify ] in
       let* desc = gen_phys_port in
       return (Of_msg.Port_status { reason; desc }));
      (let* po_buffer_id = gen_buffer_opt in
       let* po_in_port = gen_u16 in
       let* po_actions = gen_actions in
       let* po_data = gen_small_string in
       return (Of_msg.Packet_out { po_buffer_id; po_in_port; po_actions; po_data }));
      map (fun fm -> Of_msg.Flow_mod fm) gen_flow_mod;
      (let* pm_port_no = gen_u16 in
       let* pm_hw_addr = gen_mac in
       let* pm_down = bool in
       return (Of_msg.Port_mod { pm_port_no; pm_hw_addr; pm_down }));
      oneof
        [
          return (Of_msg.Stats_request Of_msg.Desc_req);
          (let* qf_match = gen_match in
           let* qf_out_port = gen_out_port_opt in
           return (Of_msg.Stats_request (Of_msg.Flow_req { qf_match; qf_out_port })));
          map (fun p -> Of_msg.Stats_request (Of_msg.Port_req p)) gen_u16;
        ];
      oneof
        [
          (let* manufacturer = gen_name 100 in
           let* hardware = gen_name 100 in
           let* software = gen_name 100 in
           let* serial = gen_name 31 in
           let* datapath_desc = gen_name 100 in
           return
             (Of_msg.Stats_reply
                (Of_msg.Desc_reply
                   { manufacturer; hardware; software; serial; datapath_desc })));
          map
            (fun entries -> Of_msg.Stats_reply (Of_msg.Flow_reply entries))
            (list_size (int_range 0 3) gen_flow_stats);
          map
            (fun entries -> Of_msg.Stats_reply (Of_msg.Port_reply entries))
            (list_size (int_range 0 3) gen_port_stats);
        ];
    ]

let gen_msg =
  let open G in
  let* xid = int32 in
  let* payload = gen_payload in
  return { Of_msg.xid; payload }

let print_msg = Format.asprintf "%a" Of_msg.pp

(* --- codec properties ------------------------------------------------ *)

let codec_roundtrip =
  prop "of_codec decode∘encode = id" gen_msg print_msg (fun m ->
      match Of_codec.of_wire (Of_codec.to_wire m) with
      | Ok m' -> m' = m
      | Error e -> QCheck.Test.fail_reportf "decode error: %s" e)

(* --- whole frames --------------------------------------------------- *)

let gen_link =
  let open G in
  let* link_id = gen_ip in
  let* link_data = gen_ip in
  let* link_type =
    oneofl
      [ Ospf_pkt.Point_to_point; Ospf_pkt.Transit; Ospf_pkt.Stub;
        Ospf_pkt.Virtual_link ]
  in
  let* metric = gen_u16 in
  return { Ospf_pkt.link_id; link_data; link_type; metric }

(* Types 1 and 2 decode as router and network LSAs, any other as an
   opaque body. *)
let gen_lsa =
  let open G in
  let* body =
    oneof
      [
        map
          (fun links -> Ospf_pkt.Router { links })
          (list_size (int_range 0 6) gen_link);
        map2
          (fun mask attached -> Ospf_pkt.Network { mask; attached })
          gen_ip (list_size (int_range 0 6) gen_ip);
        map2
          (fun lsa_type data -> Ospf_pkt.Opaque { lsa_type; data })
          (int_range 3 0xff) gen_small_string;
      ]
  in
  let* age = gen_u16 in
  let* options = gen_u8 in
  let* link_state_id = gen_ip in
  let* adv_router = gen_ip in
  let* seq = G.int32 in
  return (Ospf_pkt.make_lsa ~age ~options ~link_state_id ~adv_router ~seq body)

let gen_ospf =
  let open G in
  let headers =
    list_size (int_range 0 4) (map Ospf_pkt.header_of_lsa gen_lsa)
  in
  let* payload =
    oneof
      [
        (let* netmask = gen_ip in
         let* hello_interval = gen_u16 in
         let* dead_interval = int_range 0 0xffff_ffff in
         let* priority = gen_u8 in
         let* dr = gen_ip in
         let* bdr = gen_ip in
         let* neighbors = list_size (int_range 0 4) gen_ip in
         return
           (Ospf_pkt.Hello
              { netmask; hello_interval; dead_interval; priority; dr; bdr;
                neighbors }));
        (let* mtu = gen_u16 in
         let* dd_init = bool in
         let* dd_more = bool in
         let* dd_master = bool in
         let* dd_seq = G.int32 in
         let* headers = headers in
         return
           (Ospf_pkt.Db_desc
              { mtu; dd_init; dd_more; dd_master; dd_seq; headers }));
        map
          (fun keys -> Ospf_pkt.Ls_request keys)
          (list_size (int_range 0 4)
             (map3
                (fun k_type k_id k_adv -> { Ospf_pkt.k_type; k_id; k_adv })
                (int_range 0 0xffff_ffff) gen_ip gen_ip));
        map
          (fun lsas -> Ospf_pkt.Ls_update lsas)
          (list_size (int_range 0 4) gen_lsa);
        map (fun hs -> Ospf_pkt.Ls_ack hs) headers;
      ]
  in
  let* router_id = gen_ip in
  let* area_id = gen_ip in
  return { Ospf_pkt.router_id; area_id; payload }

let gen_tlv =
  let open G in
  let id = string_size ~gen:char (int_range 0 32) in
  oneof
    [
      map2 (fun subtype value -> Lldp.Chassis_id { subtype; value }) gen_u8 id;
      map2 (fun subtype value -> Lldp.Port_id { subtype; value }) gen_u8 id;
      map (fun ttl -> Lldp.Ttl ttl) gen_u16;
      map (fun name -> Lldp.System_name name) gen_small_string;
      map2
        (fun typ value -> Lldp.Custom { typ; value })
        (oneof [ return 4; int_range 6 127 ])
        gen_small_string;
    ]

let gen_icmp =
  let open G in
  oneof
    [
      map3
        (fun ident seq payload -> Icmp.Echo_request { ident; seq; payload })
        gen_u16 gen_u16 gen_small_string;
      map3
        (fun ident seq payload -> Icmp.Echo_reply { ident; seq; payload })
        gen_u16 gen_u16 gen_small_string;
      map2
        (fun code original -> Icmp.Dest_unreachable { code; original })
        gen_u8 gen_small_string;
      map (fun original -> Icmp.Time_exceeded { original }) gen_small_string;
    ]

(* A frame from one of [Packet]'s builders, and the packet [parse] must
   return for it. An IPv4 payload is the rest of the frame past the
   20-byte header. *)
let gen_built_frame =
  let open G in
  let* src = gen_mac in
  let* dst = gen_mac in
  let* src_ip = gen_ip in
  let* dst_ip = gen_ip in
  let eth ethertype = { Ethernet.dst; src; ethertype } in
  let ip_packet frame ~tos ~ttl ~protocol l4 =
    let ip =
      { Ipv4.tos; ident = 0; ttl; protocol; src = src_ip; dst = dst_ip;
        payload = String.sub frame 34 (String.length frame - 34) }
    in
    ( frame,
      { Packet.eth = eth Ethernet.ethertype_ipv4; l3 = Packet.Ipv4 (ip, l4) } )
  in
  oneof
    [
      (let* op = oneofl [ Arp.Request; Arp.Reply ] in
       let* target_mac = gen_mac in
       let a =
         { Arp.op; sender_mac = src; sender_ip = src_ip; target_mac;
           target_ip = dst_ip }
       in
       return
         ( Packet.arp ~src ~dst a,
           { Packet.eth = eth Ethernet.ethertype_arp; l3 = Packet.Arp a } ));
      (let* tlvs = list_size (int_range 0 5) gen_tlv in
       let l = { Lldp.tlvs } in
       return
         ( Packet.lldp ~src l,
           { Packet.eth =
               { Ethernet.dst = Mac.lldp_multicast; src;
                 ethertype = Ethernet.ethertype_lldp };
             l3 = Packet.Lldp l } ));
      (let* ttl = gen_u8 in
       let* u = map3 (fun sp dp p -> Udp.make ~src_port:sp ~dst_port:dp p)
           gen_u16 gen_u16 gen_small_string in
       let frame =
         Packet.udp ~src_mac:src ~dst_mac:dst ~src_ip ~dst_ip ~ttl u
       in
       return
         (ip_packet frame ~tos:0 ~ttl ~protocol:Ipv4.proto_udp (Packet.Udp u)));
      (let* i = gen_icmp in
       let frame = Packet.icmp ~src_mac:src ~dst_mac:dst ~src_ip ~dst_ip i in
       return
         (ip_packet frame ~tos:0 ~ttl:64 ~protocol:Ipv4.proto_icmp
            (Packet.Icmp i)));
      (let* o = gen_ospf in
       let frame = Packet.ospf ~src_mac:src ~dst_mac:dst ~src_ip ~dst_ip o in
       return
         (ip_packet frame ~tos:0 ~ttl:1 ~protocol:Ipv4.proto_ospf
            (Packet.Ospf o)));
      (let* tos = gen_u8 in
       let* ttl = gen_u8 in
       let* protocol = oneofl [ 0; 2; 47; 50; 132; 255 ] in
       let* data = gen_small_string in
       let frame =
         Packet.ipv4 ~src_mac:src ~dst_mac:dst
           (Ipv4.make ~tos ~ttl ~protocol ~src:src_ip ~dst:dst_ip data)
       in
       return
         (ip_packet frame ~tos ~ttl ~protocol
            (Packet.Raw_l4 { protocol; data })));
    ]

let print_built_frame (frame, expected) =
  Format.asprintf "%a (%d bytes)" Packet.pp expected (String.length frame)

let parse_returns_built =
  prop "Packet.parse returns the packet each builder encoded" gen_built_frame
    print_built_frame (fun (frame, expected) ->
      match Packet.parse frame with
      | Ok p -> p = expected
      | Error e -> QCheck.Test.fail_reportf "parse error: %s" e)

(* --- RPC envelope codec ---------------------------------------------- *)

module Rpc_msg = Rf_rpc.Rpc_msg

let gen_rpc_request =
  let open G in
  let gen_port = int_range 1 0xffff in
  let gen_len = int_range 0 32 in
  oneof
    [
      (let* dpid = ui64 in
       let* n_ports = int_range 0 0xffff in
       return (Rpc_msg.Switch_up { dpid; n_ports }));
      map (fun dpid -> Rpc_msg.Switch_down { dpid }) ui64;
      (let* a_dpid = ui64 in
       let* a_port = gen_port in
       let* a_ip = gen_ip in
       let* a_prefix_len = gen_len in
       let* b_dpid = ui64 in
       let* b_port = gen_port in
       let* b_ip = gen_ip in
       let* b_prefix_len = gen_len in
       return
         (Rpc_msg.Link_up
            {
              a_dpid;
              a_port;
              a_ip;
              a_prefix_len;
              b_dpid;
              b_port;
              b_ip;
              b_prefix_len;
            }));
      (let* a_dpid = ui64 in
       let* a_port = gen_port in
       let* b_dpid = ui64 in
       let* b_port = gen_port in
       return (Rpc_msg.Link_down { a_dpid; a_port; b_dpid; b_port }));
      (let* dpid = ui64 in
       let* port = gen_port in
       let* gateway = gen_ip in
       let* prefix_len = gen_len in
       return (Rpc_msg.Edge_subnet { dpid; port; gateway; prefix_len }));
    ]

let gen_rpc_envelope =
  let open G in
  let* epoch = int32 in
  let* seq = int32 in
  let* body =
    oneof
      [
        map (fun r -> Rpc_msg.Request r) gen_rpc_request;
        (let* a_epoch = int32 in
         let* a_cum = int32 in
         let* a_seq = int32 in
         return (Rpc_msg.Ack { a_epoch; a_cum; a_seq }));
        return Rpc_msg.Ping;
        return Rpc_msg.Pong;
        return Rpc_msg.Sync_request;
        map
          (fun msgs -> Rpc_msg.Sync_snapshot msgs)
          (list_size (int_range 0 20) gen_rpc_request);
      ]
  in
  return { Rpc_msg.epoch; seq; body }

let print_rpc_envelope (e : Rpc_msg.envelope) =
  Format.asprintf "epoch=%ld seq=%ld %a" e.epoch e.seq Rpc_msg.pp_body e.body

let rpc_codec_roundtrip =
  prop "rpc envelope decode∘encode = id" gen_rpc_envelope print_rpc_envelope
    (fun env ->
      match Rpc_msg.of_wire (Rpc_msg.to_wire env) with
      | Ok env' -> env' = env
      | Error e -> QCheck.Test.fail_reportf "decode error: %s" e)

(* --- decoders on corrupted input -------------------------------------- *)

(* One frame of each kind a RouteFlow ring puts on its links: a UDP
   traffic probe, a ping, an ARP request, an LLDP discovery probe, and
   OSPF hello and LS update. *)
let sample_frames =
  let ip s = Option.get (Ipv4_addr.of_string s) in
  let mac1 = Mac.make_local 1 and mac2 = Mac.make_local 2 in
  let a = ip "172.16.0.1" and b = ip "172.16.0.2" in
  let ospf payload =
    Packet.ospf ~src_mac:mac1 ~dst_mac:(Mac.of_int64 0x01005E000005L)
      ~src_ip:a ~dst_ip:(ip "224.0.0.5")
      { Ospf_pkt.router_id = a; area_id = Ipv4_addr.any; payload }
  in
  let link =
    { Ospf_pkt.link_id = b; link_data = a; link_type = Point_to_point;
      metric = 10 }
  in
  [
    ( "udp",
      Packet.udp ~src_mac:mac1 ~dst_mac:mac2 ~src_ip:(ip "10.0.1.2")
        ~dst_ip:(ip "10.0.3.2")
        (Udp.make ~src_port:5004 ~dst_port:1234 (String.make 18 'p')) );
    ( "icmp",
      Packet.icmp ~src_mac:mac1 ~dst_mac:mac2 ~src_ip:a ~dst_ip:b
        (Icmp.Echo_request { ident = 7; seq = 1; payload = "ping" }) );
    ( "arp",
      Packet.arp ~src:mac1 ~dst:Mac.broadcast
        (Arp.request ~sender_mac:mac1 ~sender_ip:a ~target_ip:b) );
    ("lldp", Packet.lldp ~src:mac1 (Lldp.discovery_probe ~dpid:1L ~port:2));
    ( "ospf-hello",
      ospf
        (Ospf_pkt.Hello
           { netmask = ip "255.255.255.252"; hello_interval = 10;
             dead_interval = 40; priority = 1; dr = Ipv4_addr.any;
             bdr = Ipv4_addr.any; neighbors = [ b ] }) );
    ( "ospf-lsu",
      ospf
        (Ospf_pkt.Ls_update
           [ Ospf_pkt.make_lsa ~age:1 ~options:2 ~link_state_id:a
               ~adv_router:a ~seq:Ospf_pkt.initial_seq
               (Router { links = [ link ] }) ]) );
  ]

(* BGP messages of each type a RouteFlow VM's bgpd exchanges. *)
let sample_bgp =
  let ip s = Option.get (Ipv4_addr.of_string s) in
  let pfx s = Option.get (Ipv4_addr.Prefix.of_string s) in
  Rf_routing.Bgp_msg.
    [
      Open { o_asn = 65001; o_hold_time = 90; o_router_id = ip "1.1.1.1" };
      Keepalive;
      Notification { code = 6; subcode = 0 };
      Update
        {
          u_withdrawn = [ pfx "10.9.0.0/16" ];
          u_as_path = [ 65001; 65002 ];
          u_next_hop = Some (ip "172.16.0.1");
          u_nlri = [ pfx "10.1.0.0/16"; pfx "10.2.4.0/24" ];
        };
    ]

type wire_case =
  | Frame of (string * string)
  | Msg of Of_msg.t
  | Rpc of Rpc_msg.envelope
  | Bgp of Rf_routing.Bgp_msg.t

(* 1-4 byte flips, then a 0-16 byte truncation. A flip XORs one bit,
   the low nibble (where IPv4 keeps its header length) or the whole
   byte; three in four land in the first 48 bytes, where every
   header's length and type fields sit. *)
let gen_corruption =
  let open G in
  let gen_pos = frequency [ (3, int_bound 47); (1, int_bound 4095) ] in
  let gen_mask =
    frequency
      [ (1, map (fun k -> 1 lsl k) (int_bound 7));
        (1, int_range 1 0xf);
        (1, int_range 1 0xff) ]
  in
  pair (list_size (int_range 1 4) (pair gen_pos gen_mask)) (int_bound 16)

let corrupt s (flips, cut) =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  List.iter
    (fun (pos, mask) ->
      let i = pos mod n in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor mask)))
    flips;
  Bytes.sub_string b 0 (max 0 (n - cut))

let gen_wire_case =
  let open G in
  let* case =
    frequency
      [ (1, map (fun f -> Frame f) (oneofl sample_frames));
        (1, map (fun m -> Msg m) gen_msg);
        (1, map (fun e -> Rpc e) gen_rpc_envelope);
        (1, map (fun m -> Bgp m) (oneofl sample_bgp)) ]
  in
  let* c = gen_corruption in
  return (case, c)

let print_wire_case (case, (flips, cut)) =
  Printf.sprintf "%s, flips [%s], cut %d"
    (match case with
    | Frame (name, _) -> name
    | Msg m -> print_msg m
    | Rpc e -> print_rpc_envelope e
    | Bgp m -> Format.asprintf "%a" Rf_routing.Bgp_msg.pp m)
    (String.concat "; "
       (List.map (fun (p, m) -> Printf.sprintf "%d^0x%02x" p m) flips))
    cut

(* Every decoder that sees bytes off a link or a control channel must
   answer Ok or Error on any input; an exception would escape into the
   datapath, host, VM or controller event handler that called it. *)
let decoders_total =
  prop ~count:6000 "wire decoders return Error, never raise" gen_wire_case
    print_wire_case (fun (case, c) ->
      let total name decode s =
        match decode s with
        | Ok _ | Error _ -> true
        | exception e ->
            QCheck.Test.fail_reportf "%s raised %s" name
              (Printexc.to_string e)
      in
      match case with
      | Frame (_, frame) -> total "Packet.parse" Packet.parse (corrupt frame c)
      | Msg m ->
          total "Of_codec.of_wire" Of_codec.of_wire
            (corrupt (Of_codec.to_wire m) c)
      | Rpc e ->
          total "Rpc_msg.of_wire" Rpc_msg.of_wire
            (corrupt (Rpc_msg.to_wire e) c)
      | Bgp m ->
          total "Bgp_msg.of_wire" Rf_routing.Bgp_msg.of_wire
            (corrupt (Rf_routing.Bgp_msg.to_wire m) c))

(* FlowVisor reads a slice's flow-mod or packet-out with
   [Of_codec.peek], which checks the actions without building them. On
   any bytes, corrupted or not, it must fail where [of_wire] fails, with
   the same message, and otherwise read what [of_wire] decodes. *)
let gen_peek_case =
  let open G in
  let packet_out =
    let* po_buffer_id = gen_buffer_opt in
    let* po_in_port = gen_u16 in
    let* po_actions = gen_actions in
    let* po_data =
      oneof [ map snd (oneofl sample_frames); gen_small_string ]
    in
    return
      { Of_msg.xid = 7l;
        payload = Of_msg.Packet_out { po_buffer_id; po_in_port; po_actions; po_data } }
  in
  let* m =
    frequency
      [ (2, map (fun fm -> { Of_msg.xid = 7l; payload = Of_msg.Flow_mod fm })
              gen_flow_mod);
        (2, packet_out);
        (1, gen_msg) ]
  in
  let* c = frequency [ (1, return ([], 0)); (3, gen_corruption) ] in
  return (m, c)

let peek_agrees_with_of_wire =
  prop ~count:6000 "Of_codec.peek fails and reads where of_wire does"
    gen_peek_case
    (fun (m, c) -> print_wire_case (Msg m, c))
    (fun (m, c) ->
      let s = corrupt (Of_codec.to_wire m) c in
      match (Of_codec.peek s, Of_codec.of_wire s) with
      | ( Ok (Of_codec.Flow_mod_head { command; fm_match; priority }),
          Ok { Of_msg.payload = Of_msg.Flow_mod fm; _ } ) ->
          command = fm.fm_command
          && Of_match.equal fm_match fm.fm_match
          && priority = fm.fm_priority
      | ( Ok (Of_codec.Packet_out_key (key, buffered)),
          Ok { Of_msg.payload = Of_msg.Packet_out po; _ } ) ->
          key = Of_match.key_of_frame ~in_port:po.po_in_port po.po_data
          && buffered = (po.po_buffer_id <> None)
      | Ok (Of_codec.Message m'), Ok m'' -> (
          m' = m''
          &&
          match m''.payload with
          | Of_msg.Flow_mod _ | Of_msg.Packet_out _ -> false
          | _ -> true)
      | Error e, Error e' -> String.equal e e'
      | Ok _, _ | Error _, Ok _ -> false)

(* --- switch key extraction vs the full parser ------------------------ *)

(* The 12-tuple as OF 1.0 §3.4 defines it over a decoded packet: the
   reference that [Of_match.key_of_frame] must agree with on every
   frame. *)
let key_of_packet ~in_port (p : Packet.t) =
  let base =
    {
      Of_match.in_port;
      dl_src = p.eth.src;
      dl_dst = p.eth.dst;
      dl_vlan = 0xffff;
      dl_pcp = 0;
      dl_type = p.eth.ethertype;
      nw_tos = 0;
      nw_proto = 0;
      nw_src = Ipv4_addr.any;
      nw_dst = Ipv4_addr.any;
      tp_src = 0;
      tp_dst = 0;
    }
  in
  match p.l3 with
  | Packet.Arp a ->
      let opcode = match a.op with Arp.Request -> 1 | Arp.Reply -> 2 in
      { base with nw_proto = opcode; nw_src = a.sender_ip; nw_dst = a.target_ip }
  | Packet.Lldp _ | Packet.Raw_l3 _ -> base
  | Packet.Ipv4 (ip, l4) -> (
      let base =
        { base with nw_tos = ip.tos; nw_proto = ip.protocol; nw_src = ip.src;
                    nw_dst = ip.dst }
      in
      match l4 with
      | Packet.Udp u -> { base with tp_src = u.src_port; tp_dst = u.dst_port }
      | Packet.Tcp t -> { base with tp_src = t.src_port; tp_dst = t.dst_port }
      | Packet.Icmp i ->
          let typ, code =
            match i with
            | Icmp.Echo_request _ -> (8, 0)
            | Icmp.Echo_reply _ -> (0, 0)
            | Icmp.Dest_unreachable { code; _ } -> (3, code)
            | Icmp.Time_exceeded _ -> (11, 0)
          in
          { base with tp_src = typ; tp_dst = code }
      | Packet.Ospf _ | Packet.Raw_l4 _ -> base)

(* Every sample kind, plus the IPv4 payloads a ring carries less often:
   TCP, the other ICMP types, an unknown protocol and a raw ethertype. *)
let key_frames =
  let ip s = Option.get (Ipv4_addr.of_string s) in
  let mac1 = Mac.make_local 1 and mac2 = Mac.make_local 2 in
  let a = ip "10.0.1.2" and b = ip "10.0.3.2" in
  let icmp i = Packet.icmp ~src_mac:mac1 ~dst_mac:mac2 ~src_ip:a ~dst_ip:b i in
  sample_frames
  @ [
      ( "tcp",
        Packet.ipv4 ~src_mac:mac1 ~dst_mac:mac2
          (Ipv4.make ~tos:0x10 ~protocol:Ipv4.proto_tcp ~src:a ~dst:b
             (let w = Wire.Writer.create () in
              Tcp.write w
                (Tcp.make ~src_port:40000 ~dst_port:179 (String.make 12 't'));
              Wire.Writer.contents w)) );
      ("icmp-reply", icmp (Icmp.Echo_reply { ident = 9; seq = 3; payload = "" }));
      ( "icmp-unreachable",
        icmp (Icmp.Dest_unreachable { code = 1; original = String.make 28 'o' }) );
      ("icmp-ttl", icmp (Icmp.Time_exceeded { original = String.make 28 'o' }));
      ( "ipv4-raw",
        Packet.ipv4 ~src_mac:mac1 ~dst_mac:mac2
          (Ipv4.make ~protocol:47 ~src:a ~dst:b "gre") );
      ( "arp-reply",
        Packet.arp ~src:mac2 ~dst:mac1
          (Arp.reply ~sender_mac:mac2 ~sender_ip:b ~target_mac:mac1
             ~target_ip:a) );
      ( "raw-l3",
        (let w = Wire.Writer.create () in
         Ethernet.write w ~dst:mac2 ~src:mac1 ~ethertype:0x86dd;
         Wire.Writer.bytes w (String.make 40 'x');
         Wire.Writer.contents w) );
    ]

let gen_key_case =
  let open G in
  let* name, frame = oneofl key_frames in
  (* A lone flip past the Ethernet addresses reaches the L3 and L4
     length and type fields without a second flip spoiling the IPv4
     checksum first. *)
  let one_flip =
    map (fun flip -> ([ flip ], 0)) (pair (int_range 12 47) (int_range 1 0xff))
  in
  let* c =
    frequency [ (1, return ([], 0)); (2, gen_corruption); (2, one_flip) ]
  in
  let* in_port = int_range 1 48 in
  return (name, corrupt frame c, in_port, c)

let print_key_case (name, _, in_port, (flips, cut)) =
  Printf.sprintf "%s on port %d, flips [%s], cut %d" name in_port
    (String.concat "; "
       (List.map (fun (p, m) -> Printf.sprintf "%d^0x%02x" p m) flips))
    cut

let key_of_frame_matches_parse =
  prop ~count:4000 "key_of_frame = key of Packet.parse" gen_key_case
    print_key_case (fun (_, frame, in_port, _) ->
      let expected =
        Option.map (key_of_packet ~in_port) (Result.to_option (Packet.parse frame))
      in
      Of_match.key_of_frame ~in_port frame = expected)

(* --- address round-trips --------------------------------------------- *)

let ipv4_roundtrip =
  prop "Ipv4_addr parse∘print = id" gen_ip Ipv4_addr.to_string (fun ip ->
      match Ipv4_addr.of_string (Ipv4_addr.to_string ip) with
      | Some ip' -> Ipv4_addr.equal ip ip'
      | None -> false)

(* A MAC is 48 bits on the wire, most significant octet first, and
   [of_bytes] takes exactly six bytes. *)
let mac_roundtrip =
  prop "Mac of_bytes∘to_bytes = id over 48-bit values"
    (G.map (fun v -> Int64.logand v 0xFFFF_FFFF_FFFFL) G.ui64)
    (Printf.sprintf "0x%012Lx")
    (fun v ->
      let m = Mac.of_int64 v in
      let wire = Mac.to_bytes m in
      let big_endian =
        String.init 6 (fun i ->
            Char.chr
              (Int64.to_int (Int64.shift_right_logical v (8 * (5 - i))) land 0xff))
      in
      String.equal wire big_endian
      && Int64.equal (Mac.to_int64 (Mac.of_bytes wire)) v
      && Int64.equal (Mac.to_int64 (Mac.get ("ab" ^ wire) 2)) v
      && List.for_all
           (fun s ->
             match Mac.of_bytes s with
             | _ -> false
             | exception Invalid_argument _ -> true)
           [ String.sub wire 0 5; wire ^ "x" ])

(* An address is an immediate int; the 64-bit conversions must still
   be exact on every 48-bit value. *)
let mac_int64_roundtrip =
  prop "Mac of_int64∘to_int64 = id over 48-bit values"
    (G.map (fun v -> Int64.logand v 0xFFFF_FFFF_FFFFL) G.ui64)
    (Printf.sprintf "0x%012Lx")
    (fun v ->
      let m = Mac.of_int64 v in
      Int64.equal (Mac.to_int64 m) v
      && Mac.equal (Mac.of_int64 (Mac.to_int64 m)) m
      && Mac.to_int m = Int64.to_int v)

let gen_any_prefix =
  G.map2
    (fun a len -> Ipv4_addr.Prefix.make (Ipv4_addr.of_int32 a) len)
    G.int32 (G.int_range 0 32)

let prefix_print p = Format.asprintf "%a" Ipv4_addr.Prefix.pp p

let prefix_roundtrip =
  prop "Prefix parse∘print = id" gen_any_prefix prefix_print (fun p ->
      match Ipv4_addr.Prefix.of_string (prefix_print p) with
      | Some p' -> Ipv4_addr.Prefix.equal p p'
      | None -> false)

(* --- prefix trie vs naive LPM ---------------------------------------- *)

let lpm_naive entries ip =
  List.fold_left
    (fun best (p, v) ->
      if Ipv4_addr.Prefix.mem ip p then
        match best with
        | Some (bp, _)
          when Ipv4_addr.Prefix.length bp >= Ipv4_addr.Prefix.length p ->
            best
        | Some _ | None -> Some (p, v)
      else best)
    None entries

let gen_trie_case =
  let open G in
  let* raw = list_size (int_range 0 30) (pair gen_any_prefix nat) in
  (* The trie keeps one value per prefix (insert replaces); keep the
     first occurrence so the naive table agrees. *)
  let entries =
    List.fold_left
      (fun acc (p, v) ->
        if List.exists (fun (q, _) -> Ipv4_addr.Prefix.equal p q) acc then acc
        else (p, v) :: acc)
      [] raw
    |> List.rev
  in
  let* random_ips = list_size (int_range 1 10) gen_ip in
  let probes =
    List.map (fun (p, _) -> Ipv4_addr.Prefix.network p) entries @ random_ips
  in
  return (entries, probes)

let trie_vs_naive =
  prop "Prefix_trie LPM = naive scan" gen_trie_case
    (fun (entries, probes) ->
      Printf.sprintf "{%s} probing %s"
        (String.concat "; "
           (List.map
              (fun (p, v) -> Printf.sprintf "%s->%d" (prefix_print p) v)
              entries))
        (String.concat ", " (List.map Ipv4_addr.to_string probes)))
    (fun (entries, probes) ->
      let trie = Rf_routing.Prefix_trie.create () in
      List.iter (fun (p, v) -> Rf_routing.Prefix_trie.insert trie p v) entries;
      List.for_all
        (fun ip ->
          match (Rf_routing.Prefix_trie.lookup trie ip, lpm_naive entries ip) with
          | None, None -> true
          | Some (p, v), Some (p', v') ->
              Ipv4_addr.Prefix.equal p p' && v = v'
          | Some _, None | None, Some _ -> false)
        probes)

(* Addresses compare in unsigned 32-bit order, prefixes by network in
   that order and then by length, and [Prefix_trie.fold] visits in
   [Prefix.compare] order, which the RIB merge relies on. [G.int32]
   draws negative values, i.e. addresses from 128.0.0.0 up, as often
   as positive ones. *)
let address_orders_agree =
  prop "Ipv4_addr/Prefix order = unsigned order = trie fold order"
    G.(list_size (int_range 0 30) gen_any_prefix)
    (fun ps -> String.concat "; " (List.map prefix_print ps))
    (fun ps ->
      let unsigned p =
        Int32.to_int (Ipv4_addr.to_int32 (Ipv4_addr.Prefix.network p))
        land 0xFFFF_FFFF
      in
      let reference p q =
        match Int.compare (unsigned p) (unsigned q) with
        | 0 -> Int.compare (Ipv4_addr.Prefix.length p) (Ipv4_addr.Prefix.length q)
        | c -> c
      in
      let sign c = Int.compare c 0 in
      let trie = Rf_routing.Prefix_trie.create () in
      List.iter (fun p -> Rf_routing.Prefix_trie.insert trie p ()) ps;
      let folded =
        List.rev (Rf_routing.Prefix_trie.fold (fun p () acc -> p :: acc) trie [])
      in
      List.for_all
        (fun p ->
          List.for_all
            (fun q ->
              let a = Ipv4_addr.Prefix.network p
              and b = Ipv4_addr.Prefix.network q in
              sign (Ipv4_addr.compare a b)
              = sign (Int32.unsigned_compare (Ipv4_addr.to_int32 a)
                        (Ipv4_addr.to_int32 b))
              && sign (Ipv4_addr.Prefix.compare p q) = sign (reference p q))
            ps)
        ps
      && List.equal Ipv4_addr.Prefix.equal folded
           (List.sort_uniq reference ps))

(* --- RPC delivery: exactly once, in order, within an epoch ----------- *)

(* An adversarial channel (seeded drops, duplicates, delays — delays
   reorder) between a live client/server pair. However the schedule
   falls, every request the client accepted must reach the server's
   handler exactly once and in submission order, because acks are
   cumulative, retransmission covers drops, the (epoch, seq) dedup
   swallows duplicates, and the reorder window holds early frames until
   the gap closes. *)
type delivery_case = {
  dc_seed : int;
  dc_n : int;
  dc_drop : float;
  dc_dup : float;
  dc_delay : float;
}

let gen_delivery_case =
  let open G in
  let* dc_seed = int_range 0 99_999 in
  let* dc_n = int_range 1 30 in
  let* dc_drop = float_bound_inclusive 0.4 in
  let* dc_dup = float_bound_inclusive 0.25 in
  let* dc_delay = float_bound_inclusive 0.25 in
  return { dc_seed; dc_n; dc_drop; dc_dup; dc_delay }

let print_delivery_case c =
  Printf.sprintf "seed=%d n=%d drop=%.2f dup=%.2f delay=%.2f" c.dc_seed c.dc_n
    c.dc_drop c.dc_dup c.dc_delay

let rpc_exactly_once =
  prop ~count:40 "rpc delivers exactly once, in order, per epoch"
    gen_delivery_case print_delivery_case (fun c ->
      let engine = Rf_sim.Engine.create ~seed:c.dc_seed () in
      let client_end, server_end =
        Rf_net.Channel.create engine ~latency:(Rf_sim.Vtime.span_ms 5) ()
      in
      let params =
        {
          Rf_rpc.Rpc_client.rto = Rf_sim.Vtime.span_s 0.5;
          rto_max = Rf_sim.Vtime.span_s 4.0;
          max_retries = 4;
          heartbeat_every = Rf_sim.Vtime.span_s 2.0;
          heartbeat_jitter = 0.0;
          dead_after = 3;
          resync = true;
        }
      in
      let client = Rf_rpc.Rpc_client.create engine ~params client_end in
      let server = Rf_rpc.Rpc_server.create engine server_end in
      let profile =
        {
          Rf_sim.Faults.cf_drop = c.dc_drop;
          cf_duplicate = c.dc_dup;
          cf_delay = c.dc_delay;
          cf_max_delay = Rf_sim.Vtime.span_s 3.0;
        }
      in
      let rng = Rf_sim.Engine.rng engine in
      Rf_rpc.Rpc_client.set_fault_profile client (Rf_sim.Rng.split rng) profile;
      Rf_rpc.Rpc_server.set_fault_profile server (Rf_sim.Rng.split rng) profile;
      let delivered = ref [] in
      Rf_rpc.Rpc_server.set_handler server (fun msg ->
          match msg with
          | Rpc_msg.Switch_up { dpid; _ } -> delivered := dpid :: !delivered
          | _ -> ());
      for i = 1 to c.dc_n do
        ignore
          (Rf_sim.Engine.schedule_at engine
             (Rf_sim.Vtime.of_s (0.3 *. float_of_int i))
             (fun () ->
               Rf_rpc.Rpc_client.send client
                 (Rpc_msg.Switch_up { dpid = Int64.of_int i; n_ports = 4 })))
      done;
      ignore (Rf_sim.Engine.run ~until:(Rf_sim.Vtime.of_s 3600.0) engine);
      let got = List.rev !delivered in
      let want = List.init c.dc_n (fun i -> Int64.of_int (i + 1)) in
      if got <> want then
        QCheck.Test.fail_reportf "delivered [%s], wanted [%s] (retx=%d dups=%d)"
          (String.concat ";" (List.map Int64.to_string got))
          (String.concat ";" (List.map Int64.to_string want))
          (Rf_rpc.Rpc_client.retransmissions client)
          (Rf_rpc.Rpc_server.duplicates_dropped server)
      else Rf_rpc.Rpc_client.unacked client = 0)

let suite =
  [
    codec_roundtrip;
    decoders_total;
    key_of_frame_matches_parse;
    rpc_codec_roundtrip;
    rpc_exactly_once;
    ipv4_roundtrip;
    mac_roundtrip;
    mac_int64_roundtrip;
    prefix_roundtrip;
    trie_vs_naive;
    address_orders_agree;
    parse_returns_built;
    peek_agrees_with_of_wire;
  ]
