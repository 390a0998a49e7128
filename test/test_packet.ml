(* Codec tests for the packet library: every format round-trips, bad
   input is rejected, checksums verified. *)

open Rf_packet

let ip = Ipv4_addr.of_string_exn

let pfx = Ipv4_addr.Prefix.of_string_exn

let mac_t = Alcotest.testable Mac.pp Mac.equal

let ip_t = Alcotest.testable Ipv4_addr.pp Ipv4_addr.equal

(* The bytes one layer's writer appends to a fresh buffer, and that
   layer's reader over a whole string. *)
let encode write v =
  let w = Wire.Writer.create () in
  write w v;
  Wire.Writer.contents w

let decode read s = read (Wire.Reader.of_string s)

(* --- Wire ------------------------------------------------------------ *)

let test_wire_roundtrip () =
  let w = Wire.Writer.create () in
  Wire.Writer.u8 w 0xAB;
  Wire.Writer.u16 w 0xCDEF;
  Wire.Writer.u32 w 0xDEADBEEFl;
  Wire.Writer.u64 w 0x0123456789ABCDEFL;
  Wire.Writer.bytes w "hi";
  let r = Wire.Reader.of_string (Wire.Writer.contents w) in
  Alcotest.(check int) "u8" 0xAB (Wire.Reader.u8 r);
  Alcotest.(check int) "u16" 0xCDEF (Wire.Reader.u16 r);
  Alcotest.(check int32) "u32" 0xDEADBEEFl (Wire.Reader.u32 r);
  Alcotest.(check int64) "u64" 0x0123456789ABCDEFL (Wire.Reader.u64 r);
  Alcotest.(check string) "bytes" "hi" (Wire.Reader.bytes r 2);
  Alcotest.(check int) "exhausted" 0 (Wire.Reader.remaining r)

let test_wire_truncated () =
  let r = Wire.Reader.of_string "ab" in
  Alcotest.check_raises "u32 over 2 bytes" Wire.Truncated (fun () ->
      ignore (Wire.Reader.u32 r))

let test_wire_patch () =
  let w = Wire.Writer.create () in
  Wire.Writer.u16 w 0;
  Wire.Writer.u16 w 42;
  Wire.Writer.patch_u16 w 0 0xBEEF;
  let r = Wire.Reader.of_string (Wire.Writer.contents w) in
  Alcotest.(check int) "patched" 0xBEEF (Wire.Reader.u16 r);
  Alcotest.(check int) "untouched" 42 (Wire.Reader.u16 r)

let test_checksum_rfc1071 () =
  (* Classic example from RFC 1071 §3. *)
  let data = "\x00\x01\xf2\x03\xf4\xf5\xf6\xf7" in
  Alcotest.(check int) "checksum" 0x220d (Wire.checksum data);
  (* A packet with its own checksum folded in sums to zero. *)
  let w = Wire.Writer.create () in
  Wire.Writer.bytes w "\x00\x01\xf2\x03";
  Wire.Writer.u16 w (Wire.checksum "\x00\x01\xf2\x03");
  Alcotest.(check int) "self-verifies" 0 (Wire.checksum (Wire.Writer.contents w))

(* --- Mac --------------------------------------------------------------- *)

let test_mac_string_roundtrip () =
  let m = Mac.of_int64 0x0012_3456_789AL in
  Alcotest.(check string) "to_string" "00:12:34:56:78:9a" (Mac.to_string m);
  match Mac.of_string "00:12:34:56:78:9a" with
  | Some m' -> Alcotest.check mac_t "roundtrip" m m'
  | None -> Alcotest.fail "parse failed"

let test_mac_bad_strings () =
  List.iter
    (fun s ->
      if Mac.of_string s <> None then Alcotest.fail ("accepted bad mac " ^ s))
    [ ""; "00:11:22:33:44"; "00:11:22:33:44:GG"; "0:1:2:3:4:5:6" ]

let test_mac_flags () =
  Alcotest.(check bool) "broadcast" true (Mac.is_broadcast Mac.broadcast);
  Alcotest.(check bool) "bcast is mcast" true (Mac.is_multicast Mac.broadcast);
  Alcotest.(check bool) "lldp mcast" true (Mac.is_multicast Mac.lldp_multicast);
  Alcotest.(check bool) "local unicast" false (Mac.is_multicast (Mac.make_local 7))

let test_mac_bytes_roundtrip () =
  let m = Mac.make_local 123456 in
  Alcotest.check mac_t "bytes roundtrip" m (Mac.of_bytes (Mac.to_bytes m))

(* --- Ipv4_addr ----------------------------------------------------------- *)

let test_ipv4_string_roundtrip () =
  List.iter
    (fun s ->
      match Ipv4_addr.of_string s with
      | Some a -> Alcotest.(check string) s s (Ipv4_addr.to_string a)
      | None -> Alcotest.fail ("rejected " ^ s))
    [ "0.0.0.0"; "255.255.255.255"; "10.0.0.1"; "192.168.100.200" ]

let test_ipv4_bad_strings () =
  List.iter
    (fun s ->
      if Ipv4_addr.of_string s <> None then Alcotest.fail ("accepted " ^ s))
    [ ""; "1.2.3"; "1.2.3.4.5"; "256.1.1.1"; "a.b.c.d"; "1.2.3.-4" ]

let test_ipv4_unsigned_compare () =
  (* 200.0.0.0 > 100.0.0.0 even though the int32 is negative. *)
  Alcotest.(check bool) "unsigned order" true
    (Ipv4_addr.compare (ip "200.0.0.0") (ip "100.0.0.0") > 0)

let test_prefix_ops () =
  let p = pfx "10.1.2.0/24" in
  Alcotest.(check bool) "mem inside" true (Ipv4_addr.Prefix.mem (ip "10.1.2.200") p);
  Alcotest.(check bool) "mem outside" false (Ipv4_addr.Prefix.mem (ip "10.1.3.1") p);
  Alcotest.check ip_t "host" (ip "10.1.2.7") (Ipv4_addr.Prefix.host p 7);
  Alcotest.check ip_t "mask" (ip "255.255.255.0") (Ipv4_addr.Prefix.mask p);
  Alcotest.(check bool) "subset" true
    (Ipv4_addr.Prefix.subset (pfx "10.1.2.128/25") p);
  Alcotest.(check bool) "not subset" false
    (Ipv4_addr.Prefix.subset p (pfx "10.1.2.128/25"));
  Alcotest.(check bool) "global covers" true
    (Ipv4_addr.Prefix.mem (ip "8.8.8.8") Ipv4_addr.Prefix.global)

let test_prefix_masks_host_bits () =
  let p = Ipv4_addr.Prefix.make (ip "10.1.2.3") 24 in
  Alcotest.check ip_t "host bits cleared" (ip "10.1.2.0")
    (Ipv4_addr.Prefix.network p)

let prop_prefix_mem_own_network =
  QCheck.Test.make ~name:"prefix contains its own network address" ~count:300
    QCheck.(pair (int_bound 0xFFFFFF) (int_bound 32))
    (fun (raw, len) ->
      let addr = Ipv4_addr.of_int32 (Int32.of_int (raw * 131)) in
      let p = Ipv4_addr.Prefix.make addr len in
      Ipv4_addr.Prefix.mem (Ipv4_addr.Prefix.network p) p)

(* --- Ethernet / ARP -------------------------------------------------------- *)

let test_ethernet_roundtrip () =
  let w = Wire.Writer.create () in
  Ethernet.write w ~dst:Mac.broadcast ~src:(Mac.make_local 9) ~ethertype:0x0800;
  Wire.Writer.bytes w "payload!";
  let r = Wire.Reader.of_string (Wire.Writer.contents w) in
  match Ethernet.read r with
  | Ok f ->
      Alcotest.check mac_t "dst" Mac.broadcast f.Ethernet.dst;
      Alcotest.check mac_t "src" (Mac.make_local 9) f.Ethernet.src;
      Alcotest.(check int) "type" 0x0800 f.Ethernet.ethertype;
      Alcotest.(check string) "payload" "payload!" (Wire.Reader.rest r)
  | Error e -> Alcotest.fail e

let test_ethernet_short () =
  match decode Ethernet.read "too short" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted short frame"

let test_arp_roundtrip () =
  let a =
    Arp.reply ~sender_mac:(Mac.make_local 1) ~sender_ip:(ip "10.0.0.1")
      ~target_mac:(Mac.make_local 2) ~target_ip:(ip "10.0.0.2")
  in
  match decode Arp.read (encode Arp.write a) with
  | Ok a' ->
      Alcotest.(check bool) "reply" true (a'.Arp.op = Arp.Reply);
      Alcotest.check ip_t "sender" (ip "10.0.0.1") a'.Arp.sender_ip;
      Alcotest.check mac_t "target mac" (Mac.make_local 2) a'.Arp.target_mac
  | Error e -> Alcotest.fail e

(* --- IPv4 / UDP / TCP / ICMP ----------------------------------------------- *)

let test_ipv4_roundtrip_and_checksum () =
  let p =
    Ipv4.make ~ttl:17 ~protocol:Ipv4.proto_udp ~src:(ip "1.2.3.4")
      ~dst:(ip "5.6.7.8") "datagram"
  in
  let wire = encode Ipv4.write p in
  (match decode Ipv4.read wire with
  | Ok p' ->
      Alcotest.(check int) "ttl" 17 p'.Ipv4.ttl;
      Alcotest.check ip_t "src" (ip "1.2.3.4") p'.Ipv4.src;
      Alcotest.(check string) "payload" "datagram" p'.Ipv4.payload
  | Error e -> Alcotest.fail e);
  (* Corrupt one header byte: checksum must catch it. *)
  let bad = Bytes.of_string wire in
  Bytes.set bad 8 '\xFF' (* ttl *);
  match decode Ipv4.read (Bytes.to_string bad) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted corrupted header"

let test_ipv4_ttl () =
  let p = Ipv4.make ~ttl:2 ~protocol:17 ~src:(ip "1.1.1.1") ~dst:(ip "2.2.2.2") "" in
  (match Ipv4.decrement_ttl p with
  | Some p' -> Alcotest.(check int) "decremented" 1 p'.Ipv4.ttl
  | None -> Alcotest.fail "dropped too early");
  let p1 = { p with Ipv4.ttl = 1 } in
  Alcotest.(check bool) "expired" true (Ipv4.decrement_ttl p1 = None)

let test_udp_roundtrip () =
  let u = Udp.make ~src_port:5004 ~dst_port:1234 "video" in
  match decode Udp.read (encode Udp.write u) with
  | Ok u' ->
      Alcotest.(check int) "src" 5004 u'.Udp.src_port;
      Alcotest.(check int) "dst" 1234 u'.Udp.dst_port;
      Alcotest.(check string) "payload" "video" u'.Udp.payload
  | Error e -> Alcotest.fail e

let test_tcp_roundtrip () =
  let t =
    Tcp.make ~seq:1000l ~ack_seq:2000l
      ~flags:{ Tcp.no_flags with syn = true; ack = true }
      ~src_port:6633 ~dst_port:45000 "of-handshake"
  in
  match decode Tcp.read (encode Tcp.write t) with
  | Ok t' ->
      Alcotest.(check int32) "seq" 1000l t'.Tcp.seq;
      Alcotest.(check bool) "syn" true t'.Tcp.flags.Tcp.syn;
      Alcotest.(check bool) "fin" false t'.Tcp.flags.Tcp.fin;
      Alcotest.(check string) "payload" "of-handshake" t'.Tcp.payload
  | Error e -> Alcotest.fail e

let test_icmp_roundtrip () =
  let i = Icmp.Echo_request { ident = 7; seq = 3; payload = "ping" } in
  (match decode Icmp.read (encode Icmp.write i) with
  | Ok (Icmp.Echo_request { ident; seq; payload }) ->
      Alcotest.(check int) "ident" 7 ident;
      Alcotest.(check int) "seq" 3 seq;
      Alcotest.(check string) "payload" "ping" payload
  | Ok _ -> Alcotest.fail "wrong type"
  | Error e -> Alcotest.fail e);
  (* Corruption detection. *)
  let bad = Bytes.of_string (encode Icmp.write i) in
  Bytes.set bad 5 'X';
  match decode Icmp.read (Bytes.to_string bad) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted corrupted icmp"

(* --- LLDP -------------------------------------------------------------------- *)

let test_lldp_discovery_roundtrip () =
  let probe = Lldp.discovery_probe ~dpid:0xDEADL ~port:42 in
  match decode Lldp.read (encode Lldp.write probe) with
  | Ok l -> (
      match Lldp.parse_discovery l with
      | Some (dpid, port) ->
          Alcotest.(check int64) "dpid" 0xDEADL dpid;
          Alcotest.(check int) "port" 42 port
      | None -> Alcotest.fail "not a discovery probe")
  | Error e -> Alcotest.fail e

let test_lldp_generic_tlvs () =
  let l =
    { Lldp.tlvs = [ Lldp.System_name "switch-7"; Lldp.Ttl 120;
                    Lldp.Custom { typ = 9; value = "xyz" } ] }
  in
  match decode Lldp.read (encode Lldp.write l) with
  | Ok l' ->
      Alcotest.(check int) "tlv count" 3 (List.length l'.Lldp.tlvs);
      Alcotest.(check bool) "not discovery" true (Lldp.parse_discovery l' = None)
  | Error e -> Alcotest.fail e

(* --- OSPF ---------------------------------------------------------------------- *)

let router_lsa_links =
  [
    { Ospf_pkt.link_id = ip "10.255.0.2"; link_data = ip "172.16.0.1";
      link_type = Ospf_pkt.Point_to_point; metric = 10 };
    { Ospf_pkt.link_id = ip "172.16.0.0"; link_data = ip "255.255.255.252";
      link_type = Ospf_pkt.Stub; metric = 10 };
  ]

let router_lsa_seq seq =
  Ospf_pkt.make_lsa ~age:1 ~options:2 ~link_state_id:(ip "10.255.0.1")
    ~adv_router:(ip "10.255.0.1") ~seq
    (Ospf_pkt.Router { links = router_lsa_links })

let router_lsa = router_lsa_seq Ospf_pkt.initial_seq

let test_ospf_hello_roundtrip () =
  let pkt =
    {
      Ospf_pkt.router_id = ip "10.255.0.1";
      area_id = Ipv4_addr.any;
      payload =
        Ospf_pkt.Hello
          {
            netmask = ip "255.255.255.252";
            hello_interval = 10;
            dead_interval = 40;
            priority = 1;
            dr = Ipv4_addr.any;
            bdr = Ipv4_addr.any;
            neighbors = [ ip "10.255.0.2"; ip "10.255.0.3" ];
          };
    }
  in
  match decode Ospf_pkt.read (encode Ospf_pkt.write pkt) with
  | Ok { payload = Ospf_pkt.Hello h; router_id; _ } ->
      Alcotest.check ip_t "router id" (ip "10.255.0.1") router_id;
      Alcotest.(check int) "hello interval" 10 h.Ospf_pkt.hello_interval;
      Alcotest.(check int) "neighbors" 2 (List.length h.Ospf_pkt.neighbors)
  | Ok _ -> Alcotest.fail "wrong payload"
  | Error e -> Alcotest.fail e

let test_ospf_lsu_roundtrip () =
  let pkt =
    {
      Ospf_pkt.router_id = ip "10.255.0.1";
      area_id = Ipv4_addr.any;
      payload = Ospf_pkt.Ls_update [ router_lsa ];
    }
  in
  match decode Ospf_pkt.read (encode Ospf_pkt.write pkt) with
  | Ok { payload = Ospf_pkt.Ls_update [ lsa ]; _ } -> (
      Alcotest.(check int32) "seq" Ospf_pkt.initial_seq lsa.Ospf_pkt.seq;
      match lsa.Ospf_pkt.body with
      | Ospf_pkt.Router { links } ->
          Alcotest.(check int) "links" 2 (List.length links);
          let stub = List.nth links 1 in
          Alcotest.(check bool) "stub type" true
            (stub.Ospf_pkt.link_type = Ospf_pkt.Stub)
      | _ -> Alcotest.fail "wrong body")
  | Ok _ -> Alcotest.fail "wrong payload"
  | Error e -> Alcotest.fail e

let test_ospf_dd_and_ack_roundtrip () =
  let header = Ospf_pkt.header_of_lsa router_lsa in
  let dd =
    {
      Ospf_pkt.router_id = ip "10.255.0.2";
      area_id = Ipv4_addr.any;
      payload =
        Ospf_pkt.Db_desc
          { mtu = 1500; dd_init = true; dd_more = false; dd_master = true;
            dd_seq = 7l; headers = [ header ] };
    }
  in
  (match decode Ospf_pkt.read (encode Ospf_pkt.write dd) with
  | Ok { payload = Ospf_pkt.Db_desc d; _ } ->
      Alcotest.(check bool) "init" true d.Ospf_pkt.dd_init;
      Alcotest.(check bool) "master" true d.Ospf_pkt.dd_master;
      Alcotest.(check int) "headers" 1 (List.length d.Ospf_pkt.headers)
  | Ok _ -> Alcotest.fail "wrong payload"
  | Error e -> Alcotest.fail e);
  let ack =
    { Ospf_pkt.router_id = ip "10.255.0.2"; area_id = Ipv4_addr.any;
      payload = Ospf_pkt.Ls_ack [ header ] }
  in
  match decode Ospf_pkt.read (encode Ospf_pkt.write ack) with
  | Ok { payload = Ospf_pkt.Ls_ack [ h ]; _ } ->
      Alcotest.(check int32) "acked seq" Ospf_pkt.initial_seq h.Ospf_pkt.h_seq
  | Ok _ -> Alcotest.fail "wrong payload"
  | Error e -> Alcotest.fail e

let test_ospf_checksum_rejects_corruption () =
  let wire = encode Ospf_pkt.write
      { Ospf_pkt.router_id = ip "1.1.1.1"; area_id = Ipv4_addr.any;
        payload = Ospf_pkt.Ls_request [ { Ospf_pkt.k_type = 1; k_id = ip "2.2.2.2"; k_adv = ip "2.2.2.2" } ] }
  in
  let bad = Bytes.of_string wire in
  Bytes.set bad (Bytes.length bad - 1) '\xFF';
  match decode Ospf_pkt.read (Bytes.to_string bad) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted corrupted OSPF packet"

let test_lsa_fletcher_self_verifies () =
  (* The Fletcher checksum of the encoded LSA (excluding the age word,
     checksum field included) must be zero-valid: recomputing over the
     region with the stored checksum yields the stored checksum. *)
  let wire = Ospf_pkt.lsa_to_wire router_lsa in
  let region = String.sub wire 2 (String.length wire - 2) in
  let stored = (Char.code wire.[16] lsl 8) lor Char.code wire.[17] in
  Alcotest.(check int) "recompute matches" stored (Ospf_pkt.fletcher16 region 14)

(* The decoder verifies each LSA's Fletcher checksum: an LSA whose body
   changed in flight is rejected even inside a packet whose own
   checksum was recomputed over the damage. *)
let test_lsa_bad_checksum_rejected () =
  let pkt =
    {
      Ospf_pkt.router_id = ip "10.255.0.1";
      area_id = Ipv4_addr.any;
      payload = Ospf_pkt.Ls_update [ router_lsa ];
    }
  in
  let bad = Bytes.of_string (encode Ospf_pkt.write pkt) in
  (* 24-byte packet header, 4-byte LSA count, then the LSA: flip the
     low byte of the first link's metric. *)
  let metric = 24 + 4 + 20 + 4 + 11 in
  Bytes.set bad metric (Char.chr (Char.code (Bytes.get bad metric) lxor 1));
  Bytes.set_uint16_be bad 12 0;
  Bytes.set_uint16_be bad 12 (Wire.checksum (Bytes.to_string bad));
  match decode Ospf_pkt.read (Bytes.to_string bad) with
  | Error e -> Alcotest.(check string) "reason" "ospf: bad LSA checksum" e
  | Ok _ -> Alcotest.fail "accepted an LSA with a bad Fletcher checksum"

let test_compare_instance () =
  let h1 = Ospf_pkt.header_of_lsa router_lsa in
  let newer = router_lsa_seq (Int32.add router_lsa.Ospf_pkt.seq 1l) in
  let h2 = Ospf_pkt.header_of_lsa newer in
  Alcotest.(check bool) "newer wins" true (Ospf_pkt.compare_instance h2 h1 > 0);
  Alcotest.(check int) "same instance" 0 (Ospf_pkt.compare_instance h1 h1)

(* --- Whole-frame parsing ------------------------------------------------------- *)

let test_packet_parse_udp () =
  let frame =
    Packet.udp ~src_mac:(Mac.make_local 1) ~dst_mac:(Mac.make_local 2)
      ~src_ip:(ip "10.0.1.2") ~dst_ip:(ip "10.0.2.2")
      (Udp.make ~src_port:1000 ~dst_port:2000 "x")
  in
  match Packet.parse frame with
  | Ok { l3 = Packet.Ipv4 (iph, Packet.Udp u); _ } ->
      Alcotest.check ip_t "dst ip" (ip "10.0.2.2") iph.Ipv4.dst;
      Alcotest.(check int) "dst port" 2000 u.Udp.dst_port
  | Ok _ -> Alcotest.fail "wrong structure"
  | Error e -> Alcotest.fail e

let test_packet_parse_unknown_ethertype () =
  let frame =
    let w = Wire.Writer.create () in
    Ethernet.write w ~dst:Mac.broadcast ~src:(Mac.make_local 3)
      ~ethertype:0x9999;
    Wire.Writer.bytes w "???";
    Wire.Writer.contents w
  in
  match Packet.parse frame with
  | Ok { l3 = Packet.Raw_l3 { ethertype; _ }; _ } ->
      Alcotest.(check int) "ethertype kept" 0x9999 ethertype
  | Ok _ -> Alcotest.fail "should be raw"
  | Error e -> Alcotest.fail e

let prop_udp_roundtrip =
  QCheck.Test.make ~name:"udp frames round-trip through parse" ~count:200
    QCheck.(triple (int_bound 65535) (int_bound 65535) (string_of_size (QCheck.Gen.int_bound 400)))
    (fun (sp, dp, payload) ->
      let frame =
        Packet.udp ~src_mac:(Mac.make_local 1) ~dst_mac:(Mac.make_local 2)
          ~src_ip:(ip "1.1.1.1") ~dst_ip:(ip "2.2.2.2")
          (Udp.make ~src_port:sp ~dst_port:dp payload)
      in
      match Packet.parse frame with
      | Ok { l3 = Packet.Ipv4 (_, Packet.Udp u); _ } ->
          u.Udp.src_port = sp && u.Udp.dst_port = dp && u.Udp.payload = payload
      | Ok _ | Error _ -> false)

let prop_lldp_discovery_roundtrip =
  QCheck.Test.make ~name:"lldp discovery probes round-trip" ~count:200
    QCheck.(pair (int_bound 0xFFFF) (int_bound 0xFF00))
    (fun (d, p) ->
      let probe = Lldp.discovery_probe ~dpid:(Int64.of_int d) ~port:p in
      match decode Lldp.read (encode Lldp.write probe) with
      | Ok l -> Lldp.parse_discovery l = Some (Int64.of_int d, p)
      | Error _ -> false)

let prop_router_lsa_roundtrip =
  QCheck.Test.make ~name:"router LSAs round-trip through LSU packets" ~count:150
    QCheck.(
      pair (int_bound 0xFFFF)
        (list_of_size (Gen.int_bound 12)
           (triple (int_bound 0xFFFFFF) (int_bound 0xFFFFFF) (int_bound 0xFFFF))))
    (fun (seq_off, raw_links) ->
      let links =
        List.map
          (fun (link_raw, data_raw, metric) ->
            {
              Ospf_pkt.link_id = Ipv4_addr.of_int32 (Int32.of_int link_raw);
              link_data = Ipv4_addr.of_int32 (Int32.of_int data_raw);
              link_type =
                (if link_raw land 1 = 0 then Ospf_pkt.Point_to_point
                 else Ospf_pkt.Stub);
              metric;
            })
          raw_links
      in
      let lsa =
        Ospf_pkt.make_lsa ~age:1 ~options:2 ~link_state_id:(ip "10.255.0.1")
          ~adv_router:(ip "10.255.0.1")
          ~seq:(Int32.add Ospf_pkt.initial_seq (Int32.of_int seq_off))
          (Ospf_pkt.Router { links })
      in
      let pkt =
        { Ospf_pkt.router_id = ip "10.255.0.1"; area_id = Ipv4_addr.any;
          payload = Ospf_pkt.Ls_update [ lsa ] }
      in
      match decode Ospf_pkt.read (encode Ospf_pkt.write pkt) with
      | Ok { payload = Ospf_pkt.Ls_update [ lsa' ]; _ } ->
          lsa'.Ospf_pkt.seq = lsa.Ospf_pkt.seq
          && (match lsa'.Ospf_pkt.body with
             | Ospf_pkt.Router { links = links' } -> links' = links
             | _ -> false)
      | Ok _ | Error _ -> false)

(* [header_of_lsa] is a field read now; it must still say what the
   first 20 bytes of the LSA's encoding say. *)
let prop_header_matches_wire =
  QCheck.Test.make ~name:"header_of_lsa = header decoded from lsa_to_wire"
    ~count:150
    QCheck.(
      triple (int_bound 3600) (int_bound 0xFFFF)
        (list_of_size (Gen.int_bound 12)
           (triple int32 int32 (int_bound 0xFFFF))))
    (fun (age, seq_off, raw_links) ->
      let links =
        List.map
          (fun (link_raw, data_raw, metric) ->
            {
              Ospf_pkt.link_id = Ipv4_addr.of_int32 link_raw;
              link_data = Ipv4_addr.of_int32 data_raw;
              link_type =
                (if Int32.logand link_raw 1l = 0l then Ospf_pkt.Point_to_point
                 else Ospf_pkt.Stub);
              metric;
            })
          raw_links
      in
      let lsa =
        Ospf_pkt.make_lsa ~age ~options:2 ~link_state_id:(ip "10.255.0.1")
          ~adv_router:(ip "200.1.2.3")
          ~seq:(Int32.add Ospf_pkt.initial_seq (Int32.of_int seq_off))
          (Ospf_pkt.Router { links })
      in
      let r = Wire.Reader.of_string (Ospf_pkt.lsa_to_wire lsa) in
      let h_age = Wire.Reader.u16 r in
      let h_options = Wire.Reader.u8 r in
      let k_type = Wire.Reader.u8 r in
      let k_id = Ipv4_addr.of_int32 (Wire.Reader.u32 r) in
      let k_adv = Ipv4_addr.of_int32 (Wire.Reader.u32 r) in
      let h_seq = Wire.Reader.u32 r in
      let h_checksum = Wire.Reader.u16 r in
      let h_length = Wire.Reader.u16 r in
      Ospf_pkt.header_of_lsa lsa
      = { Ospf_pkt.h_age; h_options; h_key = { k_type; k_id; k_adv }; h_seq;
          h_checksum; h_length }
      && h_length = String.length (Ospf_pkt.lsa_to_wire lsa))

(* Oracle for the SPF input an LSA instance carries: random router LSAs,
   with links of every type drawn from a small pool of ids (so links
   repeat) and stub-only LSAs among them, and the same derived afresh
   from [body] here: point-to-point neighbours and metrics in link
   order, and each stub as (prefix of its id under a mask as long as
   its netmask's set bits, metric). The instance the decoder hands out
   for the LSA's bytes carries the same. *)
let prop_spf_input_matches_body =
  let link_type = function
    | 0 -> Ospf_pkt.Point_to_point
    | 1 -> Ospf_pkt.Stub
    | 2 -> Ospf_pkt.Transit
    | _ -> Ospf_pkt.Virtual_link
  in
  QCheck.Test.make ~name:"an LSA's SPF input equals one derived from its body"
    ~count:300
    QCheck.(
      pair bool
        (list_of_size (Gen.int_bound 12)
           (quad (int_bound 5) (int_bound 3) int32 (int_bound 0xFFFF))))
    (fun (stub_only, raw) ->
      let links =
        List.map
          (fun (id, kind, data, metric) ->
            {
              Ospf_pkt.link_id = ip (Printf.sprintf "10.%d.0.0" id);
              link_data = Ipv4_addr.of_int32 data;
              link_type = (if stub_only then Ospf_pkt.Stub else link_type kind);
              metric;
            })
          raw
      in
      let lsa =
        Ospf_pkt.make_lsa ~age:1 ~options:2 ~link_state_id:(ip "10.255.0.1")
          ~adv_router:(ip "10.255.0.1") ~seq:Ospf_pkt.initial_seq
          (Ospf_pkt.Router { links })
      in
      let ones m =
        let rec go v n = if v = 0 then n else go (v lsr 1) (n + (v land 1)) in
        go (Ipv4_addr.to_int m) 0
      in
      let body_links =
        match lsa.body with
        | Ospf_pkt.Router { links } -> links
        | Ospf_pkt.Network _ | Ospf_pkt.Opaque _ -> []
      in
      let p2p =
        List.filter
          (fun (l : Ospf_pkt.router_link) ->
            l.link_type = Ospf_pkt.Point_to_point)
          body_links
      in
      let stubs =
        List.filter_map
          (fun (l : Ospf_pkt.router_link) ->
            if l.link_type = Ospf_pkt.Stub then
              Some
                (Ipv4_addr.Prefix.make l.link_id (ones l.link_data), l.metric)
            else None)
          body_links
      in
      let matches (lsa : Ospf_pkt.lsa) =
        Array.to_list lsa.spf.p2p
        = List.map (fun (l : Ospf_pkt.router_link) -> l.link_id) p2p
        && Array.to_list lsa.spf.p2p_metric
           = List.map (fun (l : Ospf_pkt.router_link) -> l.metric) p2p
        && Array.to_list lsa.spf.stubs = stubs
      in
      let pkt =
        { Ospf_pkt.router_id = ip "10.255.0.1"; area_id = Ipv4_addr.any;
          payload = Ospf_pkt.Ls_update [ lsa ] }
      in
      matches lsa
      &&
      match decode Ospf_pkt.read (encode Ospf_pkt.write pkt) with
      | Ok { payload = Ospf_pkt.Ls_update [ lsa' ]; _ } -> matches lsa'
      | Ok _ | Error _ -> false)

let prop_icmp_roundtrip =
  QCheck.Test.make ~name:"icmp echoes round-trip" ~count:200
    QCheck.(triple (int_bound 0xFFFF) (int_bound 0xFFFF) (string_of_size (QCheck.Gen.int_bound 64)))
    (fun (ident, seq, payload) ->
      let echo = Icmp.Echo_request { ident; seq; payload } in
      match decode Icmp.read (encode Icmp.write echo) with
      | Ok (Icmp.Echo_request e) ->
          e.ident = ident && e.seq = seq && e.payload = payload
      | Ok _ | Error _ -> false)

(* --- Golden bytes ---------------------------------------------------- *)

let to_hex s =
  String.concat ""
    (List.map
       (fun c -> Printf.sprintf "%02x" (Char.code c))
       (List.of_seq (String.to_seq s)))

let golden_router_lsa =
  Ospf_pkt.make_lsa ~age:1 ~options:0x02 ~link_state_id:(ip "1.1.1.1")
    ~adv_router:(ip "1.1.1.1") ~seq:0x80000003l
    (Ospf_pkt.Router
       {
         links =
           [
             { Ospf_pkt.link_id = ip "2.2.2.2"; link_data = ip "10.0.0.1";
               link_type = Ospf_pkt.Point_to_point; metric = 10 };
             { link_id = ip "10.0.0.0"; link_data = ip "255.255.255.252";
               link_type = Ospf_pkt.Stub; metric = 10 };
           ];
       })

let golden_network_lsa =
  Ospf_pkt.make_lsa ~age:7 ~options:0x02 ~link_state_id:(ip "10.0.1.1")
    ~adv_router:(ip "3.3.3.3") ~seq:Ospf_pkt.initial_seq
    (Ospf_pkt.Network
       { mask = ip "255.255.255.0"; attached = [ ip "3.3.3.3"; ip "4.4.4.4" ] })

let golden_ospf payload =
  Packet.ospf ~src_mac:(Mac.make_local 1)
    ~dst_mac:(Mac.of_int64 0x01005e000005L) ~src_ip:(ip "10.0.0.1")
    ~dst_ip:Ipv4_addr.ospf_all_routers
    { Ospf_pkt.router_id = ip "1.1.1.1"; area_id = Ipv4_addr.any; payload }

(* One frame per builder and per OSPF packet type, and the bytes the
   layered encoders wrote for it (each layer encoded on its own, then
   copied behind the header of the layer below). The one-buffer
   builders must write exactly those bytes. *)
let golden_frames () =
  let mac1 = Mac.make_local 1 and mac2 = Mac.make_local 2 in
  let headers =
    [ Ospf_pkt.header_of_lsa golden_router_lsa;
      Ospf_pkt.header_of_lsa golden_network_lsa ]
  in
  [
    ( "arp",
      Packet.arp ~src:mac1 ~dst:Mac.broadcast
        (Arp.request ~sender_mac:mac1 ~sender_ip:(ip "10.0.0.1")
           ~target_ip:(ip "10.0.0.2")),
      "ffffffffffff020000000001080600010800060400010200000000010a000001\
       0000000000000a000002" );
    ( "lldp",
      Packet.lldp ~src:mac2
        {
          Lldp.tlvs =
            (Lldp.discovery_probe ~dpid:42L ~port:7).Lldp.tlvs
            @ [ Lldp.System_name "sw1";
                Lldp.Custom { typ = 127; value = "\x00\x26\xe1rf" } ];
        },
      "0180c200000e02000000000288cc020907000000000000002a04030700070602\
       00780a03737731fe050026e172660000" );
    ( "ipv4",
      Packet.ipv4 ~src_mac:mac1 ~dst_mac:mac2
        (Ipv4.make ~tos:4 ~ttl:17 ~protocol:200 ~src:(ip "10.0.0.1")
           ~dst:(ip "10.0.1.9") "raw bytes"),
      "02000000000202000000000108004504001d0000000011c8940c0a0000010a00\
       0109726177206279746573" );
    ( "udp",
      Packet.udp ~src_mac:mac1 ~dst_mac:mac2 ~src_ip:(ip "10.0.0.1")
        ~dst_ip:(ip "224.0.0.9") ~ttl:1
        (Udp.make ~src_port:520 ~dst_port:520 "rip payload"),
      "020000000002020000000001080045000027000000000111cfbc0a000001e000\
       00090208020800130000726970207061796c6f6164" );
    ( "icmp-echo",
      Packet.icmp ~src_mac:mac2 ~dst_mac:mac1 ~src_ip:(ip "10.0.1.9")
        ~dst_ip:(ip "10.0.0.1")
        (Icmp.Echo_request { ident = 1; seq = 7; payload = "rf-ping" }),
      "02000000000102000000000208004500002300000000400165d10a0001090a00\
       0001080087b20001000772662d70696e67" );
    ( "icmp-unreachable",
      Packet.icmp ~src_mac:mac2 ~dst_mac:mac1 ~src_ip:(ip "10.0.1.9")
        ~dst_ip:(ip "10.0.0.1")
        (Icmp.Dest_unreachable { code = 1; original = "orig-hdr" }),
      "02000000000102000000000208004500002400000000400165d00a0001090a00\
       00010301924a000000006f7269672d686472" );
    ( "ospf-hello",
      golden_ospf
        (Ospf_pkt.Hello
           { netmask = ip "255.255.255.252"; hello_interval = 10;
             dead_interval = 40; priority = 1; dr = Ipv4_addr.any;
             bdr = Ipv4_addr.any; neighbors = [ ip "2.2.2.2"; ip "3.3.3.3" ] }),
      "01005e000005020000000001080045000048000000000159cf570a000001e000\
       0005020100340101010100000000ef8e00000000000000000000fffffffc000a\
       02010000002800000000000000000202020203030303" );
    ( "ospf-db-desc",
      golden_ospf
        (Ospf_pkt.Db_desc
           { mtu = 1500; dd_init = true; dd_more = true; dd_master = false;
             dd_seq = 0x1234l; headers }),
      "01005e00000502000000000108004500005c000000000159cf430a000001e000\
       00050202004801010101000000002b9c0000000000000000000005dc02060000\
       123400010201010101010101010180000003de2e0030000702020a0001010303\
       030380000001be670020" );
    ( "ospf-ls-request",
      golden_ospf
        (Ospf_pkt.Ls_request
           [ Ospf_pkt.key_of_lsa golden_router_lsa;
             Ospf_pkt.key_of_lsa golden_network_lsa ]),
      "01005e000005020000000001080045000044000000000159cf5b0a000001e000\
       0005020300300101010100000000e6bc00000000000000000000000000010101\
       010101010101000000020a00010103030303" );
    ( "ospf-ls-update",
      golden_ospf
        (Ospf_pkt.Ls_update [ golden_router_lsa; golden_network_lsa ]),
      "01005e000005020000000001080045000080000000000159cf1f0a000001e000\
       00050204006c01010101000000001c6300000000000000000000000000020001\
       0201010101010101010180000003de2e003000000002020202020a0000010100\
       000a0a000000fffffffc0300000a000702020a0001010303030380000001be67\
       0020ffffff000303030304040404" );
    ( "ospf-ls-ack",
      golden_ospf (Ospf_pkt.Ls_ack headers),
      "01005e000005020000000001080045000054000000000159cf4b0a000001e000\
       000502050040010101010000000045b700000000000000000000000102010101\
       01010101010180000003de2e0030000702020a0001010303030380000001be67\
       0020" );
  ]

let test_golden_frames () =
  List.iter
    (fun (name, frame, expected) ->
      Alcotest.(check string) name expected (to_hex frame))
    (golden_frames ())

let suite =
  [
    Alcotest.test_case "wire writer/reader roundtrip" `Quick test_wire_roundtrip;
    Alcotest.test_case "wire truncation raises" `Quick test_wire_truncated;
    Alcotest.test_case "wire patch_u16" `Quick test_wire_patch;
    Alcotest.test_case "internet checksum (RFC 1071)" `Quick test_checksum_rfc1071;
    Alcotest.test_case "mac string roundtrip" `Quick test_mac_string_roundtrip;
    Alcotest.test_case "mac rejects bad strings" `Quick test_mac_bad_strings;
    Alcotest.test_case "mac broadcast/multicast flags" `Quick test_mac_flags;
    Alcotest.test_case "mac bytes roundtrip" `Quick test_mac_bytes_roundtrip;
    Alcotest.test_case "ipv4 string roundtrip" `Quick test_ipv4_string_roundtrip;
    Alcotest.test_case "ipv4 rejects bad strings" `Quick test_ipv4_bad_strings;
    Alcotest.test_case "ipv4 compares unsigned" `Quick test_ipv4_unsigned_compare;
    Alcotest.test_case "prefix operations" `Quick test_prefix_ops;
    Alcotest.test_case "prefix masks host bits" `Quick test_prefix_masks_host_bits;
    QCheck_alcotest.to_alcotest prop_prefix_mem_own_network;
    Alcotest.test_case "ethernet roundtrip" `Quick test_ethernet_roundtrip;
    Alcotest.test_case "ethernet rejects short frames" `Quick test_ethernet_short;
    Alcotest.test_case "arp roundtrip" `Quick test_arp_roundtrip;
    Alcotest.test_case "ipv4 roundtrip + checksum" `Quick
      test_ipv4_roundtrip_and_checksum;
    Alcotest.test_case "ipv4 ttl decrement" `Quick test_ipv4_ttl;
    Alcotest.test_case "udp roundtrip" `Quick test_udp_roundtrip;
    Alcotest.test_case "tcp roundtrip" `Quick test_tcp_roundtrip;
    Alcotest.test_case "icmp roundtrip + corruption" `Quick test_icmp_roundtrip;
    Alcotest.test_case "lldp discovery probe roundtrip" `Quick
      test_lldp_discovery_roundtrip;
    Alcotest.test_case "lldp generic TLVs" `Quick test_lldp_generic_tlvs;
    Alcotest.test_case "ospf hello roundtrip" `Quick test_ospf_hello_roundtrip;
    Alcotest.test_case "ospf ls-update roundtrip" `Quick test_ospf_lsu_roundtrip;
    Alcotest.test_case "ospf dd + ack roundtrip" `Quick
      test_ospf_dd_and_ack_roundtrip;
    Alcotest.test_case "ospf checksum rejects corruption" `Quick
      test_ospf_checksum_rejects_corruption;
    Alcotest.test_case "lsa fletcher self-verifies" `Quick
      test_lsa_fletcher_self_verifies;
    Alcotest.test_case "lsa instance comparison" `Quick test_compare_instance;
    Alcotest.test_case "an LSA with a bad Fletcher checksum is rejected at decode"
      `Quick test_lsa_bad_checksum_rejected;
    Alcotest.test_case "whole-frame udp parse" `Quick test_packet_parse_udp;
    Alcotest.test_case "unknown ethertype degrades to raw" `Quick
      test_packet_parse_unknown_ethertype;
    QCheck_alcotest.to_alcotest prop_udp_roundtrip;
    QCheck_alcotest.to_alcotest prop_lldp_discovery_roundtrip;
    QCheck_alcotest.to_alcotest prop_router_lsa_roundtrip;
    QCheck_alcotest.to_alcotest prop_header_matches_wire;
    QCheck_alcotest.to_alcotest prop_icmp_roundtrip;
    Alcotest.test_case "one-buffer frames keep the layered encoders' bytes"
      `Quick test_golden_frames;
    QCheck_alcotest.to_alcotest prop_spf_input_matches_body;
  ]
