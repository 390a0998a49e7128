open Rf_packet

type key = {
  in_port : int;
  dl_src : Mac.t;
  dl_dst : Mac.t;
  dl_vlan : int;
  dl_pcp : int;
  dl_type : int;
  nw_tos : int;
  nw_proto : int;
  nw_src : Ipv4_addr.t;
  nw_dst : Ipv4_addr.t;
  tp_src : int;
  tp_dst : int;
}

let untagged_vlan = 0xffff

(* --- the 12-tuple, read in place from frame bytes ----------------- *)

(* [key_of_frame] accepts exactly the frames [Packet.parse] accepts, so
   each protocol below repeats its decoder's checks on offsets into the
   frame instead of on sub-strings. *)

let eth_header = 14

let u8 f off = Char.code (String.unsafe_get f off)

let u16 = String.get_uint16_be

let make_key ~in_port f ~dl_type ~nw_tos ~nw_proto ~nw_src ~nw_dst ~tp_src
    ~tp_dst =
  Some
    {
      in_port;
      dl_src = Mac.get f 6;
      dl_dst = Mac.get f 0;
      dl_vlan = untagged_vlan;
      dl_pcp = 0;
      dl_type;
      nw_tos;
      nw_proto;
      nw_src;
      nw_dst;
      tp_src;
      tp_dst;
    }

let l2_key ~in_port f ~dl_type =
  make_key ~in_port f ~dl_type ~nw_tos:0 ~nw_proto:0 ~nw_src:Ipv4_addr.any
    ~nw_dst:Ipv4_addr.any ~tp_src:0 ~tp_dst:0

(* Arp.of_wire: Ethernet/IPv4 hardware and protocol, 28 bytes, opcode
   1 or 2. The key carries the opcode and the two protocol addresses. *)
let arp_key ~in_port f =
  let p = eth_header in
  if String.length f - p < 28 then None
  else if u16 f p <> 1 || u16 f (p + 2) <> Ethernet.ethertype_ipv4
          || u8 f (p + 4) <> 6 || u8 f (p + 5) <> 4
  then None
  else
    let op = u16 f (p + 6) in
    if op <> 1 && op <> 2 then None
    else
      make_key ~in_port f ~dl_type:Ethernet.ethertype_arp ~nw_tos:0
        ~nw_proto:op
        ~nw_src:(Ipv4_addr.of_int32 (String.get_int32_be f (p + 14)))
        ~nw_dst:(Ipv4_addr.of_int32 (String.get_int32_be f (p + 24)))
        ~tp_src:0 ~tp_dst:0

(* Lldp.of_wire fails only on a TLV whose value runs past the end. *)
let rec lldp_tlvs_ok f p =
  if String.length f - p < 2 then true
  else
    let header = u16 f p in
    if header lsr 9 = 0 then true
    else
      let next = p + 2 + (header land 0x1FF) in
      next <= String.length f && lldp_tlvs_ok f next

(* The L4 checks of Packet.parse_l4 on the IPv4 payload [q, q + n).
   Returns [tp_src lor (tp_dst lsl 16)], or -1 where parse_l4 fails. *)
let l4_ports f ~protocol q n =
  if protocol = Ipv4.proto_udp then
    if n >= 8 && u16 f (q + 4) >= 8 && u16 f (q + 4) <= n then
      u16 f q lor (u16 f (q + 2) lsl 16)
    else -1
  else if protocol = Ipv4.proto_tcp then
    if n >= 20 && u8 f (q + 12) lsr 4 >= 5 && (u8 f (q + 12) lsr 4) * 4 <= n
    then u16 f q lor (u16 f (q + 2) lsl 16)
    else -1
  else if protocol = Ipv4.proto_icmp then
    (* OF 1.0 reads the ICMP type and code; the key keeps the code of a
       destination-unreachable only, as the decoded message does. *)
    if n < 8 || Wire.checksum_sub f q n <> 0 then -1
    else
      match u8 f q with
      | (0 | 8 | 11) as typ -> typ
      | 3 -> 3 lor (u8 f (q + 1) lsl 16)
      | _ -> -1
  else if protocol = Ipv4.proto_ospf then
    match Ospf_pkt.of_wire (String.sub f q n) with Ok _ -> 0 | Error _ -> -1
  else 0

let ipv4_key ~in_port f =
  let p = eth_header in
  let n = String.length f - p in
  if n < 20 then None
  else
    let vihl = u8 f p in
    let header_len = (vihl land 0xF) * 4 in
    let total_len = u16 f (p + 2) in
    if vihl lsr 4 <> 4 || header_len < 20 || header_len > n
       || Wire.checksum_sub f p header_len <> 0
       || total_len < header_len || total_len > n
    then None
    else
      let protocol = u8 f (p + 9) in
      let ports =
        l4_ports f ~protocol (p + header_len) (total_len - header_len)
      in
      if ports < 0 then None
      else
        make_key ~in_port f ~dl_type:Ethernet.ethertype_ipv4
          ~nw_tos:(u8 f (p + 1)) ~nw_proto:protocol
          ~nw_src:(Ipv4_addr.of_int32 (String.get_int32_be f (p + 12)))
          ~nw_dst:(Ipv4_addr.of_int32 (String.get_int32_be f (p + 16)))
          ~tp_src:(ports land 0xFFFF) ~tp_dst:(ports lsr 16)

let key_of_frame ~in_port f =
  if String.length f < eth_header then None
  else
    let dl_type = u16 f 12 in
    if dl_type = Ethernet.ethertype_ipv4 then ipv4_key ~in_port f
    else if dl_type = Ethernet.ethertype_arp then arp_key ~in_port f
    else if dl_type = Ethernet.ethertype_lldp then
      if lldp_tlvs_ok f eth_header then l2_key ~in_port f ~dl_type else None
    else l2_key ~in_port f ~dl_type

type t = {
  m_in_port : int option;
  m_dl_src : Mac.t option;
  m_dl_dst : Mac.t option;
  m_dl_vlan : int option;
  m_dl_pcp : int option;
  m_dl_type : int option;
  m_nw_tos : int option;
  m_nw_proto : int option;
  m_nw_src : Ipv4_addr.Prefix.t option;
  m_nw_dst : Ipv4_addr.Prefix.t option;
  m_tp_src : int option;
  m_tp_dst : int option;
}

let wildcard_all =
  {
    m_in_port = None;
    m_dl_src = None;
    m_dl_dst = None;
    m_dl_vlan = None;
    m_dl_pcp = None;
    m_dl_type = None;
    m_nw_tos = None;
    m_nw_proto = None;
    m_nw_src = None;
    m_nw_dst = None;
    m_tp_src = None;
    m_tp_dst = None;
  }

let exact_of_key k =
  {
    m_in_port = Some k.in_port;
    m_dl_src = Some k.dl_src;
    m_dl_dst = Some k.dl_dst;
    m_dl_vlan = Some k.dl_vlan;
    m_dl_pcp = Some k.dl_pcp;
    m_dl_type = Some k.dl_type;
    m_nw_tos = Some k.nw_tos;
    m_nw_proto = Some k.nw_proto;
    m_nw_src = Some (Ipv4_addr.Prefix.make k.nw_src 32);
    m_nw_dst = Some (Ipv4_addr.Prefix.make k.nw_dst 32);
    m_tp_src = Some k.tp_src;
    m_tp_dst = Some k.tp_dst;
  }

let dl_type_is dl_type = { wildcard_all with m_dl_type = Some dl_type }

let nw_dst_prefix prefix =
  {
    wildcard_all with
    m_dl_type = Some Ethernet.ethertype_ipv4;
    m_nw_dst = Some prefix;
  }

let field_matches eq m v =
  match m with None -> true | Some expected -> eq expected v

let matches m k =
  field_matches Int.equal m.m_in_port k.in_port
  && field_matches Mac.equal m.m_dl_src k.dl_src
  && field_matches Mac.equal m.m_dl_dst k.dl_dst
  && field_matches Int.equal m.m_dl_vlan k.dl_vlan
  && field_matches Int.equal m.m_dl_pcp k.dl_pcp
  && field_matches Int.equal m.m_dl_type k.dl_type
  && field_matches Int.equal m.m_nw_tos k.nw_tos
  && field_matches Int.equal m.m_nw_proto k.nw_proto
  && (match m.m_nw_src with
     | None -> true
     | Some p -> Ipv4_addr.Prefix.mem k.nw_src p)
  && (match m.m_nw_dst with
     | None -> true
     | Some p -> Ipv4_addr.Prefix.mem k.nw_dst p)
  && field_matches Int.equal m.m_tp_src k.tp_src
  && field_matches Int.equal m.m_tp_dst k.tp_dst

let field_subsumes eq outer inner =
  match (outer, inner) with
  | None, (Some _ | None) -> true
  | Some _, None -> false
  | Some o, Some i -> eq o i

let prefix_subsumes outer inner =
  match (outer, inner) with
  | None, (Some _ | None) -> true
  | Some _, None -> false
  | Some o, Some i -> Ipv4_addr.Prefix.subset i o

let subsumes outer inner =
  field_subsumes Int.equal outer.m_in_port inner.m_in_port
  && field_subsumes Mac.equal outer.m_dl_src inner.m_dl_src
  && field_subsumes Mac.equal outer.m_dl_dst inner.m_dl_dst
  && field_subsumes Int.equal outer.m_dl_vlan inner.m_dl_vlan
  && field_subsumes Int.equal outer.m_dl_pcp inner.m_dl_pcp
  && field_subsumes Int.equal outer.m_dl_type inner.m_dl_type
  && field_subsumes Int.equal outer.m_nw_tos inner.m_nw_tos
  && field_subsumes Int.equal outer.m_nw_proto inner.m_nw_proto
  && prefix_subsumes outer.m_nw_src inner.m_nw_src
  && prefix_subsumes outer.m_nw_dst inner.m_nw_dst
  && field_subsumes Int.equal outer.m_tp_src inner.m_tp_src
  && field_subsumes Int.equal outer.m_tp_dst inner.m_tp_dst

let field_intersects eq a b =
  match (a, b) with
  | None, _ | _, None -> true
  | Some x, Some y -> eq x y

let prefix_intersects a b =
  match (a, b) with
  | None, _ | _, None -> true
  | Some x, Some y -> Ipv4_addr.Prefix.subset x y || Ipv4_addr.Prefix.subset y x

let intersects a b =
  field_intersects Int.equal a.m_in_port b.m_in_port
  && field_intersects Mac.equal a.m_dl_src b.m_dl_src
  && field_intersects Mac.equal a.m_dl_dst b.m_dl_dst
  && field_intersects Int.equal a.m_dl_vlan b.m_dl_vlan
  && field_intersects Int.equal a.m_dl_pcp b.m_dl_pcp
  && field_intersects Int.equal a.m_dl_type b.m_dl_type
  && field_intersects Int.equal a.m_nw_tos b.m_nw_tos
  && field_intersects Int.equal a.m_nw_proto b.m_nw_proto
  && prefix_intersects a.m_nw_src b.m_nw_src
  && prefix_intersects a.m_nw_dst b.m_nw_dst
  && field_intersects Int.equal a.m_tp_src b.m_tp_src
  && field_intersects Int.equal a.m_tp_dst b.m_tp_dst

(* OF 1.0 wildcard bits. *)
let wc_in_port = 1 lsl 0

let wc_dl_vlan = 1 lsl 1

let wc_dl_src = 1 lsl 2

let wc_dl_dst = 1 lsl 3

let wc_dl_type = 1 lsl 4

let wc_nw_proto = 1 lsl 5

let wc_tp_src = 1 lsl 6

let wc_tp_dst = 1 lsl 7

let wc_nw_src_shift = 8

let wc_nw_dst_shift = 14

let wc_dl_vlan_pcp = 1 lsl 20

let wc_nw_tos = 1 lsl 21

let to_wire m =
  let w = Wire.Writer.create ~initial:40 () in
  let bit b = function Some _ -> 0 | None -> b in
  let src_wc_bits =
    match m.m_nw_src with
    | None -> 32
    | Some p -> 32 - Ipv4_addr.Prefix.length p
  in
  let dst_wc_bits =
    match m.m_nw_dst with
    | None -> 32
    | Some p -> 32 - Ipv4_addr.Prefix.length p
  in
  let wildcards =
    bit wc_in_port m.m_in_port
    lor bit wc_dl_vlan m.m_dl_vlan
    lor bit wc_dl_src m.m_dl_src
    lor bit wc_dl_dst m.m_dl_dst
    lor bit wc_dl_type m.m_dl_type
    lor bit wc_nw_proto m.m_nw_proto
    lor bit wc_tp_src m.m_tp_src
    lor bit wc_tp_dst m.m_tp_dst
    lor (src_wc_bits lsl wc_nw_src_shift)
    lor (dst_wc_bits lsl wc_nw_dst_shift)
    lor bit wc_dl_vlan_pcp m.m_dl_pcp
    lor bit wc_nw_tos m.m_nw_tos
  in
  Wire.Writer.u32 w (Int32.of_int wildcards);
  Wire.Writer.u16 w (Option.value m.m_in_port ~default:0);
  Wire.Writer.bytes w (Mac.to_bytes (Option.value m.m_dl_src ~default:Mac.zero));
  Wire.Writer.bytes w (Mac.to_bytes (Option.value m.m_dl_dst ~default:Mac.zero));
  Wire.Writer.u16 w (Option.value m.m_dl_vlan ~default:0);
  Wire.Writer.u8 w (Option.value m.m_dl_pcp ~default:0);
  Wire.Writer.u8 w 0 (* pad *);
  Wire.Writer.u16 w (Option.value m.m_dl_type ~default:0);
  Wire.Writer.u8 w (Option.value m.m_nw_tos ~default:0);
  Wire.Writer.u8 w (Option.value m.m_nw_proto ~default:0);
  Wire.Writer.zeros w 2;
  let prefix_addr = function
    | None -> Ipv4_addr.any
    | Some p -> Ipv4_addr.Prefix.network p
  in
  Wire.Writer.u32 w (Ipv4_addr.to_int32 (prefix_addr m.m_nw_src));
  Wire.Writer.u32 w (Ipv4_addr.to_int32 (prefix_addr m.m_nw_dst));
  Wire.Writer.u16 w (Option.value m.m_tp_src ~default:0);
  Wire.Writer.u16 w (Option.value m.m_tp_dst ~default:0);
  Wire.Writer.contents w

let of_wire r =
  try
    let wildcards = Int32.to_int (Wire.Reader.u32 r) land 0x3FFFFF in
    let in_port = Wire.Reader.u16 r in
    let dl_src = Mac.of_bytes (Wire.Reader.bytes r 6) in
    let dl_dst = Mac.of_bytes (Wire.Reader.bytes r 6) in
    let dl_vlan = Wire.Reader.u16 r in
    let dl_pcp = Wire.Reader.u8 r in
    Wire.Reader.skip r 1;
    let dl_type = Wire.Reader.u16 r in
    let nw_tos = Wire.Reader.u8 r in
    let nw_proto = Wire.Reader.u8 r in
    Wire.Reader.skip r 2;
    let nw_src = Ipv4_addr.of_int32 (Wire.Reader.u32 r) in
    let nw_dst = Ipv4_addr.of_int32 (Wire.Reader.u32 r) in
    let tp_src = Wire.Reader.u16 r in
    let tp_dst = Wire.Reader.u16 r in
    let opt bit v = if wildcards land bit <> 0 then None else Some v in
    let prefix shift addr =
      let wc_bits = (wildcards lsr shift) land 0x3F in
      if wc_bits >= 32 then None
      else Some (Ipv4_addr.Prefix.make addr (32 - wc_bits))
    in
    Ok
      {
        m_in_port = opt wc_in_port in_port;
        m_dl_src = opt wc_dl_src dl_src;
        m_dl_dst = opt wc_dl_dst dl_dst;
        m_dl_vlan = opt wc_dl_vlan dl_vlan;
        m_dl_pcp = opt wc_dl_vlan_pcp dl_pcp;
        m_dl_type = opt wc_dl_type dl_type;
        m_nw_tos = opt wc_nw_tos nw_tos;
        m_nw_proto = opt wc_nw_proto nw_proto;
        m_nw_src = prefix wc_nw_src_shift nw_src;
        m_nw_dst = prefix wc_nw_dst_shift nw_dst;
        m_tp_src = opt wc_tp_src tp_src;
        m_tp_dst = opt wc_tp_dst tp_dst;
      }
  with Wire.Truncated -> Error "of_match: truncated"

let equal a b =
  Option.equal Int.equal a.m_in_port b.m_in_port
  && Option.equal Mac.equal a.m_dl_src b.m_dl_src
  && Option.equal Mac.equal a.m_dl_dst b.m_dl_dst
  && Option.equal Int.equal a.m_dl_vlan b.m_dl_vlan
  && Option.equal Int.equal a.m_dl_pcp b.m_dl_pcp
  && Option.equal Int.equal a.m_dl_type b.m_dl_type
  && Option.equal Int.equal a.m_nw_tos b.m_nw_tos
  && Option.equal Int.equal a.m_nw_proto b.m_nw_proto
  && Option.equal Ipv4_addr.Prefix.equal a.m_nw_src b.m_nw_src
  && Option.equal Ipv4_addr.Prefix.equal a.m_nw_dst b.m_nw_dst
  && Option.equal Int.equal a.m_tp_src b.m_tp_src
  && Option.equal Int.equal a.m_tp_dst b.m_tp_dst

let pp ppf m =
  let field name pp_v = function
    | None -> ()
    | Some v -> Format.fprintf ppf "%s=%a " name pp_v v
  in
  Format.fprintf ppf "{";
  field "in_port" Format.pp_print_int m.m_in_port;
  field "dl_src" Mac.pp m.m_dl_src;
  field "dl_dst" Mac.pp m.m_dl_dst;
  field "dl_type" (fun ppf v -> Format.fprintf ppf "0x%04x" v) m.m_dl_type;
  field "nw_proto" Format.pp_print_int m.m_nw_proto;
  field "nw_src" Ipv4_addr.Prefix.pp m.m_nw_src;
  field "nw_dst" Ipv4_addr.Prefix.pp m.m_nw_dst;
  field "tp_src" Format.pp_print_int m.m_tp_src;
  field "tp_dst" Format.pp_print_int m.m_tp_dst;
  Format.fprintf ppf "}"
