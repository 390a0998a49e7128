type link_type = Point_to_point | Transit | Stub | Virtual_link

type router_link = {
  link_id : Ipv4_addr.t;
  link_data : Ipv4_addr.t;
  link_type : link_type;
  metric : int;
}

type lsa_body =
  | Router of { links : router_link list }
  | Network of { mask : Ipv4_addr.t; attached : Ipv4_addr.t list }
  | Opaque of { lsa_type : int; data : string }

type lsa_key = { k_type : int; k_id : Ipv4_addr.t; k_adv : Ipv4_addr.t }

type lsa_header = {
  h_age : int;
  h_options : int;
  h_key : lsa_key;
  h_seq : int32;
  h_checksum : int;
  h_length : int;
}

type spf_input = {
  p2p : Ipv4_addr.t array;
  p2p_metric : int array;
  stubs : (Ipv4_addr.Prefix.t * int) array;
}

type lsa = {
  age : int;
  options : int;
  link_state_id : Ipv4_addr.t;
  adv_router : Ipv4_addr.t;
  seq : int32;
  body : lsa_body;
  header : lsa_header;
  wire : string;
  spf : spf_input;
}

let initial_seq = 0x80000001l

let max_age = 3600

let lsa_type = function
  | Router _ -> 1
  | Network _ -> 2
  | Opaque { lsa_type; _ } -> lsa_type

let key_of_lsa lsa = lsa.header.h_key

let header_of_lsa lsa = lsa.header

let lsa_to_wire lsa = lsa.wire

(* Fletcher checksum per RFC 2328 §12.1.7 / RFC 905 Annex B over the
   [len] bytes of [s] from [pos], reading the 16-bit field at [pos + off]
   as zero. The sums are reduced mod 255 once, at the end; below 2^24
   bytes they cannot overflow. *)
let fletcher_sub s pos len off =
  if pos < 0 || off < 0 || len < off + 2 || pos > String.length s - len then
    invalid_arg "Ospf_pkt.fletcher16";
  let c0 = ref 0 and c1 = ref 0 in
  for i = pos to pos + len - 1 do
    c0 := !c0 + Char.code (String.unsafe_get s i);
    c1 := !c1 + !c0
  done;
  (* Take the field back out: byte [k] of the region adds itself once
     to c0 and [len - k] times to c1. *)
  let b0 = Char.code s.[pos + off] and b1 = Char.code s.[pos + off + 1] in
  let c0 = (!c0 - b0 - b1) mod 255 in
  let c1 = (!c1 - (b0 * (len - off)) - (b1 * (len - off - 1))) mod 255 in
  let x = (((len - off - 1) * c0) - c1) mod 255 in
  let x = if x <= 0 then x + 255 else x in
  let y = 510 - c0 - x in
  let y = if y > 255 then y - 255 else if y <= 0 then y + 255 else y in
  (x lsl 8) lor y

let fletcher16 region off = fletcher_sub region 0 (String.length region) off

(* The region excludes the 2-byte age field; the checksum sits at bytes
   16-17 of the LSA, i.e. offset 14 of the region. *)
let lsa_checksum wire = fletcher_sub wire 2 (String.length wire - 2) 14

let link_type_code = function
  | Point_to_point -> 1
  | Transit -> 2
  | Stub -> 3
  | Virtual_link -> 4

let link_type_of_code = function
  | 1 -> Ok Point_to_point
  | 2 -> Ok Transit
  | 3 -> Ok Stub
  | 4 -> Ok Virtual_link
  | n -> Error (Printf.sprintf "ospf: bad router-link type %d" n)

(* Every live LSA instance exists once: LSAs are immutable, and every
   LSDB holding an instance holds the value interned here under its wire
   bytes. The set is weak, so an instance no database holds is freed. *)
module Interned = Weak.Make (struct
  type t = lsa

  let equal a b = String.equal a.wire b.wire

  let hash a = Hashtbl.hash a.wire
end)

let interned = Interned.create 256

(* An encoded LSA: 20-byte header followed by the body. *)
let encode ~age ~options ~link_state_id ~adv_router ~seq body =
  let w = Wire.Writer.create ~initial:64 () in
  Wire.Writer.u16 w age;
  Wire.Writer.u8 w options;
  Wire.Writer.u8 w (lsa_type body);
  Ipv4_addr.write w link_state_id;
  Ipv4_addr.write w adv_router;
  Wire.Writer.u32 w seq;
  Wire.Writer.u16 w 0 (* checksum placeholder *);
  Wire.Writer.u16 w 0 (* length placeholder *);
  (match body with
  | Router { links } ->
      Wire.Writer.u8 w 0 (* V/E/B flags: plain internal router *);
      Wire.Writer.u8 w 0;
      Wire.Writer.u16 w (List.length links);
      List.iter
        (fun l ->
          Ipv4_addr.write w l.link_id;
          Ipv4_addr.write w l.link_data;
          Wire.Writer.u8 w (link_type_code l.link_type);
          Wire.Writer.u8 w 0 (* #TOS *);
          Wire.Writer.u16 w l.metric)
        links
  | Network { mask; attached } ->
      Ipv4_addr.write w mask;
      List.iter (fun r -> Ipv4_addr.write w r) attached
  | Opaque { data; _ } -> Wire.Writer.bytes w data);
  Wire.Writer.patch_u16 w 18 (Wire.Writer.length w);
  Wire.Writer.patch_u16 w 16 (lsa_checksum (Wire.Writer.contents w));
  Wire.Writer.contents w

(* Set bits of the 32-bit netmask (SWAR popcount). *)
let mask_len m =
  let v = Ipv4_addr.to_int m in
  let v = v - ((v lsr 1) land 0x55555555) in
  let v = (v land 0x33333333) + ((v lsr 2) land 0x33333333) in
  let v = (v + (v lsr 4)) land 0x0F0F0F0F in
  ((v * 0x01010101) land 0xFFFFFFFF) lsr 24

let no_spf_input = { p2p = [||]; p2p_metric = [||]; stubs = [||] }

let spf_input_of_body = function
  | Router { links } ->
      let p2p =
        List.filter (fun l -> l.link_type = Point_to_point) links
        |> Array.of_list
      in
      {
        p2p = Array.map (fun l -> l.link_id) p2p;
        p2p_metric = Array.map (fun l -> l.metric) p2p;
        stubs =
          List.filter_map
            (fun l ->
              if l.link_type = Stub then
                Some
                  ( Ipv4_addr.Prefix.make l.link_id (mask_len l.link_data),
                    l.metric )
              else None)
            links
          |> Array.of_list;
      }
  | Network _ | Opaque _ -> no_spf_input

let with_wire ~age ~options ~link_state_id ~adv_router ~seq body wire =
  {
    age;
    options;
    link_state_id;
    adv_router;
    seq;
    body;
    header =
      {
        h_age = age;
        h_options = options;
        h_key =
          { k_type = lsa_type body; k_id = link_state_id; k_adv = adv_router };
        h_seq = seq;
        h_checksum = String.get_uint16_be wire 16;
        h_length = String.length wire;
      };
    wire;
    spf = spf_input_of_body body;
  }

let make_lsa ~age ~options ~link_state_id ~adv_router ~seq body =
  Interned.merge interned
    (with_wire ~age ~options ~link_state_id ~adv_router ~seq body
       (encode ~age ~options ~link_state_id ~adv_router ~seq body))

let compare_instance a b =
  (* Sequence numbers are signed 32-bit values starting at 0x80000001. *)
  match Int32.compare a.h_seq b.h_seq with
  | 0 -> (
      match Int.compare a.h_checksum b.h_checksum with
      | 0 ->
          let age_class h = if h.h_age >= max_age then 1 else 0 in
          (* A MaxAge instance is considered more recent. *)
          (match Int.compare (age_class a) (age_class b) with
          | 0 ->
              let da = a.h_age and db = b.h_age in
              (* Materially younger (by > 15 min) wins; else same. *)
              if abs (da - db) > 900 then Int.compare db da else 0
          | c -> c)
      | c -> c)
  | c -> c

let decode_body typ r =
  match typ with
  | 1 ->
      let _flags = Wire.Reader.u8 r in
      let _zero = Wire.Reader.u8 r in
      let n = Wire.Reader.u16 r in
      let rec links acc i =
        if i = 0 then Ok (List.rev acc)
        else begin
          let link_id = Ipv4_addr.read r in
          let link_data = Ipv4_addr.read r in
          let code = Wire.Reader.u8 r in
          let _tos = Wire.Reader.u8 r in
          let metric = Wire.Reader.u16 r in
          match link_type_of_code code with
          | Ok link_type ->
              links ({ link_id; link_data; link_type; metric } :: acc) (i - 1)
          | Error e -> Error e
        end
      in
      Result.map (fun links -> Router { links }) (links [] n)
  | 2 ->
      let mask = Ipv4_addr.read r in
      let rec attached acc =
        if Wire.Reader.remaining r < 4 then List.rev acc
        else attached (Ipv4_addr.read r :: acc)
      in
      Ok (Network { mask; attached = attached [] })
  | other -> Ok (Opaque { lsa_type = other; data = Wire.Reader.rest r })

(* Decodes an LSA whose checksum has been verified. *)
let decode_lsa wire =
  let r = Wire.Reader.of_string wire in
  let age = Wire.Reader.u16 r in
  let options = Wire.Reader.u8 r in
  let typ = Wire.Reader.u8 r in
  let link_state_id = Ipv4_addr.read r in
  let adv_router = Ipv4_addr.read r in
  let seq = Wire.Reader.u32 r in
  Wire.Reader.skip r 4 (* checksum and length *);
  Result.map
    (fun body ->
      Interned.merge interned
        (with_wire ~age ~options ~link_state_id ~adv_router ~seq body wire))
    (decode_body typ r)

(* Looks up an instance by its wire bytes alone. *)
let probe =
  with_wire ~age:0 ~options:0 ~link_state_id:Ipv4_addr.any
    ~adv_router:Ipv4_addr.any ~seq:0l
    (Opaque { lsa_type = 0; data = "" })
    (String.make 20 '\000')

let lsa_of_wire r =
  try
    let length = Wire.Reader.peek_u16 r 18 in
    if length < 20 then Error "ospf: LSA length too small"
    else begin
      let wire = Wire.Reader.bytes r length in
      if lsa_checksum wire <> String.get_uint16_be wire 16 then
        Error "ospf: bad LSA checksum"
      else
        match Interned.find_opt interned { probe with wire } with
        | Some lsa -> Ok lsa
        | None -> decode_lsa wire
    end
  with Wire.Truncated -> Error "ospf: truncated LSA"

let lsa_header_to_wire w h =
  Wire.Writer.u16 w h.h_age;
  Wire.Writer.u8 w h.h_options;
  Wire.Writer.u8 w h.h_key.k_type;
  Ipv4_addr.write w h.h_key.k_id;
  Ipv4_addr.write w h.h_key.k_adv;
  Wire.Writer.u32 w h.h_seq;
  Wire.Writer.u16 w h.h_checksum;
  Wire.Writer.u16 w h.h_length

let lsa_header_of_wire r =
  let h_age = Wire.Reader.u16 r in
  let h_options = Wire.Reader.u8 r in
  let k_type = Wire.Reader.u8 r in
  let k_id = Ipv4_addr.read r in
  let k_adv = Ipv4_addr.read r in
  let h_seq = Wire.Reader.u32 r in
  let h_checksum = Wire.Reader.u16 r in
  let h_length = Wire.Reader.u16 r in
  { h_age; h_options; h_key = { k_type; k_id; k_adv }; h_seq; h_checksum; h_length }

type hello = {
  netmask : Ipv4_addr.t;
  hello_interval : int;
  dead_interval : int;
  priority : int;
  dr : Ipv4_addr.t;
  bdr : Ipv4_addr.t;
  neighbors : Ipv4_addr.t list;
}

type db_desc = {
  mtu : int;
  dd_init : bool;
  dd_more : bool;
  dd_master : bool;
  dd_seq : int32;
  headers : lsa_header list;
}

type payload =
  | Hello of hello
  | Db_desc of db_desc
  | Ls_request of lsa_key list
  | Ls_update of lsa list
  | Ls_ack of lsa_header list

type t = { router_id : Ipv4_addr.t; area_id : Ipv4_addr.t; payload : payload }

let payload_type = function
  | Hello _ -> 1
  | Db_desc _ -> 2
  | Ls_request _ -> 3
  | Ls_update _ -> 4
  | Ls_ack _ -> 5

(* [write_each f w l] is [List.iter (f w) l] without the closure. *)
let rec write_each f w = function
  | [] -> ()
  | x :: rest ->
      f w x;
      write_each f w rest

let write_key w k =
  Wire.Writer.u32_int w k.k_type;
  Ipv4_addr.write w k.k_id;
  Ipv4_addr.write w k.k_adv

let write_lsa w lsa = Wire.Writer.bytes w lsa.wire

let encode_payload w = function
  | Hello h ->
      Ipv4_addr.write w h.netmask;
      Wire.Writer.u16 w h.hello_interval;
      Wire.Writer.u8 w 0x02 (* options: E *);
      Wire.Writer.u8 w h.priority;
      Wire.Writer.u32_int w h.dead_interval;
      Ipv4_addr.write w h.dr;
      Ipv4_addr.write w h.bdr;
      write_each Ipv4_addr.write w h.neighbors
  | Db_desc d ->
      Wire.Writer.u16 w d.mtu;
      Wire.Writer.u8 w 0x02;
      Wire.Writer.u8 w
        ((if d.dd_init then 0x04 else 0)
        lor (if d.dd_more then 0x02 else 0)
        lor if d.dd_master then 0x01 else 0);
      Wire.Writer.u32 w d.dd_seq;
      write_each lsa_header_to_wire w d.headers
  | Ls_request keys -> write_each write_key w keys
  | Ls_update lsas ->
      Wire.Writer.u32_int w (List.length lsas);
      write_each write_lsa w lsas
  | Ls_ack headers -> write_each lsa_header_to_wire w headers

let header_size = 24

let size t =
  header_size
  +
  match t.payload with
  | Hello h -> 20 + (4 * List.length h.neighbors)
  | Db_desc d -> 8 + (20 * List.length d.headers)
  | Ls_request keys -> 12 * List.length keys
  | Ls_update lsas ->
      List.fold_left (fun n lsa -> n + String.length lsa.wire) 4 lsas
  | Ls_ack headers -> 20 * List.length headers

let write w t =
  let off = Wire.Writer.length w in
  Wire.Writer.u8 w 2 (* version *);
  Wire.Writer.u8 w (payload_type t.payload);
  Wire.Writer.u16 w 0 (* length, patched below *);
  Ipv4_addr.write w t.router_id;
  Ipv4_addr.write w t.area_id;
  Wire.Writer.u16 w 0 (* checksum, patched below *);
  Wire.Writer.u16 w 0 (* autype: null *);
  Wire.Writer.zeros w 8 (* auth data *);
  encode_payload w t.payload;
  let len = Wire.Writer.length w - off in
  Wire.Writer.patch_u16 w (off + 2) len;
  Wire.Writer.patch_u16 w (off + 12) (Wire.Writer.checksum w off len)

let decode_payload typ r =
  try
    match typ with
    | 1 ->
        let netmask = Ipv4_addr.read r in
        let hello_interval = Wire.Reader.u16 r in
        let _options = Wire.Reader.u8 r in
        let priority = Wire.Reader.u8 r in
        let dead_interval = Wire.Reader.u32_int r in
        let dr = Ipv4_addr.read r in
        let bdr = Ipv4_addr.read r in
        let rec neighbors acc =
          if Wire.Reader.remaining r < 4 then List.rev acc
          else neighbors (Ipv4_addr.read r :: acc)
        in
        Ok
          (Hello
             {
               netmask;
               hello_interval;
               dead_interval;
               priority;
               dr;
               bdr;
               neighbors = neighbors [];
             })
    | 2 ->
        let mtu = Wire.Reader.u16 r in
        let _options = Wire.Reader.u8 r in
        let flags = Wire.Reader.u8 r in
        let dd_seq = Wire.Reader.u32 r in
        let rec headers acc =
          if Wire.Reader.remaining r < 20 then List.rev acc
          else headers (lsa_header_of_wire r :: acc)
        in
        Ok
          (Db_desc
             {
               mtu;
               dd_init = flags land 0x04 <> 0;
               dd_more = flags land 0x02 <> 0;
               dd_master = flags land 0x01 <> 0;
               dd_seq;
               headers = headers [];
             })
    | 3 ->
        let rec keys acc =
          if Wire.Reader.remaining r < 12 then List.rev acc
          else begin
            let k_type = Wire.Reader.u32_int r in
            let k_id = Ipv4_addr.read r in
            let k_adv = Ipv4_addr.read r in
            keys ({ k_type; k_id; k_adv } :: acc)
          end
        in
        Ok (Ls_request (keys []))
    | 4 ->
        let n = Wire.Reader.u32_int r in
        let rec lsas acc i =
          if i = 0 then Ok (Ls_update (List.rev acc))
          else
            match lsa_of_wire r with
            | Ok lsa -> lsas (lsa :: acc) (i - 1)
            | Error e -> Error e
        in
        lsas [] n
    | 5 ->
        let rec headers acc =
          if Wire.Reader.remaining r < 20 then List.rev acc
          else headers (lsa_header_of_wire r :: acc)
        in
        Ok (Ls_ack (headers []))
    | n -> Error (Printf.sprintf "ospf: unknown packet type %d" n)
  with Wire.Truncated -> Error "ospf: truncated payload"

let read r =
  try
    let n = Wire.Reader.remaining r in
    if Wire.Reader.checksum r n <> 0 then Error "ospf: bad packet checksum"
    else begin
      let version = Wire.Reader.u8 r in
      if version <> 2 then Error "ospf: not OSPFv2"
      else begin
        let typ = Wire.Reader.u8 r in
        let length = Wire.Reader.u16 r in
        let router_id = Ipv4_addr.read r in
        let area_id = Ipv4_addr.read r in
        let _checksum = Wire.Reader.u16 r in
        let _autype = Wire.Reader.u16 r in
        Wire.Reader.skip r 8 (* auth data *);
        if length < header_size || length > n then
          Error "ospf: bad packet length"
        else
          let body = Wire.Reader.sub r (length - header_size) in
          Result.map
            (fun payload -> { router_id; area_id; payload })
            (decode_payload typ body)
      end
    end
  with Wire.Truncated -> Error "ospf: truncated packet"

let pp ppf t =
  let kind =
    match t.payload with
    | Hello _ -> "hello"
    | Db_desc _ -> "db-desc"
    | Ls_request _ -> "ls-request"
    | Ls_update l -> Printf.sprintf "ls-update(%d)" (List.length l)
    | Ls_ack l -> Printf.sprintf "ls-ack(%d)" (List.length l)
  in
  Format.fprintf ppf "ospf %s from %a" kind Ipv4_addr.pp t.router_id
