open Rf_packet

type open_msg = { o_asn : int; o_hold_time : int; o_router_id : Ipv4_addr.t }

type update = {
  u_withdrawn : Ipv4_addr.Prefix.t list;
  u_as_path : int list;
  u_next_hop : Ipv4_addr.t option;
  u_nlri : Ipv4_addr.Prefix.t list;
}

type t =
  | Open of open_msg
  | Update of update
  | Notification of { code : int; subcode : int }
  | Keepalive

let marker = String.make 16 '\xff'

let type_code = function
  | Open _ -> 1
  | Update _ -> 2
  | Notification _ -> 3
  | Keepalive -> 4

let write_prefix w p =
  let len = Ipv4_addr.Prefix.length p in
  Wire.Writer.u8 w len;
  let bytes = (len + 7) / 8 in
  let v = Ipv4_addr.to_int32 (Ipv4_addr.Prefix.network p) in
  for i = 0 to bytes - 1 do
    Wire.Writer.u8 w
      (Int32.to_int (Int32.shift_right_logical v (8 * (3 - i))) land 0xff)
  done

let read_prefix r =
  let len = Wire.Reader.u8 r in
  if len > 32 then Error "bgp: prefix length > 32"
  else begin
    let bytes = (len + 7) / 8 in
    let v = ref 0l in
    for i = 0 to 3 do
      let b = if i < bytes then Wire.Reader.u8 r else 0 in
      v := Int32.logor !v (Int32.shift_left (Int32.of_int b) (8 * (3 - i)))
    done;
    Ok (Ipv4_addr.Prefix.make (Ipv4_addr.of_int32 !v) len)
  end

let encode_body w = function
  | Open o ->
      Wire.Writer.u8 w 4 (* version *);
      Wire.Writer.u16 w o.o_asn;
      Wire.Writer.u16 w o.o_hold_time;
      Wire.Writer.u32 w (Ipv4_addr.to_int32 o.o_router_id);
      Wire.Writer.u8 w 0 (* no optional parameters *)
  | Keepalive -> ()
  | Notification { code; subcode } ->
      Wire.Writer.u8 w code;
      Wire.Writer.u8 w subcode
  | Update u ->
      (* Each section's 2-byte length is patched once it is written. *)
      let section write =
        let off = Wire.Writer.length w in
        Wire.Writer.u16 w 0;
        write ();
        Wire.Writer.patch_u16 w off (Wire.Writer.length w - off - 2)
      in
      section (fun () -> List.iter (write_prefix w) u.u_withdrawn);
      section (fun () ->
        if u.u_nlri <> [] then begin
          (* ORIGIN: IGP *)
          Wire.Writer.u8 w 0x40;
          Wire.Writer.u8 w 1;
          Wire.Writer.u8 w 1;
          Wire.Writer.u8 w 0;
          (* AS_PATH: one AS_SEQUENCE segment *)
          Wire.Writer.u8 w 0x40;
          Wire.Writer.u8 w 2;
          Wire.Writer.u8 w (2 + (2 * List.length u.u_as_path));
          Wire.Writer.u8 w 2 (* AS_SEQUENCE *);
          Wire.Writer.u8 w (List.length u.u_as_path);
          List.iter (fun asn -> Wire.Writer.u16 w asn) u.u_as_path;
          (* NEXT_HOP *)
          match u.u_next_hop with
          | Some nh ->
              Wire.Writer.u8 w 0x40;
              Wire.Writer.u8 w 3;
              Wire.Writer.u8 w 4;
              Wire.Writer.u32 w (Ipv4_addr.to_int32 nh)
          | None -> ()
        end);
      List.iter (write_prefix w) u.u_nlri

let to_wire t =
  let w = Wire.Writer.create ~initial:64 () in
  Wire.Writer.bytes w marker;
  Wire.Writer.u16 w 0 (* length, patched below *);
  Wire.Writer.u8 w (type_code t);
  encode_body w t;
  Wire.Writer.patch_u16 w 16 (Wire.Writer.length w);
  Wire.Writer.contents w

let ( let* ) = Result.bind

let rec read_prefixes r acc =
  if Wire.Reader.remaining r = 0 then Ok (List.rev acc)
  else
    let* p = read_prefix r in
    read_prefixes r (p :: acc)

let decode_update r =
  let withdrawn_len = Wire.Reader.u16 r in
  let* u_withdrawn = read_prefixes (Wire.Reader.sub r withdrawn_len) [] in
  let attrs_len = Wire.Reader.u16 r in
  let attrs = Wire.Reader.sub r attrs_len in
  let as_path = ref [] in
  let next_hop = ref None in
  let rec attr_loop () =
    if Wire.Reader.remaining attrs < 3 then Ok ()
    else begin
      let flags = Wire.Reader.u8 attrs in
      let typ = Wire.Reader.u8 attrs in
      let len =
        if flags land 0x10 <> 0 then Wire.Reader.u16 attrs
        else Wire.Reader.u8 attrs
      in
      let body = Wire.Reader.sub attrs len in
      (match typ with
      | 2 ->
          (* AS_PATH: segments *)
          while Wire.Reader.remaining body >= 2 do
            let _seg_type = Wire.Reader.u8 body in
            let n = Wire.Reader.u8 body in
            for _ = 1 to n do
              as_path := Wire.Reader.u16 body :: !as_path
            done
          done
      | 3 ->
          if Wire.Reader.remaining body >= 4 then
            next_hop := Some (Ipv4_addr.of_int32 (Wire.Reader.u32 body))
      | _ -> ());
      attr_loop ()
    end
  in
  let* () = attr_loop () in
  let* u_nlri = read_prefixes r [] in
  Ok
    (Update
       {
         u_withdrawn;
         u_as_path = List.rev !as_path;
         u_next_hop = !next_hop;
         u_nlri;
       })

let of_wire s =
  try
    if String.length s < 19 then Error "bgp: short message"
    else if not (String.equal (String.sub s 0 16) marker) then
      Error "bgp: bad marker"
    else begin
      let r = Wire.Reader.of_string ~pos:16 s in
      let length = Wire.Reader.u16 r in
      let typ = Wire.Reader.u8 r in
      if length <> String.length s then Error "bgp: bad length"
      else
        let body = Wire.Reader.sub r (length - 19) in
        match typ with
        | 1 ->
            let version = Wire.Reader.u8 body in
            if version <> 4 then Error "bgp: unsupported version"
            else begin
              let o_asn = Wire.Reader.u16 body in
              let o_hold_time = Wire.Reader.u16 body in
              let o_router_id = Ipv4_addr.of_int32 (Wire.Reader.u32 body) in
              Ok (Open { o_asn; o_hold_time; o_router_id })
            end
        | 2 -> decode_update body
        | 3 ->
            let code = Wire.Reader.u8 body in
            let subcode = Wire.Reader.u8 body in
            Ok (Notification { code; subcode })
        | 4 -> Ok Keepalive
        | n -> Error (Printf.sprintf "bgp: unknown type %d" n)
    end
  with Wire.Truncated -> Error "bgp: truncated"

let pp ppf = function
  | Open o -> Format.fprintf ppf "OPEN as%d id=%a" o.o_asn Ipv4_addr.pp o.o_router_id
  | Keepalive -> Format.fprintf ppf "KEEPALIVE"
  | Notification { code; subcode } ->
      Format.fprintf ppf "NOTIFICATION %d/%d" code subcode
  | Update u ->
      Format.fprintf ppf "UPDATE nlri=%d withdrawn=%d path=[%s]"
        (List.length u.u_nlri)
        (List.length u.u_withdrawn)
        (String.concat " " (List.map string_of_int u.u_as_path))
