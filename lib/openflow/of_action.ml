open Rf_packet

type t =
  | Output of { port : Of_port.t; max_len : int }
  | Set_dl_src of Mac.t
  | Set_dl_dst of Mac.t
  | Set_nw_src of Ipv4_addr.t
  | Set_nw_dst of Ipv4_addr.t
  | Set_nw_tos of int
  | Set_tp_src of int
  | Set_tp_dst of int
  | Strip_vlan

let output port = Output { port; max_len = 65535 }

let to_controller = output Of_port.controller

let outputs actions =
  List.filter_map
    (function Output { port; _ } -> Some port | _ -> None)
    actions

let size = function
  | Output _ | Strip_vlan | Set_nw_src _ | Set_nw_dst _ | Set_nw_tos _
  | Set_tp_src _ | Set_tp_dst _ ->
      8
  | Set_dl_src _ | Set_dl_dst _ -> 16

let encode w action =
  match action with
  | Output { port; max_len } ->
      Wire.Writer.u16 w 0 (* OFPAT_OUTPUT *);
      Wire.Writer.u16 w 8;
      Wire.Writer.u16 w port;
      Wire.Writer.u16 w max_len
  | Strip_vlan ->
      Wire.Writer.u16 w 3;
      Wire.Writer.u16 w 8;
      Wire.Writer.zeros w 4
  | Set_dl_src mac ->
      Wire.Writer.u16 w 4;
      Wire.Writer.u16 w 16;
      Mac.write w mac;
      Wire.Writer.zeros w 6
  | Set_dl_dst mac ->
      Wire.Writer.u16 w 5;
      Wire.Writer.u16 w 16;
      Mac.write w mac;
      Wire.Writer.zeros w 6
  | Set_nw_src ip ->
      Wire.Writer.u16 w 6;
      Wire.Writer.u16 w 8;
      Ipv4_addr.write w ip
  | Set_nw_dst ip ->
      Wire.Writer.u16 w 7;
      Wire.Writer.u16 w 8;
      Ipv4_addr.write w ip
  | Set_nw_tos tos ->
      Wire.Writer.u16 w 8;
      Wire.Writer.u16 w 8;
      Wire.Writer.u8 w tos;
      Wire.Writer.zeros w 3
  | Set_tp_src port ->
      Wire.Writer.u16 w 9;
      Wire.Writer.u16 w 8;
      Wire.Writer.u16 w port;
      Wire.Writer.zeros w 2
  | Set_tp_dst port ->
      Wire.Writer.u16 w 10;
      Wire.Writer.u16 w 8;
      Wire.Writer.u16 w port;
      Wire.Writer.zeros w 2

let rec write_list w = function
  | [] -> ()
  | a :: rest ->
      encode w a;
      write_list w rest

(* The body bytes an action of type [typ] carries before its padding;
   -1 for a type this codec rejects. *)
let body_size = function
  | 0 -> 4
  | 3 -> 0
  | 4 | 5 -> 6
  | 6 | 7 -> 4
  | 8 -> 1
  | 9 | 10 -> 2
  | _ -> -1

(* Builds an action from [r] at a body [body_size] has already found
   long enough for its type; reads exactly [body_size typ] bytes. *)
let of_body typ r =
  match typ with
  | 0 ->
      let port = Wire.Reader.u16 r in
      let max_len = Wire.Reader.u16 r in
      Output { port; max_len }
  | 3 -> Strip_vlan
  | 4 -> Set_dl_src (Mac.read r)
  | 5 -> Set_dl_dst (Mac.read r)
  | 6 -> Set_nw_src (Ipv4_addr.read r)
  | 7 -> Set_nw_dst (Ipv4_addr.read r)
  | 8 -> Set_nw_tos (Wire.Reader.u8 r)
  | 9 -> Set_tp_src (Wire.Reader.u16 r)
  | 10 -> Set_tp_dst (Wire.Reader.u16 r)
  | _ -> assert false (* [body_size] rejects every other type *)

(* Folds [f] over the actions from [r]'s position to its end, checking
   each one's header and length first. [f] gets the type and [r] at the
   body, and the fold then moves to the next action whatever [f] read.
   Both {!list_of_wire} and {!check_list} read actions here, so they
   fail alike. *)
let rec fold_from r f acc =
  if Wire.Reader.remaining r < 4 then Ok acc
  else begin
    let typ = Wire.Reader.u16 r in
    let len = Wire.Reader.u16 r in
    let need = body_size typ in
    if len < 8 then Error "of_action: length too small"
    else if Wire.Reader.remaining r < len - 4 then Error "of_action: truncated"
    else if need < 0 then Error (Printf.sprintf "of_action: unsupported type %d" typ)
    else if len - 4 < need then Error "of_action: truncated"
    else begin
      let body_end = Wire.Reader.pos r + len - 4 in
      let acc = f acc typ r in
      Wire.Reader.skip r (body_end - Wire.Reader.pos r);
      fold_from r f acc
    end
  end

let list_of_wire r =
  match fold_from r (fun acc typ r -> of_body typ r :: acc) [] with
  | Ok actions -> Ok (List.rev actions)
  | Error _ as e -> e

let check_list r = fold_from r (fun () _ _ -> ()) ()

let pp ppf = function
  | Output { port; _ } -> Format.fprintf ppf "output(%a)" Of_port.pp port
  | Set_dl_src m -> Format.fprintf ppf "set_dl_src(%a)" Mac.pp m
  | Set_dl_dst m -> Format.fprintf ppf "set_dl_dst(%a)" Mac.pp m
  | Set_nw_src a -> Format.fprintf ppf "set_nw_src(%a)" Ipv4_addr.pp a
  | Set_nw_dst a -> Format.fprintf ppf "set_nw_dst(%a)" Ipv4_addr.pp a
  | Set_nw_tos t -> Format.fprintf ppf "set_nw_tos(%d)" t
  | Set_tp_src p -> Format.fprintf ppf "set_tp_src(%d)" p
  | Set_tp_dst p -> Format.fprintf ppf "set_tp_dst(%d)" p
  | Strip_vlan -> Format.fprintf ppf "strip_vlan"
