type tlv =
  | Chassis_id of { subtype : int; value : string }
  | Port_id of { subtype : int; value : string }
  | Ttl of int
  | System_name of string
  | Custom of { typ : int; value : string }

type t = { tlvs : tlv list }

let chassis_subtype_local = 7

let port_subtype_local = 7

(* A TLV header: 7-bit type, 9-bit length of the value that follows. *)
let tlv_header w typ len =
  if len > 511 then invalid_arg "Lldp: TLV too long";
  Wire.Writer.u16 w ((typ lsl 9) lor len)

let write_tlv w typ value =
  tlv_header w typ (String.length value);
  Wire.Writer.bytes w value

(* Chassis and port IDs: a subtype byte, then the ID. *)
let write_id w typ subtype value =
  tlv_header w typ (1 + String.length value);
  Wire.Writer.u8 w subtype;
  Wire.Writer.bytes w value

let write w t =
  let emit = function
    | Chassis_id { subtype; value } -> write_id w 1 subtype value
    | Port_id { subtype; value } -> write_id w 2 subtype value
    | Ttl ttl ->
        tlv_header w 3 2;
        Wire.Writer.u16 w ttl
    | System_name name -> write_tlv w 5 name
    | Custom { typ; value } -> write_tlv w typ value
  in
  List.iter emit t.tlvs;
  tlv_header w 0 0 (* end of LLDPDU *)

let read r =
  try
    let rec loop acc =
      if Wire.Reader.remaining r < 2 then Ok { tlvs = List.rev acc }
      else begin
        let header = Wire.Reader.u16 r in
        let typ = header lsr 9 in
        let len = header land 0x1FF in
        if typ = 0 then Ok { tlvs = List.rev acc }
        else begin
          let value = Wire.Reader.bytes r len in
          let tlv =
            match typ with
            | 1 when len >= 1 ->
                Chassis_id
                  {
                    subtype = Char.code value.[0];
                    value = String.sub value 1 (len - 1);
                  }
            | 2 when len >= 1 ->
                Port_id
                  {
                    subtype = Char.code value.[0];
                    value = String.sub value 1 (len - 1);
                  }
            | 3 when len >= 2 ->
                Ttl ((Char.code value.[0] lsl 8) lor Char.code value.[1])
            | 5 -> System_name value
            | other -> Custom { typ = other; value }
          in
          loop (tlv :: acc)
        end
      end
    in
    loop []
  with Wire.Truncated -> Error "lldp: truncated"

let discovery_probe ~dpid ~port =
  let chassis = Wire.Writer.create ~initial:8 () in
  Wire.Writer.u64 chassis dpid;
  let port_v = Wire.Writer.create ~initial:2 () in
  Wire.Writer.u16 port_v port;
  {
    tlvs =
      [
        Chassis_id
          { subtype = chassis_subtype_local; value = Wire.Writer.contents chassis };
        Port_id { subtype = port_subtype_local; value = Wire.Writer.contents port_v };
        Ttl 120;
      ];
  }

let parse_discovery t =
  let dpid = ref None and port = ref None in
  let inspect = function
    | Chassis_id { subtype; value }
      when subtype = chassis_subtype_local && String.length value = 8 ->
        dpid := Some (Wire.Reader.u64 (Wire.Reader.of_string value))
    | Port_id { subtype; value }
      when subtype = port_subtype_local && String.length value = 2 ->
        port := Some (Wire.Reader.u16 (Wire.Reader.of_string value))
    | Chassis_id _ | Port_id _ | Ttl _ | System_name _ | Custom _ -> ()
  in
  List.iter inspect t.tlvs;
  match (!dpid, !port) with
  | Some d, Some p -> Some (d, p)
  | (Some _ | None), _ -> None

let pp_tlv ppf = function
  | Chassis_id { subtype; value } ->
      Format.fprintf ppf "chassis(%d,%d bytes)" subtype (String.length value)
  | Port_id { subtype; value } ->
      Format.fprintf ppf "port(%d,%d bytes)" subtype (String.length value)
  | Ttl t -> Format.fprintf ppf "ttl(%d)" t
  | System_name n -> Format.fprintf ppf "sysname(%s)" n
  | Custom { typ; _ } -> Format.fprintf ppf "tlv(%d)" typ

let pp ppf t =
  Format.fprintf ppf "lldp [%a]"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ") pp_tlv)
    t.tlvs
