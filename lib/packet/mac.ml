type t = int64

let mask48 = 0xFFFF_FFFF_FFFFL

let broadcast = mask48

let zero = 0L

let lldp_multicast = 0x0180_C200_000EL

let of_int64 v = Int64.logand v mask48

let to_int64 t = t

let byte t i =
  Int64.to_int (Int64.logand (Int64.shift_right_logical t (8 * (5 - i))) 0xFFL)

let get s off =
  Int64.of_int
    ((String.get_uint16_be s off lsl 32)
    lor (Int32.to_int (String.get_int32_be s (off + 2)) land 0xFFFF_FFFF))

let of_bytes s =
  if String.length s <> 6 then invalid_arg "Mac.of_bytes: need 6 bytes";
  get s 0

let set b off t =
  Bytes.set_uint16_be b off (Int64.to_int (Int64.shift_right_logical t 32));
  Bytes.set_int32_be b (off + 2) (Int64.to_int32 t)

let to_bytes t =
  let b = Bytes.create 6 in
  set b 0 t;
  Bytes.unsafe_to_string b

let of_string s =
  let parts = String.split_on_char ':' s in
  if List.length parts <> 6 then None
  else
    try
      let v =
        List.fold_left
          (fun acc p ->
            if String.length p <> 2 then raise Exit;
            Int64.logor (Int64.shift_left acc 8)
              (Int64.of_int (int_of_string ("0x" ^ p))))
          0L parts
      in
      Some v
    with Exit | Failure _ -> None

let make_local n =
  (* 0x02 in the first octet = locally administered, unicast. *)
  Int64.logor 0x0200_0000_0000L (Int64.logand (Int64.of_int n) 0xFF_FFFF_FFFFL)

let is_broadcast t = Int64.equal t broadcast

let is_multicast t = byte t 0 land 0x01 = 1

let compare = Int64.compare

let equal = Int64.equal

let hash t = Int64.to_int t land max_int

let to_string t =
  Printf.sprintf "%02x:%02x:%02x:%02x:%02x:%02x" (byte t 0) (byte t 1)
    (byte t 2) (byte t 3) (byte t 4) (byte t 5)

let pp ppf t = Format.pp_print_string ppf (to_string t)
