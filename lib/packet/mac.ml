(* An address is an immediate int in [0, 2^48). *)
type t = int

let mask48 = 0xFFFF_FFFF_FFFF

let broadcast = mask48

let zero = 0

let lldp_multicast = 0x0180_C200_000E

let of_int64 v = Int64.to_int v land mask48

let to_int64 t = Int64.of_int t

let to_int t = t

let byte t i = (t lsr (8 * (5 - i))) land 0xFF

let get s off =
  (String.get_uint16_be s off lsl 32)
  lor (String.get_uint16_be s (off + 2) lsl 16)
  lor String.get_uint16_be s (off + 4)

let of_bytes s =
  if String.length s <> 6 then invalid_arg "Mac.of_bytes: need 6 bytes";
  get s 0

let set b off t =
  Bytes.set_uint16_be b off (t lsr 32);
  Bytes.set_uint16_be b (off + 2) ((t lsr 16) land 0xFFFF);
  Bytes.set_uint16_be b (off + 4) (t land 0xFFFF)

let read r = Wire.Reader.u48 r

let write w t = Wire.Writer.u48 w t

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
            (acc lsl 8) lor int_of_string ("0x" ^ p))
          0 parts
      in
      Some v
    with Exit | Failure _ -> None

let make_local n =
  (* 0x02 in the first octet = locally administered, unicast. *)
  0x0200_0000_0000 lor (n land 0xFF_FFFF_FFFF)

let is_broadcast t = t = broadcast

let is_multicast t = byte t 0 land 0x01 = 1

let compare = Int.compare

let equal = Int.equal

let hash t = t

let to_string t =
  Printf.sprintf "%02x:%02x:%02x:%02x:%02x:%02x" (byte t 0) (byte t 1)
    (byte t 2) (byte t 3) (byte t 4) (byte t 5)

let pp ppf t = Format.pp_print_string ppf (to_string t)
