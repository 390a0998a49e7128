type t = int32

let any = 0l

let broadcast = 0xFFFFFFFFl

let ospf_all_routers = 0xE0000005l

let of_int32 v = v

let to_int32 t = t

let of_octets a b c d =
  let ok v = v >= 0 && v <= 255 in
  if not (ok a && ok b && ok c && ok d) then invalid_arg "Ipv4_addr.of_octets";
  Int32.logor
    (Int32.shift_left (Int32.of_int a) 24)
    (Int32.of_int ((b lsl 16) lor (c lsl 8) lor d))

let octet t i =
  Int32.to_int (Int32.logand (Int32.shift_right_logical t (8 * (3 - i))) 0xFFl)

let of_string s =
  match String.split_on_char '.' s with
  | [ a; b; c; d ] -> (
      try
        let parse x =
          let v = int_of_string x in
          if v < 0 || v > 255 then raise Exit;
          v
        in
        Some (of_octets (parse a) (parse b) (parse c) (parse d))
      with Exit | Failure _ -> None)
  | _ -> None

let of_string_exn s =
  match of_string s with
  | Some a -> a
  | None -> invalid_arg (Printf.sprintf "Ipv4_addr.of_string_exn: %S" s)

let add t n = Int32.add t (Int32.of_int n)

let succ t = add t 1

let compare a b =
  (* Unsigned comparison: flip the sign bit. *)
  Int32.compare (Int32.logxor a Int32.min_int) (Int32.logxor b Int32.min_int)

let equal = Int32.equal

let hash t = Int32.to_int t land max_int

let is_multicast t = octet t 0 land 0xF0 = 0xE0

let to_string t =
  Printf.sprintf "%d.%d.%d.%d" (octet t 0) (octet t 1) (octet t 2) (octet t 3)

let pp ppf t = Format.pp_print_string ppf (to_string t)

module Prefix = struct
  type addr = t

  type nonrec t = { network : t; length : int }

  let mask_of_length len =
    if len = 0 then 0l
    else Int32.shift_left 0xFFFFFFFFl (32 - len)

  let make a len =
    if len < 0 || len > 32 then invalid_arg "Prefix.make: length out of range";
    { network = Int32.logand a (mask_of_length len); length = len }

  let of_string s =
    match String.index_opt s '/' with
    | None -> None
    | Some i -> (
        let addr = String.sub s 0 i in
        let len = String.sub s (i + 1) (String.length s - i - 1) in
        match (of_string addr, int_of_string_opt len) with
        | Some a, Some l when l >= 0 && l <= 32 -> Some (make a l)
        | Some _, (Some _ | None) | None, _ -> None)

  let of_string_exn s =
    match of_string s with
    | Some p -> p
    | None -> invalid_arg (Printf.sprintf "Prefix.of_string_exn: %S" s)

  let network p = p.network

  let length p = p.length

  let mask p = mask_of_length p.length

  let mem a p = Int32.equal (Int32.logand a (mask p)) p.network

  let subset sub sup = sub.length >= sup.length && mem sub.network sup

  let host p i = add p.network i

  let global = { network = 0l; length = 0 }

  let compare a b =
    match compare a.network b.network with
    | 0 -> Int.compare a.length b.length
    | c -> c

  let equal a b = compare a b = 0

  let to_string p = Printf.sprintf "%s/%d" (to_string p.network) p.length

  let pp ppf p = Format.pp_print_string ppf (to_string p)
end
