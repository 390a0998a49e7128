(* An address is an immediate int in [0, 2^32): no box, and [Int.compare]
   is the unsigned order. *)
type t = int

let mask32 = 0xFFFF_FFFF

let any = 0

let broadcast = mask32

let ospf_all_routers = 0xE000_0005

let of_int32 v = Int32.to_int v land mask32

let to_int32 t = Int32.of_int t

let of_int v = v land mask32

let to_int t = t

let get s off =
  (String.get_uint16_be s off lsl 16) lor String.get_uint16_be s (off + 2)

let read r = Wire.Reader.u32_int r

let write w t = Wire.Writer.u32_int w t

let of_octets a b c d =
  let ok v = v >= 0 && v <= 255 in
  if not (ok a && ok b && ok c && ok d) then invalid_arg "Ipv4_addr.of_octets";
  (a lsl 24) lor (b lsl 16) lor (c lsl 8) lor d

let octet t i = (t lsr (8 * (3 - i))) land 0xFF

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

let add t n = (t + n) land mask32

let succ t = add t 1

let compare = Int.compare

let equal = Int.equal

(* Multiplicative (Fibonacci) hashing: the multiply carries the low
   bits upward and the shift folds them back into the low bits that a
   table's bucket index keeps, so keys that differ only in their high
   bits — /24 networks, prefixes, router ids — still spread. *)
let hash t =
  let h = t * 0x9E3779B97F4A7C1 in
  h lxor (h lsr 29)

module Key = struct
  type nonrec t = t

  let equal = Int.equal

  let hash = hash
end

module Tbl = Hashtbl.Make (Key)

let is_multicast t = octet t 0 land 0xF0 = 0xE0

let to_string t =
  Printf.sprintf "%d.%d.%d.%d" (octet t 0) (octet t 1) (octet t 2) (octet t 3)

let pp ppf t = Format.pp_print_string ppf (to_string t)

module Prefix = struct
  type addr = t

  (* The network in the high bits and the length in the low 6, so a
     prefix is immediate too and [Int.compare] orders by network, then
     length. *)
  type nonrec t = int

  let mask_of_length len =
    if len = 0 then 0 else (mask32 lsl (32 - len)) land mask32

  let make a len =
    if len < 0 || len > 32 then invalid_arg "Prefix.make: length out of range";
    ((a land mask_of_length len) lsl 6) lor len

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

  let network p = p lsr 6

  let length p = p land 63

  let mask p = mask_of_length (length p)

  let mem a p = a land mask p = network p

  let subset sub sup = length sub >= length sup && mem (network sub) sup

  let host p i = add (network p) i

  let global = 0

  let compare = Int.compare

  let equal = Int.equal

  let to_string p = Printf.sprintf "%s/%d" (to_string (network p)) (length p)

  let pp ppf p = Format.pp_print_string ppf (to_string p)

  module Tbl = Tbl

  let sorted_keys tbl =
    let keys = Array.make (Tbl.length tbl) global in
    ignore
      (Tbl.fold
         (fun p _ i ->
           keys.(i) <- p;
           i + 1)
         tbl 0);
    Array.sort compare keys;
    keys
end
