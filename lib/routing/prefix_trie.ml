open Rf_packet

type 'a node = {
  mutable value : 'a option;
  mutable zero : 'a node option;
  mutable one : 'a node option;
}

type 'a t = { root : 'a node; mutable count : int }

let new_node () = { value = None; zero = None; one = None }

let create () = { root = new_node (); count = 0 }

let bit_at addr i =
  (* Bit 0 is the most significant bit. *)
  (Ipv4_addr.to_int addr lsr (31 - i)) land 1 <> 0

let insert t prefix value =
  let addr = Ipv4_addr.Prefix.network prefix in
  let len = Ipv4_addr.Prefix.length prefix in
  let rec go node depth =
    if depth = len then begin
      if node.value = None then t.count <- t.count + 1;
      node.value <- Some value
    end
    else begin
      let child =
        if bit_at addr depth then (
          match node.one with
          | Some c -> c
          | None ->
              let c = new_node () in
              node.one <- Some c;
              c)
        else
          match node.zero with
          | Some c -> c
          | None ->
              let c = new_node () in
              node.zero <- Some c;
              c
      in
      go child (depth + 1)
    end
  in
  go t.root 0

let remove t prefix =
  let addr = Ipv4_addr.Prefix.network prefix in
  let len = Ipv4_addr.Prefix.length prefix in
  let rec go node depth =
    if depth = len then begin
      if node.value <> None then t.count <- t.count - 1;
      node.value <- None
    end
    else
      let child = if bit_at addr depth then node.one else node.zero in
      match child with Some c -> go c (depth + 1) | None -> ()
  in
  go t.root 0

let find_exact t prefix =
  let addr = Ipv4_addr.Prefix.network prefix in
  let len = Ipv4_addr.Prefix.length prefix in
  let rec go node depth =
    if depth = len then node.value
    else
      let child = if bit_at addr depth then node.one else node.zero in
      match child with Some c -> go c (depth + 1) | None -> None
  in
  go t.root 0

let lookup t addr =
  let rec go node depth best =
    let best =
      match node.value with
      | Some v -> Some (Ipv4_addr.Prefix.make addr depth, v)
      | None -> best
    in
    if depth = 32 then best
    else
      let child = if bit_at addr depth then node.one else node.zero in
      match child with Some c -> go c (depth + 1) best | None -> best
  in
  go t.root 0 None

let fold f t acc =
  (* Depth-first with explicit prefix reconstruction. [bits] holds the
     path's [depth] bits; the order is [Prefix.compare]'s, which [Rib]
     relies on. *)
  let rec go node bits depth acc =
    let acc =
      match node.value with
      | Some v ->
          let addr = Ipv4_addr.of_int (bits lsl (32 - depth)) in
          f (Ipv4_addr.Prefix.make addr depth) v acc
      | None -> acc
    in
    let acc =
      match node.zero with
      | Some c -> go c (bits lsl 1) (depth + 1) acc
      | None -> acc
    in
    match node.one with
    | Some c -> go c ((bits lsl 1) lor 1) (depth + 1) acc
    | None -> acc
  in
  go t.root 0 0 acc

let entries t = List.rev (fold (fun p v acc -> (p, v) :: acc) t [])

let size t = t.count
