open Rf_packet

type t = {
  range : Ipv4_addr.Prefix.t;
  mutable next_block : int;
  capacity : int;
}

let create range =
  let len = Ipv4_addr.Prefix.length range in
  if len > 28 then invalid_arg "Ip_alloc.create: range shorter than /28";
  { range; next_block = 0; capacity = 1 lsl (32 - len - 2) }

let alloc_p2p t =
  if t.next_block >= t.capacity then None
  else begin
    let base = Ipv4_addr.Prefix.host t.range (t.next_block * 4) in
    t.next_block <- t.next_block + 1;
    Some (Ipv4_addr.add base 1, Ipv4_addr.add base 2, 30)
  end

let allocated_blocks t = t.next_block

let capacity_blocks t = t.capacity

let contains t addr = Ipv4_addr.Prefix.mem addr t.range
