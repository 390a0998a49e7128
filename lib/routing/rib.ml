open Rf_packet

type proto = Connected | Static | Ospf | Rip | Bgp

let default_distance = function
  | Connected -> 0
  | Static -> 1
  | Bgp -> 20
  | Ospf -> 110
  | Rip -> 120

let proto_name = function
  | Connected -> "connected"
  | Static -> "static"
  | Ospf -> "ospf"
  | Rip -> "rip"
  | Bgp -> "bgp"

type route = {
  r_prefix : Ipv4_addr.Prefix.t;
  r_proto : proto;
  r_distance : int;
  r_metric : int;
  r_next_hop : Ipv4_addr.t option;
  r_iface : string;
}

type event =
  | Best_added of route
  | Best_changed of route
  | Best_removed of Ipv4_addr.Prefix.t

type slot = { mutable candidates : route list; mutable selected : route option }

type t = {
  table : slot Prefix_trie.t;  (* longest-prefix match and prefix order *)
  slots : slot Ipv4_addr.Prefix.Tbl.t;  (* the same slots, for exact lookups *)
  mutable listeners : (event -> unit) list;
  mutable n_selected : int;
  mutable generation : int;
  (* Candidates per protocol, indexed by [proto_index]. *)
  n_candidates : int array;
}

let create () =
  {
    table = Prefix_trie.create ();
    slots = Ipv4_addr.Prefix.Tbl.create 64;
    listeners = [];
    n_selected = 0;
    generation = 0;
    n_candidates = Array.make 5 0;
  }

let proto_index = function
  | Connected -> 0
  | Static -> 1
  | Ospf -> 2
  | Rip -> 3
  | Bgp -> 4

(* Drops [proto]'s candidate from [slot], keeping the count. *)
let remove_candidate t slot proto =
  let rest = List.filter (fun r -> r.r_proto <> proto) slot.candidates in
  if List.compare_lengths rest slot.candidates <> 0 then begin
    let i = proto_index proto in
    t.n_candidates.(i) <- t.n_candidates.(i) - 1;
    slot.candidates <- rest
  end

let add_listener t f = t.listeners <- t.listeners @ [ f ]

let notify t e =
  t.generation <- t.generation + 1;
  List.iter (fun f -> f e) t.listeners

let route_better a b =
  match Int.compare a.r_distance b.r_distance with
  | 0 -> a.r_metric < b.r_metric
  | c -> c < 0

let pick_best = function
  | [] -> None
  | first :: rest ->
      Some (List.fold_left (fun acc r -> if route_better r acc then r else acc) first rest)

let route_equal a b =
  Ipv4_addr.Prefix.equal a.r_prefix b.r_prefix
  && a.r_proto = b.r_proto && a.r_distance = b.r_distance
  && a.r_metric = b.r_metric
  && Option.equal Ipv4_addr.equal a.r_next_hop b.r_next_hop
  && String.equal a.r_iface b.r_iface

let remove_slot t prefix =
  Prefix_trie.remove t.table prefix;
  Ipv4_addr.Prefix.Tbl.remove t.slots prefix

let reselect t prefix slot =
  let before = slot.selected in
  let after = pick_best slot.candidates in
  slot.selected <- after;
  match (before, after) with
  | None, Some r ->
      t.n_selected <- t.n_selected + 1;
      notify t (Best_added r)
  | Some _, None ->
      t.n_selected <- t.n_selected - 1;
      if slot.candidates = [] then remove_slot t prefix;
      notify t (Best_removed prefix)
  | Some old_r, Some new_r ->
      if not (route_equal old_r new_r) then notify t (Best_changed new_r)
  | None, None -> if slot.candidates = [] then remove_slot t prefix

let slot_of t prefix =
  match Ipv4_addr.Prefix.Tbl.find t.slots prefix with
  | s -> s
  | exception Not_found ->
      let s = { candidates = []; selected = None } in
      Prefix_trie.insert t.table prefix s;
      Ipv4_addr.Prefix.Tbl.add t.slots prefix s;
      s

let update t route =
  let slot = slot_of t route.r_prefix in
  remove_candidate t slot route.r_proto;
  let i = proto_index route.r_proto in
  t.n_candidates.(i) <- t.n_candidates.(i) + 1;
  slot.candidates <- route :: slot.candidates;
  reselect t route.r_prefix slot

let withdraw t proto prefix =
  match Ipv4_addr.Prefix.Tbl.find t.slots prefix with
  | exception Not_found -> ()
  | slot ->
      remove_candidate t slot proto;
      reselect t prefix slot

let candidate proto slot =
  List.find_opt (fun r -> r.r_proto = proto) slot.candidates

(* [proto]'s candidates at the sorted [scope], or everywhere; sorted by
   prefix either way. *)
let candidates_in t proto scope =
  match scope with
  | None ->
      Prefix_trie.fold
        (fun _ slot acc ->
          match candidate proto slot with Some r -> r :: acc | None -> acc)
        t.table []
      |> List.rev
  | Some prefixes ->
      List.filter_map
        (fun p ->
          match Ipv4_addr.Prefix.Tbl.find t.slots p with
          | slot -> candidate proto slot
          | exception Not_found -> None)
        prefixes

let candidates t proto = candidates_in t proto None

let count t proto = t.n_candidates.(proto_index proto)

let replace_proto t ?scope proto routes =
  (* A merge of two prefix-sorted lists: only prefixes whose candidate
     appears, disappears or differs touch the table. *)
  let rec merge olds news =
    match (olds, news) with
    | [], [] -> ()
    | o :: os, [] ->
        withdraw t proto o.r_prefix;
        merge os []
    | [], n :: ns ->
        update t n;
        merge [] ns
    | o :: os, n :: ns ->
        let c = Ipv4_addr.Prefix.compare o.r_prefix n.r_prefix in
        if c < 0 then begin
          withdraw t proto o.r_prefix;
          merge os news
        end
        else if c > 0 then begin
          update t n;
          merge olds ns
        end
        else begin
          if not (route_equal o n) then update t n;
          merge os ns
        end
  in
  merge (candidates_in t proto scope) routes

let best t prefix =
  match Ipv4_addr.Prefix.Tbl.find t.slots prefix with
  | slot -> slot.selected
  | exception Not_found -> None

let lookup t addr =
  (* Slots are removed as soon as their candidate list empties, so an
     LPM hit always carries a selection. *)
  match Prefix_trie.lookup t.table addr with
  | Some (_, slot) -> slot.selected
  | None -> None

let selected t =
  Prefix_trie.fold
    (fun _ slot acc -> match slot.selected with Some r -> r :: acc | None -> acc)
    t.table []
  |> List.rev

let size t = t.n_selected

let generation t = t.generation

let pp_route ppf r =
  Format.fprintf ppf "%a [%s/%d] metric %d%a dev %s" Ipv4_addr.Prefix.pp
    r.r_prefix (proto_name r.r_proto) r.r_distance r.r_metric
    (fun ppf -> function
      | Some nh -> Format.fprintf ppf " via %a" Ipv4_addr.pp nh
      | None -> ())
    r.r_next_hop r.r_iface
