type node = Switch of int64 | Host of string

type edge = {
  a : node;
  a_port : int;
  b : node;
  b_port : int;
  latency : Rf_sim.Vtime.span;
  cost : int;
}

let node_equal x y =
  match (x, y) with
  | Switch a, Switch b -> Int64.equal a b
  | Host a, Host b -> String.equal a b
  | Switch _, Host _ | Host _, Switch _ -> false

let node_compare x y =
  match (x, y) with
  | Switch a, Switch b -> Int64.compare a b
  | Host a, Host b -> String.compare a b
  | Switch _, Host _ -> -1
  | Host _, Switch _ -> 1

module Node_map = Map.Make (struct
  type t = node

  let compare = node_compare
end)

type t = {
  mutable nodes : int Node_map.t;  (** node -> next free port *)
  mutable edge_list : edge list;  (** reversed *)
  mutable n_edges : int;
}

let create () = { nodes = Node_map.empty; edge_list = []; n_edges = 0 }

let add_node t node =
  if not (Node_map.mem node t.nodes) then
    t.nodes <- Node_map.add node 1 t.nodes

let add_switch t dpid = add_node t (Switch dpid)

let add_host t name = add_node t (Host name)

let next_port t node =
  match Node_map.find_opt node t.nodes with
  | Some p -> p
  | None ->
      add_node t node;
      1

let alloc_port t node =
  let port = next_port t node in
  t.nodes <- Node_map.add node (port + 1) t.nodes;
  port

let connect t ?(latency = Rf_sim.Vtime.span_ms 1) ?(cost = 10) a b =
  (match (a, b) with
  | Host _, Host _ -> invalid_arg "Topology.connect: host-host link"
  | (Switch _ | Host _), (Switch _ | Host _) -> ());
  if node_equal a b then invalid_arg "Topology.connect: self loop";
  add_node t a;
  add_node t b;
  let a_port = alloc_port t a in
  let b_port = alloc_port t b in
  let edge = { a; a_port; b; b_port; latency; cost } in
  t.edge_list <- edge :: t.edge_list;
  t.n_edges <- t.n_edges + 1;
  edge

let switches t =
  Node_map.fold
    (fun node _ acc -> match node with Switch d -> d :: acc | Host _ -> acc)
    t.nodes []
  |> List.sort Int64.compare

let hosts t =
  Node_map.fold
    (fun node _ acc -> match node with Host h -> h :: acc | Switch _ -> acc)
    t.nodes []
  |> List.sort String.compare

let edges t = List.rev t.edge_list

let switch_count t = List.length (switches t)

let edge_count t = t.n_edges

let ports_of t node =
  let collect acc e =
    if node_equal e.a node then (e.a_port, e.b, e.b_port) :: acc
    else if node_equal e.b node then (e.b_port, e.a, e.a_port) :: acc
    else acc
  in
  List.fold_left collect [] (edges t)
  |> List.sort (fun (p, _, _) (q, _, _) -> Int.compare p q)

let degree t node = List.length (ports_of t node)

let neighbors t node = List.map (fun (_, peer, _) -> peer) (ports_of t node)

let peer_of t node port =
  List.find_map
    (fun (p, peer, peer_port) ->
      if p = port then Some (peer, peer_port) else None)
    (ports_of t node)

let edge_between t x y =
  List.find_opt
    (fun e ->
      (node_equal e.a x && node_equal e.b y)
      || (node_equal e.a y && node_equal e.b x))
    t.edge_list

let switch_switch_edges t =
  List.filter
    (fun e ->
      match (e.a, e.b) with
      | Switch _, Switch _ -> true
      | (Switch _ | Host _), (Switch _ | Host _) -> false)
    (edges t)

let hop_distance t src dst =
  if node_equal src dst then Some 0
  else begin
    let visited = ref (Node_map.singleton src 0) in
    let queue = Queue.create () in
    Queue.add src queue;
    let result = ref None in
    (try
       while not (Queue.is_empty queue) do
         let node = Queue.pop queue in
         let d = Node_map.find node !visited in
         List.iter
           (fun peer ->
             if not (Node_map.mem peer !visited) then begin
               visited := Node_map.add peer (d + 1) !visited;
               if node_equal peer dst then begin
                 result := Some (d + 1);
                 raise Exit
               end;
               Queue.add peer queue
             end)
           (neighbors t node)
       done
     with Exit -> ());
    !result
  end

let is_connected t =
  match switches t with
  | [] -> true
  | first :: rest ->
      List.for_all
        (fun d -> hop_distance t (Switch first) (Switch d) <> None)
        rest

let diameter t =
  let sw = List.map (fun d -> Switch d) (switches t) in
  List.fold_left
    (fun acc a ->
      List.fold_left
        (fun acc b ->
          match hop_distance t a b with Some d -> max acc d | None -> acc)
        acc sw)
    0 sw
