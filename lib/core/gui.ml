type color = Red | Green

type t = {
  engine : Rf_sim.Engine.t;
  mutable order : int64 list;  (** registration order, reversed *)
  states : (int64, Rf_sim.Vtime.t option) Hashtbl.t;
      (** None = red, Some t = green since t *)
}

let create engine () = { engine; order = []; states = Hashtbl.create 64 }

let add_switch t dpid =
  if not (Hashtbl.mem t.states dpid) then begin
    t.order <- dpid :: t.order;
    Hashtbl.replace t.states dpid None
  end

let set_green t dpid =
  match Hashtbl.find_opt t.states dpid with
  | Some None -> Hashtbl.replace t.states dpid (Some (Rf_sim.Engine.now t.engine))
  | Some (Some _) -> ()
  | None ->
      t.order <- dpid :: t.order;
      Hashtbl.replace t.states dpid (Some (Rf_sim.Engine.now t.engine))

let color_of t dpid =
  match Hashtbl.find_opt t.states dpid with
  | Some None -> Some Red
  | Some (Some _) -> Some Green
  | None -> None

let total t = Hashtbl.length t.states

let green_count t =
  Hashtbl.fold
    (fun _ s acc -> match s with Some _ -> acc + 1 | None -> acc)
    t.states 0

let all_green t = total t > 0 && green_count t = total t

let timeline t =
  Hashtbl.fold
    (fun dpid s acc -> match s with Some time -> (dpid, time) :: acc | None -> acc)
    t.states []
  |> List.sort (fun (da, a) (db, b) ->
         match Rf_sim.Vtime.compare a b with
         | 0 -> Int64.compare da db
         | c -> c)

let all_green_at t =
  if all_green t then
    match List.rev (timeline t) with
    | (_, time) :: _ -> Some time
    | [] -> None
  else None

let render ?(label = Printf.sprintf "sw%Ld") t =
  let columns = 7 in
  let buf = Buffer.create 512 in
  Printf.bprintf buf "[%s] RouteFlow auto-configuration: %d/%d switches configured\n"
    (Format.asprintf "%a" Rf_sim.Vtime.pp (Rf_sim.Engine.now t.engine))
    (green_count t) (total t);
  let cells = List.rev t.order in
  List.iteri
    (fun i dpid ->
      let mark =
        match Hashtbl.find_opt t.states dpid with
        | Some (Some _) -> '#'
        | Some None | None -> '.'
      in
      Printf.bprintf buf "%c %-14s" mark (label dpid);
      if (i + 1) mod columns = 0 then Buffer.add_char buf '\n')
    cells;
  if List.length cells mod columns <> 0 then Buffer.add_char buf '\n';
  Buffer.contents buf
