open Rf_routing

(* The VM-to-VM path through the virtual switch. *)
let virtual_latency = Rf_sim.Vtime.span_ms 1

type t = {
  engine : Rf_sim.Engine.t;
  vms : (int64, Vm.t) Hashtbl.t;
  vlinks : (int64 * int, int64 * int) Hashtbl.t;  (** both directions *)
  mutable physical_out : (dpid:int64 -> port:int -> string -> unit) option;
  mutable virtual_frames : int;
  mutable physical_frames : int;
}

let create engine =
  {
    engine;
    vms = Hashtbl.create 64;
    vlinks = Hashtbl.create 64;
    physical_out = None;
    virtual_frames = 0;
    physical_frames = 0;
  }

let deliver_to t (dpid, port) frame =
  match Hashtbl.find_opt t.vms dpid with
  | Some vm when port >= 1 && port <= Vm.n_ports vm ->
      Iface.deliver (Vm.nic vm port) frame
  | Some _ | None -> ()

let transmit_from t key frame =
  match Hashtbl.find_opt t.vlinks key with
  | Some peer ->
      t.virtual_frames <- t.virtual_frames + 1;
      let entity =
        match Hashtbl.find_opt t.vms (fst peer) with
        | Some vm -> Some (Vm.entity vm)
        | None -> None
      in
      ignore
        (Rf_sim.Engine.schedule ?entity t.engine virtual_latency (fun () ->
             deliver_to t peer frame))
  | None -> (
      match t.physical_out with
      | Some out ->
          t.physical_frames <- t.physical_frames + 1;
          let dpid, port = key in
          out ~dpid ~port frame
      | None -> ())

let register_vm t vm =
  let dpid = Vm.dpid vm in
  Hashtbl.replace t.vms dpid vm;
  for port = 1 to Vm.n_ports vm do
    Iface.set_transmit (Vm.nic vm port) (fun frame ->
        transmit_from t (dpid, port) frame)
  done

let connect_ports t ~a ~b =
  Hashtbl.replace t.vlinks a b;
  Hashtbl.replace t.vlinks b a

let disconnect_ports t ~a ~b =
  (match Hashtbl.find_opt t.vlinks a with
  | Some peer when peer = b -> Hashtbl.remove t.vlinks a
  | Some _ | None -> ());
  match Hashtbl.find_opt t.vlinks b with
  | Some peer when peer = a -> Hashtbl.remove t.vlinks b
  | Some _ | None -> ()

let set_physical_out t f = t.physical_out <- Some f

let inject_from_physical t ~dpid ~port frame = deliver_to t (dpid, port) frame

let has_virtual_link t key = Hashtbl.mem t.vlinks key

let virtual_frames t = t.virtual_frames

let physical_out_frames t = t.physical_frames
