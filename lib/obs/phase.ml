type t = Configure | Discovery | Rpc | Vm | Quagga

let name = function
  | Configure -> "sw.configure"
  | Discovery -> "phase.discovery"
  | Rpc -> "phase.rpc"
  | Vm -> "phase.vm"
  | Quagga -> "phase.quagga"

let index = function
  | Configure -> 0
  | Discovery -> 1
  | Rpc -> 2
  | Vm -> 3
  | Quagga -> 4

(* One correlation key per (phase, dpid); dpids stay far below 2^59. *)
let key phase dpid = (Int64.to_int dpid lsl 3) lor index phase

let current tracer phase dpid = Tracer.correlated tracer ~key:(key phase dpid)

let start tracer phase dpid =
  let id =
    match phase with
    | Configure ->
        Tracer.span_start tracer
          ~attrs:[ ("dpid", Int64.to_string dpid) ]
          (name phase)
    | Discovery | Rpc | Vm | Quagga ->
        Tracer.span_start tracer
          ?parent:(current tracer Configure dpid)
          (name phase)
  in
  Tracer.correlate tracer ~key:(key phase dpid) id

let close ?attrs tracer phase dpid =
  Option.bind (Tracer.take tracer ~key:(key phase dpid)) (fun id ->
      let open_s =
        Option.map
          (fun sp ->
            float_of_int (Tracer.now_us tracer - sp.Tracer.start_us) /. 1e6)
          (Tracer.find_span tracer id)
      in
      Tracer.span_end tracer ?attrs id;
      open_s)

let finish tracer phase dpid = close tracer phase dpid

let abort tracer dpid =
  List.iter
    (fun phase ->
      ignore (close ~attrs:[ ("status", "aborted") ] tracer phase dpid))
    [ Quagga; Vm; Rpc; Discovery; Configure ]
