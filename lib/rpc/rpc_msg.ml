open Rf_packet

type t =
  | Switch_up of { dpid : int64; n_ports : int }
  | Switch_down of { dpid : int64 }
  | Link_up of {
      a_dpid : int64;
      a_port : int;
      a_ip : Ipv4_addr.t;
      a_prefix_len : int;
      b_dpid : int64;
      b_port : int;
      b_ip : Ipv4_addr.t;
      b_prefix_len : int;
    }
  | Link_down of { a_dpid : int64; a_port : int; b_dpid : int64; b_port : int }
  | Edge_subnet of {
      dpid : int64;
      port : int;
      gateway : Ipv4_addr.t;
      prefix_len : int;
    }

type ack = { a_epoch : int32; a_cum : int32; a_seq : int32 }

type envelope = { epoch : int32; seq : int32; body : body }

and body =
  | Request of t
  | Ack of ack
  | Ping
  | Pong
  | Sync_request
  | Sync_snapshot of t list
  | Elect_request of { el_epoch : int32; el_candidate : int; el_last : int32 }
  | Elect_vote of { ev_epoch : int32; ev_voter : int; ev_granted : bool }
  | Leader_heartbeat of {
      lh_epoch : int32;
      lh_leader : int;
      lh_commit : int32;
      lh_len : int32;
    }
  | Replicate of {
      rp_epoch : int32;
      rp_leader : int;
      rp_index : int32;
      rp_msg : t;
    }
  | Replicate_ack of { ra_epoch : int32; ra_replica : int; ra_index : int32 }

(* Serial (RFC 1982-style) sequence arithmetic: correct ordering across
   int32 wraparound as long as compared values are within 2^31 of each
   other. Sequence 0 is reserved for untracked envelopes (acks,
   heartbeats), so the successor function skips it. *)

let seq_after a b = Int32.compare (Int32.sub a b) 0l > 0

let seq_succ s =
  let s = Int32.add s 1l in
  if Int32.equal s 0l then 1l else s

let max_snapshot_msgs = 0xffff

let encode_request w = function
  | Switch_up { dpid; n_ports } ->
      Wire.Writer.u8 w 1;
      Wire.Writer.u64 w dpid;
      Wire.Writer.u16 w n_ports
  | Switch_down { dpid } ->
      Wire.Writer.u8 w 2;
      Wire.Writer.u64 w dpid
  | Link_up l ->
      Wire.Writer.u8 w 3;
      Wire.Writer.u64 w l.a_dpid;
      Wire.Writer.u16 w l.a_port;
      Wire.Writer.u32 w (Ipv4_addr.to_int32 l.a_ip);
      Wire.Writer.u8 w l.a_prefix_len;
      Wire.Writer.u64 w l.b_dpid;
      Wire.Writer.u16 w l.b_port;
      Wire.Writer.u32 w (Ipv4_addr.to_int32 l.b_ip);
      Wire.Writer.u8 w l.b_prefix_len
  | Link_down l ->
      Wire.Writer.u8 w 4;
      Wire.Writer.u64 w l.a_dpid;
      Wire.Writer.u16 w l.a_port;
      Wire.Writer.u64 w l.b_dpid;
      Wire.Writer.u16 w l.b_port
  | Edge_subnet e ->
      Wire.Writer.u8 w 5;
      Wire.Writer.u64 w e.dpid;
      Wire.Writer.u16 w e.port;
      Wire.Writer.u32 w (Ipv4_addr.to_int32 e.gateway);
      Wire.Writer.u8 w e.prefix_len

(* A 4-byte length, then the body written behind it; the length is
   patched once the body is in. *)
let to_wire env =
  let w = Wire.Writer.create ~initial:48 () in
  Wire.Writer.u32 w 0l (* length, patched below *);
  Wire.Writer.u32 w env.epoch;
  Wire.Writer.u32 w env.seq;
  (match env.body with
  | Request r ->
      Wire.Writer.u8 w 0;
      encode_request w r
  | Ack { a_epoch; a_cum; a_seq } ->
      Wire.Writer.u8 w 1;
      Wire.Writer.u32 w a_epoch;
      Wire.Writer.u32 w a_cum;
      Wire.Writer.u32 w a_seq
  | Ping -> Wire.Writer.u8 w 2
  | Pong -> Wire.Writer.u8 w 3
  | Sync_request -> Wire.Writer.u8 w 4
  | Sync_snapshot msgs ->
      if List.length msgs > max_snapshot_msgs then
        invalid_arg "Rpc_msg.to_wire: snapshot too large";
      Wire.Writer.u8 w 5;
      Wire.Writer.u16 w (List.length msgs);
      List.iter (encode_request w) msgs
  | Elect_request { el_epoch; el_candidate; el_last } ->
      Wire.Writer.u8 w 6;
      Wire.Writer.u32 w el_epoch;
      Wire.Writer.u16 w el_candidate;
      Wire.Writer.u32 w el_last
  | Elect_vote { ev_epoch; ev_voter; ev_granted } ->
      Wire.Writer.u8 w 7;
      Wire.Writer.u32 w ev_epoch;
      Wire.Writer.u16 w ev_voter;
      Wire.Writer.u8 w (if ev_granted then 1 else 0)
  | Leader_heartbeat { lh_epoch; lh_leader; lh_commit; lh_len } ->
      Wire.Writer.u8 w 8;
      Wire.Writer.u32 w lh_epoch;
      Wire.Writer.u16 w lh_leader;
      Wire.Writer.u32 w lh_commit;
      Wire.Writer.u32 w lh_len
  | Replicate { rp_epoch; rp_leader; rp_index; rp_msg } ->
      Wire.Writer.u8 w 9;
      Wire.Writer.u32 w rp_epoch;
      Wire.Writer.u16 w rp_leader;
      Wire.Writer.u32 w rp_index;
      encode_request w rp_msg
  | Replicate_ack { ra_epoch; ra_replica; ra_index } ->
      Wire.Writer.u8 w 10;
      Wire.Writer.u32 w ra_epoch;
      Wire.Writer.u16 w ra_replica;
      Wire.Writer.u32 w ra_index);
  let len = Wire.Writer.length w - 4 in
  Wire.Writer.patch_u16 w 0 (len lsr 16);
  Wire.Writer.patch_u16 w 2 len;
  Wire.Writer.contents w

let decode_request r =
  let typ = Wire.Reader.u8 r in
  match typ with
  | 1 ->
      let dpid = Wire.Reader.u64 r in
      let n_ports = Wire.Reader.u16 r in
      Ok (Switch_up { dpid; n_ports })
  | 2 -> Ok (Switch_down { dpid = Wire.Reader.u64 r })
  | 3 ->
      let a_dpid = Wire.Reader.u64 r in
      let a_port = Wire.Reader.u16 r in
      let a_ip = Ipv4_addr.of_int32 (Wire.Reader.u32 r) in
      let a_prefix_len = Wire.Reader.u8 r in
      let b_dpid = Wire.Reader.u64 r in
      let b_port = Wire.Reader.u16 r in
      let b_ip = Ipv4_addr.of_int32 (Wire.Reader.u32 r) in
      let b_prefix_len = Wire.Reader.u8 r in
      Ok
        (Link_up
           { a_dpid; a_port; a_ip; a_prefix_len; b_dpid; b_port; b_ip; b_prefix_len })
  | 4 ->
      let a_dpid = Wire.Reader.u64 r in
      let a_port = Wire.Reader.u16 r in
      let b_dpid = Wire.Reader.u64 r in
      let b_port = Wire.Reader.u16 r in
      Ok (Link_down { a_dpid; a_port; b_dpid; b_port })
  | 5 ->
      let dpid = Wire.Reader.u64 r in
      let port = Wire.Reader.u16 r in
      let gateway = Ipv4_addr.of_int32 (Wire.Reader.u32 r) in
      let prefix_len = Wire.Reader.u8 r in
      Ok (Edge_subnet { dpid; port; gateway; prefix_len })
  | n -> Error (Printf.sprintf "rpc: unknown request type %d" n)

let decode_envelope r =
  let epoch = Wire.Reader.u32 r in
  let seq = Wire.Reader.u32 r in
  let kind = Wire.Reader.u8 r in
  let env body = { epoch; seq; body } in
  match kind with
  | 0 -> Result.map (fun req -> env (Request req)) (decode_request r)
  | 1 ->
      let a_epoch = Wire.Reader.u32 r in
      let a_cum = Wire.Reader.u32 r in
      let a_seq = Wire.Reader.u32 r in
      Ok (env (Ack { a_epoch; a_cum; a_seq }))
  | 2 -> Ok (env Ping)
  | 3 -> Ok (env Pong)
  | 4 -> Ok (env Sync_request)
  | 5 ->
      let count = Wire.Reader.u16 r in
      let rec go acc n =
        if n = 0 then Ok (env (Sync_snapshot (List.rev acc)))
        else
          match decode_request r with
          | Ok m -> go (m :: acc) (n - 1)
          | Error e -> Error e
      in
      go [] count
  | 6 ->
      let el_epoch = Wire.Reader.u32 r in
      let el_candidate = Wire.Reader.u16 r in
      let el_last = Wire.Reader.u32 r in
      Ok (env (Elect_request { el_epoch; el_candidate; el_last }))
  | 7 ->
      let ev_epoch = Wire.Reader.u32 r in
      let ev_voter = Wire.Reader.u16 r in
      let ev_granted = Wire.Reader.u8 r <> 0 in
      Ok (env (Elect_vote { ev_epoch; ev_voter; ev_granted }))
  | 8 ->
      let lh_epoch = Wire.Reader.u32 r in
      let lh_leader = Wire.Reader.u16 r in
      let lh_commit = Wire.Reader.u32 r in
      let lh_len = Wire.Reader.u32 r in
      Ok (env (Leader_heartbeat { lh_epoch; lh_leader; lh_commit; lh_len }))
  | 9 ->
      let rp_epoch = Wire.Reader.u32 r in
      let rp_leader = Wire.Reader.u16 r in
      let rp_index = Wire.Reader.u32 r in
      Result.map
        (fun rp_msg -> env (Replicate { rp_epoch; rp_leader; rp_index; rp_msg }))
        (decode_request r)
  | 10 ->
      let ra_epoch = Wire.Reader.u32 r in
      let ra_replica = Wire.Reader.u16 r in
      let ra_index = Wire.Reader.u32 r in
      Ok (env (Replicate_ack { ra_epoch; ra_replica; ra_index }))
  | n -> Error (Printf.sprintf "rpc: unknown envelope kind %d" n)

let of_wire s =
  try
    let r = Wire.Reader.of_string s in
    if Int32.to_int (Wire.Reader.u32 r) <> String.length s - 4 then
      Error "rpc: bad length"
    else decode_envelope r
  with Wire.Truncated -> Error "rpc: truncated"

let pp ppf = function
  | Switch_up { dpid; n_ports } ->
      Format.fprintf ppf "switch-up dpid=%Ld ports=%d" dpid n_ports
  | Switch_down { dpid } -> Format.fprintf ppf "switch-down dpid=%Ld" dpid
  | Link_up l ->
      Format.fprintf ppf "link-up sw%Ld/%d(%a/%d) <-> sw%Ld/%d(%a/%d)" l.a_dpid
        l.a_port Ipv4_addr.pp l.a_ip l.a_prefix_len l.b_dpid l.b_port
        Ipv4_addr.pp l.b_ip l.b_prefix_len
  | Link_down l ->
      Format.fprintf ppf "link-down sw%Ld/%d <-> sw%Ld/%d" l.a_dpid l.a_port
        l.b_dpid l.b_port
  | Edge_subnet e ->
      Format.fprintf ppf "edge sw%Ld/%d gw=%a/%d" e.dpid e.port Ipv4_addr.pp
        e.gateway e.prefix_len

let pp_body ppf = function
  | Request m -> Format.fprintf ppf "request(%a)" pp m
  | Ack { a_epoch; a_cum; a_seq } ->
      Format.fprintf ppf "ack e=%ld cum=%ld seq=%ld" a_epoch a_cum a_seq
  | Ping -> Format.fprintf ppf "ping"
  | Pong -> Format.fprintf ppf "pong"
  | Sync_request -> Format.fprintf ppf "sync-request"
  | Sync_snapshot msgs -> Format.fprintf ppf "sync-snapshot(%d)" (List.length msgs)
  | Elect_request { el_epoch; el_candidate; el_last } ->
      Format.fprintf ppf "elect-request e=%ld candidate=%d last=%ld" el_epoch
        el_candidate el_last
  | Elect_vote { ev_epoch; ev_voter; ev_granted } ->
      Format.fprintf ppf "elect-vote e=%ld voter=%d granted=%b" ev_epoch
        ev_voter ev_granted
  | Leader_heartbeat { lh_epoch; lh_leader; lh_commit; lh_len } ->
      Format.fprintf ppf "leader-heartbeat e=%ld leader=%d commit=%ld len=%ld"
        lh_epoch lh_leader lh_commit lh_len
  | Replicate { rp_epoch; rp_leader; rp_index; rp_msg } ->
      Format.fprintf ppf "replicate e=%ld leader=%d idx=%ld (%a)" rp_epoch
        rp_leader rp_index pp rp_msg
  | Replicate_ack { ra_epoch; ra_replica; ra_index } ->
      Format.fprintf ppf "replicate-ack e=%ld replica=%d idx=%ld" ra_epoch
        ra_replica ra_index
