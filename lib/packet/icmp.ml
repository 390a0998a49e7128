type t =
  | Echo_request of { ident : int; seq : int; payload : string }
  | Echo_reply of { ident : int; seq : int; payload : string }
  | Dest_unreachable of { code : int; original : string }
  | Time_exceeded of { original : string }

let write w t =
  let start = Wire.Writer.length w in
  (match t with
  | Echo_request { ident; seq; payload } ->
      Wire.Writer.u8 w 8;
      Wire.Writer.u8 w 0;
      Wire.Writer.u16 w 0;
      Wire.Writer.u16 w ident;
      Wire.Writer.u16 w seq;
      Wire.Writer.bytes w payload
  | Echo_reply { ident; seq; payload } ->
      Wire.Writer.u8 w 0;
      Wire.Writer.u8 w 0;
      Wire.Writer.u16 w 0;
      Wire.Writer.u16 w ident;
      Wire.Writer.u16 w seq;
      Wire.Writer.bytes w payload
  | Dest_unreachable { code; original } ->
      Wire.Writer.u8 w 3;
      Wire.Writer.u8 w code;
      Wire.Writer.u16 w 0;
      Wire.Writer.u32 w 0l;
      Wire.Writer.bytes w original
  | Time_exceeded { original } ->
      Wire.Writer.u8 w 11;
      Wire.Writer.u8 w 0;
      Wire.Writer.u16 w 0;
      Wire.Writer.u32 w 0l;
      Wire.Writer.bytes w original);
  Wire.Writer.patch_u16 w (start + 2)
    (Wire.Writer.checksum w start (Wire.Writer.length w - start))

let read r =
  try
    if Wire.Reader.checksum r (Wire.Reader.remaining r) <> 0 then
      Error "icmp: bad checksum"
    else begin
      let typ = Wire.Reader.u8 r in
      let code = Wire.Reader.u8 r in
      let _checksum = Wire.Reader.u16 r in
      match typ with
      | 8 ->
          let ident = Wire.Reader.u16 r in
          let seq = Wire.Reader.u16 r in
          Ok (Echo_request { ident; seq; payload = Wire.Reader.rest r })
      | 0 ->
          let ident = Wire.Reader.u16 r in
          let seq = Wire.Reader.u16 r in
          Ok (Echo_reply { ident; seq; payload = Wire.Reader.rest r })
      | 3 ->
          Wire.Reader.skip r 4;
          Ok (Dest_unreachable { code; original = Wire.Reader.rest r })
      | 11 ->
          Wire.Reader.skip r 4;
          Ok (Time_exceeded { original = Wire.Reader.rest r })
      | n -> Error (Printf.sprintf "icmp: unsupported type %d" n)
    end
  with Wire.Truncated -> Error "icmp: truncated"

let pp ppf = function
  | Echo_request { ident; seq; _ } ->
      Format.fprintf ppf "icmp echo-request id=%d seq=%d" ident seq
  | Echo_reply { ident; seq; _ } ->
      Format.fprintf ppf "icmp echo-reply id=%d seq=%d" ident seq
  | Dest_unreachable { code; _ } ->
      Format.fprintf ppf "icmp dest-unreachable code=%d" code
  | Time_exceeded _ -> Format.fprintf ppf "icmp time-exceeded"
