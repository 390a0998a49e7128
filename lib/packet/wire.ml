exception Truncated

let checksum_sub s off len =
  if off < 0 || len < 0 || off > String.length s - len then
    invalid_arg "Wire.checksum_sub";
  let stop = off + len in
  let sum = ref 0 in
  let i = ref off in
  while !i + 1 < stop do
    sum :=
      !sum
      + (Char.code (String.unsafe_get s !i) lsl 8)
      + Char.code (String.unsafe_get s (!i + 1));
    i := !i + 2
  done;
  if !i < stop then sum := !sum + (Char.code (String.unsafe_get s !i) lsl 8);
  while !sum lsr 16 <> 0 do
    sum := (!sum land 0xffff) + (!sum lsr 16)
  done;
  lnot !sum land 0xffff

module Writer = struct
  type t = { mutable buf : Bytes.t; mutable len : int }

  let create ?(initial = 64) () = { buf = Bytes.create initial; len = 0 }

  let length w = w.len

  let ensure w n =
    let needed = w.len + n in
    if needed > Bytes.length w.buf then begin
      let cap = ref (2 * Bytes.length w.buf) in
      while needed > !cap do
        cap := 2 * !cap
      done;
      let buf = Bytes.create !cap in
      Bytes.blit w.buf 0 buf 0 w.len;
      w.buf <- buf
    end

  let u8 w v =
    ensure w 1;
    Bytes.unsafe_set w.buf w.len (Char.chr (v land 0xff));
    w.len <- w.len + 1

  (* One capacity check, then one word-sized store. *)
  let u16 w v =
    ensure w 2;
    Bytes.set_uint16_be w.buf w.len (v land 0xffff);
    w.len <- w.len + 2

  let u32 w v =
    ensure w 4;
    Bytes.set_int32_be w.buf w.len v;
    w.len <- w.len + 4

  let u32_int w v =
    ensure w 4;
    Bytes.set_uint16_be w.buf w.len ((v lsr 16) land 0xffff);
    Bytes.set_uint16_be w.buf (w.len + 2) (v land 0xffff);
    w.len <- w.len + 4

  let u48 w v =
    ensure w 6;
    Bytes.set_uint16_be w.buf w.len ((v lsr 32) land 0xffff);
    Bytes.set_uint16_be w.buf (w.len + 2) ((v lsr 16) land 0xffff);
    Bytes.set_uint16_be w.buf (w.len + 4) (v land 0xffff);
    w.len <- w.len + 6

  let u64 w v =
    ensure w 8;
    Bytes.set_int64_be w.buf w.len v;
    w.len <- w.len + 8

  let bytes w s =
    let n = String.length s in
    ensure w n;
    Bytes.blit_string s 0 w.buf w.len n;
    w.len <- w.len + n

  let zeros w n =
    ensure w n;
    Bytes.fill w.buf w.len n '\000';
    w.len <- w.len + n

  let contents w = Bytes.sub_string w.buf 0 w.len

  let checksum w off len =
    if off < 0 || len < 0 || off > w.len - len then
      invalid_arg "Writer.checksum";
    checksum_sub (Bytes.unsafe_to_string w.buf) off len

  let patch_u16 w off v =
    if off < 0 || off + 2 > w.len then invalid_arg "Writer.patch_u16";
    Bytes.set_uint16_be w.buf off (v land 0xffff)
end

module Reader = struct
  type t = { src : string; mutable pos : int; limit : int }

  let of_string ?(pos = 0) src =
    let limit = String.length src in
    if pos < 0 || pos > limit then invalid_arg "Reader.of_string";
    { src; pos; limit }

  let remaining r = r.limit - r.pos

  let peek_u16 r off =
    if off < 0 || r.pos + off + 2 > r.limit then raise Truncated;
    String.get_uint16_be r.src (r.pos + off)

  let pos r = r.pos

  let check r n = if r.pos + n > r.limit then raise Truncated

  let u8 r =
    check r 1;
    let v = Char.code (String.unsafe_get r.src r.pos) in
    r.pos <- r.pos + 1;
    v

  let u16 r =
    check r 2;
    let p = r.pos in
    r.pos <- p + 2;
    String.get_uint16_be r.src p

  let u32 r =
    check r 4;
    let p = r.pos in
    r.pos <- p + 4;
    String.get_int32_be r.src p

  let u32_int r =
    check r 4;
    let p = r.pos in
    r.pos <- p + 4;
    (String.get_uint16_be r.src p lsl 16) lor String.get_uint16_be r.src (p + 2)

  let u48 r =
    check r 6;
    let p = r.pos in
    r.pos <- p + 6;
    (String.get_uint16_be r.src p lsl 32)
    lor (String.get_uint16_be r.src (p + 2) lsl 16)
    lor String.get_uint16_be r.src (p + 4)

  let u64 r =
    check r 8;
    let p = r.pos in
    r.pos <- p + 8;
    String.get_int64_be r.src p

  let bytes r n =
    check r n;
    let s = String.sub r.src r.pos n in
    r.pos <- r.pos + n;
    s

  let skip r n =
    check r n;
    r.pos <- r.pos + n

  let rest r = bytes r (remaining r)

  let checksum r n =
    check r n;
    checksum_sub r.src r.pos n

  let sub r n =
    check r n;
    let sub_reader = { src = r.src; pos = r.pos; limit = r.pos + n } in
    r.pos <- r.pos + n;
    sub_reader
end

let checksum s = checksum_sub s 0 (String.length s)
