exception Truncated

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

  let u16 w v =
    u8 w (v lsr 8);
    u8 w v

  let u32 w v =
    u16 w (Int32.to_int (Int32.shift_right_logical v 16));
    u16 w (Int32.to_int v land 0xffff)

  let u64 w v =
    u32 w (Int64.to_int32 (Int64.shift_right_logical v 32));
    u32 w (Int64.to_int32 v)

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

  let patch_u16 w off v =
    if off < 0 || off + 2 > w.len then invalid_arg "Writer.patch_u16";
    Bytes.set w.buf off (Char.chr ((v lsr 8) land 0xff));
    Bytes.set w.buf (off + 1) (Char.chr (v land 0xff))
end

module Reader = struct
  type t = { src : string; mutable pos : int; limit : int }

  let of_string ?(pos = 0) ?len src =
    let limit =
      match len with Some l -> pos + l | None -> String.length src
    in
    if pos < 0 || limit > String.length src || pos > limit then
      invalid_arg "Reader.of_string";
    { src; pos; limit }

  let remaining r = r.limit - r.pos

  let pos r = r.pos

  let check r n = if r.pos + n > r.limit then raise Truncated

  let u8 r =
    check r 1;
    let v = Char.code (String.unsafe_get r.src r.pos) in
    r.pos <- r.pos + 1;
    v

  let u16 r =
    check r 2;
    let s = r.src and p = r.pos in
    r.pos <- p + 2;
    (Char.code (String.unsafe_get s p) lsl 8)
    lor Char.code (String.unsafe_get s (p + 1))

  let u32 r =
    let hi = u16 r in
    let lo = u16 r in
    Int32.logor (Int32.shift_left (Int32.of_int hi) 16) (Int32.of_int lo)

  let u64 r =
    let hi = u32 r in
    let lo = u32 r in
    Int64.logor
      (Int64.shift_left (Int64.of_int32 hi) 32)
      (Int64.logand (Int64.of_int32 lo) 0xFFFFFFFFL)

  let bytes r n =
    check r n;
    let s = String.sub r.src r.pos n in
    r.pos <- r.pos + n;
    s

  let skip r n =
    check r n;
    r.pos <- r.pos + n

  let rest r = bytes r (remaining r)

  let sub r n =
    check r n;
    let sub_reader = { src = r.src; pos = r.pos; limit = r.pos + n } in
    r.pos <- r.pos + n;
    sub_reader
end

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

let checksum s = checksum_sub s 0 (String.length s)
