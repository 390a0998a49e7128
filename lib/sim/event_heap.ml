(* Struct-of-arrays 4-ary min-heap. Slot [i] is the triple
   ([times.(i)], [seqs.(i)], [values.(i)]); the children of [i] are
   [4i+1 .. 4i+4]. Keys are plain ints read in place, and both sifts
   carry a hole down or up the tree so each level writes one slot. *)

type 'a t = {
  mutable times : int array;
  mutable seqs : int array;
  mutable values : 'a array;
  mutable len : int;
  mutable next_seq : int;
  mutable peak : int;
  filler : 'a;
}

let initial_capacity = 64

let create filler =
  {
    times = Array.make initial_capacity 0;
    seqs = Array.make initial_capacity 0;
    values = Array.make initial_capacity filler;
    len = 0;
    next_seq = 0;
    peak = 0;
    filler;
  }

let is_empty h = h.len = 0

let size h = h.len

(* (time, seq) lexicographic order; seqs are unique, so no two live
   keys are equal. *)
let[@inline] key_lt (t1 : int) (s1 : int) (t2 : int) (s2 : int) =
  t1 < t2 || (t1 = t2 && s1 < s2)

let grow h =
  let cap = 2 * Array.length h.times in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 h.len;
    b
  in
  h.times <- extend h.times 0;
  h.seqs <- extend h.seqs 0;
  h.values <- extend h.values h.filler

(* Moves the hole at [i] towards the root past every parent that
   (t, s) beats, then fills it with (t, s, v). *)
let sift_up h i t s v =
  let times = h.times and seqs = h.seqs and values = h.values in
  let i = ref i in
  let go = ref true in
  while !go && !i > 0 do
    let p = (!i - 1) lsr 2 in
    let pt = times.(p) and ps = seqs.(p) in
    if key_lt t s pt ps then begin
      times.(!i) <- pt;
      seqs.(!i) <- ps;
      values.(!i) <- values.(p);
      i := p
    end
    else go := false
  done;
  times.(!i) <- t;
  seqs.(!i) <- s;
  values.(!i) <- v

(* Moves the hole at [i] towards the leaves, pulling up the least
   child while it beats (t, s), then fills it with (t, s, v). *)
let sift_down h i t s v =
  let times = h.times and seqs = h.seqs and values = h.values in
  let len = h.len in
  let i = ref i in
  let go = ref true in
  while !go do
    let first = (4 * !i) + 1 in
    if first >= len then go := false
    else begin
      let last = if first + 3 < len then first + 3 else len - 1 in
      let m = ref first in
      let mt = ref times.(first) and ms = ref seqs.(first) in
      for c = first + 1 to last do
        let ct = times.(c) and cs = seqs.(c) in
        if key_lt ct cs !mt !ms then begin
          m := c;
          mt := ct;
          ms := cs
        end
      done;
      if key_lt !mt !ms t s then begin
        times.(!i) <- !mt;
        seqs.(!i) <- !ms;
        values.(!i) <- values.(!m);
        i := !m
      end
      else go := false
    end
  done;
  times.(!i) <- t;
  seqs.(!i) <- s;
  values.(!i) <- v

let push h time value =
  if h.len = Array.length h.times then grow h;
  let seq = h.next_seq in
  h.next_seq <- seq + 1;
  let i = h.len in
  h.len <- i + 1;
  if h.len > h.peak then h.peak <- h.len;
  sift_up h i (Vtime.to_us time) seq value

let pop_min h =
  if h.len = 0 then invalid_arg "Event_heap.pop_min: empty heap";
  let root = h.values.(0) in
  let n = h.len - 1 in
  h.len <- n;
  if n = 0 then h.values.(0) <- h.filler
  else begin
    let t = h.times.(n) and s = h.seqs.(n) and v = h.values.(n) in
    h.values.(n) <- h.filler;
    sift_down h 0 t s v
  end;
  root

let min_time h =
  if h.len = 0 then invalid_arg "Event_heap.min_time: empty heap"
  else Vtime.of_us h.times.(0)

let peek_time h = if h.len = 0 then None else Some (min_time h)

let pop h =
  if h.len = 0 then None
  else
    let time = min_time h in
    Some (time, pop_min h)

let pushes h = h.next_seq

let peak h = h.peak

let clear h =
  Array.fill h.values 0 h.len h.filler;
  h.len <- 0
