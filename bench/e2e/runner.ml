(* One benchmark run: a closed loop with a single client that repeats a
   workload's unit — all of its cases, in order, with identical inputs
   — until the wall-clock budget is spent. Units run one at a time on
   one domain. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* --- Host speed ------------------------------------------------------- *)

(* On the shared host this benchmark was written on, memory-bound code
   runs up to 1.8x slower for minutes at a time while other tenants load
   the shared cache; pure arithmetic does not slow down. The simulator's
   work per unit is fixed by its seed, so each unit interleaves short
   calibration slices with its run steps and reports its times at idle
   host speed: measured time × nominal slice time / mean measured slice
   time. A slice is a fixed, allocation-free mix of sequential writes
   and random reads and writes over 10 MiB outside the OCaml heap — the
   cache behaviour of the simulator's heap — and calls no code under
   test, so a change to the library cannot move it. *)

let slice_iterations = 400_000

(* A slice's time on the idle host (2-core Xeon VM, 300 MiB shared L3). *)
let nominal_slice_s = 0.0045

(* Slices are due after this much time in run steps, about 1% of the
   work. Shorter gaps leave part of the slice's data cached, and the
   slice then slows down less than the simulator on a loaded host. *)
let slice_every_s = 0.4

let calib_heap =
  Bigarray.Array1.init Bigarray.int8_unsigned Bigarray.c_layout (8 lsl 20)
    (fun i -> i land 255)

let calib_nursery =
  Bigarray.Array1.init Bigarray.int Bigarray.c_layout (1 lsl 18) Fun.id

let calib_mib = 10.

let calibration_slice () =
  let mask = Bigarray.Array1.dim calib_heap - 1
  and nmask = Bigarray.Array1.dim calib_nursery - 1 in
  let x = ref 99 and acc = ref 0 in
  for i = 1 to slice_iterations do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    Bigarray.Array1.unsafe_set calib_nursery (i land nmask) !x;
    let j = !x land mask in
    let c = Bigarray.Array1.unsafe_get calib_heap j in
    acc := !acc + c;
    if !x land 3 = 0 then
      Bigarray.Array1.unsafe_set calib_heap (j * 7 land mask) ((c + 1) land 255)
  done;
  !acc

type speed = {
  mutable slice_s : float;
  mutable slices : int;
  mutable last : float;
}

let slice sp =
  let t0 = now () in
  ignore (Sys.opaque_identity (calibration_slice ()));
  let t1 = now () in
  sp.slice_s <- sp.slice_s +. (t1 -. t0);
  sp.slices <- sp.slices + 1;
  sp.last <- t1

(* A speed meter that has taken its first slice. *)
let speed () =
  let sp = { slice_s = 0.; slices = 0; last = 0. } in
  slice sp;
  sp

let pause sp () = if now () -. sp.last >= slice_every_s then slice sp

(* How much slower than idle the host ran while [sp] was sampling. *)
let slowdown sp = sp.slice_s /. (float_of_int sp.slices *. nominal_slice_s)

(* --- One unit -------------------------------------------------------- *)

(* What a run reports. *)
type outcome = {
  metrics : (string * string * float) list;
  attempted : int;
  failed : int;
  digest : string;
  correct : bool;
  errors : string list;
}

type unit_result = {
  setup_s : float;  (** summed over the unit's cases, at idle speed *)
  wall_s : float;  (** summed over the unit's run calls, at idle speed *)
  raw_wall_s : float;  (** the same, as measured *)
  slowdown : float;
  digest : string;  (** MD5 of the cases' virtual-clock summaries *)
  attempted : int;
  failed : int;
  failures : string list;
}

type traced = {
  layers : Layers.acc;
  profiler : Rf_obs.Profiler.t;
  mutable subject : (Workloads.parts * float) option;
      (** the last case's parts and measured run time *)
}

let run_unit ?traced (cases : Workloads.case list) =
  let sp = speed () in
  let summaries = Buffer.create 4096 in
  let setup = ref 0. and wall = ref 0. in
  let failed = ref 0 and failures = ref [] in
  List.iter
    (fun (c : Workloads.case) ->
      let profiler = Option.map (fun t -> t.profiler) traced in
      (* Every case starts from a collected heap, as in its own process,
         so peak memory and GC work do not depend on the case before. *)
      Gc.full_major ();
      match
        let p, ds = time (fun () -> c.setup profiler) in
        let gc0 = Gc.quick_stat () and sliced = sp.slice_s in
        let (), d = time (fun () -> p.run (pause sp)) in
        let gc1 = Gc.quick_stat () in
        let dr = d -. (sp.slice_s -. sliced) in
        setup := !setup +. ds;
        wall := !wall +. dr;
        (p, dr, gc0, gc1, p.finish ())
      with
      | exception e ->
          incr failed;
          failures :=
            (c.label ^ ": raised " ^ Printexc.to_string e) :: !failures;
          Buffer.add_string summaries (c.label ^ " raised\n")
      | p, dr, gc0, gc1, o ->
          if o.failures <> [] then incr failed;
          failures := o.failures @ !failures;
          Buffer.add_string summaries (o.summary ^ "\n");
          Option.iter
            (fun t ->
              Layers.add_parts t.layers p.parts;
              Layers.add_gc t.layers gc0 gc1;
              t.subject <- Some (p.parts, dr))
            traced)
    cases;
  slice sp;
  let k = slowdown sp in
  {
    setup_s = !setup /. k;
    wall_s = !wall /. k;
    raw_wall_s = !wall;
    slowdown = k;
    digest = Digest.to_hex (Digest.string (Buffer.contents summaries));
    attempted = List.length cases;
    failed = !failed;
    failures = List.rev !failures;
  }

(* --- Reporting ------------------------------------------------------- *)

(* VmHWM less the calibration buffers, which every run holds alike. *)
let peak_rss_mb () =
  let hwm =
    match
      In_channel.with_open_text "/proc/self/status" In_channel.input_all
    with
    | status ->
        List.find_map
          (fun line ->
            Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> float_of_int kb))
          (String.split_on_char '\n' status)
    | exception Sys_error _ -> None
  in
  match hwm with
  | Some kb -> (kb /. 1024.) -. calib_mib
  | None ->
      (* no procfs: the OCaml heap's high-water mark instead *)
      float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8))
      /. 1048576.

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let result_json ~correct ~attempted ~failed metrics =
  Printf.sprintf
    {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|}
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (name, unit, v) ->
            Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} name
              (json_number v) unit)
          metrics))

(* --- A run ------------------------------------------------------------ *)

let run ~(workload : Workloads.t) ~seed ~seconds ~trace ~size =
  let cases = workload.cases ~seed size in
  let start = now () in
  (* The first unit fills caches and grows the heap; it is checked like
     any other but not timed. With tracing, untraced and traced units
     then alternate, so the overhead compares units that ran under the
     same host conditions. *)
  let warmup = run_unit cases in
  let units = ref [] and first_traced = ref None in
  let have_both () =
    !units <> []
    && ((not trace)
       || List.exists fst !units
          && List.exists (fun (traced, _) -> not traced) !units)
  in
  while now () -. start < seconds || not (have_both ()) do
    let is_traced = trace && List.length !units mod 2 = 0 in
    let traced =
      if is_traced then
        Some
          {
            layers = Layers.create ();
            profiler = Rf_obs.Profiler.create ~clock_every:1 ();
            subject = None;
          }
      else None
    in
    let r = run_unit ?traced cases in
    Printf.printf
      "unit %d traced=%b setup_s=%.6f wall_s=%.6f raw_wall_s=%.6f \
       slowdown=%.3f\n\
       %!"
      (List.length !units) is_traced r.setup_s r.wall_s r.raw_wall_s r.slowdown;
    if !first_traced = None then first_traced := traced;
    units := (is_traced, r) :: !units
  done;
  let units = List.rev !units in
  let results = warmup :: List.map snd units in
  let of_units ~traced f =
    List.filter_map
      (fun (t, r) -> if t = traced then Some (f r) else None)
      units
  in
  let digest = warmup.digest in
  let same_digest =
    List.for_all (fun r -> String.equal r.digest digest) results
  in
  let attempted = List.fold_left (fun a r -> a + r.attempted) 0 results in
  let failed = List.fold_left (fun a r -> a + r.failed) 0 results in
  let errors =
    List.concat_map (fun r -> r.failures) results
    @
    if same_digest then []
    else [ "virtual-clock summaries differ between units" ]
  in
  let metrics, errors =
    match !first_traced with
    | None ->
        ( [
            ( "wall_s",
              "s",
              Stats.median (of_units ~traced:false (fun r -> r.wall_s)) );
            ( "setup_s",
              "s",
              Stats.median (of_units ~traced:false (fun r -> r.setup_s)) );
            ("peak_rss_mb", "MB", peak_rss_mb ());
          ],
          errors )
    | Some { subject = None; _ } -> ([], "no traced case completed" :: errors)
    | Some ({ subject = Some (last_case, last_case_wall_s); _ } as t) -> (
        match
          Layers.metrics
            {
              acc = t.layers;
              snapshot = Rf_obs.Profiler.snapshot t.profiler;
              traced_wall_s =
                Stats.median (of_units ~traced:true (fun r -> r.wall_s));
              untraced_wall_s =
                Stats.median (of_units ~traced:false (fun r -> r.wall_s));
              raw_wall_s =
                Stats.median (of_units ~traced:false (fun r -> r.raw_wall_s));
              slowdown =
                Stats.median (List.map (fun (_, r) -> r.slowdown) units);
              last_case;
              last_case_wall_s;
            }
        with
        | Ok m -> (m, errors)
        | Error e -> ([], e :: errors))
  in
  let finite = List.for_all (fun (_, _, v) -> Float.is_finite v) metrics in
  {
    metrics;
    attempted;
    failed;
    digest;
    correct = failed = 0 && errors = [] && finite && metrics <> [];
    errors = (if finite then errors else "non-finite metric" :: errors);
  }
