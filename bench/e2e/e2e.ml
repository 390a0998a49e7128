(* End-to-end benchmark of the paper's workloads.

   e2e.exe --workload NAME [--seed N] [--seconds T] [--trace 0|1]
     One run of one workload. The last line of standard output is its
     JSON result; the exit code is 1 when a correctness check failed.

   e2e.exe [--seed N] [--reps R] [--seconds T] [--trace 0|1] [--out FILE]
     Every workload R times, round-robin so host drift hits all of them
     alike. Each run is a fresh child process of this executable,
     started only after the previous one has exited. With --trace 1,
     one more traced child per workload at the same seed. Prints each
     metric's median, quartiles and sample count.

   e2e.exe --compare A.json B.json
     A verdict per (metric, workload) between two --out files, with the
     bounds of BENCHMARK.json in the working directory. Exits 1 when any
     pair is worse. *)

open E2e_bench

let default_seconds = 20.

let default_reps = 5

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("e2e: " ^ s);
      exit 2)
    fmt

module Json = Rf_obs.Json

let member_exn k v =
  match Json.member k v with Some x -> x | None -> fail "missing key %S" k

let num_exn v =
  match Json.to_float_opt v with Some f -> f | None -> fail "expected a number"

let str_exn v =
  match Json.to_string_opt v with Some s -> s | None -> fail "expected a string"

let list_exn v =
  match Json.to_list_opt v with Some l -> l | None -> fail "expected a list"

(* --- One run ----------------------------------------------------------- *)

let single ~workload ~seed ~seconds ~trace =
  let w =
    match Workloads.find workload with
    | Some w -> w
    | None -> fail "unknown workload %S" workload
  in
  let o = Runner.run ~workload:w ~seed ~seconds ~trace ~size:Workloads.Full in
  List.iter (fun e -> prerr_endline ("e2e: " ^ e)) o.errors;
  Printf.printf "digest %s\n" o.digest;
  print_endline
    (Runner.result_json ~correct:o.correct ~attempted:o.attempted
       ~failed:o.failed o.metrics);
  exit (if o.correct then 0 else 1)

(* --- Every workload, one child process per run -------------------------- *)

type child = {
  ok : bool;
  digest : string;
  attempted : int;
  failed : int;
  values : (string * string * float) list;
}

let child ~workload ~seed ~seconds ~trace =
  let args =
    [|
      Sys.executable_name;
      "--workload";
      workload;
      "--seed";
      string_of_int seed;
      "--seconds";
      Printf.sprintf "%g" seconds;
      "--trace";
      (if trace then "1" else "0");
    |]
  in
  let ic = Unix.open_process_args_in Sys.executable_name args in
  let out = In_channel.input_all ic in
  let status = Unix.close_process_in ic in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' out)
  in
  let digest =
    List.find_map (fun l -> Scanf.sscanf_opt l "digest %s" Fun.id) lines
  in
  match (List.rev lines, digest) with
  | last :: _, Some digest -> (
      match Json.parse last with
      | j ->
          let int_of k = int_of_float (num_exn (member_exn k j)) in
          {
            ok =
              status = Unix.WEXITED 0
              && Json.member "correct" j = Some (Json.Bool true);
            digest;
            attempted = int_of "attempted";
            failed = int_of "failed";
            values =
              List.map
                (fun (name, m) ->
                  ( name,
                    str_exn (member_exn "unit" m),
                    num_exn (member_exn "value" m) ))
                (Json.obj_fields (member_exn "metrics" j));
          }
      | exception Json.Parse_error e ->
          fail "%s: unreadable result (%s)" workload e)
  | _ -> fail "%s seed %d: no result" workload seed

let names = List.map (fun (w : Workloads.t) -> w.name) Workloads.all

let all ~seed ~reps ~seconds ~trace ~out =
  let runs = Hashtbl.create 16 in
  for rep = 1 to reps do
    List.iter
      (fun w ->
        Printf.eprintf "e2e: rep %d/%d %s\n%!" rep reps w;
        Hashtbl.add runs w (child ~workload:w ~seed ~seconds ~trace:false))
      names
  done;
  let traced =
    if trace then
      List.map
        (fun w -> (w, child ~workload:w ~seed ~seconds ~trace:true))
        names
    else []
  in
  let runs_of w = List.rev (Hashtbl.find_all runs w) in
  (* Same seed, same virtual-clock summary — in every run and traced. *)
  let consistent w =
    let cs = runs_of w @ Option.to_list (List.assoc_opt w traced) in
    List.for_all (fun c -> c.ok && String.equal c.digest (List.hd cs).digest) cs
  in
  let fail_ratio w =
    let cs = runs_of w in
    float_of_int (List.fold_left (fun a c -> a + c.failed) 0 cs)
    /. float_of_int (List.fold_left (fun a c -> a + c.attempted) 0 cs)
  in
  let value name c =
    match List.find_opt (fun (n, _, _) -> n = name) c.values with
    | Some (_, _, v) -> v
    | None -> nan
  in
  let values w name = List.map (value name) (runs_of w) in
  let metric_names =
    List.map
      (fun (n, u, _) -> (n, u))
      (List.hd (runs_of (List.hd names))).values
  in
  let row = Printf.printf "%-16s %-12s %-5s %12s %12s %12s %3s\n" in
  let g = Printf.sprintf "%.6g" in
  row "workload" "metric" "unit" "median" "q1" "q3" "n";
  List.iter
    (fun w ->
      List.iter
        (fun (name, unit) ->
          let vs = values w name in
          let q1, m, q3 = Stats.quartiles vs in
          row w name unit (g m) (g q1) (g q3) (string_of_int (List.length vs)))
        metric_names;
      row w "fail_ratio" "ratio" (g (fail_ratio w)) "" ""
        (string_of_int (List.length (runs_of w)));
      if not (consistent w) then
        Printf.printf "%s: a run failed or virtual-clock digests differ\n" w)
    names;
  (match traced with
  | [] -> ()
  | (_, first) :: _ ->
      Printf.printf "\nper-layer metrics (traced run, seed %d)\n%-34s %-6s" seed
        "metric" "unit";
      List.iter (fun w -> Printf.printf " %16s" w) names;
      List.iter
        (fun (name, unit, _) ->
          Printf.printf "\n%-34s %-6s" name unit;
          List.iter
            (fun (_, c) -> Printf.printf " %16.6g" (value name c))
            traced)
        first.values;
      print_newline ());
  Option.iter
    (fun path ->
      let num = Runner.json_number in
      let obj fields = "{" ^ String.concat ", " fields ^ "}" in
      let workload w =
        let metrics =
          List.map
            (fun (name, unit) ->
              Printf.sprintf {|"%s": {"unit": "%s", "values": [%s]}|} name unit
                (String.concat ", " (List.map num (values w name))))
            metric_names
        and layers =
          List.concat_map
            (fun c ->
              List.map
                (fun (n, u, v) ->
                  Printf.sprintf {|"%s": {"unit": "%s", "value": %s}|} n u
                    (num v))
                c.values)
            (Option.to_list (List.assoc_opt w traced))
        in
        Printf.sprintf
          {|"%s": {"fail_ratio": %s, "consistent": %b, "metrics": %s, "layers": %s}|}
          w (num (fail_ratio w)) (consistent w) (obj metrics) (obj layers)
      in
      Out_channel.with_open_text path (fun oc ->
          Printf.fprintf oc
            {|{"schema": "rfauto-e2e-v1", "seed": %d, "reps": %d, "seconds": %s, "workloads": %s}|}
            seed reps (num seconds)
            (obj (List.map workload names));
          output_char oc '\n'))
    out;
  exit (if List.for_all consistent names then 0 else 1)

(* --- Compare ------------------------------------------------------------ *)

(* Verdict of one (metric, workload) pair. Where either side's spread
   (quartile distance over median) exceeds the bound, the pair is
   unresolved unless every run of B beats every run of A. *)
let verdict ~better ~bound va vb =
  let spread xs =
    let q1, m, q3 = Stats.quartiles xs in
    (q3 -. q1) /. m
  in
  (* positive [change] is a regression whatever the direction *)
  let sign = if better = "higher" then -1. else 1. in
  let ma = Stats.median va and mb = Stats.median vb in
  let change = sign *. (mb -. ma) /. ma in
  let v =
    if spread va > bound || spread vb > bound then
      if
        List.for_all
          (fun y -> List.for_all (fun x -> sign *. (y -. x) < 0.) va)
          vb
      then "better"
      else "unresolved"
    else if change > bound then "worse"
    else if change < -.bound then "better"
    else "same"
  in
  (v, ma, mb, change, spread va, spread vb)

let compare_files a_path b_path =
  let load path =
    match Json.parse (In_channel.with_open_text path In_channel.input_all) with
    | j -> j
    | exception (Sys_error e | Json.Parse_error e) -> fail "%s: %s" path e
  in
  let bench = load "BENCHMARK.json" and a = load a_path and b = load b_path in
  let workloads j = Json.obj_fields (member_exn "workloads" j) in
  let values w name =
    List.map num_exn
      (list_exn
         (member_exn "values" (member_exn name (member_exn "metrics" w))))
  in
  let row = Printf.printf "%-16s %-12s %12s %12s %8s %8s %8s %6s  %s\n" in
  let g = Printf.sprintf "%.6g" and pct = Printf.sprintf "%.1f%%" in
  row "workload" "metric" "median A" "median B" "change" "sprd A" "sprd B"
    "bound" "verdict";
  let worse = ref 0 in
  let report w name (v, ma, mb, change, sa, sb) bound =
    if v = "worse" then incr worse;
    row w name (g ma) (g mb) (pct (100. *. change)) (pct (100. *. sa))
      (pct (100. *. sb)) (pct (100. *. bound)) v
  in
  List.iter
    (fun (w, wa) ->
      match List.assoc_opt w (workloads b) with
      | None -> Printf.printf "%-16s missing from %s\n" w b_path
      | Some wb ->
          List.iter
            (fun m ->
              let name = str_exn (member_exn "name" m)
              and better = str_exn (member_exn "better" m)
              and bound = num_exn (member_exn "bound" m) in
              report w name
                (verdict ~better ~bound (values wa name) (values wb name))
                bound)
            (list_exn (member_exn "end_to_end" bench));
          (* failures may not rise at all *)
          let fa = num_exn (member_exn "fail_ratio" wa)
          and fb = num_exn (member_exn "fail_ratio" wb) in
          let v =
            if fb > fa then "worse" else if fb < fa then "better" else "same"
          in
          report w "fail_ratio" (v, fa, fb, fb -. fa, 0., 0.) 0.)
    (workloads a);
  exit (if !worse > 0 then 1 else 0)

(* --- Command line -------------------------------------------------------- *)

let () =
  let workload = ref None
  and seed = ref 42
  and seconds = ref default_seconds
  and trace = ref 0
  and reps = ref default_reps
  and out = ref None
  and compare = ref None in
  let cmp_a = ref "" in
  let specs =
    [
      ( "--workload",
        Arg.String (fun s -> workload := Some s),
        "NAME one run of one workload: " ^ String.concat ", " names );
      ("--seed", Arg.Set_int seed, "N workload seed (default 42)");
      ( "--seconds",
        Arg.Set_float seconds,
        "T wall-clock budget of one run (default 20)" );
      ("--trace", Arg.Set_int trace, "0|1 attach the per-layer instruments");
      ( "--reps",
        Arg.Set_int reps,
        "R runs per workload when no workload is named (default 5)" );
      ( "--out",
        Arg.String (fun s -> out := Some s),
        "FILE write every run's metrics as JSON" );
      ( "--compare",
        Arg.Tuple
          [
            Arg.Set_string cmp_a;
            Arg.String (fun b -> compare := Some (!cmp_a, b));
          ],
        "A.json B.json verdict per (metric, workload) between two --out files"
      );
    ]
  in
  Arg.parse specs
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "e2e.exe [--workload NAME] [--seed N] [--seconds T] [--trace 0|1] [--reps \
     R] [--out FILE] | --compare A.json B.json";
  if !trace <> 0 && !trace <> 1 then fail "--trace takes 0 or 1";
  if !reps < 1 then fail "--reps must be at least 1";
  if not (!seconds > 0.) then fail "--seconds must be positive";
  match (!compare, !workload) with
  | Some (a, b), _ -> compare_files a b
  | None, Some workload ->
      single ~workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
  | None, None ->
      all ~seed:!seed ~reps:!reps ~seconds:!seconds ~trace:(!trace = 1)
        ~out:!out
