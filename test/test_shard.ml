(* Rng stream tests for per-component seeding: sibling streams carved
   off one parent with [Rng.split] must not echo each other or the
   parent. *)

module Rng = Rf_sim.Rng

let draws rng n = List.init n (fun _ -> Rng.int rng 1_000_000)

let test_rng_split_independence () =
  let parent = Rng.create 7 in
  let a = Rng.split parent in
  let b = Rng.split parent in
  let da = draws a 32 and db = draws b 32 and dp = draws parent 32 in
  Alcotest.(check bool) "a <> b" false (da = db);
  Alcotest.(check bool) "a <> parent" false (da = dp);
  Alcotest.(check bool) "b <> parent" false (db = dp)

let suite =
  [
    Alcotest.test_case "rng: split streams independent" `Quick
      test_rng_split_independence;
  ]
