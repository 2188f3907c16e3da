(* Tier-1 coverage for lib/refcheck: the fuzz driver itself, a
   fixed-seed differential sweep over every registered check, and the
   minimized counterexamples of the divergences the fuzzer found while
   it was being built — pinned so they can never silently return. *)

module Fuzz = Cso_refcheck.Fuzz
module Checks = Cso_refcheck.Checks
module Reference = Cso_refcheck.Reference
module Rect = Cso_geom.Rect
module Geo_instance = Cso_core.Geo_instance
module Gcso_general = Cso_core.Gcso_general
module Table1 = Cso_refcheck.Table1

(* --- the driver --- *)

(* A deliberately failing check: arrays with an element > 3 fail, and
   dropping elements shrinks. The minimized counterexample must be the
   single offending element. *)
let toy_check =
  Fuzz.make ~name:"toy.element_bound"
    ~gen:(fun rng -> Array.init (3 + Random.State.int rng 5) (fun _ -> Random.State.int rng 6))
    ~shrink:(fun a ->
      List.init (Array.length a) (fun i ->
          Array.init (Array.length a - 1) (fun j -> a.(if j < i then j else j + 1))))
    ~show:(fun a ->
      "[" ^ String.concat ";" (Array.to_list (Array.map string_of_int a)) ^ "]")
    ~prop:(fun a ->
      if Array.for_all (fun x -> x <= 3) a then Ok ()
      else Error "element exceeds 3")

let test_driver_shrinks () =
  match Fuzz.run ~seed:11 ~cases:50 [ toy_check ] with
  | [ r ] ->
      Alcotest.(check bool) "found failures" true (r.Fuzz.r_failures <> []);
      List.iter
        (fun f ->
          (* Greedy first-descent must reach a single offending element:
             every length-2+ failing array still has a failing shrink. *)
          Alcotest.(check bool)
            (Printf.sprintf "minimized to one element: %s" f.Fuzz.f_counterexample)
            true
            (List.mem f.Fuzz.f_counterexample
               [ "[4]"; "[5]" ]);
          Alcotest.(check string) "check name" "toy.element_bound" f.Fuzz.f_check;
          Alcotest.(check int) "seed recorded" 11 f.Fuzz.f_seed)
        r.Fuzz.r_failures
  | _ -> Alcotest.fail "expected one report"

let test_driver_exception_is_finding () =
  let crashing =
    Fuzz.make ~name:"toy.crash"
      ~gen:(fun rng -> Random.State.int rng 10)
      ~shrink:(fun n -> if n > 0 then [ n - 1 ] else [])
      ~show:string_of_int
      ~prop:(fun n -> if n = 0 then Ok () else failwith "boom")
  in
  match Fuzz.run ~seed:3 ~cases:20 [ crashing ] with
  | [ r ] ->
      Alcotest.(check bool) "crash recorded" true (r.Fuzz.r_failures <> []);
      List.iter
        (fun f ->
          Alcotest.(check bool) "reason mentions the exception" true
            (String.length f.Fuzz.f_reason > 0
            && String.sub f.Fuzz.f_reason 0 18 = "uncaught exception");
          (* The shrinker walks crashing instances down to the smallest
             one that still crashes. *)
          Alcotest.(check string) "minimized" "1" f.Fuzz.f_counterexample)
        r.Fuzz.r_failures
  | _ -> Alcotest.fail "expected one report"

let test_driver_deterministic_and_filtered () =
  let run () = Fuzz.run ~filter:"toy.element" ~seed:11 ~cases:30 [ toy_check ] in
  Alcotest.(check bool) "same seed, same reports" true (run () = run ());
  Alcotest.(check int) "filter excludes non-matching" 0
    (List.length (Fuzz.run ~filter:"nonexistent" ~seed:11 ~cases:5 [ toy_check ]))

(* --- fixed-seed sweep over the real registry --- *)

let test_registry_clean () =
  let reports = Fuzz.run ~seed:20250807 ~cases:60 Checks.all in
  Alcotest.(check int) "all checks ran" (List.length Checks.all)
    (List.length reports);
  List.iter
    (fun r ->
      if r.Fuzz.r_failures <> [] then
        Alcotest.failf "%a" (Format.pp_print_list Fuzz.pp_failure)
          r.Fuzz.r_failures)
    reports

(* --- pinned divergences found by the fuzzer --- *)

(* csokit fuzz --seed 20250807 --check gcso.mwu_tricriteria_vs_opt
   (minimized): 3 points, one covering rectangle, k=2, z=0, eps=0.5.
   The optimum is sqrt 2 (centers (4,1) and (1,3)). With eps passed
   un-split to the WSPD lattice, the BBD queries and the MWU, this
   instance came back as a single center of cost sqrt 13 = 2.55 * opt —
   exceeding the (2+eps) = 2.5 factor of Theorem 3.2 and pinning the
   honest bound at 2(1+eps)^2. Since the eps-overspend fix, [solve]
   splits the budget (eps/5 per consumer; see gcso_general.mli), and
   this same instance must certify the theorem's factor. *)
let test_gcso_split_eps_calibration () =
  let points = [| [| 4.0; 1.0 |]; [| 3.0; 2.0 |]; [| 1.0; 3.0 |] |] in
  let rects = [| Rect.bounding_box points |] in
  let g = Geo_instance.make ~points ~rects ~k:2 ~z:0 in
  let eps = 0.5 in
  let rep = Gcso_general.solve ~eps ~rounds:150 g in
  let cost = Geo_instance.cost g rep.Gcso_general.solution in
  let opt = Reference.cso_opt (Geo_instance.to_cso g) in
  Alcotest.(check bool) "exhaustive optimum is sqrt 2" true
    (Float.abs (opt -. Float.sqrt 2.0) < 1e-12);
  Alcotest.(check bool) "rounding bound 2(1+eps/5)*radius" true
    (cost <= (2.0 *. (1.0 +. (eps /. 5.0)) *. rep.Gcso_general.radius) +. 1e-9);
  (* Calibration canary, flipped by the eps split: the historical
     counterexample to the un-split implementation now lands within the
     theorem's factor. If this fails, the accuracy budget regressed. *)
  Alcotest.(check bool) "(2+eps) factor certified" true
    (cost <= ((2.0 +. eps) *. opt) +. 1e-9)

(* csokit fuzz --seed 5 --check gcso.mwu_tricriteria_vs_opt (minimized,
   found by the PR-6 deep sweep): 6 points, one covering rectangle,
   k=2, z=0, eps=0.5, opt = 1.4649. The raw WSPD lattice at eps/5 put
   every candidate tracking opt *below* it (1.3906, 1.4142, 1.4499 —
   all LP-infeasible) and the next candidate up at 2.0180 = 1.38 opt,
   so the smallest feasible guess blew the theorem factor
   (cost 4.0785 = 2.78 opt > 2.5 opt) at any round count. [solve] then
   generated the lattice at eps_w = eps_c/(2+eps_c) and inflated each
   candidate by 1/(1-eps_w). It now searches [Guess.radius_grid] at
   ratio 1 + eps/5, which holds a value in [opt, (1+eps/5) opt]: either
   way a feasible guess lies within (1+eps/5) of opt. *)
let test_gcso_lattice_gap () =
  let points =
    [|
      [| 3.0; 0.0 |];
      [| 4.0; 1.0 |];
      [| 2.2677445098513966; 2.0351982999972535 |];
      [| 2.5855669441182769; 0.68139757088682762 |];
      [| 4.0; 1.0626706013916891 |];
      [| 0.0; 1.7963729403192477 |];
    |]
  in
  let rects = [| Rect.of_intervals [ (0.0, 4.0); (0.0, 2.0352) ] |] in
  let g = Geo_instance.make ~points ~rects ~k:2 ~z:0 in
  let eps = 0.5 in
  let rep = Gcso_general.solve ~eps ~rounds:150 g in
  let opt = Reference.cso_opt (Geo_instance.to_cso g) in
  Alcotest.(check bool) "radius within (1+eps/5) of opt" true
    (rep.Gcso_general.radius <= ((1.0 +. (eps /. 5.0)) *. opt) +. 1e-9);
  Alcotest.(check bool) "(2+eps) factor certified" true
    (Geo_instance.cost g rep.Gcso_general.solution
    <= ((2.0 +. eps) *. opt) +. 1e-9)

(* --- Table 1 bounds --- *)

(* At these parameters every bound is exact in floating point: mu1 k,
   mu2 z and mu3 opt. A measurement at each bound must pass, and one
   just past it must fail on that criterion. A row with no mu3 constant
   checks no cost, and a row with no bound (T1.R1) reads validity
   only. *)
let test_table1_bounds () =
  let p = { Table1.k = 2; z = 4; f = 2; g = 3; eps = 0.5 } and opt = 1.5 in
  List.iter
    (fun (row : Table1.row) ->
      let expect what m want =
        if Result.map_error fst (Table1.verdict row p m) <> want then
          Alcotest.failf "%s: unexpected verdict %s" row.id what
      in
      let count mu n =
        let c = mu *. float_of_int n in
        if Float.of_int (truncate c) <> c then
          Alcotest.failf "%s: bound %g is not an integer" row.id c;
        truncate c
      in
      let b = Option.map (fun bound -> bound p) row.bound in
      let mu3 = Option.bind b (fun b -> b.Table1.mu3) in
      let at =
        {
          Table1.valid = true;
          centers = Option.fold b ~none:0 ~some:(fun b -> count b.Table1.mu1 p.k);
          outliers = Option.fold b ~none:0 ~some:(fun b -> count b.Table1.mu2 p.z);
          cost = Option.fold mu3 ~none:1e9 ~some:(fun mu3 -> mu3 *. opt);
          opt = Some opt;
        }
      in
      expect "at the bound" at (Ok ());
      expect "when invalid" { at with valid = false } (Error Table1.Valid);
      if b <> None then begin
        expect "one center past" { at with centers = at.centers + 1 }
          (Error Table1.Centers);
        expect "one outlier past" { at with outliers = at.outliers + 1 }
          (Error Table1.Outliers);
        let past = { at with cost = Float.succ at.cost } in
        if mu3 <> None then begin
          expect "just past mu3" past (Error Table1.Cost);
          expect "without an optimum" { past with opt = None } (Ok ())
        end
        else expect "without a mu3 constant" past (Ok ())
      end)
    Table1.rows

let suite =
  [
    Alcotest.test_case "driver shrinks to minimal counterexample" `Quick
      test_driver_shrinks;
    Alcotest.test_case "driver records exceptions as findings" `Quick
      test_driver_exception_is_finding;
    Alcotest.test_case "driver is deterministic and filterable" `Quick
      test_driver_deterministic_and_filtered;
    Alcotest.test_case "registry clean under fixed seed" `Quick
      test_registry_clean;
    Alcotest.test_case "regression: gcso eps calibration instance" `Quick
      test_gcso_split_eps_calibration;
    Alcotest.test_case "regression: gcso lattice gap instance" `Quick
      test_gcso_lattice_gap;
    Alcotest.test_case "table1 verdict holds at each bound, fails past it"
      `Quick test_table1_bounds;
  ]
