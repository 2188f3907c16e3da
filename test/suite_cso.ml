open Cso_core
module Space = Cso_metric.Space
module Set_cover = Cso_setcover.Set_cover

let rng () = Random.State.make [| 123 |]

(* A hand-built instance on the line:
   points 0,1,2 at x=0,1,2 (set 0); points 3,4 at x=100,101 (set 1);
   k=1, z=1. Optimal: outlier set 1, center 1, cost 1. *)
let line_instance () =
  let pts = [| [| 0.0 |]; [| 1.0 |]; [| 2.0 |]; [| 100.0 |]; [| 101.0 |] |] in
  Instance.make (Space.of_points pts) ~sets:[ [ 0; 1; 2 ]; [ 3; 4 ] ] ~k:1 ~z:1

let test_instance_accessors () =
  let t = line_instance () in
  Alcotest.(check int) "n" 5 (Instance.n_elements t);
  Alcotest.(check int) "m" 2 (Instance.n_sets t);
  Alcotest.(check int) "f" 1 (Instance.frequency t);
  Alcotest.(check (list int)) "surviving" [ 0; 1; 2 ] (Instance.surviving t [ 1 ])

let test_instance_validation () =
  let pts = [| [| 0.0 |] |] in
  Alcotest.check_raises "uncovered element"
    (Invalid_argument "Instance.make: element 0 belongs to no set") (fun () ->
      ignore (Instance.make (Space.of_points pts) ~sets:[ [] ] ~k:1 ~z:0))

let test_solution_validity_and_cost () =
  let t = line_instance () in
  let sol = { Instance.centers = [ 1 ]; outliers = [ 1 ] } in
  Alcotest.(check bool) "valid" true (Instance.is_valid t sol);
  Alcotest.(check (float 1e-9)) "cost" 1.0 (Instance.cost t sol);
  let bad = { Instance.centers = [ 3 ]; outliers = [ 1 ] } in
  Alcotest.(check bool) "center inside outlier set" false (Instance.is_valid t bad)

let test_exact_on_line () =
  let t = line_instance () in
  match Exact.solve t with
  | None -> Alcotest.fail "exact should run"
  | Some (sol, cost) ->
      Alcotest.(check (float 1e-9)) "opt cost" 1.0 cost;
      Alcotest.(check bool) "valid" true (Instance.is_valid t sol)

let test_exact_work_cap () =
  let t = line_instance () in
  Alcotest.(check bool) "cap" true (Exact.solve ~max_work:1 t = None)

let check_tri_criteria ~name t sol ~mu1 ~mu2 ~cost_bound =
  Alcotest.(check bool) (name ^ ": valid") true (Instance.is_valid t sol);
  Alcotest.(check bool)
    (name ^ ": centers <= mu1 k")
    true
    (List.length sol.Instance.centers <= int_of_float (ceil (mu1 *. float_of_int t.Instance.k)));
  Alcotest.(check bool)
    (name ^ ": outliers <= mu2 z")
    true
    (List.length sol.Instance.outliers <= int_of_float (ceil (mu2 *. float_of_int (max 1 t.Instance.z))));
  Alcotest.(check bool)
    (name ^ ": cost bound")
    true
    (Instance.cost t sol <= cost_bound +. 1e-9)

let test_cso_general_line () =
  let t = line_instance () in
  let r = Cso_general.solve t in
  (* Theorem 2.4: (2, 2f, 2) with f = 1; opt = 1. *)
  check_tri_criteria ~name:"general/line" t r.Cso_general.solution ~mu1:2.0
    ~mu2:2.0 ~cost_bound:2.0

let test_cso_general_planted () =
  let w = Cso_workload.Planted.cso (rng ()) ~n:60 ~m:8 ~k:3 ~z:2 in
  let t = w.Cso_workload.Planted.instance in
  let r = Cso_general.solve t in
  let opt = w.Cso_workload.Planted.opt_upper in
  check_tri_criteria ~name:"general/planted" t r.Cso_general.solution ~mu1:2.0
    ~mu2:2.0 ~cost_bound:(2.0 *. opt);
  (* The solution must have thrown away the junk: cost well below the
     contamination scale. *)
  Alcotest.(check bool) "decontaminated" true
    (Instance.cost t r.Cso_general.solution
     < w.Cso_workload.Planted.contaminated_lower)

let test_cso_general_planted_f2 () =
  let w = Cso_workload.Planted.cso ~f:2 (rng ()) ~n:50 ~m:8 ~k:2 ~z:2 in
  let t = w.Cso_workload.Planted.instance in
  Alcotest.(check int) "f" 2 (Instance.frequency t);
  let r = Cso_general.solve t in
  check_tri_criteria ~name:"general/f2" t r.Cso_general.solution ~mu1:2.0
    ~mu2:4.0 (* 2f with f = 2 *)
    ~cost_bound:(2.0 *. w.Cso_workload.Planted.opt_upper)

let test_cso_general_vs_exact () =
  (* Tiny instance where the exact optimum is computable: check the
     2-approximation on cost against the true optimum. *)
  let w = Cso_workload.Planted.cso (rng ()) ~n:14 ~m:4 ~k:2 ~z:1 in
  let t = w.Cso_workload.Planted.instance in
  match Exact.solve t with
  | None -> Alcotest.fail "exact should handle n=14"
  | Some (_, opt) ->
      let r = Cso_general.solve t in
      Alcotest.(check bool) "cost <= 2 opt" true
        (Instance.cost t r.Cso_general.solution <= (2.0 *. opt) +. 1e-9)

let test_cso_disjoint_planted () =
  let w = Cso_workload.Planted.cso (rng ()) ~n:60 ~m:8 ~k:3 ~z:2 in
  let t = w.Cso_workload.Planted.instance in
  let r = Cso_disjoint.solve t in
  (* Theorem 2.6: (2, 2, 30). *)
  check_tri_criteria ~name:"disjoint/planted" t r.Cso_disjoint.solution
    ~mu1:2.0 ~mu2:2.0
    ~cost_bound:(30.0 *. w.Cso_workload.Planted.opt_upper);
  Alcotest.(check bool) "decontaminated" true
    (Instance.cost t r.Cso_disjoint.solution
     < w.Cso_workload.Planted.contaminated_lower)

let test_cso_disjoint_rejects_f2 () =
  let w = Cso_workload.Planted.cso ~f:2 (rng ()) ~n:30 ~m:6 ~k:2 ~z:1 in
  Alcotest.check_raises "f=1 required"
    (Invalid_argument "Cso_disjoint.solve_at: sets must be disjoint (f = 1)")
    (fun () -> ignore (Cso_disjoint.solve w.Cso_workload.Planted.instance))

let test_cso_disjoint_coreset_small () =
  let w = Cso_workload.Planted.cso (rng ()) ~n:120 ~m:10 ~k:3 ~z:2 in
  let r = Cso_disjoint.solve w.Cso_workload.Planted.instance in
  (* beta_1 = min(n, km): the coreset is at most k centers per set. *)
  Alcotest.(check bool) "coreset bounded by km" true
    (r.Cso_disjoint.coreset_elements <= 3 * 10)

(* When km < n the search runs over a lattice built from the per-set
   Gonzalez output. Built from the distances among the centers alone,
   with four times the largest on top, every guess of these two
   instances lies below half of some set's covering radius, so each
   forces that set out and with z = 0 none solves. The solve must still
   find a guess that keeps every set. *)
let test_cso_disjoint_lattice_miss () =
  let check name t ~opt =
    let r = Cso_disjoint.solve t in
    check_tri_criteria ~name t r.Cso_disjoint.solution ~mu1:2.0 ~mu2:2.0
      ~cost_bound:(30.0 *. opt)
  in
  (* One set and k = 1: one center, so the lattice is [0; 0]. *)
  let t =
    Instance.make
      (Space.of_points [| [| 0.0 |]; [| 1.0 |]; [| 3.0 |] |])
      ~sets:[ [ 0; 1; 2 ] ] ~k:1 ~z:0
  in
  check "one set" t ~opt:2.0;
  (* Covering radii 1.65 and 1.58, centers 0.186 apart: the top guess is
     0.743. *)
  let w =
    Cso_workload.Planted.cso
      (Random.State.make [| 108; 0x5c02 |])
      ~n:148 ~m:2 ~k:1 ~z:0
  in
  check "planted" w.Cso_workload.Planted.instance
    ~opt:w.Cso_workload.Planted.opt_upper

let test_solve_at_infeasible_radius () =
  let t = line_instance () in
  (* r = 0 with k = 1: the LP cannot cover three spread points of set 0
     while set 1 also needs outliering; infeasible. *)
  Alcotest.(check bool) "infeasible at 0" true (Cso_general.solve_at t ~r:0.0 = None)

(* The headline property: on arbitrary random instances, the LP
   algorithm is a (2, 2f, 2)-approximation relative to the exact
   optimum. *)
let prop_cso_general_tri_criteria =
  let rngp = Random.State.make [| 4242 |] in
  QCheck.Test.make ~name:"cso LP algorithm is (2,2f,2) vs exact optimum"
    ~count:25 QCheck.unit
    (fun () ->
      let n = 8 + Random.State.int rngp 6 in
      let m = 3 + Random.State.int rngp 3 in
      let k = 1 + Random.State.int rngp 2 in
      let z = Random.State.int rngp 2 in
      let pts =
        Array.init n (fun _ ->
            [| Random.State.float rngp 100.0; Random.State.float rngp 100.0 |])
      in
      (* Random sets + a round-robin layer guaranteeing coverage. *)
      let sets =
        List.init m (fun j ->
            List.filter
              (fun i -> i mod m = j || Random.State.bool rngp)
              (List.init n Fun.id))
      in
      let t = Instance.make (Space.of_points pts) ~sets ~k ~z in
      let f = Instance.frequency t in
      match Exact.solve t with
      | None -> true
      | Some (_, opt) ->
          let sol = (Cso_general.solve t).Cso_general.solution in
          Instance.is_valid t sol
          && List.length sol.Instance.centers <= 2 * k
          && List.length sol.Instance.outliers <= 2 * f * z
          && Instance.cost t sol <= (2.0 *. opt) +. 1e-6)

(* Lemma 2.3(i): (LP1) is feasible at every r >= opt. *)
let prop_lp_feasible_at_opt =
  let rngp = Random.State.make [| 5151 |] in
  QCheck.Test.make ~name:"LP1 feasible at the exact optimum (Lemma 2.3 i)"
    ~count:25 QCheck.unit
    (fun () ->
      let n = 7 + Random.State.int rngp 6 in
      let pts = Array.init n (fun _ -> [| Random.State.float rngp 80.0 |]) in
      let sets =
        List.init 3 (fun j ->
            List.filter
              (fun i -> i mod 3 = j || Random.State.bool rngp)
              (List.init n Fun.id))
      in
      let t = Instance.make (Space.of_points pts) ~sets ~k:2 ~z:1 in
      match Exact.opt_cost t with
      | None -> true
      | Some opt -> Cso_general.solve_at t ~r:opt <> None)

(* The Lemma 2.5 chain: the coreset construction never rejects a radius
   at or above the optimum (it may prune aggressively, but must solve). *)
let prop_coreset_solves_at_opt =
  let rngp = Random.State.make [| 5252 |] in
  QCheck.Test.make
    ~name:"disjoint coreset pipeline solves at the exact optimum (Lemma 2.5)"
    ~count:25 QCheck.unit
    (fun () ->
      let n = 8 + Random.State.int rngp 6 in
      let pts = Array.init n (fun _ -> [| Random.State.float rngp 80.0 |]) in
      (* f = 1: a partition into 3 sets. *)
      let sets = List.init 3 (fun j -> List.filter (fun i -> i mod 3 = j) (List.init n Fun.id)) in
      let t = Instance.make (Space.of_points pts) ~sets ~k:2 ~z:1 in
      match Exact.opt_cost t with
      | None -> true
      | Some opt -> (
          match Cso_disjoint.solve_at t ~r:opt with
          | Cso_disjoint.Solved sol ->
              Instance.is_valid t sol
              && Instance.cost t sol <= (30.0 *. opt) +. 1e-6
          | Cso_disjoint.Skip -> opt = 0.0 (* r = 0 may legitimately skip *)))

(* --- Greedy baseline --- *)

let test_baseline_easy () =
  (* On independent junk the greedy heuristic matches the planted
     structure. *)
  let w = Cso_workload.Planted.cso (rng ()) ~n:50 ~m:8 ~k:2 ~z:2 in
  let t = w.Cso_workload.Planted.instance in
  let sol = Baseline.solve t in
  Alcotest.(check bool) "valid" true (Instance.is_valid t sol);
  Alcotest.(check bool) "at most k centers" true
    (List.length sol.Instance.centers <= 2);
  Alcotest.(check bool) "at most z outliers" true
    (List.length sol.Instance.outliers <= 2);
  Alcotest.(check bool) "decontaminated" true
    (Instance.cost t sol < w.Cso_workload.Planted.contaminated_lower)

let test_baseline_coordinated_fails_lp_wins () =
  (* The coordinated workload defeats greedy but not the LP algorithm:
     this is the separation the baseline_comparison bench reports. *)
  let w = Cso_workload.Planted.cso_coordinated (rng ()) ~n:40 ~k:2 ~z:2 in
  let t = w.Cso_workload.Planted.instance in
  let greedy = Baseline.solve t in
  let lp = (Cso_general.solve t).Cso_general.solution in
  Alcotest.(check bool) "greedy strands junk" true
    (Instance.cost t greedy > w.Cso_workload.Planted.contaminated_lower);
  Alcotest.(check bool) "LP decontaminates" true
    (Instance.cost t lp < w.Cso_workload.Planted.contaminated_lower);
  (* And the LP does it by picking exactly the coordinating sets. *)
  Alcotest.(check (list int)) "coordinating sets chosen"
    w.Cso_workload.Planted.bad_sets
    (List.sort compare lp.Instance.outliers)

(* --- Hardness reduction --- *)

let test_hardness_reduction_structure () =
  let sc =
    Set_cover.make ~n_elements:4 [ [ 0; 1 ]; [ 2; 3 ]; [ 1; 2 ] ]
  in
  let inst = Hardness.reduce sc ~k:2 ~z:2 in
  Alcotest.(check int) "points" (4 + 2) (Instance.n_elements inst);
  Alcotest.(check int) "sets" (3 + 2) (Instance.n_sets inst)

let test_hardness_round_trip () =
  let sc =
    Set_cover.make ~n_elements:6
      [ [ 0; 1; 2 ]; [ 3; 4; 5 ]; [ 0; 3 ]; [ 1; 4 ]; [ 2; 5 ] ]
  in
  let solver inst = (Cso_general.solve inst).Cso_general.solution in
  match Hardness.solve_set_cover ~solver sc ~k:2 with
  | None -> Alcotest.fail "reduction loop should find a cover"
  | Some (z', cover) ->
      Alcotest.(check bool) "cover" true (Set_cover.is_cover sc cover);
      (* Optimum cover has size 2; the loop stops at z' <= 2 and the
         (2, 2f, 2) solver (f = 2 here) returns at most 2 f z' sets. *)
      Alcotest.(check bool) "z' at most opt" true (z' <= 2);
      Alcotest.(check bool) "cover size bounded" true
        (List.length cover <= (2 * 2 * z') + 2)

(* Identity pins for the radius searches no other digest covers, over
   [Cso_general.solve], [Cso_disjoint.solve], [Gcso_disjoint.solve],
   [Charikar_outliers.run], [Bbd_outliers.run] and [Rcro.solve] on three
   seeds each. The output digest hashes everything a solve can show:
   solution indices, radius bits, LP-solve and coreset counts. The count
   digest hashes every counter delta. Kept apart, a change that only
   saves work re-records the count digest and leaves the outputs pinned.
   They split one digest, recorded on the hand-written binary search
   each solver carried before they shared [Cso_metric.Guess], so a
   search that probes one guess differently fails here. Since the
   split, the count digest was re-recorded when the coreset rows began
   running phase 1's Gonzalez once per solve, and when the simplex
   moved to Dantzig pricing and [Cso_general] began stopping a rejected
   guess at its cutoff (only [lp.simplex.pivots] moved). The output
   digest was
   re-recorded when [Gcso_disjoint] began reading each rectangle's
   members from the instance's membership in ascending id order, which
   moves Gonzalez's first center (DESIGN.md section 2), and when
   [Cso_disjoint]'s center lattice gained the per-set covering radii.
   Both were re-recorded when [Gcso_disjoint] and [Bbd_outliers] (and
   through it [Rcro]) began searching [Guess.radius_grid] instead of a
   WSPD lattice: their radii, and the solutions at them, moved. *)
let solver_output_digest = "9c6758ad07eeab4a4903b7d79c060dd5"
let solver_count_digest = "ce72cb93f82b5a487592b10cac48fcf0"

let fingerprint_solvers out counts =
  let module Planted = Cso_workload.Planted in
  let module Rgen = Cso_workload.Relational_gen in
  let module Charikar = Cso_kcenter.Charikar_outliers in
  let module Bbd_outliers = Cso_kcenter.Bbd_outliers in
  let ints l = String.concat "," (List.map string_of_int l) in
  let bits x = Printf.sprintf "%Lx" (Int64.bits_of_float x) in
  let run name seed f =
    let line, deltas = Cso_obs.Obs.with_delta f in
    Printf.bprintf out "%s seed=%d %s\n" name seed line;
    Printf.bprintf counts "%s seed=%d\n" name seed;
    List.iter (fun (c, v) -> Printf.bprintf counts "%s=%d\n" c v) deltas
  in
  let sol (s : Instance.solution) radius =
    Printf.sprintf "centers=%s;outliers=%s;radius=%s" (ints s.Instance.centers)
      (ints s.Instance.outliers) (bits radius)
  in
  List.iter
    (fun seed ->
      let st salt = Random.State.make [| seed; salt |] in
      let w = Planted.cso (st 0x5c01) ~n:60 ~m:8 ~k:3 ~z:2 in
      run "cso_general" seed (fun () ->
          let r = Cso_general.solve w.Planted.instance in
          Printf.sprintf "%s;lp_solves=%d"
            (sol r.Cso_general.solution r.Cso_general.radius)
            r.Cso_general.lp_solves);
      let w = Planted.cso (st 0x5c02) ~n:120 ~m:10 ~k:3 ~z:2 in
      run "cso_disjoint" seed (fun () ->
          let r = Cso_disjoint.solve w.Planted.instance in
          Printf.sprintf "%s;coreset=%d/%d"
            (sol r.Cso_disjoint.solution r.Cso_disjoint.radius)
            r.Cso_disjoint.coreset_elements r.Cso_disjoint.coreset_sets);
      let w = Planted.gcso_disjoint (st 0x5c03) ~n:60 ~m:8 ~k:2 ~z:2 in
      run "gcso_disjoint" seed (fun () ->
          let r = Gcso_disjoint.solve ~eps:0.3 ~rounds:60 w.Planted.geo in
          Printf.sprintf "%s;coreset=%d;forced=%d"
            (sol r.Gcso_disjoint.solution r.Gcso_disjoint.radius)
            r.Gcso_disjoint.coreset_points r.Gcso_disjoint.forced_outliers);
      let w = Planted.cso (st 0x5c04) ~n:60 ~m:8 ~k:3 ~z:2 in
      run "charikar" seed (fun () ->
          let r = Charikar.run (Space.of_points w.Planted.points) ~k:3 ~z:4 in
          Printf.sprintf "centers=%s;outliers=%s;radius=%s"
            (ints r.Charikar.centers) (ints r.Charikar.outliers)
            (bits r.Charikar.radius));
      let w = Planted.cso (st 0x5c05) ~n:150 ~m:10 ~k:3 ~z:2 in
      run "bbd_outliers" seed (fun () ->
          let r =
            Bbd_outliers.run ~rng:(st 0x5c06) w.Planted.points ~k:3 ~z:6
          in
          Printf.sprintf "centers=%s;radius=%s;sample=%d/%d"
            (ints r.Bbd_outliers.centers) (bits r.Bbd_outliers.radius)
            r.Bbd_outliers.sample_size r.Bbd_outliers.sample_outliers);
      let w = Rgen.rcro (st 0x5c07) ~n1:60 ~n2:20 ~k:2 ~z:3 in
      run "rcro" seed (fun () ->
          let r =
            Rcro.solve ~rng:(st 0x5c08) ~eps:0.25 w.Rgen.instance w.Rgen.tree
              ~k:2 ~z:3
          in
          Printf.sprintf "centers=%s;threshold=%s;join=%d;sample=%d/%d"
            (String.concat "|"
               (List.map
                  (fun c -> String.concat "," (List.map bits (Array.to_list c)))
                  r.Rcro.centers))
            (bits r.Rcro.threshold) r.Rcro.join_size r.Rcro.sample_size
            r.Rcro.sample_outliers))
    [ 1; 2; 3 ]

(* Both digests come from one run of the eighteen solves. *)
let solver_digests =
  lazy
    (let was = Cso_obs.Obs.enabled () in
     Cso_obs.Obs.set_enabled true;
     Fun.protect ~finally:(fun () -> Cso_obs.Obs.set_enabled was) @@ fun () ->
     let out = Buffer.create 4096 and counts = Buffer.create 16384 in
     fingerprint_solvers out counts;
     let hex b = Digest.to_hex (Digest.string (Buffer.contents b)) in
     (hex out, hex counts))

let test_solver_output_digest () =
  Alcotest.(check string) "solver output digest" solver_output_digest
    (fst (Lazy.force solver_digests))

let test_solver_count_digest () =
  Alcotest.(check string) "solver count digest" solver_count_digest
    (snd (Lazy.force solver_digests))

let suite =
  [
    Alcotest.test_case "instance accessors" `Quick test_instance_accessors;
    Alcotest.test_case "instance validation" `Quick test_instance_validation;
    Alcotest.test_case "solution validity and cost" `Quick
      test_solution_validity_and_cost;
    Alcotest.test_case "exact on line" `Quick test_exact_on_line;
    Alcotest.test_case "exact work cap" `Quick test_exact_work_cap;
    Alcotest.test_case "cso general: line" `Quick test_cso_general_line;
    Alcotest.test_case "cso general: planted" `Slow test_cso_general_planted;
    Alcotest.test_case "cso general: planted f=2" `Slow
      test_cso_general_planted_f2;
    Alcotest.test_case "cso general vs exact" `Slow test_cso_general_vs_exact;
    Alcotest.test_case "cso disjoint: planted" `Slow test_cso_disjoint_planted;
    Alcotest.test_case "cso disjoint rejects f=2" `Quick
      test_cso_disjoint_rejects_f2;
    Alcotest.test_case "cso disjoint coreset small" `Slow
      test_cso_disjoint_coreset_small;
    Alcotest.test_case "cso disjoint: no lattice guess solves" `Quick
      test_cso_disjoint_lattice_miss;
    Alcotest.test_case "solve_at infeasible radius" `Quick
      test_solve_at_infeasible_radius;
    QCheck_alcotest.to_alcotest prop_cso_general_tri_criteria;
    QCheck_alcotest.to_alcotest prop_lp_feasible_at_opt;
    QCheck_alcotest.to_alcotest prop_coreset_solves_at_opt;
    Alcotest.test_case "baseline on easy instance" `Quick test_baseline_easy;
    Alcotest.test_case "baseline fails / LP wins on coordinated junk" `Slow
      test_baseline_coordinated_fails_lp_wins;
    Alcotest.test_case "hardness reduction structure" `Quick
      test_hardness_reduction_structure;
    Alcotest.test_case "hardness round trip" `Slow test_hardness_round_trip;
    Alcotest.test_case "solver identity digest" `Slow
      test_solver_output_digest;
    Alcotest.test_case "solver count digest" `Slow test_solver_count_digest;
  ]
