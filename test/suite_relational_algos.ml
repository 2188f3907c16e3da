open Cso_core
module Rel = Cso_relational
module Rgen = Cso_workload.Relational_gen
module Point = Cso_metric.Point
module Obs = Cso_obs.Obs

let rng () = Random.State.make [| 77 |]

(* Euclidean covering cost of centers over a materialized result set. *)
let cover_cost centers results =
  Array.fold_left
    (fun acc q ->
      max acc
        (List.fold_left (fun m c -> min m (Point.l2 c q)) infinity centers))
    0.0 results

let materialize inst tree = Rel.Yannakakis.enumerate inst tree

let test_rcto1_planted () =
  let w = Rgen.rcto1 (rng ()) ~n1:30 ~n2:12 ~k:2 ~z:2 in
  let r =
    Rcto1.solve ~eps:0.3 ~rounds:100 w.Rgen.instance w.Rgen.tree ~k:2 ~z:2
  in
  Alcotest.(check bool) "at most (2+eps)k centers" true
    (List.length r.Rcto1.centers <= 6);
  Alcotest.(check bool) "at most 2z outlier tuples" true
    (List.length r.Rcto1.outlier_tuples <= 4);
  (* Outliers come from the dirty relation. *)
  List.iter
    (fun tup ->
      Alcotest.(check bool) "outlier is an R1 tuple" true
        (Rel.Instance.mem_tuple w.Rgen.instance ~rel:0 tup))
    r.Rcto1.outlier_tuples;
  (* Centers are join results that survive the removal. *)
  let reduced =
    Rel.Instance.remove w.Rgen.instance
      (List.map (fun t -> (0, t)) r.Rcto1.outlier_tuples)
  in
  List.iter
    (fun c ->
      Alcotest.(check bool) "center survives" true
        (Rel.Yannakakis.contains_result reduced c))
    r.Rcto1.centers;
  (* Decontamination: the surviving results are covered tightly. *)
  let results = materialize reduced w.Rgen.tree in
  let cost = cover_cost r.Rcto1.centers results in
  Alcotest.(check bool) "cost well below contamination scale" true
    (cost < 100.0);
  Alcotest.(check bool) "reported bound covers" true
    (cost <= r.Rcto1.cost_upper +. 1e-6)

let test_rcto1_no_outliers_needed () =
  let w = Rgen.rcto1 (rng ()) ~n1:15 ~n2:8 ~k:2 ~z:0 in
  let r =
    Rcto1.solve ~eps:0.3 ~rounds:80 w.Rgen.instance w.Rgen.tree ~k:2 ~z:0
  in
  Alcotest.(check (list (array (float 1e-9)))) "no outliers" []
    r.Rcto1.outlier_tuples;
  let results = materialize w.Rgen.instance w.Rgen.tree in
  Alcotest.(check bool) "covers everything tightly" true
    (cover_cost r.Rcto1.centers results <= 8.0 *. w.Rgen.opt_upper +. 1e-6)

let test_rcto_planted () =
  let w = Rgen.rcto (rng ()) ~n1:14 ~n2:8 ~k:2 ~z:2 in
  match
    Rcto.solve ~rng:(Random.State.make [| 9 |]) ~iters:300 w.Rgen.instance
      w.Rgen.tree ~k:2 ~z:2
  with
  | None -> Alcotest.fail "rcto should succeed on a planted instance"
  | Some r ->
      Alcotest.(check bool) "at most k centers" true
        (List.length r.Rcto.centers <= 2);
      Alcotest.(check bool) "at most g z outlier tuples" true
        (List.length r.Rcto.outlier_tuples <= 2 * 2);
      let reduced = Rel.Instance.remove w.Rgen.instance r.Rcto.outlier_tuples in
      let results = materialize reduced w.Rgen.tree in
      let cost = cover_cost r.Rcto.centers results in
      Alcotest.(check bool) "decontaminated" true (cost < 100.0);
      List.iter
        (fun c ->
          Alcotest.(check bool) "center survives" true
            (Rel.Yannakakis.contains_result reduced c))
        r.Rcto.centers

let test_rcro_planted () =
  let w = Rgen.rcro (rng ()) ~n1:60 ~n2:20 ~k:2 ~z:3 in
  let r =
    Rcro.solve ~rng:(Random.State.make [| 4 |]) ~eps:0.25 w.Rgen.instance
      w.Rgen.tree ~k:2 ~z:3
  in
  Alcotest.(check bool) "at most k centers" true
    (List.length r.Rcro.centers <= 2);
  let results = materialize w.Rgen.instance w.Rgen.tree in
  Alcotest.(check int) "join size" (Array.length results) r.Rcro.join_size;
  let outliers = Rcro.outliers_of r results in
  (* All planted far results must be outliers; the total outliers stay
     within the (1+eps)^2 z budget with slack. *)
  let far = List.filter (fun i -> results.(i).(0) > 5000.0)
      (List.init (Array.length results) Fun.id) in
  Alcotest.(check bool) "planted far results flagged" true
    (List.for_all (fun i -> List.mem i outliers) far);
  Alcotest.(check bool) "outlier budget" true
    (List.length outliers <= 2 * 3);
  List.iter
    (fun c ->
      Alcotest.(check bool) "centers are results" true
        (Rel.Yannakakis.contains_result w.Rgen.instance c))
    r.Rcro.centers

let test_star_join_g3 () =
  (* Three-relation star (g = 3): RCTO's outlier budget becomes g z and
     RCRO / RCTO1 run unchanged on d = 4 results. *)
  let w = Rgen.star (rng ()) ~n_leaf:10 ~k:2 ~z:1 in
  let full = materialize w.Rgen.instance w.Rgen.tree in
  Alcotest.(check int) "one result per hub key" 10 (Array.length full);
  (* RCTO1 cleans the dirty relation. *)
  let r1 =
    Rcto1.solve ~eps:0.3 ~rounds:80 w.Rgen.instance w.Rgen.tree ~k:2 ~z:1
  in
  Alcotest.(check bool) "rcto1 finds the bad tuple" true
    (List.exists
       (fun tup -> List.mem (0, tup) w.Rgen.bad_tuples)
       r1.Rcto1.outlier_tuples);
  (* RCTO with g = 3. *)
  (match
     Rcto.solve ~rng:(Random.State.make [| 21 |]) ~iters:400 w.Rgen.instance
       w.Rgen.tree ~k:2 ~z:1
   with
  | None -> Alcotest.fail "rcto should succeed"
  | Some r ->
      Alcotest.(check bool) "at most g z = 3 outlier tuples" true
        (List.length r.Rcto.outlier_tuples <= 3);
      let reduced = Rel.Instance.remove w.Rgen.instance r.Rcto.outlier_tuples in
      let surviving = materialize reduced w.Rgen.tree in
      Alcotest.(check bool) "decontaminated" true
        (cover_cost r.Rcto.centers surviving < 100.0))

let test_rcro_sampling_path () =
  (* Large join with a large outlier budget: tau < |Q(I)|, so the
     Lemma 4.1 sampling branch actually runs (the other RCRO tests use
     the whole join). *)
  let w = Rgen.rcto1 (rng ()) ~n1:4000 ~n2:40 ~k:2 ~z:40 in
  let r =
    Rcro.solve ~rng:(Random.State.make [| 12 |]) ~eps:0.25 w.Rgen.instance
      w.Rgen.tree ~k:2 ~z:2000
  in
  Alcotest.(check int) "join size" 4000 r.Rcro.join_size;
  Alcotest.(check bool) "genuinely sampled" true
    (r.Rcro.sample_size < r.Rcro.join_size);
  Alcotest.(check bool) "at most k centers" true
    (List.length r.Rcro.centers <= 2);
  (* The outlier budget is huge; the centers must still sit in the two
     planted regimes (not on junk), since junk is a tiny fraction. *)
  List.iter
    (fun c ->
      Alcotest.(check bool) "center in a clean regime" true (c.(0) < 5000.0))
    r.Rcro.centers

let test_gcso_disjoint_at_scale () =
  (* n = 2000 through the full coreset + MWU pipeline: a smoke test that
     the near-linear path stays correct and fast at scale. *)
  let w =
    Cso_workload.Planted.gcso_disjoint (rng ()) ~n:2000 ~m:16 ~k:3 ~z:3
  in
  let g = w.Cso_workload.Planted.geo in
  let r = Cso_core.Gcso_disjoint.solve ~eps:0.3 ~rounds:60 g in
  let sol = r.Cso_core.Gcso_disjoint.solution in
  Alcotest.(check bool) "valid" true (Cso_core.Geo_instance.is_valid g sol);
  Alcotest.(check bool) "decontaminated" true
    (Cso_core.Geo_instance.cost g sol
    < w.Cso_workload.Planted.g_contaminated_lower);
  Alcotest.(check bool) "coreset far below n" true
    (r.Cso_core.Gcso_disjoint.coreset_points < 200)

let test_rcro_empty_join () =
  let schema =
    Rel.Schema.make ~attr_names:[ "A"; "B" ] [ ("R1", [ 0 ]); ("R2", [ 1 ]) ]
  in
  let inst = Rel.Instance.make schema [ []; [ [| 1.0 |] ] ] in
  let tree = Rel.Join_tree.build_exn schema in
  let r = Rcro.solve inst tree ~k:1 ~z:1 in
  Alcotest.(check int) "empty join" 0 r.Rcro.join_size;
  Alcotest.(check (list (array (float 0.0)))) "no centers" []
    (List.map (fun p -> p) r.Rcro.centers)

(* Identity pin for the relational solvers: a digest over everything an
   [Rcto.solve] (n1=14, n2=8, k=2, z=2, 100 iterations) and an
   [Rcto1.solve] (n1=60, n2=20, k=2, z=2, eps=0.3, 120 rounds) can show,
   three seeds each — center and outlier-tuple bits, radius and
   [cost_upper] bits, iteration / success / coreset counts, and the
   delta of every [relational.oracle.*] counter. The expected digest
   comes from the oracles that filter a copy of the instance and run
   Yannakakis on it per call, so a faster oracle that moves one bit or
   one oracle count fails here. *)
let relational_identity_digest = "723d66c9a591b5f0a8cedf60fb6f02a2"

let fingerprint_relational buf =
  let floats buf a =
    Array.iter (fun x -> Printf.bprintf buf "%Lx," (Int64.bits_of_float x)) a;
    Buffer.add_char buf ';'
  in
  let oracle_deltas buf deltas =
    List.iter
      (fun (c, v) ->
        if String.starts_with ~prefix:"relational.oracle." c then
          Printf.bprintf buf "%s=%d\n" c v)
      deltas
  in
  List.iter
    (fun seed ->
      let w =
        Rgen.rcto (Random.State.make [| seed; 0x4c70 |]) ~n1:14 ~n2:8 ~k:2 ~z:2
      in
      let r, deltas =
        Obs.with_delta (fun () ->
            Rcto.solve ~rng:(Random.State.make [| seed |]) ~iters:100
              w.Rgen.instance w.Rgen.tree ~k:2 ~z:2)
      in
      Printf.bprintf buf "rcto seed=%d\n" seed;
      (match r with
      | None -> Buffer.add_string buf "none\n"
      | Some r ->
          List.iter (floats buf) r.Rcto.centers;
          Buffer.add_char buf '\n';
          List.iter
            (fun (rel, tup) ->
              Printf.bprintf buf "%d:" rel;
              floats buf tup)
            r.Rcto.outlier_tuples;
          Printf.bprintf buf "\nradius=%Lx;iterations=%d;successes=%d\n"
            (Int64.bits_of_float r.Rcto.radius)
            r.Rcto.iterations r.Rcto.successes);
      oracle_deltas buf deltas)
    [ 1; 2; 3 ];
  List.iter
    (fun seed ->
      let w =
        Rgen.rcto1 (Random.State.make [| seed; 0x4c71 |]) ~n1:60 ~n2:20 ~k:2
          ~z:2
      in
      let r, deltas =
        Obs.with_delta (fun () ->
            Rcto1.solve ~eps:0.3 ~rounds:120 w.Rgen.instance w.Rgen.tree ~k:2
              ~z:2)
      in
      Printf.bprintf buf "rcto1 seed=%d\n" seed;
      List.iter (floats buf) r.Rcto1.centers;
      Buffer.add_char buf '\n';
      List.iter (floats buf) r.Rcto1.outlier_tuples;
      Printf.bprintf buf "\nradius=%Lx;cost_upper=%Lx;coreset=%d\n"
        (Int64.bits_of_float r.Rcto1.radius)
        (Int64.bits_of_float r.Rcto1.cost_upper)
        r.Rcto1.coreset_size;
      oracle_deltas buf deltas)
    [ 1; 2; 3 ]

let test_relational_identity_digest () =
  let was = Obs.enabled () in
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled was) @@ fun () ->
  let buf = Buffer.create 16384 in
  fingerprint_relational buf;
  Alcotest.(check string) "relational solve digest" relational_identity_digest
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let suite =
  [
    Alcotest.test_case "rcto1 planted" `Slow test_rcto1_planted;
    Alcotest.test_case "rcto1 z=0" `Slow test_rcto1_no_outliers_needed;
    Alcotest.test_case "rcto planted" `Slow test_rcto_planted;
    Alcotest.test_case "rcro planted" `Slow test_rcro_planted;
    Alcotest.test_case "star join (g=3)" `Slow test_star_join_g3;
    Alcotest.test_case "rcro sampling path" `Slow test_rcro_sampling_path;
    Alcotest.test_case "gcso disjoint at scale" `Slow
      test_gcso_disjoint_at_scale;
    Alcotest.test_case "rcro empty join" `Quick test_rcro_empty_join;
    Alcotest.test_case "relational solve identity digest" `Slow
      test_relational_identity_digest;
  ]
