open Cso_kcenter
module Space = Cso_metric.Space
module Point = Cso_metric.Point
module Points = Cso_metric.Points

let rng = Random.State.make [| 7 |]

(* k tight clusters with separation; optimum radius <= spread * sqrt 2. *)
let clustered ~n ~k ~spread ~separation =
  let anchors =
    Array.init k (fun i -> [| float_of_int i *. separation; 0.0 |])
  in
  Array.init n (fun i ->
      let a = anchors.(i mod k) in
      [|
        a.(0) +. Random.State.float rng spread;
        a.(1) +. Random.State.float rng spread;
      |])

let test_gonzalez_two_approx () =
  let k = 3 in
  let pts = clustered ~n:90 ~k ~spread:1.0 ~separation:40.0 in
  let centers, radius = Gonzalez.run_points pts ~k in
  Alcotest.(check int) "k centers" k (List.length centers);
  (* opt <= sqrt 2, Gonzalez <= 2 opt. *)
  Alcotest.(check bool) "2-approx on planted" true (radius <= 2.0 *. sqrt 2.0);
  (* Radius really covers. *)
  let s = Space.of_points pts in
  let real = Space.cost s ~centers (List.init 90 Fun.id) in
  Alcotest.(check (float 1e-9)) "reported radius is the true cost" real radius

let test_gonzalez_subset () =
  let pts = [| [| 0.0 |]; [| 10.0 |]; [| 20.0 |]; [| 100.0 |] |] in
  let s = Space.of_points pts in
  let centers, radius = Gonzalez.run s ~subset:[| 0; 1; 2 |] ~k:2 in
  Alcotest.(check bool) "centers from subset" true
    (List.for_all (fun c -> c < 3) centers);
  Alcotest.(check bool) "radius covers subset" true (radius <= 10.0)

let test_gonzalez_small_subset () =
  let pts = [| [| 0.0 |]; [| 5.0 |] |] in
  let s = Space.of_points pts in
  let centers, radius = Gonzalez.run s ~subset:[| 0; 1 |] ~k:5 in
  Alcotest.(check int) "everything a center" 2 (List.length centers);
  Alcotest.(check (float 1e-9)) "radius zero" 0.0 radius;
  let c, r = Gonzalez.run s ~subset:[||] ~k:2 in
  Alcotest.(check bool) "empty subset" true (c = [] && r = 0.0)

(* Regression: a stray [first] index used to silently become a center
   outside the requested subset. *)
let test_gonzalez_first_validation () =
  let pts = [| [| 0.0 |]; [| 10.0 |]; [| 20.0 |]; [| 100.0 |] |] in
  let s = Space.of_points pts in
  Alcotest.check_raises "first outside subset"
    (Invalid_argument "Gonzalez.run: first not a member of subset") (fun () ->
      ignore (Gonzalez.run s ~subset:[| 0; 1; 2 |] ~first:3 ~k:2));
  let centers, _ = Gonzalez.run s ~subset:[| 0; 1; 2 |] ~first:2 ~k:2 in
  Alcotest.(check bool) "valid first is honored" true (List.mem 2 centers);
  Alcotest.(check bool) "centers stay in subset" true
    (List.for_all (fun c -> c < 3) centers)

(* Regression: when fewer than k distinct points exist, the farthest
   remaining distance hits 0 and the relaxation must stop, returning the
   already-chosen centers with radius 0 (not k duplicated centers). *)
let test_gonzalez_duplicate_early_exit () =
  let a = [| 0.0; 0.0 |] and b = [| 7.0; 1.0 |] in
  let pts = [| a; b; a; b; a; b; a |] in
  let centers, radius = Gonzalez.run_points pts ~k:5 in
  Alcotest.(check int) "one center per distinct point" 2 (List.length centers);
  Alcotest.(check (float 0.0)) "radius exactly zero" 0.0 radius;
  let fast_centers, fast_radius = Gonzalez.run_packed (Points.of_array pts) ~k:5 in
  Alcotest.(check int) "fast agrees on center count" 2
    (List.length fast_centers);
  Alcotest.(check (float 0.0)) "fast radius exactly zero" 0.0 fast_radius;
  (* All-identical subset: the initial center alone, radius 0. *)
  let s = Space.of_points pts in
  let c, r = Gonzalez.run s ~subset:[| 0; 2; 4; 6 |] ~k:3 in
  Alcotest.(check (list int)) "single center for identical subset" [ 0 ] c;
  Alcotest.(check (float 0.0)) "zero radius for identical subset" 0.0 r

let test_charikar_planted_outliers () =
  let k = 2 and z = 3 in
  let good = clustered ~n:40 ~k ~spread:1.0 ~separation:50.0 in
  let junk =
    Array.init z (fun i -> [| 1000.0 +. (500.0 *. float_of_int i); 0.0 |])
  in
  let pts = Array.append good junk in
  let s = Space.of_points pts in
  let res = Charikar_outliers.run s ~k ~z in
  Alcotest.(check bool) "at most k centers" true
    (List.length res.Charikar_outliers.centers <= k);
  Alcotest.(check bool) "at most z outliers" true
    (List.length res.Charikar_outliers.outliers <= z);
  (* opt <= sqrt 2; the algorithm is a 3-approximation. *)
  Alcotest.(check bool) "3-approx radius" true
    (res.Charikar_outliers.radius <= 3.0 *. sqrt 2.0 +. 1e-9);
  (* The junk must be among the outliers. *)
  List.iter
    (fun j ->
      Alcotest.(check bool) "junk is outlier" true
        (List.mem (40 + j) res.Charikar_outliers.outliers))
    [ 0; 1; 2 ]

let test_charikar_no_outliers_needed () =
  let pts = clustered ~n:30 ~k:2 ~spread:1.0 ~separation:50.0 in
  let s = Space.of_points pts in
  let res = Charikar_outliers.run s ~k:2 ~z:0 in
  Alcotest.(check (list int)) "no outliers" [] res.Charikar_outliers.outliers;
  Alcotest.(check bool) "covers" true
    (res.Charikar_outliers.radius <= 3.0 *. sqrt 2.0 +. 1e-9)

let test_bbd_outliers_planted () =
  let k = 2 and z = 4 in
  let good = clustered ~n:120 ~k ~spread:1.0 ~separation:60.0 in
  let junk =
    Array.init z (fun i -> [| 2000.0 +. (700.0 *. float_of_int i); 0.0 |])
  in
  let pts = Array.append good junk in
  let res = Bbd_outliers.run ~rng:(Random.State.make [| 3 |]) pts ~k ~z in
  Alcotest.(check bool) "at most k centers" true
    (List.length res.Bbd_outliers.centers <= k);
  let outliers = Bbd_outliers.outliers_at pts ~centers:res.Bbd_outliers.centers
      ~threshold:res.Bbd_outliers.radius in
  (* All junk flagged; few good points sacrificed. *)
  Alcotest.(check bool) "junk beyond threshold" true
    (List.for_all (fun j -> List.mem (120 + j) outliers) [ 0; 1; 2; 3 ]);
  Alcotest.(check bool) "not too many outliers" true
    (List.length outliers <= 2 * z)

let test_run_on_all_budget_zero () =
  let pts = clustered ~n:50 ~k:3 ~spread:1.0 ~separation:40.0 in
  let res = Bbd_outliers.run_on_all pts ~k:3 ~budget:0 in
  Alcotest.(check int) "no survivors" 0 res.Bbd_outliers.sample_outliers;
  (* Every point within threshold of a center. *)
  let uncovered =
    Bbd_outliers.outliers_at pts
      ~centers:res.Bbd_outliers.centers
      ~threshold:res.Bbd_outliers.radius
  in
  Alcotest.(check (list int)) "all covered" [] uncovered

let prop_gonzalez_fast_identical =
  QCheck.Test.make
    ~name:"accelerated gonzalez matches the plain version exactly" ~count:60
    QCheck.(pair (int_range 1 80) (int_range 1 8))
    (fun (n, k) ->
      let pts =
        Array.init n (fun _ ->
            [| Random.State.float rng 100.0; Random.State.float rng 100.0 |])
      in
      Gonzalez.run_points pts ~k = Gonzalez.run_packed (Points.of_array pts) ~k)

let prop_gonzalez_radius_is_cost =
  QCheck.Test.make ~name:"gonzalez reported radius always equals true cost"
    ~count:40
    QCheck.(pair (int_range 2 40) (int_range 1 5))
    (fun (n, k) ->
      let pts =
        Array.init n (fun _ ->
            [| Random.State.float rng 100.0; Random.State.float rng 100.0 |])
      in
      let centers, radius = Gonzalez.run_points pts ~k in
      let s = Space.of_points pts in
      let real = Space.cost s ~centers (List.init n Fun.id) in
      abs_float (real -. radius) < 1e-9)

(* Cross-validation: k-center with z point outliers is exactly CSO with
   singleton sets, so Charikar's greedy can be checked against the exact
   CSO solver — two fully independent implementations. *)
let prop_charikar_three_approx_vs_exact =
  QCheck.Test.make
    ~name:"charikar radius <= 3x exact point-outlier optimum" ~count:25
    QCheck.(pair (int_range 4 12) (int_range 0 2))
    (fun (n, z) ->
      let pts =
        Array.init n (fun _ ->
            [| Random.State.float rng 100.0; Random.State.float rng 100.0 |])
      in
      let s = Space.of_points pts in
      let singleton_sets = List.init n (fun i -> [ i ]) in
      let inst =
        Cso_core.Instance.make s ~sets:singleton_sets ~k:2 ~z
      in
      match Cso_core.Exact.opt_cost inst with
      | None -> true
      | Some opt ->
          let res = Charikar_outliers.run s ~k:2 ~z in
          List.length res.Charikar_outliers.outliers <= z
          && res.Charikar_outliers.radius <= (3.0 *. opt) +. 1e-9)

let prop_run_on_all_budget_respected =
  QCheck.Test.make
    ~name:"bbd greedy leaves at most the budget uncovered" ~count:30
    QCheck.(pair (int_range 2 80) (int_range 0 5))
    (fun (n, budget) ->
      let pts =
        Array.init n (fun _ ->
            [| Random.State.float rng 100.0; Random.State.float rng 100.0 |])
      in
      let res = Bbd_outliers.run_on_all pts ~k:2 ~budget in
      let uncovered =
        Bbd_outliers.outliers_at pts ~centers:res.Bbd_outliers.centers
          ~threshold:res.Bbd_outliers.radius
      in
      res.Bbd_outliers.sample_outliers <= budget
      (* The reported threshold includes the (1+eps) slack, so the true
         uncovered set can only be smaller than the sample count. *)
      && List.length uncovered <= budget)

(* --- Streaming doubling algorithm --- *)

let test_streaming_basic () =
  let t = Streaming.create ~k:2 in
  List.iter (Streaming.insert t) [ [| 0.0 |]; [| 1.0 |]; [| 100.0 |] ];
  Alcotest.(check bool) "at most k centers" true
    (List.length (Streaming.centers t) <= 2);
  Alcotest.(check int) "count" 3 (Streaming.count t)

let prop_streaming_certified_coverage =
  QCheck.Test.make
    ~name:"streaming radius_bound really covers every inserted point"
    ~count:40
    QCheck.(pair (int_range 1 120) (int_range 1 6))
    (fun (n, k) ->
      let pts =
        Array.init n (fun _ ->
            [| Random.State.float rng 100.0; Random.State.float rng 100.0 |])
      in
      let t = Streaming.create ~k in
      Array.iter (Streaming.insert t) pts;
      let centers = Streaming.centers t in
      let bound = Streaming.radius_bound t in
      List.length centers <= k
      && Array.for_all
           (fun p ->
             List.exists (fun c -> Point.l2 c p <= bound +. 1e-9) centers)
           pts)

let prop_streaming_vs_gonzalez =
  QCheck.Test.make
    ~name:"streaming true cover radius within 8x of gonzalez" ~count:30
    QCheck.(pair (int_range 5 100) (int_range 1 5))
    (fun (n, k) ->
      let pts =
        Array.init n (fun _ ->
            [| Random.State.float rng 100.0; Random.State.float rng 100.0 |])
      in
      let t = Streaming.create ~k in
      Array.iter (Streaming.insert t) pts;
      let centers = Streaming.centers t in
      let true_cover =
        Array.fold_left
          (fun acc p ->
            max acc
              (List.fold_left (fun m c -> min m (Point.l2 c p)) infinity centers))
          0.0 pts
      in
      let _, gonz = Gonzalez.run_points pts ~k in
      true_cover <= (8.0 *. gonz) +. 1e-9)

let test_streaming_duplicates () =
  let t = Streaming.create ~k:2 in
  for _ = 1 to 10 do
    Streaming.insert t [| 5.0; 5.0 |]
  done;
  Alcotest.(check int) "one center for duplicates" 1
    (List.length (Streaming.centers t));
  Alcotest.(check (float 1e-9)) "zero radius" 0.0 (Streaming.radius_bound t)

(* Regression for the hoisted-bookkeeping insert: a long stream of one
   repeated point must keep exactly one center and never trigger a
   doubling (tau stays 0). *)
let test_streaming_identical_stream () =
  let t = Streaming.create ~k:1 in
  for _ = 1 to 500 do
    Streaming.insert t [| -3.0; 4.5 |]
  done;
  Alcotest.(check int) "exactly one center" 1
    (List.length (Streaming.centers t));
  Alcotest.(check (float 0.0)) "tau stays 0" 0.0 (Streaming.threshold t);
  Alcotest.(check (float 0.0)) "radius bound 0" 0.0 (Streaming.radius_bound t);
  Alcotest.(check int) "all points counted" 500 (Streaming.count t)

let suite =
  [
    Alcotest.test_case "gonzalez 2-approx" `Quick test_gonzalez_two_approx;
    QCheck_alcotest.to_alcotest prop_charikar_three_approx_vs_exact;
    QCheck_alcotest.to_alcotest prop_run_on_all_budget_respected;
    Alcotest.test_case "streaming basic" `Quick test_streaming_basic;
    QCheck_alcotest.to_alcotest prop_streaming_certified_coverage;
    QCheck_alcotest.to_alcotest prop_streaming_vs_gonzalez;
    Alcotest.test_case "streaming duplicates" `Quick test_streaming_duplicates;
    Alcotest.test_case "streaming identical stream" `Quick
      test_streaming_identical_stream;
    Alcotest.test_case "gonzalez subset" `Quick test_gonzalez_subset;
    Alcotest.test_case "gonzalez first validation" `Quick
      test_gonzalez_first_validation;
    Alcotest.test_case "gonzalez duplicate early-exit" `Quick
      test_gonzalez_duplicate_early_exit;
    Alcotest.test_case "gonzalez degenerate" `Quick test_gonzalez_small_subset;
    Alcotest.test_case "charikar planted outliers" `Quick
      test_charikar_planted_outliers;
    Alcotest.test_case "charikar z=0" `Quick test_charikar_no_outliers_needed;
    Alcotest.test_case "bbd outliers planted" `Quick test_bbd_outliers_planted;
    Alcotest.test_case "run_on_all budget 0" `Quick test_run_on_all_budget_zero;
    QCheck_alcotest.to_alcotest prop_gonzalez_fast_identical;
    QCheck_alcotest.to_alcotest prop_gonzalez_radius_is_cost;
  ]
