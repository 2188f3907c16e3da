open Cso_metric
module Obs = Cso_obs.Obs

let feq ?(eps = 1e-9) a b = abs_float (a -. b) <= eps

let test_point_distances () =
  let p = Point.make [ 0.0; 0.0 ] and q = Point.make [ 3.0; 4.0 ] in
  Alcotest.(check bool) "l2" true (feq (Point.l2 p q) 5.0);
  Alcotest.(check bool) "l2_sq" true (feq (Point.l2_sq p q) 25.0);
  Alcotest.(check bool) "linf" true (feq (Point.linf p q) 4.0)

let test_point_mismatch () =
  Alcotest.check_raises "dim mismatch"
    (Invalid_argument "Point.l2_sq: dimension mismatch (2 vs 3)") (fun () ->
      ignore (Point.l2 [| 0.0; 0.0 |] [| 1.0; 2.0; 3.0 |]))

let test_point_ops () =
  let p = Point.make [ 1.0; 2.0 ] in
  Alcotest.(check int) "dim" 2 (Point.dim p);
  Alcotest.(check bool) "equal" true (Point.equal p [| 1.0; 2.0 |]);
  Alcotest.(check bool) "unequal coordinate" false
    (Point.equal p [| 1.0; 3.0 |]);
  Alcotest.(check bool) "unequal dimension" false (Point.equal p [| 1.0 |]);
  Alcotest.(check string) "to_string" "(1, 2)" (Point.to_string p)

let test_space_cost () =
  let pts = [| [| 0.0 |]; [| 1.0 |]; [| 5.0 |]; [| 6.0 |] |] in
  let s = Space.of_points pts in
  Alcotest.(check bool) "two centers" true
    (feq (Space.cost s ~centers:[ 0; 2 ] [ 0; 1; 2; 3 ]) 1.0);
  Alcotest.(check bool) "one center" true
    (feq (Space.cost s ~centers:[ 0 ] [ 0; 1; 2; 3 ]) 6.0);
  Alcotest.(check bool) "empty points" true
    (feq (Space.cost s ~centers:[ 0 ] []) 0.0);
  Alcotest.(check bool) "no centers" true
    (Space.cost s ~centers:[] [ 1 ] = infinity)

let test_space_ball () =
  let pts = [| [| 0.0 |]; [| 1.0 |]; [| 5.0 |] |] in
  let s = Space.of_points pts in
  Alcotest.(check (list int)) "ball" [ 0; 1 ] (Space.ball s ~center:0 ~radius:2.0)

let test_pairwise_sorted () =
  let s = Space.of_points [| [| 0.0 |]; [| 3.0 |]; [| 3.0 |]; [| 7.0 |] |] in
  let d = Space.pairwise_distances s in
  Alcotest.(check bool) "starts at 0" true (d.(0) = 0.0);
  Alcotest.(check bool) "sorted" true
    (Array.for_all Fun.id (Array.mapi (fun i x -> i = 0 || d.(i - 1) < x) d));
  (* 0, 3, 4, 7 are the distinct distances. *)
  Alcotest.(check int) "dedup" 4 (Array.length d)

let test_matrix_space () =
  let m = [| [| 0.0; 2.0 |]; [| 2.0; 0.0 |] |] in
  let s = Space.of_matrix m in
  Alcotest.(check bool) "dist" true (feq (s.Space.dist 0 1) 2.0);
  Alcotest.check_raises "non-square"
    (Invalid_argument "Space.of_matrix: matrix is not square") (fun () ->
      ignore (Space.of_matrix [| [| 0.0; 1.0 |] |]))

let test_cached () =
  let calls = ref 0 in
  let s =
    Space.create ~size:3 ~dist:(fun i j ->
        incr calls;
        abs_float (float_of_int (i - j)))
  in
  let c = Space.cached s in
  let before = !calls in
  ignore (c.Space.dist 1 2);
  ignore (c.Space.dist 1 2);
  Alcotest.(check int) "no extra calls" before !calls;
  Alcotest.(check bool) "same value" true (feq (c.Space.dist 0 2) 2.0)

let test_points_store () =
  let pts = [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |]; [| 5.0; 6.0 |] |] in
  let c = Points.of_array pts in
  Alcotest.(check int) "length" 3 (Points.length c);
  Alcotest.(check int) "dim" 2 (Points.dim c);
  Alcotest.(check bool) "coord" true (Points.coord c 1 0 = 3.0);
  let dst = Array.make 2 0.0 in
  Points.blit_point c 1 dst;
  Alcotest.(check bool) "blit_point" true (Point.equal dst pts.(1));
  Alcotest.(check int) "empty store" 0 (Points.length (Points.of_array [||]));
  Alcotest.check_raises "ragged input rejected"
    (Invalid_argument
       "Points.of_array: point 1 has dimension 3, expected 2") (fun () ->
      ignore (Points.of_array [| [| 0.0; 0.0 |]; [| 1.0; 2.0; 3.0 |] |]));
  Alcotest.check_raises "kernel bounds checked"
    (Invalid_argument "Points.l2_sq_idx: index out of bounds (0, 3; n = 3)")
    (fun () -> ignore (Points.l2_sq_idx c 0 3))

(* [Point.compare] replaced the polymorphic comparator with a
   monomorphic loop; the order must be pinned to the old one, including
   the float corner cases (nan smallest and self-equal, -0. = 0.,
   shorter arrays first). *)
let test_point_compare_regression () =
  let sign x = Stdlib.compare x 0 in
  let cases =
    [
      ([| 1.0; 2.0 |], [| 1.0; 3.0 |]);
      ([| 1.0; 3.0 |], [| 1.0; 2.0 |]);
      ([| 1.0; 2.0 |], [| 1.0; 2.0 |]);
      ([| 1.0 |], [| 1.0; 2.0 |]);
      ([| nan |], [| -1e308 |]);
      ([| nan |], [| nan |]);
      ([| -0.0 |], [| 0.0 |]);
      ([| neg_infinity |], [| infinity |]);
      ([||], [| 0.0 |]);
    ]
  in
  List.iter
    (fun (p, q) ->
      Alcotest.(check int)
        (Printf.sprintf "compare %s %s" (Point.to_string p) (Point.to_string q))
        (sign (Stdlib.compare p q))
        (sign (Point.compare p q)))
    cases

(* [Array.sort Float.compare] replaced [Array.sort compare] on the
   distance lists; the resulting order (and hence dedup and binary
   search behaviour) must be identical, including non-finite values. *)
let test_float_sort_order_regression () =
  let mk () =
    [| 3.5; -0.0; nan; 0.0; infinity; 1.0; neg_infinity; 3.5; -2.0; nan |]
  in
  let a = mk () and b = mk () in
  Array.sort Float.compare a;
  Array.sort compare b;
  Alcotest.(check bool) "Float.compare sort = polymorphic sort" true
    (Array.for_all2
       (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y
                   || (Float.is_nan x && Float.is_nan y))
       a b)

(* ------------------------------------------------------------------ *)
(* Radius search                                                      *)
(* ------------------------------------------------------------------ *)

(* The hand-written loop every solver ran before [Guess], transcribed:
   an accepted probe moves the bracket down when [down], up otherwise.
   Returns the probed indices in order and the last accepted one. *)
let reference_search ~down n accept =
  let lo = ref 0 and hi = ref (n - 1) in
  let seen = ref [] and best = ref None in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    seen := mid :: !seen;
    if accept mid then best := Some mid;
    if accept mid = down then hi := mid - 1 else lo := mid + 1
  done;
  (List.rev !seen, !best)

let prop_guess_matches_loop =
  QCheck.Test.make
    ~name:"Guess finds the boundary, probing the loop's midpoints" ~count:60
    QCheck.(int_range 0 300)
    (fun n ->
      let agrees ~down search accept expected =
        let seen = ref [] in
        let found =
          search n (fun i ->
              seen := i :: !seen;
              if accept i then Some (-i) else None)
        in
        found = Option.map (fun i -> (i, -i)) expected
        && (List.rev !seen, expected) = reference_search ~down n accept
      in
      List.for_all
        (fun t ->
          agrees ~down:true Guess.lowest
            (fun i -> i >= t)
            (if t < n then Some t else None)
          && agrees ~down:false Guess.highest
               (fun i -> i < t)
               (if t > 0 then Some (t - 1) else None))
        (List.init (n + 1) Fun.id))

(* --- Guess.radius_grid --- *)

(* What every grid must satisfy: a leading 0., strictly increasing
   finite values, and for each finite positive distance [d] of the
   points a value in [[d, ratio *. d]]. Returns the grid. *)
let check_grid ~ratio pts =
  let grid = Guess.radius_grid ~ratio (Points.of_array pts) in
  let len = Array.length grid in
  Alcotest.(check bool) "starts with 0." true (len > 0 && grid.(0) = 0.0);
  Array.iteri
    (fun i g ->
      Alcotest.(check bool) "finite" true (Float.is_finite g);
      if i > 0 then
        Alcotest.(check bool) "strictly increasing" true (grid.(i - 1) < g))
    grid;
  let coords = Points.of_array pts in
  for i = 0 to Array.length pts - 1 do
    for j = i + 1 to Array.length pts - 1 do
      let d = Points.l2_idx coords i j in
      if d > 0.0 && Float.is_finite d then
        Alcotest.(check bool)
          (Printf.sprintf "a value in [%h, ratio * %h]" d d)
          true
          (Array.exists (fun g -> d <= g && g <= ratio *. d) grid)
    done
  done;
  grid

let test_radius_grid_values () =
  (* Gap 1, so lo = 0.5; the diagonal is 3. *)
  let grid = check_grid ~ratio:2.0 [| [| 0.0 |]; [| 1.0 |]; [| 3.0 |] |] in
  Alcotest.(check (array (float 0.0))) "grid" [| 0.0; 0.5; 1.0; 2.0; 4.0 |]
    grid;
  let was = Obs.enabled () in
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled was) (fun () ->
      let grid, deltas =
        Obs.with_delta (fun () ->
            Guess.radius_grid ~ratio:1.06
              (Points.of_array [| [| 0.0; 2.0 |]; [| 3.0; 0.5 |] |]))
      in
      Alcotest.(check (list (pair string int))) "counts its length"
        [ ("metric.radius_grid.values", Array.length grid) ]
        deltas);
  List.iter
    (fun ratio ->
      Alcotest.check_raises "ratio must exceed 1"
        (Invalid_argument "Guess.radius_grid: ratio must exceed 1") (fun () ->
          ignore (Guess.radius_grid ~ratio (Points.of_array [||]))))
    [ 1.0; 0.5; nan ]

(* No two points at a positive distance: the grid is [|0.|], as the
   WSPD lattice is. *)
let test_radius_grid_degenerate () =
  List.iter
    (fun (name, pts) ->
      Alcotest.(check (array (float 0.0))) name [| 0.0 |]
        (check_grid ~ratio:1.06 pts))
    [
      ("n = 0", [||]);
      ("n = 1", [| [| 1.0; 2.0 |] |]);
      ("duplicates", [| [| 1.0; 2.0 |]; [| 1.0; 2.0 |]; [| 1.0; 2.0 |] |]);
      ("-0. against 0.", [| [| -0.0; 0.0 |]; [| 0.0; -0.0 |] |]);
      ("only infinite gaps", [| [| 0.0 |]; [| infinity |] |]);
    ]

(* The smallest coordinate gap is the smallest subnormal: [x *. ratio]
   rounds back to [x] there, and the grid must still climb to [hi]. *)
let test_radius_grid_subnormal_gap () =
  let grid =
    check_grid ~ratio:1.06 [| [| 0.0 |]; [| Float.succ 0.0 |]; [| 1.0 |] |]
  in
  Alcotest.(check (float 0.0)) "lo" (Float.succ 0.0) grid.(1);
  Alcotest.(check bool) "reaches hi" true (grid.(Array.length grid - 1) >= 1.0);
  Alcotest.(check bool) "about log_ratio (hi / lo) values" true
    (Array.length grid < 13_000)

(* Where the squares underflow, a computed distance can fall well below
   the coordinate gap: here the gap is 1.2 * 2^-537, its square rounds
   to the smallest subnormal, and the distance reads 2^-537. Halving
   the gap keeps [lo] below it. *)
let test_radius_grid_underflow_margin () =
  let gap = 0x1.3333333333333p-537 in
  let coords = Points.of_array [| [| 0.0 |]; [| gap |] |] in
  Alcotest.(check (float 0.0)) "distance" 0x1p-537 (Points.l2_idx coords 0 1);
  ignore (check_grid ~ratio:1.06 [| [| 0.0 |]; [| gap |] |])

(* Spans whose squares overflow, and infinite coordinates: [hi] is
   [max_float], and the grid stays finite. *)
let test_radius_grid_overflow () =
  List.iter
    (fun pts ->
      let grid = check_grid ~ratio:1.06 pts in
      Alcotest.(check (float 0.0)) "capped at max_float" Float.max_float
        grid.(Array.length grid - 1))
    [
      [| [| 0.0; 0.0 |]; [| 1e154; 0.0 |]; [| 0.0; 1e154 |] |];
      [| [| 0.0 |]; [| 1e155 |] |];
      [| [| 0.0 |]; [| 1.0 |]; [| infinity |]; [| neg_infinity |] |];
      [| [| infinity; 0.0 |]; [| infinity; 1.0 |] |];
    ];
  (* A ratio that overflows at once steps straight to the cap. *)
  Alcotest.(check (array (float 0.0))) "infinite ratio"
    [| 0.0; 0.5; Float.max_float |]
    (check_grid ~ratio:infinity [| [| 0.0 |]; [| 1.0 |] |])

let prop_euclidean_is_metric =
  QCheck.Test.make ~name:"random euclidean space satisfies metric axioms"
    ~count:30
    QCheck.(list_of_size Gen.(int_range 2 8) (pair (float_bound_exclusive 100.0) (float_bound_exclusive 100.0)))
    (fun coords ->
      let pts = Array.of_list (List.map (fun (x, y) -> [| x; y |]) coords) in
      Space.is_metric (Space.of_points pts))

let prop_nearest_center =
  QCheck.Test.make ~name:"nearest_center returns the argmin" ~count:50
    QCheck.(list_of_size Gen.(int_range 3 10) (float_bound_exclusive 50.0))
    (fun xs ->
      let pts = Array.of_list (List.map (fun x -> [| x |]) xs) in
      let s = Space.of_points pts in
      let centers = [ 0; 1; 2 ] in
      let _, d = Space.nearest_center s ~centers (Array.length pts - 1) in
      List.for_all
        (fun c -> s.Space.dist c (Array.length pts - 1) >= d -. 1e-12)
        centers)

let suite =
  [
    Alcotest.test_case "point distances" `Quick test_point_distances;
    Alcotest.test_case "point dim mismatch" `Quick test_point_mismatch;
    Alcotest.test_case "point ops" `Quick test_point_ops;
    Alcotest.test_case "space cost" `Quick test_space_cost;
    Alcotest.test_case "space ball" `Quick test_space_ball;
    Alcotest.test_case "pairwise distances sorted" `Quick test_pairwise_sorted;
    Alcotest.test_case "matrix space" `Quick test_matrix_space;
    Alcotest.test_case "cached space" `Quick test_cached;
    Alcotest.test_case "packed point store" `Quick test_points_store;
    Alcotest.test_case "Point.compare order regression" `Quick
      test_point_compare_regression;
    Alcotest.test_case "float sort order regression" `Quick
      test_float_sort_order_regression;
    QCheck_alcotest.to_alcotest prop_guess_matches_loop;
    Alcotest.test_case "radius grid values, counter and ratio" `Quick
      test_radius_grid_values;
    Alcotest.test_case "radius grid degenerate inputs" `Quick
      test_radius_grid_degenerate;
    Alcotest.test_case "radius grid subnormal gap" `Quick
      test_radius_grid_subnormal_gap;
    Alcotest.test_case "radius grid underflow margin" `Quick
      test_radius_grid_underflow_margin;
    Alcotest.test_case "radius grid overflow and infinities" `Quick
      test_radius_grid_overflow;
    QCheck_alcotest.to_alcotest prop_euclidean_is_metric;
    QCheck_alcotest.to_alcotest prop_nearest_center;
  ]
