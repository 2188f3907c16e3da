(* Degenerate and boundary cases across the whole stack. *)

open Cso_core
module Space = Cso_metric.Space
module Points = Cso_metric.Points
module Rect = Cso_geom.Rect
module Bbd = Cso_geom.Bbd_tree
module Simplex = Cso_lp.Simplex
module Rel = Cso_relational

let test_cso_z0_pure_kcenter () =
  let pts = [| [| 0.0 |]; [| 1.0 |]; [| 10.0 |]; [| 11.0 |] |] in
  let t =
    Instance.make (Space.of_points pts) ~sets:[ [ 0; 1; 2; 3 ] ] ~k:2 ~z:0
  in
  let sol = (Cso_general.solve t).Cso_general.solution in
  Alcotest.(check (list int)) "no outliers" [] sol.Instance.outliers;
  Alcotest.(check bool) "covers both pairs" true (Instance.cost t sol <= 2.0)

let test_cso_disjoint_z0 () =
  let pts = [| [| 0.0 |]; [| 1.0 |]; [| 10.0 |]; [| 11.0 |] |] in
  let t =
    Instance.make (Space.of_points pts) ~sets:[ [ 0; 1 ]; [ 2; 3 ] ] ~k:2 ~z:0
  in
  let r = Cso_disjoint.solve t in
  Alcotest.(check (list int)) "no outliers" [] r.Cso_disjoint.solution.Instance.outliers;
  Alcotest.(check bool) "cost bounded" true
    (Instance.cost t r.Cso_disjoint.solution <= 30.0)

let test_cso_k_covers_everything () =
  let pts = [| [| 0.0 |]; [| 5.0 |]; [| 9.0 |] |] in
  let t = Instance.make (Space.of_points pts) ~sets:[ [ 0; 1; 2 ] ] ~k:3 ~z:0 in
  let sol = (Cso_general.solve t).Cso_general.solution in
  Alcotest.(check (float 1e-9)) "zero cost with k = n" 0.0 (Instance.cost t sol)

let test_cso_single_point () =
  let t =
    Instance.make (Space.of_points [| [| 3.0 |] |]) ~sets:[ [ 0 ] ] ~k:1 ~z:0
  in
  let sol = (Cso_general.solve t).Cso_general.solution in
  Alcotest.(check (float 1e-9)) "single point" 0.0 (Instance.cost t sol)

let test_gcso_empty_and_single () =
  let g1 =
    Geo_instance.make
      ~points:[| [| 1.0; 1.0 |] |]
      ~rects:[| Rect.unbounded 2 |]
      ~k:1 ~z:0
  in
  let r = Gcso_general.solve ~eps:0.3 ~rounds:20 g1 in
  Alcotest.(check bool) "single point solved" true
    (Geo_instance.cost g1 r.Gcso_general.solution = 0.0)

let test_gcso_duplicate_points () =
  let points = Array.make 12 [| 5.0; 5.0 |] in
  let rects = [| Rect.of_intervals [ (0.0, 10.0); (0.0, 10.0) ] |] in
  let g = Geo_instance.make ~points ~rects ~k:1 ~z:0 in
  let r = Gcso_general.solve ~eps:0.3 ~rounds:20 g in
  Alcotest.(check (float 1e-9)) "all duplicates" 0.0
    (Geo_instance.cost g r.Gcso_general.solution)

let test_bbd_duplicates_sandwich () =
  let pts = Array.append (Array.make 7 [| 1.0; 1.0 |]) (Array.make 5 [| 9.0; 9.0 |]) in
  let tree = Bbd.build_packed (Points.of_array pts) in
  let nodes = Bbd.ball_query tree ~center:[| 1.0; 1.0 |] ~radius:2.0 ~eps:0.1 in
  let got = List.concat_map (Bbd.points_of_node tree) nodes in
  Alcotest.(check int) "exactly the duplicate group" 7 (List.length got)

let test_simplex_fixed_variable () =
  (* x fixed to 0.5 by bounds; maximize x + y with y <= x. *)
  let p =
    {
      Simplex.num_vars = 2;
      objective = [| 1.0; 1.0 |];
      constraints = [ ([| -1.0; 1.0 |], Simplex.Le, 0.0) ];
      bounds = [| (0.5, 0.5); (0.0, 1.0) |];
    }
  in
  match Simplex.solve p with
  | Simplex.Optimal { value; solution; _ } ->
      Alcotest.(check (float 1e-6)) "x fixed" 0.5 solution.(0);
      Alcotest.(check (float 1e-6)) "value" 1.0 value
  | _ -> Alcotest.fail "expected optimum"

let test_space_single_element () =
  let s = Space.of_points [| [| 1.0 |] |] in
  let d = Space.pairwise_distances s in
  Alcotest.(check int) "just zero" 1 (Array.length d);
  Alcotest.(check (float 0.0)) "zero" 0.0 d.(0)

let test_rcto1_dirty_second_relation () =
  (* R1 clean, R2 dirty: outliers allowed from relation index 1. *)
  let schema =
    Rel.Schema.make ~attr_names:[ "A"; "B"; "C" ]
      [ ("R1", [ 0; 1 ]); ("R2", [ 1; 2 ]) ]
  in
  let r1 = List.init 6 (fun i -> [| float_of_int i /. 1000.0; float_of_int i |]) in
  let r2 =
    List.init 6 (fun i ->
        [| float_of_int i; (if i = 5 then 9999.0 else 10.0 +. float_of_int (i mod 2)) |])
  in
  let inst = Rel.Instance.make schema [ r1; r2 ] in
  let tree = Rel.Join_tree.build_exn schema in
  let r = Rcto1.solve ~eps:0.3 ~rounds:60 ~dirty_rel:1 inst tree ~k:2 ~z:1 in
  Alcotest.(check int) "one outlier tuple" 1 (List.length r.Rcto1.outlier_tuples);
  List.iter
    (fun tup ->
      Alcotest.(check bool) "outlier from R2" true
        (Rel.Instance.mem_tuple inst ~rel:1 tup);
      Alcotest.(check (float 1e-9)) "the corrupted tuple" 9999.0 tup.(1))
    r.Rcto1.outlier_tuples

let test_geo_instance_degenerate_rects () =
  (* Degenerate (flat) rectangles behave like the relational tuple
     rectangles of Section 4.1. *)
  let points = [| [| 1.0; 7.0 |]; [| 2.0; 8.0 |] |] in
  let rects =
    [|
      Rect.of_intervals [ (1.0, 1.0); (neg_infinity, infinity) ];
      Rect.of_intervals [ (2.0, 2.0); (neg_infinity, infinity) ];
    |]
  in
  let g = Geo_instance.make ~points ~rects ~k:1 ~z:1 in
  Alcotest.(check int) "f=1 on degenerate slabs" 1 (Geo_instance.frequency g)

let test_exact_everything_outliered () =
  (* z large enough to discard every set: cost 0 with no centers. *)
  let pts = [| [| 0.0 |]; [| 100.0 |] |] in
  let t = Instance.make (Space.of_points pts) ~sets:[ [ 0 ]; [ 1 ] ] ~k:1 ~z:2 in
  match Exact.solve t with
  | Some (sol, c) ->
      Alcotest.(check (float 0.0)) "zero cost" 0.0 c;
      Alcotest.(check int) "both sets out" 2 (List.length sol.Instance.outliers)
  | None -> Alcotest.fail "exact should run"

let suite =
  [
    Alcotest.test_case "cso z=0" `Quick test_cso_z0_pure_kcenter;
    Alcotest.test_case "cso disjoint z=0" `Quick test_cso_disjoint_z0;
    Alcotest.test_case "cso k=n" `Quick test_cso_k_covers_everything;
    Alcotest.test_case "cso single point" `Quick test_cso_single_point;
    Alcotest.test_case "gcso single point" `Quick test_gcso_empty_and_single;
    Alcotest.test_case "gcso duplicates" `Quick test_gcso_duplicate_points;
    Alcotest.test_case "bbd duplicates" `Quick test_bbd_duplicates_sandwich;
    Alcotest.test_case "simplex fixed variable" `Quick test_simplex_fixed_variable;
    Alcotest.test_case "space single element" `Quick test_space_single_element;
    Alcotest.test_case "rcto1 dirty second relation" `Quick
      test_rcto1_dirty_second_relation;
    Alcotest.test_case "degenerate rectangles" `Quick
      test_geo_instance_degenerate_rects;
    Alcotest.test_case "exact: everything outliered" `Quick
      test_exact_everything_outliered;
  ]
