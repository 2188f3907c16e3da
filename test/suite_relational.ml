open Cso_relational
module Rect = Cso_geom.Rect
module Point = Cso_metric.Point

let rng = Random.State.make [| 55 |]

let path_schema () =
  Schema.make ~attr_names:[ "A"; "B"; "C" ] [ ("R1", [ 0; 1 ]); ("R2", [ 1; 2 ]) ]

let tiny_instance () =
  let schema = path_schema () in
  Instance.make schema
    [
      [ [| 1.0; 10.0 |]; [| 2.0; 20.0 |]; [| 9.0; 99.0 |] ];
      [ [| 10.0; 5.0 |]; [| 10.0; 6.0 |]; [| 20.0; 7.0 |] ];
    ]

(* Brute-force natural join by cartesian product + consistency check. *)
let brute_join (inst : Instance.t) =
  let schema = inst.Instance.schema in
  let d = Schema.dims schema in
  let g = Schema.n_relations schema in
  let results = ref [] in
  let buf = Array.make d nan in
  let rec go rel =
    if rel = g then results := Array.copy buf :: !results
    else
      Array.iter
        (fun tup ->
          let attrs = Schema.rel_attrs schema rel in
          let consistent = ref true in
          Array.iteri
            (fun pos a ->
              if not (Float.is_nan buf.(a)) && buf.(a) <> tup.(pos) then
                consistent := false)
            attrs;
          if !consistent then begin
            let saved = Array.copy buf in
            Array.iteri (fun pos a -> buf.(a) <- tup.(pos)) attrs;
            go (rel + 1);
            Array.blit saved 0 buf 0 d
          end)
        inst.Instance.tuples.(rel)
  in
  go 0;
  List.sort_uniq compare !results

let test_join_tree_acyclic () =
  let schema = path_schema () in
  Alcotest.(check bool) "path join is acyclic" true (Join_tree.is_acyclic schema);
  let tree = Join_tree.build_exn schema in
  Alcotest.(check int) "spanning order" 2 (Array.length tree.Join_tree.order)

let test_join_tree_cyclic () =
  (* Triangle query: R(A,B), S(B,C), T(A,C) is cyclic. *)
  let schema =
    Schema.make ~attr_names:[ "A"; "B"; "C" ]
      [ ("R", [ 0; 1 ]); ("S", [ 1; 2 ]); ("T", [ 0; 2 ]) ]
  in
  Alcotest.(check bool) "triangle is cyclic" false (Join_tree.is_acyclic schema)

let test_count_and_enumerate () =
  let inst = tiny_instance () in
  let tree = Join_tree.build_exn inst.Instance.schema in
  Alcotest.(check int) "count" 3 (Yannakakis.count inst tree);
  let results = Yannakakis.enumerate inst tree in
  let want =
    [ [| 1.0; 10.0; 5.0 |]; [| 1.0; 10.0; 6.0 |]; [| 2.0; 20.0; 7.0 |] ]
  in
  Alcotest.(check bool) "enumerate" true
    (List.sort_uniq compare (Array.to_list results) = List.sort_uniq compare want)

let test_contains_result () =
  let inst = tiny_instance () in
  Alcotest.(check bool) "member" true
    (Yannakakis.contains_result inst [| 1.0; 10.0; 5.0 |]);
  Alcotest.(check bool) "non-member" false
    (Yannakakis.contains_result inst [| 1.0; 20.0; 7.0 |])

let test_semijoin_reduce () =
  let inst = tiny_instance () in
  let tree = Join_tree.build_exn inst.Instance.schema in
  let reduced = Yannakakis.semijoin_reduce inst tree in
  (* The dangling tuple (9, 99) of R1 disappears; everything else stays. *)
  Alcotest.(check int) "R1 loses dangling tuple" 2 (Instance.n_tuples reduced 0);
  Alcotest.(check int) "R2 intact" 3 (Instance.n_tuples reduced 1);
  Alcotest.(check int) "same join" 3 (Yannakakis.count reduced tree)

let test_count_rect () =
  let inst = tiny_instance () in
  let tree = Join_tree.build_exn inst.Instance.schema in
  let rect = Rect.of_intervals [ (0.0, 1.5); (0.0, 100.0); (0.0, 100.0) ] in
  Alcotest.(check int) "rect filter on A" 2 (Oracles.count_rect inst tree rect);
  let rect_c = Rect.of_intervals [ (neg_infinity, infinity); (neg_infinity, infinity); (5.5, 7.5) ] in
  Alcotest.(check int) "rect filter on C" 2 (Oracles.count_rect inst tree rect_c)

let test_any_in_rect () =
  let inst = tiny_instance () in
  let tree = Join_tree.build_exn inst.Instance.schema in
  let h = Oracles.prepare inst tree in
  let rect = Rect.of_intervals [ (2.0, 2.0); (neg_infinity, infinity); (neg_infinity, infinity) ] in
  (match Oracles.any_in_rect h rect with
  | Some q -> Alcotest.(check bool) "witness" true (q = [| 2.0; 20.0; 7.0 |])
  | None -> Alcotest.fail "expected a witness");
  let empty = Rect.of_intervals [ (50.0, 60.0); (neg_infinity, infinity); (neg_infinity, infinity) ] in
  Alcotest.(check bool) "no witness" true (Oracles.any_in_rect h empty = None)

let test_samples_are_results () =
  let inst = tiny_instance () in
  let tree = Join_tree.build_exn inst.Instance.schema in
  let samples = Yannakakis.sample ~rng inst tree 50 in
  Array.iter
    (fun q ->
      Alcotest.(check bool) "sample in join" true
        (Yannakakis.contains_result inst q))
    samples;
  (* All three results should appear in 50 uniform samples whp. *)
  let distinct = List.sort_uniq compare (Array.to_list samples) in
  Alcotest.(check int) "all results sampled" 3 (List.length distinct)

let test_sampling_near_uniform () =
  (* 3 join results, 600 samples: each should appear ~200 times; a
     20-sigma band (~ +-115) makes this deterministic in practice. *)
  let inst = tiny_instance () in
  let tree = Join_tree.build_exn inst.Instance.schema in
  let samples = Yannakakis.sample ~rng:(Random.State.make [| 99 |]) inst tree 600 in
  let counts = Hashtbl.create 3 in
  Array.iter
    (fun q ->
      Hashtbl.replace counts q
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts q)))
    samples;
  Alcotest.(check int) "three distinct results" 3 (Hashtbl.length counts);
  Hashtbl.iter
    (fun _ c ->
      Alcotest.(check bool) "near-uniform frequency" true (c > 85 && c < 315))
    counts

let test_tuple_rect () =
  let inst = tiny_instance () in
  let r = Instance.tuple_rect inst ~rel:0 [| 1.0; 10.0 |] in
  Alcotest.(check bool) "contains own results" true
    (Rect.contains r [| 1.0; 10.0; 5.0 |]);
  Alcotest.(check bool) "excludes others" false
    (Rect.contains r [| 2.0; 20.0; 7.0 |])

(* Regression: a nan in a tuple passed [filter_rect]'s interval test
   (every comparison with nan is false), so with R1 = {(nan, 10)} the
   oracles returned (nan, 10, 5) for A in [0, 1] and [count_rect]
   counted it, though [Rect.contains] puts it outside; and with
   R1 = {(1, nan)}, R2 = {(nan, 5)} Yannakakis joined the nan keys
   ([Hashtbl] equality) while the nested-loop join did not ([=]).
   Instances now refuse nan. *)
let test_nan_tuples_refused () =
  let refused per_rel =
    match Instance.make (path_schema ()) per_rel with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "nan in a non-key attribute" true
    (refused [ [ [| nan; 10.0 |] ]; [ [| 10.0; 5.0 |] ] ]);
  Alcotest.(check bool) "nan join key" true
    (refused [ [ [| 1.0; nan |] ]; [ [| nan; 5.0 |] ] ]);
  Alcotest.(check bool) "through of_arrays too" true
    (match
       Instance.of_arrays (path_schema ())
         [| [| [| 1.0; 10.0 |] |]; [| [| 10.0; Float.nan |] |] |]
     with
    | _ -> false
    | exception Invalid_argument _ -> true);
  (* Infinities stay legal values. *)
  let inst =
    Instance.make (path_schema ())
      [ [ [| infinity; 10.0 |] ]; [ [| 10.0; neg_infinity |] ] ]
  in
  let tree = Join_tree.build_exn inst.Instance.schema in
  Alcotest.(check int) "infinite values join" 1 (Yannakakis.count inst tree)

let random_instance () =
  let schema = path_schema () in
  let n1 = 1 + Random.State.int rng 10 and n2 = 1 + Random.State.int rng 10 in
  let r1 =
    List.init n1 (fun _ ->
        [| float_of_int (Random.State.int rng 5);
           float_of_int (Random.State.int rng 4) |])
  in
  let r2 =
    List.init n2 (fun _ ->
        [| float_of_int (Random.State.int rng 4);
           float_of_int (Random.State.int rng 5) |])
  in
  Instance.make schema [ r1; r2 ]

let prop_count_matches_brute =
  QCheck.Test.make ~name:"yannakakis count matches brute-force join" ~count:80
    QCheck.unit
    (fun () ->
      let inst = random_instance () in
      let tree = Join_tree.build_exn inst.Instance.schema in
      Yannakakis.count inst tree = List.length (brute_join inst))

let prop_enumerate_matches_brute =
  QCheck.Test.make ~name:"yannakakis enumerate matches brute-force join"
    ~count:60 QCheck.unit
    (fun () ->
      let inst = random_instance () in
      let tree = Join_tree.build_exn inst.Instance.schema in
      let got =
        List.sort_uniq compare (Array.to_list (Yannakakis.enumerate inst tree))
      in
      got = brute_join inst
      && List.length got = Yannakakis.count inst tree)

let prop_count_rect_matches_brute =
  QCheck.Test.make ~name:"count_rect matches filtered brute-force join"
    ~count:60 QCheck.unit
    (fun () ->
      let inst = random_instance () in
      let tree = Join_tree.build_exn inst.Instance.schema in
      let lo = float_of_int (Random.State.int rng 4) in
      let hi = lo +. float_of_int (Random.State.int rng 3) in
      let rect =
        Rect.of_intervals [ (lo, hi); (neg_infinity, infinity); (lo, hi) ]
      in
      let brute =
        List.filter (fun q -> Rect.contains rect q) (brute_join inst)
      in
      Oracles.count_rect inst tree rect = List.length brute)

let prop_candidate_distances_complete =
  QCheck.Test.make
    ~name:"candidate distances contain every pairwise linf distance"
    ~count:40 QCheck.unit
    (fun () ->
      let inst = random_instance () in
      let results = brute_join inst in
      let cand = Oracles.candidate_linf_distances inst in
      List.for_all
        (fun p ->
          List.for_all
            (fun q ->
              let d = Point.linf p q in
              Array.exists (fun c -> abs_float (c -. d) < 1e-9) cand)
            results)
        results)

let test_farthest_linf () =
  let inst = tiny_instance () in
  let tree = Join_tree.build_exn inst.Instance.schema in
  let cand = Oracles.candidate_linf_distances inst in
  (* From center (1,10,5): farthest result in L_inf is (2,20,7), at
     distance max(1,10,2) = 10. *)
  let w, delta =
    Oracles.farthest_linf (Oracles.prepare inst tree)
      ~centers:[ [| 1.0; 10.0; 5.0 |] ] ~cand
  in
  Alcotest.(check (float 1e-9)) "farthest distance" 10.0 delta;
  (match w with
  | Some q -> Alcotest.(check bool) "witness attains it" true (q = [| 2.0; 20.0; 7.0 |])
  | None -> Alcotest.fail "expected witness")

let prop_farthest_linf_matches_brute =
  QCheck.Test.make ~name:"farthest_linf matches brute force" ~count:40
    QCheck.unit
    (fun () ->
      let inst = random_instance () in
      let tree = Join_tree.build_exn inst.Instance.schema in
      let results = brute_join inst in
      match results with
      | [] -> true
      | c :: _ ->
          let cand = Oracles.candidate_linf_distances inst in
          let _, delta =
            Oracles.farthest_linf (Oracles.prepare inst tree) ~centers:[ c ]
              ~cand
          in
          let brute =
            List.fold_left (fun acc q -> max acc (Point.linf c q)) 0.0 results
          in
          abs_float (delta -. brute) < 1e-9)

(* The ascent's worst case, pinned: a chain whose walks find the
   results nearest first. R1 = {(0,0)} u {(-i, i*1e-6)} and R2 =
   {(0,0)} u {(i*1e-6, 0)}, i = 1..200, join to (-i, i*1e-6, 0) at L_inf
   distance i from the center (0,0,0), and each walk's witness is the
   nearest result outside the cubes, so every ascent step climbs one
   result. Uncapped, the ascent would walk 200 times; the cap stops it
   after ceil(log2 |cand|) walks and bisects the rest. With both
   relations listed farthest first, the first walk already finds the
   farthest result and the second proves nothing lies beyond it. *)
let chain_instance ~nearest_first =
  let order =
    List.init 200 (fun i ->
        float_of_int (if nearest_first then i + 1 else 200 - i))
  in
  let r1 = List.map (fun i -> [| -.i; i *. 1e-6 |]) order in
  let r2 = List.map (fun i -> [| i *. 1e-6; 0.0 |]) order in
  Instance.make (path_schema ()) [ [| 0.0; 0.0 |] :: r1; [| 0.0; 0.0 |] :: r2 ]

let test_farthest_linf_chain () =
  let walks inst =
    let tree = Join_tree.build_exn inst.Instance.schema in
    let cand = Oracles.candidate_linf_distances inst in
    let centers = [ [| 0.0; 0.0; 0.0 |] ] in
    let h = Oracles.prepare inst tree in
    let (w, delta), deltas =
      Cso_obs.Obs.with_delta (fun () -> Oracles.farthest_linf h ~centers ~cand)
    in
    let rw, rdelta = Cso_refcheck.Reference.farthest_linf h ~centers ~cand in
    let bits = Option.map (Array.map Int64.bits_of_float) in
    Alcotest.(check bool) "the bisection's witness" true (bits w = bits rw);
    Alcotest.(check (float 0.0)) "the bisection's distance" rdelta delta;
    Alcotest.(check (float 0.0)) "farthest distance" 200.0 delta;
    Alcotest.(check bool) "farthest witness" true
      (w = Some [| -200.0; 200.0 *. 1e-6; 0.0 |]);
    let rec ceil_log2 m = if m <= 1 then 0 else 1 + ceil_log2 ((m + 1) / 2) in
    ( Option.value ~default:0
        (List.assoc_opt "relational.oracle.outside_witness" deltas),
      (2 * ceil_log2 (Array.length cand)) + 1 )
  in
  let was = Cso_obs.Obs.enabled () in
  Cso_obs.Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Cso_obs.Obs.set_enabled was) @@ fun () ->
  let n, cap = walks (chain_instance ~nearest_first:true) in
  Alcotest.(check bool)
    (Printf.sprintf "%d walks, at most %d" n cap)
    true (n <= cap);
  let n, _ = walks (chain_instance ~nearest_first:false) in
  Alcotest.(check int) "farthest first: two walks" 2 n

let test_rel_cluster () =
  let inst = tiny_instance () in
  let tree = Join_tree.build_exn inst.Instance.schema in
  let centers, r = Oracles.rel_cluster inst tree ~k:2 in
  Alcotest.(check bool) "at most k" true (List.length centers <= 2);
  List.iter
    (fun c ->
      Alcotest.(check bool) "center is a result" true
        (Yannakakis.contains_result inst c))
    centers;
  (* r bounds the Euclidean covering cost. *)
  let results = Array.to_list (Yannakakis.enumerate inst tree) in
  let cover =
    List.fold_left
      (fun acc q ->
        max acc
          (List.fold_left (fun m c -> min m (Point.l2 c q)) infinity centers))
      0.0 results
  in
  Alcotest.(check bool) "r_s covers" true (cover <= r +. 1e-9)

(* --- Hypertree decomposition (cyclic queries, Section 4.2) --- *)

let triangle_instance () =
  let schema =
    Schema.make ~attr_names:[ "A"; "B"; "C" ]
      [ ("R", [ 0; 1 ]); ("S", [ 1; 2 ]); ("T", [ 0; 2 ]) ]
  in
  let vals = [ 0.0; 1.0; 2.0 ] in
  let pairs = List.concat_map (fun a -> List.map (fun b -> [| a; b |]) vals) vals in
  (* Keep a pseudo-random half of all pairs in each relation. *)
  let keep salt tup =
    (int_of_float tup.(0) + (2 * int_of_float tup.(1)) + salt) mod 3 <> 0
  in
  Instance.make schema
    [
      List.filter (keep 0) pairs;
      List.filter (keep 1) pairs;
      List.filter (keep 2) pairs;
    ]

let test_hypertree_identity_on_acyclic () =
  let inst = tiny_instance () in
  let d = Hypertree.decompose_exn inst in
  Alcotest.(check int) "width 1" 1 d.Hypertree.width;
  Alcotest.(check int) "two bags" 2 (Array.length d.Hypertree.cover);
  Alcotest.(check int) "same join" 3
    (Yannakakis.count d.Hypertree.instance d.Hypertree.tree)

let test_hypertree_triangle () =
  let inst = triangle_instance () in
  Alcotest.(check bool) "triangle is cyclic" false
    (Join_tree.is_acyclic inst.Instance.schema);
  let d = Hypertree.decompose_exn inst in
  Alcotest.(check bool) "decomposition acyclic" true
    (Join_tree.is_acyclic d.Hypertree.schema);
  Alcotest.(check bool) "width 2" true (d.Hypertree.width >= 2);
  (* The decomposed join equals the brute-force join of the original. *)
  let brute = brute_join inst in
  let got =
    List.sort_uniq compare
      (Array.to_list (Yannakakis.enumerate d.Hypertree.instance d.Hypertree.tree))
  in
  Alcotest.(check int) "same result count" (List.length brute) (List.length got);
  Alcotest.(check bool) "same result set" true (brute = got)

let test_hypertree_provenance () =
  let inst = triangle_instance () in
  let d = Hypertree.decompose_exn inst in
  match Yannakakis.any d.Hypertree.instance d.Hypertree.tree with
  | None -> () (* empty joins carry no provenance to test *)
  | Some q ->
      (* Every bag tuple of q projects to real original tuples. *)
      Array.iteri
        (fun bag _ ->
          let bag_tup = Instance.project_result d.Hypertree.instance ~rel:bag q in
          List.iter
            (fun (rel, tup) ->
              Alcotest.(check bool) "provenance tuple exists" true
                (Instance.mem_tuple inst ~rel tup))
            (Hypertree.provenance d ~original:inst ~bag bag_tup))
        d.Hypertree.cover

let test_hypertree_four_cycle () =
  (* 4-cycle R(A,B), S(B,C), T(C,D), U(D,A): cyclic, decomposable with
     width 2 bags. *)
  let schema =
    Schema.make ~attr_names:[ "A"; "B"; "C"; "D" ]
      [ ("R", [ 0; 1 ]); ("S", [ 1; 2 ]); ("T", [ 2; 3 ]); ("U", [ 3; 0 ]) ]
  in
  Alcotest.(check bool) "4-cycle is cyclic" false (Join_tree.is_acyclic schema);
  let vals = [ 0.0; 1.0 ] in
  let pairs = List.concat_map (fun a -> List.map (fun b -> [| a; b |]) vals) vals in
  let inst = Instance.make schema [ pairs; pairs; pairs; pairs ] in
  let d = Hypertree.decompose_exn inst in
  Alcotest.(check bool) "acyclic bags" true (Join_tree.is_acyclic d.Hypertree.schema);
  let got =
    List.sort_uniq compare
      (Array.to_list (Yannakakis.enumerate d.Hypertree.instance d.Hypertree.tree))
  in
  Alcotest.(check bool) "same join as brute force" true (got = brute_join inst)

let prop_hypertree_random_triangle =
  QCheck.Test.make ~name:"hypertree decomposition preserves random cyclic joins"
    ~count:30 QCheck.unit
    (fun () ->
      let schema =
        Schema.make ~attr_names:[ "A"; "B"; "C" ]
          [ ("R", [ 0; 1 ]); ("S", [ 1; 2 ]); ("T", [ 0; 2 ]) ]
      in
      let random_rel () =
        List.init
          (1 + Random.State.int rng 8)
          (fun _ ->
            [| float_of_int (Random.State.int rng 3);
               float_of_int (Random.State.int rng 3) |])
      in
      let inst =
        Instance.make schema [ random_rel (); random_rel (); random_rel () ]
      in
      let d = Hypertree.decompose_exn inst in
      let got =
        List.sort_uniq compare
          (Array.to_list
             (Yannakakis.enumerate d.Hypertree.instance d.Hypertree.tree))
      in
      got = brute_join inst)

let test_hypertree_size_limit () =
  let inst = triangle_instance () in
  (match Hypertree.decompose ~max_bag_tuples:1 inst with
  | Ok _ -> Alcotest.fail "limit not enforced"
  | Error (Hypertree.Bag_limit_exceeded { size; limit }) ->
      Alcotest.(check int) "limit echoed" 1 limit;
      Alcotest.(check bool) "size over limit" true (size > limit)
  | Error e -> Alcotest.fail (Hypertree.error_to_string e));
  (* Regression: the exception variant used to collapse the typed error
     into [Failure (error_to_string e)]; it now carries the payload so
     callers can match on the cause. *)
  (match Hypertree.decompose_exn ~max_bag_tuples:1 inst with
  | _ -> Alcotest.fail "limit not enforced by decompose_exn"
  | exception Hypertree.Decompose_error (Hypertree.Bag_limit_exceeded { size; limit }) ->
      Alcotest.(check int) "exn limit echoed" 1 limit;
      Alcotest.(check bool) "exn size over limit" true (size > limit)
  | exception Hypertree.Decompose_error e ->
      Alcotest.fail (Hypertree.error_to_string e));
  (* The registered printer keeps uncaught escapes readable. *)
  (try ignore (Hypertree.decompose_exn ~max_bag_tuples:1 inst)
   with e ->
     let s = Printexc.to_string e in
     Alcotest.(check bool) "printer renders the typed error" true
       (String.length s > 0
       &&
       let needle = "bag" in
       let rec contains i =
         i + String.length needle <= String.length s
         && (String.lowercase_ascii (String.sub s i (String.length needle))
             = needle
            || contains (i + 1))
       in
       contains 0))

let test_hypertree_empty_schema () =
  (* Zero relations: pre-fix this crashed with the bare
     [Failure "no sharing pair found"]; now it is a typed error. *)
  let schema = Schema.make ~attr_names:[] [] in
  let inst = Instance.make schema [] in
  match Hypertree.decompose inst with
  | Error Hypertree.Empty_schema -> ()
  | Error e -> Alcotest.fail (Hypertree.error_to_string e)
  | Ok _ -> Alcotest.fail "expected Empty_schema"

let test_hypertree_disconnected () =
  (* Disconnected acyclic schema R1(A,B) x R2(C,D): the decomposition
     must succeed and its join must be the cross product. *)
  let schema =
    Schema.make ~attr_names:[ "A"; "B"; "C"; "D" ]
      [ ("R1", [ 0; 1 ]); ("R2", [ 2; 3 ]) ]
  in
  let inst =
    Instance.make schema
      [ [ [| 1.; 2. |]; [| 3.; 4. |] ]; [ [| 5.; 6. |]; [| 7.; 8. |] ] ]
  in
  (match Hypertree.decompose inst with
  | Error e -> Alcotest.fail (Hypertree.error_to_string e)
  | Ok d ->
      Alcotest.(check int) "cross-product join" 4
        (Yannakakis.count d.Hypertree.instance d.Hypertree.tree));
  (* Disconnected with a cyclic component on each side: two disjoint
     triangles. Only cross-product merges can connect them once each
     triangle collapses into a bag. *)
  let schema2 =
    Schema.make
      ~attr_names:[ "A"; "B"; "C"; "D"; "E"; "F" ]
      [
        ("R", [ 0; 1 ]); ("S", [ 1; 2 ]); ("T", [ 0; 2 ]);
        ("U", [ 3; 4 ]); ("V", [ 4; 5 ]); ("W", [ 3; 5 ]);
      ]
  in
  let tri =
    [ [| 0.; 0. |]; [| 0.; 1. |]; [| 1.; 0. |]; [| 1.; 1. |] ]
  in
  let inst2 = Instance.make schema2 [ tri; tri; tri; tri; tri; tri ] in
  match Hypertree.decompose inst2 with
  | Error e -> Alcotest.fail (Hypertree.error_to_string e)
  | Ok d ->
      let got =
        List.sort_uniq compare
          (Array.to_list
             (Yannakakis.enumerate d.Hypertree.instance d.Hypertree.tree))
      in
      Alcotest.(check bool) "join preserved" true (got = brute_join inst2)

let suite =
  [
    Alcotest.test_case "join tree acyclic" `Quick test_join_tree_acyclic;
    Alcotest.test_case "hypertree identity on acyclic" `Quick
      test_hypertree_identity_on_acyclic;
    Alcotest.test_case "hypertree triangle" `Quick test_hypertree_triangle;
    Alcotest.test_case "hypertree provenance" `Quick test_hypertree_provenance;
    Alcotest.test_case "hypertree 4-cycle" `Quick test_hypertree_four_cycle;
    QCheck_alcotest.to_alcotest prop_hypertree_random_triangle;
    Alcotest.test_case "hypertree size limit" `Quick test_hypertree_size_limit;
    Alcotest.test_case "hypertree empty schema" `Quick
      test_hypertree_empty_schema;
    Alcotest.test_case "hypertree disconnected" `Quick
      test_hypertree_disconnected;
    Alcotest.test_case "join tree cyclic" `Quick test_join_tree_cyclic;
    Alcotest.test_case "count and enumerate" `Quick test_count_and_enumerate;
    Alcotest.test_case "contains_result" `Quick test_contains_result;
    Alcotest.test_case "semijoin reduce" `Quick test_semijoin_reduce;
    Alcotest.test_case "count_rect" `Quick test_count_rect;
    Alcotest.test_case "any_in_rect" `Quick test_any_in_rect;
    Alcotest.test_case "samples are results" `Quick test_samples_are_results;
    Alcotest.test_case "sampling near uniform" `Quick test_sampling_near_uniform;
    Alcotest.test_case "tuple rect" `Quick test_tuple_rect;
    Alcotest.test_case "nan tuples refused" `Quick test_nan_tuples_refused;
    QCheck_alcotest.to_alcotest prop_count_matches_brute;
    QCheck_alcotest.to_alcotest prop_enumerate_matches_brute;
    QCheck_alcotest.to_alcotest prop_count_rect_matches_brute;
    QCheck_alcotest.to_alcotest prop_candidate_distances_complete;
    Alcotest.test_case "farthest_linf" `Quick test_farthest_linf;
    QCheck_alcotest.to_alcotest prop_farthest_linf_matches_brute;
    Alcotest.test_case "farthest_linf chain worst case" `Quick
      test_farthest_linf_chain;
    Alcotest.test_case "rel_cluster" `Quick test_rel_cluster;
  ]
