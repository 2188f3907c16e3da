open Cso_geom
module Point = Cso_metric.Point
module Points = Cso_metric.Points
module Float_sort = Cso_metric.Float_sort

let rng = Random.State.make [| 2024 |]

let random_points n d =
  Array.init n (fun _ ->
      Array.init d (fun _ -> Random.State.float rng 100.0))

(* --- Rect --- *)

let test_rect_basics () =
  let r = Rect.of_intervals [ (0.0, 2.0); (1.0, 3.0) ] in
  Alcotest.(check bool) "inside" true (Rect.contains r [| 1.0; 2.0 |]);
  Alcotest.(check bool) "boundary" true (Rect.contains r [| 2.0; 3.0 |]);
  Alcotest.(check bool) "outside" false (Rect.contains r [| 2.1; 2.0 |]);
  Alcotest.(check bool) "unbounded" true
    (Rect.contains (Rect.unbounded 2) [| 1e9; -1e9 |]);
  Alcotest.check_raises "lo > hi"
    (Invalid_argument "Rect.make: lo.(0) = 2 > hi.(0) = 1") (fun () ->
      ignore (Rect.make ~lo:[| 2.0 |] ~hi:[| 1.0 |]));
  Alcotest.check_raises "nan bound"
    (Invalid_argument "Rect.make: nan bound in dimension 1") (fun () ->
      ignore (Rect.make ~lo:[| 0.0; nan |] ~hi:[| 1.0; 1.0 |]))

let test_rect_inter () =
  let a = Rect.of_intervals [ (0.0, 2.0) ] in
  let b = Rect.of_intervals [ (1.0, 3.0) ] in
  let c = Rect.of_intervals [ (5.0, 6.0) ] in
  (match Rect.inter a b with
  | Some r ->
      Alcotest.(check bool) "inter bounds" true
        (r.Rect.lo.(0) = 1.0 && r.Rect.hi.(0) = 2.0)
  | None -> Alcotest.fail "expected overlap");
  Alcotest.(check bool) "disjoint" true (Rect.inter a c = None);
  Alcotest.(check bool) "touching intersect" true (Rect.intersects a b)

let test_rect_dists () =
  let r = Rect.of_intervals [ (0.0, 1.0); (0.0, 1.0) ] in
  Alcotest.(check (float 1e-9)) "min inside" 0.0
    (Rect.min_dist_to_point r [| 0.5; 0.5 |]);
  Alcotest.(check (float 1e-9)) "min outside" 5.0
    (Rect.min_dist_to_point r [| 4.0; 5.0 |]);
  Alcotest.(check bool) "max unbounded" true
    (Rect.max_dist_to_point (Rect.unbounded 2) [| 0.0; 0.0 |] = infinity);
  Alcotest.(check bool) "bounded rect" true (Rect.is_bounded r);
  Alcotest.(check bool) "unbounded rect" false (Rect.is_bounded (Rect.unbounded 1))

(* Reference formula for [Rect.max_dist_to_point]: polymorphic [max]
   and an [Exit] on an infinite side. The monomorphic production version
   must agree with it bit for bit. *)
let max_dist_to_point_old r (p : Point.t) =
  let acc = ref 0.0 in
  (try
     for i = 0 to Rect.dim r - 1 do
       let d =
         max (abs_float (p.(i) -. r.Rect.lo.(i))) (abs_float (r.Rect.hi.(i) -. p.(i)))
       in
       if d = infinity then raise Exit;
       acc := !acc +. (d *. d)
     done
   with Exit -> acc := infinity);
  if !acc = infinity then infinity else sqrt !acc

(* Rect bounds as the wire protocol carries them: infinite sides,
   signed zeros, huge magnitudes whose squares overflow, flat sides. *)
let gen_bound st =
  match Random.State.int st 8 with
  | 0 -> infinity
  | 1 -> neg_infinity
  | 2 -> 0.0
  | 3 -> -0.0
  | 4 -> 1e200 *. (Random.State.float st 2.0 -. 1.0)
  | _ -> Random.State.float st 200.0 -. 100.0

let gen_coord st =
  match Random.State.int st 10 with
  | 0 -> nan
  | 1 -> infinity
  | 2 -> -0.0
  | _ -> gen_bound st

let prop_rect_max_dist_bits =
  QCheck.Test.make ~name:"rect max_dist_to_point bit-identical to the max/Exit form"
    ~count:2000 QCheck.(pair (int_range 1 4) int)
    (fun (d, seed) ->
      let st = Random.State.make [| seed |] in
      let bounds =
        List.init d (fun _ ->
            let a = gen_bound st and b = gen_bound st in
            if a <= b then (a, b) else (b, a))
      in
      let r = Rect.of_intervals bounds in
      let p = Array.init d (fun _ -> gen_coord st) in
      Int64.equal
        (Int64.bits_of_float (Rect.max_dist_to_point r p))
        (Int64.bits_of_float (max_dist_to_point_old r p)))

let test_rect_cube_bbox () =
  let c = Rect.cube ~center:[| 1.0; 1.0 |] ~side:2.0 in
  Alcotest.(check bool) "cube corner" true (Rect.contains c [| 0.0; 2.0 |]);
  let bb = Rect.bounding_box [| [| 0.0; 5.0 |]; [| 2.0; 1.0 |] |] in
  Alcotest.(check bool) "bbox" true
    (bb.Rect.lo.(0) = 0.0 && bb.Rect.hi.(1) = 5.0)

(* --- BBD tree --- *)

let brute_ball pts c r =
  List.filter (fun i -> Point.l2 pts.(i) c <= r) (List.init (Array.length pts) Fun.id)

let prop_bbd_sandwich =
  QCheck.Test.make ~name:"bbd ball query sandwich guarantee" ~count:60
    QCheck.(pair (int_range 1 120) (float_range 0.5 80.0))
    (fun (n, radius) ->
      let pts = random_points n 2 in
      let tree = Bbd_tree.build_packed (Points.of_array pts) in
      let eps = 0.3 in
      let center = [| Random.State.float rng 100.0; Random.State.float rng 100.0 |] in
      let nodes = Bbd_tree.ball_query tree ~center ~radius ~eps in
      let got = List.concat_map (Bbd_tree.points_of_node tree) nodes in
      let got_sorted = List.sort_uniq compare got in
      (* Canonical nodes are disjoint: no duplicates. *)
      List.length got = List.length got_sorted
      && (* Everything within r is captured. *)
      List.for_all (fun i -> List.mem i got) (brute_ball pts center radius)
      && (* Nothing beyond (1+eps) r is captured. *)
      List.for_all
        (fun i -> Point.l2 pts.(i) center <= ((1.0 +. eps) *. radius) +. 1e-9)
        got)

let prop_bbd_counts =
  QCheck.Test.make ~name:"bbd node counts are consistent" ~count:40
    QCheck.(int_range 1 100)
    (fun n ->
      let pts = random_points n 3 in
      let tree = Bbd_tree.build_packed (Points.of_array pts) in
      Bbd_tree.size tree = n
      && Bbd_tree.root_active_count tree = n
      && List.for_all
           (fun i -> Bbd_tree.leaf_of_point tree i >= 0)
           (List.init n Fun.id))

let test_bbd_deactivate () =
  let pts = random_points 50 2 in
  let tree = Bbd_tree.build_packed (Points.of_array pts) in
  (* Deactivate a ball around the first point; its points disappear from
     active counts and active queries. *)
  let nodes = Bbd_tree.ball_query tree ~center:pts.(0) ~radius:20.0 ~eps:0.1 in
  let removed = List.concat_map (Bbd_tree.points_of_node tree) nodes in
  List.iter (Bbd_tree.deactivate tree) nodes;
  Alcotest.(check int) "active count"
    (50 - List.length removed)
    (Bbd_tree.root_active_count tree);
  List.iter
    (fun i ->
      Alcotest.(check bool) "removed point inactive" false
        (Bbd_tree.point_is_active tree i))
    removed;
  (match Bbd_tree.root_repr tree with
  | Some r ->
      Alcotest.(check bool) "repr is active" true
        (Bbd_tree.point_is_active tree r)
  | None ->
      Alcotest.(check int) "all removed" 0 (Bbd_tree.root_active_count tree));
  Bbd_tree.reset_active tree;
  Alcotest.(check int) "reset restores" 50 (Bbd_tree.root_active_count tree)

let test_bbd_weights_paths () =
  let pts = random_points 30 2 in
  let tree = Bbd_tree.build_packed (Points.of_array pts) in
  (* Put weight sigma_i on the canonical nodes of each point's ball; the
     path-sum at point l must equal sum of sigma_i over balls containing l
     (up to the eps slack of the query). Use eps tiny and well-separated
     radii so approximation cannot flip membership. *)
  Bbd_tree.reset_weights tree;
  let radius = 30.0 and eps = 1e-9 in
  let sigma = Array.init 30 (fun i -> float_of_int (i + 1)) in
  let rows =
    Array.map (fun c -> Bbd_tree.ball_query tree ~center:c ~radius ~eps) pts
  in
  Bbd_tree.scatter_weights tree (Csr.of_lists rows) sigma;
  let path_sums = Array.make 30 nan in
  Bbd_tree.path_weights tree path_sums;
  let ok = ref true in
  for l = 0 to 29 do
    let path_sum = path_sums.(l) in
    let brute =
      Array.to_list sigma
      |> List.mapi (fun i s ->
             if Point.l2 pts.(i) pts.(l) <= radius then s else 0.0)
      |> List.fold_left ( +. ) 0.0
    in
    if abs_float (path_sum -. brute) > 1e-6 then ok := false
  done;
  Alcotest.(check bool) "oracle weight transport" true !ok

(* The batched weight primitives the GCSO oracle runs every MWU round
   must be per-node accumulation into a node-indexed array, bit for bit:
   one scatter in row order, one leaf-first path sum per point. *)
let prop_bbd_batched_weights =
  QCheck.Test.make ~name:"bbd scatter/path weights = add_weight/get_weight"
    ~count:40
    QCheck.(pair (int_range 1 80) (float_range 1.0 60.0))
    (fun (n, radius) ->
      let pts = random_points n 2 in
      let tree = Bbd_tree.build_packed (Points.of_array pts) in
      let rows =
        Array.map (fun c -> Bbd_tree.ball_query tree ~center:c ~radius ~eps:0.2) pts
      in
      let w = Array.init n (fun _ -> Random.State.float rng 1.0 ** 7.0) in
      let weight = Array.make (Bbd_tree.n_nodes tree) 0.0 in
      let add_weight u x = weight.(u) <- weight.(u) +. x in
      let get_weight u = weight.(u) in
      Array.iteri (fun i nodes -> List.iter (fun u -> add_weight u w.(i)) nodes) rows;
      let per_node =
        Array.init n (fun l ->
            Bbd_tree.fold_path_to_root tree (Bbd_tree.leaf_of_point tree l)
              ~init:0.0 ~f:(fun acc u -> acc +. get_weight u))
      in
      Bbd_tree.reset_weights tree;
      Bbd_tree.scatter_weights tree (Csr.of_lists rows) w;
      let batched = Array.make n nan in
      Bbd_tree.path_weights tree batched;
      Array.for_all2
        (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
        per_node batched)

let test_csr_transpose () =
  let t = Csr.of_lists [| [ 2; 0 ]; []; [ 0; 0 ]; [ 1 ] |] in
  let tt = Csr.transpose t ~cols:4 in
  Alcotest.(check (list (list int))) "columns list their rows ascending"
    [ [ 0; 2; 2 ]; [ 3 ]; [ 0 ]; [] ]
    (List.init (Csr.rows tt) (fun c ->
         Array.to_list
           (Array.sub tt.Csr.ids tt.Csr.offsets.(c)
              (tt.Csr.offsets.(c + 1) - tt.Csr.offsets.(c)))))

(* --- WSPD --- *)

let prop_wspd_candidates =
  QCheck.Test.make ~name:"wspd candidates approximate every pairwise distance"
    ~count:25
    QCheck.(int_range 2 60)
    (fun n ->
      let pts = random_points n 2 in
      let eps = 0.25 in
      let cand = Wspd.candidate_distances ~eps pts in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          let d = Point.l2 pts.(i) pts.(j) in
          let found =
            Array.exists
              (fun c -> c >= ((1.0 -. eps) *. d) -. 1e-9 && c <= ((1.0 +. eps) *. d) +. 1e-9)
              cand
          in
          if not found then ok := false
        done
      done;
      !ok)

(* --- Dense regions (Appendix D index-set structure) --- *)

let prop_dense_regions_invariant =
  QCheck.Test.make
    ~name:"dense-region pruning leaves no dense active point" ~count:40
    QCheck.(pair (int_range 4 60) (int_range 0 4))
    (fun (n, threshold) ->
      let pts = random_points n 2 in
      let set_of = Array.init n (fun i -> i mod 5) in
      let tree = Bbd_tree.build_packed (Points.of_array pts) in
      let inner = 8.0 and outer = 12.0 and eps = 0.2 in
      match
        Dense_regions.prune_balls tree ~set_of ~inner ~outer ~eps ~threshold
          ~max_balls:n
      with
      | None -> false (* max_balls = n can never be exceeded *)
      | Some balls ->
          (* Every surviving point sees at most [threshold] distinct sets
             within the exact inner radius (the structure counts a
             superset, so termination implies this). *)
          let active i = Bbd_tree.point_is_active tree i in
          let invariant =
            List.for_all
              (fun i ->
                if not (active i) then true
                else begin
                  let seen = Hashtbl.create 8 in
                  for l = 0 to n - 1 do
                    if active l && Point.l2 pts.(i) pts.(l) <= inner then
                      Hashtbl.replace seen set_of.(l) ()
                  done;
                  Hashtbl.length seen <= threshold
                end)
              (List.init n Fun.id)
          in
          (* Removed balls partition the removed points. *)
          let removed = List.concat_map snd balls in
          let no_dups =
            List.length removed
            = List.length (List.sort_uniq compare removed)
          in
          invariant && no_dups
          && List.for_all (fun i -> active i || List.mem i removed)
               (List.init n Fun.id))

let test_dense_regions_max_balls () =
  (* Points from many sets piled together: with threshold 0 every point
     is dense, and a tiny max_balls must trip. *)
  let pts = Array.init 20 (fun i -> [| float_of_int i *. 0.01; 0.0 |]) in
  let set_of = Array.init 20 Fun.id in
  let tree = Bbd_tree.build_packed (Points.of_array pts) in
  Alcotest.(check bool) "exceeds budget" true
    (Dense_regions.prune_balls tree ~set_of ~inner:1.0 ~outer:1.0 ~eps:0.1
       ~threshold:0 ~max_balls:0
    = None);
  Bbd_tree.reset_active tree;
  (* One big ball suffices when the budget allows it. *)
  match
    Dense_regions.prune_balls tree ~set_of ~inner:1.0 ~outer:1.0 ~eps:0.1
      ~threshold:0 ~max_balls:5
  with
  | Some balls ->
      Alcotest.(check int) "single ball removes the pile" 1 (List.length balls)
  | None -> Alcotest.fail "budget of 5 should suffice"

(* --- Box complement --- *)

let random_rect d =
  Rect.of_intervals
    (List.init d (fun _ ->
         let a = Random.State.float rng 100.0 in
         let b = Random.State.float rng 100.0 in
         (min a b, max a b)))

let prop_box_complement =
  QCheck.Test.make ~name:"complement decomposition covers exactly the outside"
    ~count:60
    QCheck.(int_range 0 5)
    (fun nboxes ->
      let d = 2 in
      let boxes = List.init nboxes (fun _ -> random_rect d) in
      let cells = Box_complement.decompose boxes d in
      let probe = Array.init d (fun _ -> Random.State.float rng 100.0) in
      let in_boxes = Box_complement.cover_test boxes probe in
      let in_cells = List.exists (fun c -> Rect.contains c probe) cells in
      (* A point outside every box must be in some cell; a point strictly
         inside a box must not be strictly inside any cell (boundaries
         may touch). Random probes are strictly inside a.s. *)
      if in_boxes then true (* cells may touch the box boundary *)
      else in_cells)

let test_box_complement_empty () =
  let cells = Box_complement.decompose [] 2 in
  Alcotest.(check int) "whole space is one cell" 1 (List.length cells);
  Alcotest.(check bool) "contains anything" true
    (List.for_all (fun c -> Rect.contains c [| 3.0; -9.0 |]) cells)

let test_box_complement_hole () =
  (* One box in the middle of a bounded domain: the probe in the hole is
     in no cell, probes around it are. *)
  let domain = Rect.of_intervals [ (0.0, 10.0); (0.0, 10.0) ] in
  let box = Rect.of_intervals [ (4.0, 6.0); (4.0, 6.0) ] in
  let cells = Box_complement.decompose ~domain [ box ] 2 in
  let interior_cell_hits =
    List.filter
      (fun c ->
        let mid =
          Array.init 2 (fun j -> (c.Rect.lo.(j) +. c.Rect.hi.(j)) /. 2.0)
        in
        Rect.contains box mid)
      cells
  in
  Alcotest.(check int) "no cell centered in the box" 0
    (List.length interior_cell_hits);
  Alcotest.(check bool) "outside point covered" true
    (List.exists (fun c -> Rect.contains c [| 1.0; 1.0 |]) cells)

(* --- Float_sort --- *)

(* Every entry point of [Float_sort] must leave exactly the permutation
   [Array.sort] leaves under the matching comparator — the order among
   equal keys included — on tie-heavy keys with nan, +-0 and +-inf.
   Entries past [len] must stay untouched. *)
let prop_float_sort_is_array_sort =
  let rngp = Random.State.make [| 8123 |] in
  QCheck.Test.make
    ~name:"float_sort = Array.sort permutation (floats, ids asc/desc)"
    ~count:400 QCheck.unit
    (fun () ->
      let n = Random.State.int rngp 401 in
      let extra = Random.State.int rngp 3 in
      let levels =
        Array.init (1 + Random.State.int rngp 5) (fun _ ->
            Float.round (Random.State.float rngp 4.0))
      in
      let specials = [| 0.0; -0.0; infinity; neg_infinity; nan |] in
      let distinct = Random.State.int rngp 4 = 0 in
      let key =
        Array.init (n + extra) (fun _ ->
            if distinct then Random.State.float rngp 1.0
            else if Random.State.int rngp 4 = 0 then
              specials.(Random.State.int rngp (Array.length specials))
            else levels.(Random.State.int rngp (Array.length levels)))
      in
      let bits a = Array.map Int64.bits_of_float a in
      (* floats *)
      let a = Array.copy key in
      Float_sort.floats a n;
      let expect = Array.sub key 0 n in
      Array.sort Float.compare expect;
      let floats_ok =
        bits a = bits (Array.append expect (Array.sub key n extra))
      in
      (* ids, both directions, over a shuffled id order *)
      let ids0 = Array.init n Fun.id in
      for i = n - 1 downto 1 do
        let j = Random.State.int rngp (i + 1) in
        let t = ids0.(i) in
        ids0.(i) <- ids0.(j);
        ids0.(j) <- t
      done;
      let ids_ok sort cmp =
        let ids = Array.append ids0 (Array.make extra (-7)) in
        let keys = Array.map (fun i -> if i < 0 then 0.5 else key.(i)) ids in
        sort keys ids n;
        let expect = Array.copy ids0 in
        Array.sort cmp expect;
        Array.sub ids 0 n = expect
        && Array.for_all (fun i -> i = -7) (Array.sub ids n extra)
        && bits keys
           = bits (Array.map (fun i -> if i < 0 then 0.5 else key.(i)) ids)
      in
      floats_ok
      && ids_ok Float_sort.ids_by_key (fun a b -> Float.compare key.(a) key.(b))
      && ids_ok Float_sort.ids_by_key_desc (fun a b ->
             Float.compare key.(b) key.(a)))

let suite =
  [
    Alcotest.test_case "rect basics" `Quick test_rect_basics;
    Alcotest.test_case "rect intersection" `Quick test_rect_inter;
    Alcotest.test_case "rect distances" `Quick test_rect_dists;
    QCheck_alcotest.to_alcotest prop_rect_max_dist_bits;
    Alcotest.test_case "rect cube and bbox" `Quick test_rect_cube_bbox;
    QCheck_alcotest.to_alcotest prop_bbd_sandwich;
    QCheck_alcotest.to_alcotest prop_bbd_counts;
    Alcotest.test_case "bbd deactivate" `Quick test_bbd_deactivate;
    Alcotest.test_case "bbd oracle weight transport" `Quick test_bbd_weights_paths;
    QCheck_alcotest.to_alcotest prop_bbd_batched_weights;
    Alcotest.test_case "csr transpose" `Quick test_csr_transpose;
    QCheck_alcotest.to_alcotest prop_wspd_candidates;
    QCheck_alcotest.to_alcotest prop_float_sort_is_array_sort;
    QCheck_alcotest.to_alcotest prop_dense_regions_invariant;
    Alcotest.test_case "dense regions max balls" `Quick
      test_dense_regions_max_balls;
    QCheck_alcotest.to_alcotest prop_box_complement;
    Alcotest.test_case "box complement: empty input" `Quick
      test_box_complement_empty;
    Alcotest.test_case "box complement: hole" `Quick test_box_complement_hole;
  ]
