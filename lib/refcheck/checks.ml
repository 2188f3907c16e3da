(* The check registry: every entry pairs an optimized substrate with a
   {!Reference} oracle or a metamorphic invariant, over tiny seeded
   random instances. Generators mix grid coordinates (small integers)
   with uniform ones so ties, duplicate points and degenerate boxes are
   common; shrinkers only propose structurally valid candidates so the
   greedy minimizer never has to re-validate.

   Exactness policy: properties compare bit-exactly whenever both sides
   compute the same float expressions (possibly in different orders of
   min/max, which are order-independent), and fall back to a 1e-9
   additive slack only for genuinely different computations (LP feasibility
   residuals, approximation-factor bounds). *)

module Point = Cso_metric.Point
module Points = Cso_metric.Points
module Space = Cso_metric.Space
module Rect = Cso_geom.Rect
module Bbd = Cso_geom.Bbd_tree
module Gonzalez = Cso_kcenter.Gonzalez
module Charikar = Cso_kcenter.Charikar_outliers
module Simplex = Cso_lp.Simplex
module Mwu = Cso_lp.Mwu
module Set_cover = Cso_setcover.Set_cover
module Instance = Cso_core.Instance
module Exact = Cso_core.Exact
module Cso_general = Cso_core.Cso_general
module Cso_disjoint = Cso_core.Cso_disjoint
module Kmedian = Cso_core.Kmedian
module Gcso_general = Cso_core.Gcso_general
module Gcso_disjoint = Cso_core.Gcso_disjoint
module Geo_instance = Cso_core.Geo_instance
module Rel = Cso_relational

let ( let* ) = Result.bind
let require cond msg = if cond then Ok () else Error msg
let requiref cond fmt = Printf.ksprintf (require cond) fmt

(* ------------------------------------------------------------------ *)
(* Generator helpers                                                  *)
(* ------------------------------------------------------------------ *)

let int_in rng lo hi = lo + Random.State.int rng (hi - lo + 1)

(* Half the coordinates land on a 5-point integer grid so duplicate
   points, zero distances and on-boundary queries are frequent. *)
let coord rng =
  if Random.State.bool rng then float_of_int (Random.State.int rng 5)
  else Random.State.float rng 4.0

(* [coord], or -0. one time in eight. *)
let signed_coord rng = if Random.State.int rng 8 = 0 then -0.0 else coord rng

let gen_points rng ~n_min ~n_max ~d_max =
  let n = int_in rng n_min n_max in
  let d = int_in rng 1 d_max in
  Array.init n (fun _ -> Array.init d (fun _ -> coord rng))

let scale2 pts = Array.map (Array.map (fun x -> 2.0 *. x)) pts

(* ------------------------------------------------------------------ *)
(* Show / shrink helpers                                              *)
(* ------------------------------------------------------------------ *)

let pt_str p =
  "("
  ^ String.concat " " (List.map (Printf.sprintf "%.17g") (Array.to_list p))
  ^ ")"

let pts_str pts =
  Printf.sprintf "%d pts: %s" (Array.length pts)
    (String.concat "; " (Array.to_list (Array.map pt_str pts)))

let ints_str l = "[" ^ String.concat ";" (List.map string_of_int l) ^ "]"

(* One candidate per dropped index [>= keep], preserving order. *)
let drop_each ?(keep = 0) arr =
  List.filter_map
    (fun i ->
      if i < keep then None
      else
        Some
          (Array.init
             (Array.length arr - 1)
             (fun j -> arr.(if j < i then j else j + 1))))
    (List.init (Array.length arr) Fun.id)

(* Snapping every coordinate to the integer grid, when it changes
   anything, usually turns a long-decimal counterexample readable. *)
let round_pts pts =
  let r = Array.map (Array.map Float.round) pts in
  if r = pts then [] else [ r ]

let sorted_ints l = List.sort_uniq compare l

(* ------------------------------------------------------------------ *)
(* metric.*                                                           *)
(* ------------------------------------------------------------------ *)

let metric_ball =
  Fuzz.make ~name:"metric.ball_vs_scan"
    ~gen:(fun rng ->
      let pts = gen_points rng ~n_min:1 ~n_max:16 ~d_max:3 in
      (pts, float_of_int (int_in rng 0 5) +. (if Random.State.bool rng then 0.0 else Random.State.float rng 1.0)))
    ~shrink:(fun (pts, r) ->
      List.map (fun p -> (p, r)) (drop_each ~keep:1 pts @ round_pts pts)
      @ (if Float.round r = r then [] else [ (pts, Float.round r) ]))
    ~show:(fun (pts, r) -> Printf.sprintf "radius=%.17g %s" r (pts_str pts))
    ~prop:(fun (pts, r) ->
      let s = Space.of_points pts in
      let fast = Space.ball s ~center:0 ~radius:r in
      let naive = Reference.ball pts ~center:pts.(0) ~radius:r in
      requiref (fast = naive) "Space.ball %s <> reference %s" (ints_str fast)
        (ints_str naive))

let metric_pairwise =
  Fuzz.make ~name:"metric.pairwise_vs_scan"
    ~gen:(fun rng -> gen_points rng ~n_min:1 ~n_max:12 ~d_max:3)
    ~shrink:(fun pts -> drop_each ~keep:1 pts @ round_pts pts)
    ~show:pts_str
    ~prop:(fun pts ->
      let s = Space.of_points pts in
      let fast = Array.to_list (Space.pairwise_distances s) in
      let naive = ref [ 0.0 ] in
      let n = Array.length pts in
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          naive := Point.l2 pts.(i) pts.(j) :: !naive
        done
      done;
      let naive = List.sort_uniq Float.compare !naive in
      requiref (fast = naive) "pairwise_distances: %d values vs naive %d"
        (List.length fast) (List.length naive))

(* [Float_sort.sort_uniq] against the heap sort it must match bit for
   bit ([Float_sort.floats]) plus a first-of-run dedupe under [=], and
   against the length that dedupe leaves. Prefixes mix nan, +-0, +-inf
   and repeats with plain values, or take a shape that troubles a
   quicksort: sorted, reversed, all equal, organ pipe, or Musser's
   median-of-3 killer, now and then with one special value planted in
   it. Entries past the prefix must stay as they were. *)
let musser_killer n =
  let a = Array.init n float_of_int in
  let k = n / 2 in
  for i = 1 to k do
    if i land 1 = 1 then begin
      a.(i - 1) <- float_of_int i;
      a.(i) <- float_of_int (k + i)
    end;
    a.(k + i - 1) <- float_of_int (2 * i)
  done;
  a

let gen_sort_prefix rng =
  let n = int_in rng 0 (if Random.State.int rng 4 = 0 then 700 else 40) in
  let specials = [| nan; -0.0; 0.0; infinity; neg_infinity |] in
  let special () = specials.(Random.State.int rng 5) in
  let value () =
    match Random.State.int rng 8 with
    | 0 -> special ()
    | 1 | 2 -> float_of_int (Random.State.int rng 4)
    | _ -> Random.State.float rng 100.0
  in
  let prefix =
    match Random.State.int rng 6 with
    | 0 -> Array.init n (fun _ -> value ())
    | 1 -> Array.init n float_of_int
    | 2 -> Array.init n (fun i -> float_of_int (n - i))
    | 3 -> Array.make n (value ())
    | 4 -> Array.init n (fun i -> float_of_int (min i (n - 1 - i)))
    | _ -> musser_killer n
  in
  if n > 0 && Random.State.int rng 4 = 0 then
    prefix.(Random.State.int rng n) <- special ();
  (prefix, Array.init (int_in rng 0 3) (fun _ -> value ()))

let floats_str a =
  String.concat " " (List.map (Printf.sprintf "%h") (Array.to_list a))

let metric_sort_uniq =
  Fuzz.make ~name:"metric.sort_uniq_vs_heap_sort" ~gen:gen_sort_prefix
    ~shrink:(fun (prefix, tail) ->
      (if tail = [||] then [] else [ (prefix, [||]) ])
      @ List.map (fun p -> (p, tail)) (drop_each prefix))
    ~show:(fun (prefix, tail) ->
      Printf.sprintf "prefix [%s] tail [%s]" (floats_str prefix)
        (floats_str tail))
    ~prop:(fun (prefix, tail) ->
      let len = Array.length prefix in
      let a = Array.append prefix tail in
      let m = Cso_metric.Float_sort.sort_uniq a len in
      let b = Array.append prefix tail in
      Cso_metric.Float_sort.floats b len;
      let out = ref 0 in
      for i = 0 to len - 1 do
        if !out = 0 || not (b.(!out - 1) = b.(i)) then begin
          b.(!out) <- b.(i);
          incr out
        end
      done;
      let bits a i n = Array.map Int64.bits_of_float (Array.sub a i n) in
      let* () =
        requiref (m = !out) "%d values kept, heap sort keeps %d" m !out
      in
      let* () =
        requiref
          (bits a 0 m = bits b 0 m)
          "kept [%s], heap sort keeps [%s]"
          (floats_str (Array.sub a 0 m))
          (floats_str (Array.sub b 0 m))
      in
      require
        (bits a len (Array.length tail) = bits b len (Array.length tail))
        "an entry past the prefix moved")

let metric_cached =
  Fuzz.make ~name:"metric.cached_identical"
    ~gen:(fun rng -> gen_points rng ~n_min:1 ~n_max:10 ~d_max:3)
    ~shrink:(fun pts -> drop_each ~keep:1 pts @ round_pts pts)
    ~show:pts_str
    ~prop:(fun pts ->
      let s = Space.of_points pts in
      let c = Space.cached s in
      let n = Array.length pts in
      let bad = ref None in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if
            not
              (Int64.equal
                 (Int64.bits_of_float (s.Space.dist i j))
                 (Int64.bits_of_float (c.Space.dist i j)))
          then bad := Some (i, j)
        done
      done;
      match !bad with
      | None -> Ok ()
      | Some (i, j) ->
          Error
            (Printf.sprintf "cached dist(%d,%d)=%.17g <> direct %.17g" i j
               (c.Space.dist i j) (s.Space.dist i j)))

(* The packed row kernel against the per-index reference (points.mli
   contract): [l2_sq_to] matches [l2_sq_idx] bitwise. *)
let metric_packed_kernels =
  Fuzz.make ~name:"metric.packed_kernels_vs_idx"
    ~gen:(fun rng ->
      let pts = gen_points rng ~n_min:1 ~n_max:14 ~d_max:5 in
      (pts, Random.State.int rng (Array.length pts)))
    ~shrink:(fun (pts, i) ->
      List.map
        (fun p -> (p, min i (Array.length p - 1)))
        (drop_each ~keep:1 pts @ round_pts pts))
    ~show:(fun (pts, i) -> Printf.sprintf "row %d of %s" i (pts_str pts))
    ~prop:(fun (pts, i) ->
      let c = Points.of_array pts in
      let n = Array.length pts in
      let dst = Array.make n nan in
      Points.l2_sq_to c i dst;
      let bits = Int64.bits_of_float in
      let bad = ref (Ok ()) in
      for j = 0 to n - 1 do
        if bits dst.(j) <> bits (Points.l2_sq_idx c i j) then
          bad :=
            requiref false "l2_sq_to(%d,%d)=%.17g <> l2_sq_idx %.17g" i j
              dst.(j) (Points.l2_sq_idx c i j)
      done;
      !bad)

(* [Guess.radius_grid]'s contract (guess.mli) over point sets with -0.,
   duplicate points and repeated coordinates, now and then with values
   in the subnormal or near-overflow range: the grid starts with 0., grows
   strictly, ends at or above every finite distance, and holds a value
   in [[d, ratio *. d]] for each finite positive distance [d]. A
   threshold probe that accepts [r >= tau], for a distance [tau] of the
   set, must make [Guess.lowest] return a value in [[tau, ratio *. tau]],
   which is what the solvers' searches rely on. The ratios are the
   solvers' shares at their default eps. *)
type grid_inst = {
  r_pts : Point.t array;
  r_ratio : float;
  r_tau : int * int;
}

let gen_radius_grid rng =
  let n = int_in rng 0 12 and d = int_in rng 1 3 in
  (* In one case of four, half the coordinates are scaled, so tiny or
     huge values sit beside plain ones. *)
  let scale =
    if Random.State.int rng 4 > 0 then 1.0
    else [| 0x1p-1070; 0x1p-537; 0x1p510; 0x1p1000 |].(Random.State.int rng 4)
  in
  let value () =
    let x = signed_coord rng in
    if Random.State.bool rng then scale *. x else x
  in
  let pts = Array.init n (fun _ -> Array.init d (fun _ -> value ())) in
  Array.iteri
    (fun i _ ->
      if i > 0 && Random.State.int rng 4 = 0 then
        pts.(i) <- Array.copy pts.(Random.State.int rng i))
    pts;
  let pick () = if n = 0 then 0 else Random.State.int rng n in
  { r_pts = pts;
    r_ratio = [| 1.06; 1.25; 1.3; 2.0 |].(Random.State.int rng 4);
    r_tau = (pick (), pick ()) }

let metric_radius_grid =
  Fuzz.make ~name:"metric.radius_grid_brackets_distances" ~gen:gen_radius_grid
    ~shrink:(fun r ->
      List.map
        (fun p ->
          let clamp i = max 0 (min i (Array.length p - 1)) in
          let i, j = r.r_tau in
          { r with r_pts = p; r_tau = (clamp i, clamp j) })
        (drop_each r.r_pts @ round_pts r.r_pts))
    ~show:(fun r ->
      Printf.sprintf "ratio=%g tau=(%d,%d) %s" r.r_ratio (fst r.r_tau)
        (snd r.r_tau) (pts_str r.r_pts))
    ~prop:(fun r ->
      let c = Points.of_array r.r_pts in
      let grid = Cso_metric.Guess.radius_grid ~ratio:r.r_ratio c in
      let len = Array.length grid in
      let* () =
        require (len > 0 && grid.(0) = 0.0) "the grid does not start with 0."
      in
      let* () =
        let rec from i =
          if i >= len then Ok ()
          else if Float.is_finite grid.(i) && grid.(i - 1) < grid.(i) then
            from (i + 1)
          else requiref false "grid.(%d) = %h after %h" i grid.(i) grid.(i - 1)
        in
        from 1
      in
      let n = Array.length r.r_pts in
      let bad = ref (Ok ()) in
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          let d = Points.l2_idx c i j in
          if !bad = Ok () && Float.is_finite d then
            if d > grid.(len - 1) then
              bad :=
                requiref false "distance %h (%d,%d) above the last value %h"
                  d i j grid.(len - 1)
            else if
              d > 0.0
              && not
                   (Array.exists (fun g -> d <= g && g <= r.r_ratio *. d) grid)
            then
              bad :=
                requiref false "no value in [%h, ratio * %h] (%d,%d)" d d i j
        done
      done;
      let* () = !bad in
      let tau =
        if n = 0 then 0.0 else Points.l2_idx c (fst r.r_tau) (snd r.r_tau)
      in
      if not (Float.is_finite tau) then Ok ()
      else
        match
          Cso_metric.Guess.lowest len (fun i ->
              if grid.(i) >= tau then Some () else None)
        with
        | Some (i, ()) ->
            requiref (grid.(i) <= r.r_ratio *. tau)
              "the search accepts %h, above ratio * tau = ratio * %h" grid.(i)
              tau
        | None -> requiref false "the search accepts no value for tau = %h" tau)

(* ------------------------------------------------------------------ *)
(* geom.*                                                             *)
(* ------------------------------------------------------------------ *)

type ball_inst = {
  b_pts : Point.t array;
  b_center : Point.t;
  b_radius : float;
  b_eps : float;
}

let gen_ball_inst ?(n_min = 0) rng =
  let pts = gen_points rng ~n_min:(max 1 n_min) ~n_max:20 ~d_max:3 in
  let pts = if n_min = 0 && Random.State.int rng 20 = 0 then [||] else pts in
  let d = if Array.length pts = 0 then 2 else Array.length pts.(0) in
  {
    b_pts = pts;
    b_center = Array.init d (fun _ -> coord rng);
    b_radius = float_of_int (int_in rng 0 4) +. (if Random.State.bool rng then 0.0 else Random.State.float rng 1.0);
    b_eps = [| 0.1; 0.3; 1.0 |].(Random.State.int rng 3);
  }

let shrink_ball_inst b =
  List.map (fun p -> { b with b_pts = p }) (drop_each b.b_pts @ round_pts b.b_pts)
  @ (if Float.round b.b_radius = b.b_radius then []
     else [ { b with b_radius = Float.round b.b_radius } ])

let show_ball_inst b =
  Printf.sprintf "center=%s radius=%.17g eps=%g %s" (pt_str b.b_center)
    b.b_radius b.b_eps (pts_str b.b_pts)

let geom_bbd_sandwich =
  Fuzz.make ~name:"geom.bbd_sandwich" ~gen:gen_ball_inst
    ~shrink:shrink_ball_inst ~show:show_ball_inst
    ~prop:(fun b ->
      let t = Bbd.build_packed (Points.of_array b.b_pts) in
      let nodes =
        Bbd.ball_query t ~center:b.b_center ~radius:b.b_radius ~eps:b.b_eps
      in
      let union = List.concat_map (Bbd.points_of_node t) nodes in
      let sorted = List.sort compare union in
      let* () =
        require
          (List.length sorted = List.length (sorted_ints sorted))
          "canonical nodes are not disjoint"
      in
      let inner =
        Reference.ball b.b_pts ~center:b.b_center ~radius:b.b_radius
      in
      let outer =
        Reference.ball b.b_pts ~center:b.b_center
          ~radius:((1.0 +. b.b_eps) *. b.b_radius)
      in
      let* () =
        requiref
          (List.for_all (fun i -> List.mem i sorted) inner)
          "inner ball %s not covered by union %s" (ints_str inner)
          (ints_str sorted)
      in
      requiref
        (List.for_all (fun i -> List.mem i outer) sorted)
        "union %s escapes (1+eps) ball %s" (ints_str sorted) (ints_str outer))

let geom_bbd_balls_all =
  Fuzz.make ~name:"geom.bbd_balls_all_vs_queries"
    ~gen:(fun rng -> gen_ball_inst ~n_min:1 rng)
    ~shrink:shrink_ball_inst ~show:show_ball_inst
    ~prop:(fun b ->
      let t = Bbd.build_packed (Points.of_array b.b_pts) in
      let batched = Bbd.balls_all t ~radius:b.b_radius ~eps:b.b_eps in
      let looped =
        Array.init (Array.length b.b_pts) (fun i ->
            Bbd.ball_query t ~center:b.b_pts.(i) ~radius:b.b_radius
              ~eps:b.b_eps)
      in
      require (batched = looped) "balls_all differs from per-point ball_query")

let geom_bbd_scale =
  Fuzz.make ~name:"geom.bbd_scale_invariance"
    ~gen:(fun rng -> gen_ball_inst ~n_min:1 rng)
    ~shrink:shrink_ball_inst ~show:show_ball_inst
    ~prop:(fun b ->
      (* Doubling every coordinate, the center and the radius is exact in
         floating point, so the tree makes identical comparisons and must
         return identical canonical node ids. *)
      let q pts center radius =
        Bbd.ball_query
          (Bbd.build_packed (Points.of_array pts))
          ~center ~radius ~eps:b.b_eps
      in
      let base = q b.b_pts b.b_center b.b_radius in
      let scaled =
        q (scale2 b.b_pts)
          (Array.map (fun x -> 2.0 *. x) b.b_center)
          (2.0 *. b.b_radius)
      in
      requiref (base = scaled) "nodes %s (base) <> %s (x2 scaled)"
        (ints_str base) (ints_str scaled))

let gen_rect rng d =
  Rect.of_intervals
    (List.init d (fun _ ->
         if Random.State.int rng 4 = 0 then (neg_infinity, infinity)
         else
           let a = coord rng and b = coord rng in
           (Float.min a b, Float.max a b)))

(* Row j of [Geo_instance.rect_members], which is all the geometric
   rows read of rectangle j, against the [Rect.contains] scan
   [Reference.range_report], ascending; and [frequency] against the
   largest number of rectangles one point lies in, counted by the same
   scan. The points come with duplicates and -0. coordinates, and one
   instance in twenty has none. The rectangles have infinite and
   degenerate (lo = hi) bounds; a closing [Rect.unbounded d] covers
   every point, as [Geo_instance.make] requires. *)
let gcso_rect_members =
  Fuzz.make ~name:"gcso.rect_members_vs_scan"
    ~gen:(fun rng ->
      let neg0 x = if x = 0.0 && Random.State.bool rng then -0.0 else x in
      let pts =
        Array.map (Array.map neg0) (gen_points rng ~n_min:1 ~n_max:16 ~d_max:3)
      in
      let pts = if Random.State.int rng 20 = 0 then [||] else pts in
      let d = if Array.length pts = 0 then 2 else Array.length pts.(0) in
      (d, pts, Array.init (int_in rng 0 4) (fun _ -> gen_rect rng d)))
    ~shrink:(fun (d, pts, rects) ->
      List.map (fun p -> (d, p, rects)) (drop_each pts @ round_pts pts)
      @ List.map (fun r -> (d, pts, r)) (drop_each rects))
    ~show:(fun (_, pts, rects) ->
      Format.asprintf "rects=%a %s"
        (Format.pp_print_list Rect.pp)
        (Array.to_list rects) (pts_str pts))
    ~prop:(fun (d, pts, rects) ->
      let rects = Array.append rects [| Rect.unbounded d |] in
      let g = Geo_instance.make ~points:pts ~rects ~k:1 ~z:0 in
      let { Cso_geom.Csr.offsets = off; ids } = Geo_instance.rect_members g in
      let got =
        List.init (Array.length rects) (fun j ->
            Array.to_list (Array.sub ids off.(j) (off.(j + 1) - off.(j))))
      in
      let want = Array.to_list (Array.map (Reference.range_report pts) rects) in
      let rows l = String.concat " " (List.map ints_str l) in
      let* () =
        requiref (got = want) "members %s <> scan %s" (rows got) (rows want)
      in
      let count = Array.make (Array.length pts) 0 in
      List.iter (List.iter (fun i -> count.(i) <- count.(i) + 1)) want;
      let f = Array.fold_left max 0 count in
      requiref (Geo_instance.frequency g = f) "frequency %d <> scan %d"
        (Geo_instance.frequency g) f)

(* The flat WSPD lattice against the boxed tree it replaced
   ([Reference.wspd_candidate_distances]): every candidate bit for bit,
   and the same geom.wspd.* / metric.dist_evals counter deltas and
   separation-ratio histogram deltas. Inputs in 1-3 dimensions, with
   collinear runs, duplicate points and infinite coordinates (whose
   boxes have nan centers) in the mix. *)
type lattice_inst = { l_pts : Point.t array; l_eps : float }

let gen_lattice rng =
  let n = int_in rng 0 24 and d = int_in rng 1 3 in
  let pts = Array.init n (fun _ -> Array.init d (fun _ -> coord rng)) in
  let pts =
    match Random.State.int rng 4 with
    | 0 ->
        (* collinear: a + t v *)
        let a = Array.init d (fun _ -> coord rng)
        and v = Array.init d (fun _ -> float_of_int (int_in rng (-2) 2)) in
        Array.map
          (fun _ ->
            let t = coord rng in
            Array.mapi (fun j x -> x +. (t *. v.(j))) a)
          pts
    | 1 ->
        (* duplicates of earlier points *)
        Array.iteri
          (fun i _ ->
            if i > 0 && Random.State.bool rng then
              pts.(i) <- Array.copy pts.(Random.State.int rng i))
          pts;
        pts
    | 2 ->
        Array.map
          (Array.map (fun x ->
               match Random.State.int rng 8 with
               | 0 -> infinity
               | 1 -> neg_infinity
               | _ -> x))
          pts
    | _ -> pts
  in
  { l_pts = pts;
    l_eps = [| 0.1; 0.25; 0.5; 1.0; 2.0 |].(Random.State.int rng 5) }

let geom_wspd_lattice =
  Fuzz.make ~name:"geom.wspd_lattice_vs_reference" ~gen:gen_lattice
    ~shrink:(fun l ->
      List.map (fun p -> { l with l_pts = p })
        (drop_each l.l_pts @ round_pts l.l_pts))
    ~show:(fun l -> Printf.sprintf "eps=%g %s" l.l_eps (pts_str l.l_pts))
    ~prop:(fun l ->
      let coords = Cso_metric.Points.of_array l.l_pts in
      let observed f =
        let (gamma, counters), hists =
          Cso_obs.Obs.Hist.with_delta (fun () ->
              Cso_obs.Obs.with_delta (fun () -> f ~eps:l.l_eps coords))
        in
        let counters =
          List.filter
            (fun (c, _) ->
              c = "metric.dist_evals"
              || String.starts_with ~prefix:"geom.wspd." c)
            counters
        in
        (Array.map Int64.bits_of_float gamma, counters,
         List.assoc_opt "geom.wspd.pair_sep_ratio" hists)
      in
      let flat, fc, fh =
        observed (fun ~eps c -> Cso_geom.Wspd.candidate_distances_packed ~eps c)
      in
      let reference, rc, rh =
        observed (fun ~eps c -> Reference.wspd_candidate_distances ~eps c)
      in
      let* () =
        let common = min (Array.length flat) (Array.length reference) in
        let rec first i =
          if i >= common || flat.(i) <> reference.(i) then i else first (i + 1)
        in
        requiref (flat = reference)
          "candidates differ from index %d on: %d flat vs %d reference"
          (first 0) (Array.length flat) (Array.length reference)
      in
      let show l =
        String.concat "," (List.map (fun (c, v) -> Printf.sprintf "%s=%d" c v) l)
      in
      let* () =
        requiref (fc = rc) "counter deltas differ: %s vs %s" (show fc) (show rc)
      in
      require (fh = rh) "pair_sep_ratio histogram deltas differ")

(* The complement grid against the list version it replaced
   ([Reference.box_complement]): the same cells in the same order, bit
   for bit, whole or cut short by [find_map]. Faces mix grid and uniform
   values, -0. beside 0., and the infinities; boxes may be flat, nested
   or repeated, and a third of the instances clip to a domain. A
   [keep] seeded by [bx_keep] accepts a prefix of intervals as a hash
   of its bits decides; [find_map ~keep] must visit exactly the
   reference cells whose every prefix it accepts, and call it once on
   each prefix it reaches, with the scratch cell's first dimensions
   equal to the reference cell's. *)
type boxes_inst = {
  bx_d : int;
  bx_boxes : Rect.t list;
  bx_domain : Rect.t option;
  bx_keep : int;
}

let box_face rng =
  match Random.State.int rng 8 with
  | 0 -> -0.0
  | 1 -> 0.0
  | 2 -> neg_infinity
  | 3 -> infinity
  | _ -> coord rng

let gen_box rng d =
  Rect.of_intervals
    (List.init d (fun _ ->
         let a = box_face rng in
         let b = if Random.State.int rng 4 = 0 then a else box_face rng in
         if Float.compare a b <= 0 then (a, b) else (b, a)))

let gen_boxes rng =
  let d = int_in rng 1 3 in
  let boxes = List.init (int_in rng 0 3) (fun _ -> gen_box rng d) in
  let boxes =
    match boxes with
    | b :: _ when Random.State.int rng 4 = 0 -> b :: boxes
    | _ -> boxes
  in
  let domain =
    if Random.State.int rng 3 = 0 then Some (gen_box rng d) else None
  in
  { bx_d = d; bx_boxes = boxes; bx_domain = domain;
    bx_keep = Random.State.bits rng }

let rect_str (r : Rect.t) =
  String.concat "x"
    (Array.to_list
       (Array.mapi
          (fun i lo -> Printf.sprintf "[%.17g,%.17g]" lo r.Rect.hi.(i))
          r.Rect.lo))

let geom_box_complement =
  Fuzz.make ~name:"geom.box_complement_vs_reference" ~gen:gen_boxes
    ~shrink:(fun b ->
      List.init (List.length b.bx_boxes) (fun i ->
          { b with bx_boxes = List.filteri (fun j _ -> j <> i) b.bx_boxes })
      @ if b.bx_domain = None then [] else [ { b with bx_domain = None } ])
    ~show:(fun b ->
      Printf.sprintf "d=%d domain=%s boxes=%s keep=%d" b.bx_d
        (match b.bx_domain with Some r -> rect_str r | None -> "none")
        (String.concat " " (List.map rect_str b.bx_boxes))
        b.bx_keep)
    ~prop:(fun b ->
      let bits (r : Rect.t) =
        (Array.map Int64.bits_of_float r.Rect.lo,
         Array.map Int64.bits_of_float r.Rect.hi)
      in
      let cells =
        List.map bits
          (Cso_geom.Box_complement.decompose ?domain:b.bx_domain b.bx_boxes
             b.bx_d)
      in
      let reference_cells =
        Reference.box_complement ?domain:b.bx_domain b.bx_boxes b.bx_d
      in
      let reference = List.map bits reference_cells in
      let rec first i = function
        | x :: xs, y :: ys -> if x = y then first (i + 1) (xs, ys) else i
        | _ -> i
      in
      let* () =
        requiref (cells = reference)
          "%d cells vs %d reference cells, first difference at cell %d"
          (List.length cells) (List.length reference)
          (first 0 (cells, reference))
      in
      (* [find_map] stops at the middle cell, which it hands over as is. *)
      let stop = List.length reference / 2 in
      let seen = ref 0 in
      let found =
        Cso_geom.Box_complement.find_map ?domain:b.bx_domain b.bx_boxes b.bx_d
          (fun c ->
            incr seen;
            if !seen > stop then Some (bits c) else None)
      in
      let* () =
        requiref
          (found = List.nth_opt reference stop)
          "find_map stopped at cell %d of %d on a different cell" stop
          (List.length reference)
      in
      let prefix j (r : Rect.t) =
        let lo, hi = bits r in
        (j, Array.sub lo 0 (j + 1), Array.sub hi 0 (j + 1))
      in
      let keeps (j, lo, hi) =
        let key =
          String.concat ","
            (List.map (Printf.sprintf "%Lx")
               (Array.to_list lo @ Array.to_list hi))
        in
        Hashtbl.seeded_hash b.bx_keep (j, key) land 3 <> 0
      in
      let calls = ref [] and visited = ref [] in
      ignore
        (Cso_geom.Box_complement.find_map ?domain:b.bx_domain
           ~keep:(fun j c ->
             let p = prefix j c in
             calls := p :: !calls;
             keeps p)
           b.bx_boxes b.bx_d
           (fun c ->
             visited := bits c :: !visited;
             None));
      let calls = List.rev !calls and visited = List.rev !visited in
      (* Prefix [j] of a cell is reached when [keep] accepts every
         shorter one. *)
      let reached c j =
        List.for_all (fun i -> keeps (prefix i c)) (List.init j Fun.id)
      in
      let kept = List.filter (fun c -> reached c b.bx_d) reference_cells in
      let* () =
        requiref (visited = List.map bits kept)
          "find_map ~keep visited %d cells, the reference's accepted %d"
          (List.length visited) (List.length kept)
      in
      let* () =
        requiref
          (List.length (List.sort_uniq compare calls) = List.length calls)
          "keep called twice on one prefix (%d calls)" (List.length calls)
      in
      require
        (List.for_all
           (fun c ->
             List.for_all
               (fun j -> (not (reached c j)) || List.mem (prefix j c) calls)
               (List.init b.bx_d Fun.id))
           reference_cells)
        "keep never saw a reached prefix of a reference cell")

(* ------------------------------------------------------------------ *)
(* kcenter.*                                                          *)
(* ------------------------------------------------------------------ *)

let gen_kcenter rng =
  let pts = gen_points rng ~n_min:1 ~n_max:12 ~d_max:3 in
  (pts, int_in rng 1 3)

let shrink_kcenter (pts, k) =
  List.map (fun p -> (p, k)) (drop_each ~keep:1 pts @ round_pts pts)
  @ if k > 1 then [ (pts, k - 1) ] else []

let show_kcenter (pts, k) = Printf.sprintf "k=%d %s" k (pts_str pts)

let kcenter_gonzalez =
  Fuzz.make ~name:"kcenter.gonzalez_2approx" ~gen:gen_kcenter
    ~shrink:shrink_kcenter ~show:show_kcenter
    ~prop:(fun (pts, k) ->
      let centers, r = Gonzalez.run_points pts ~k in
      let* () =
        requiref (List.length centers <= k) "%d centers > k=%d"
          (List.length centers) k
      in
      let s = Space.of_points pts in
      let all = List.init (Array.length pts) Fun.id in
      let cost = Reference.kcenter_cost s ~centers all in
      let* () =
        requiref (cost = r) "returned radius %.17g <> recomputed cost %.17g" r
          cost
      in
      let fast_centers, fast_r = Gonzalez.run_packed (Points.of_array pts) ~k in
      let* () =
        require (fast_centers = centers && fast_r = r)
          "run_packed differs from run_points"
      in
      let opt = Reference.kcenter_opt s ~subset:all ~k in
      requiref
        (r <= (2.0 *. opt) +. 1e-9)
        "radius %.17g > 2*opt = %.17g" r (2.0 *. opt))

let kcenter_gonzalez_scale =
  Fuzz.make ~name:"kcenter.gonzalez_scale_invariance" ~gen:gen_kcenter
    ~shrink:shrink_kcenter ~show:show_kcenter
    ~prop:(fun (pts, k) ->
      let c1, r1 = Gonzalez.run_points pts ~k in
      let c2, r2 = Gonzalez.run_points (scale2 pts) ~k in
      let* () =
        requiref (c1 = c2) "centers %s <> scaled centers %s" (ints_str c1)
          (ints_str c2)
      in
      requiref
        (Int64.equal (Int64.bits_of_float r2) (Int64.bits_of_float (2.0 *. r1)))
        "scaled radius %.17g <> 2 * %.17g" r2 r1)

let kcenter_charikar =
  Fuzz.make ~name:"kcenter.charikar_3approx"
    ~gen:(fun rng ->
      let pts = gen_points rng ~n_min:3 ~n_max:8 ~d_max:2 in
      (pts, int_in rng 1 2, int_in rng 0 2))
    ~shrink:(fun (pts, k, z) ->
      (if Array.length pts > 3 then
         List.map (fun p -> (p, k, z)) (drop_each pts)
       else [])
      @ List.map (fun p -> (p, k, z)) (round_pts pts)
      @ (if z > 0 then [ (pts, k, z - 1) ] else [])
      @ if k > 1 then [ (pts, k - 1, z) ] else [])
    ~show:(fun (pts, k, z) -> Printf.sprintf "k=%d z=%d %s" k z (pts_str pts))
    ~prop:(fun (pts, k, z) ->
      let s = Space.cached (Space.of_points pts) in
      let res = Charikar.run s ~k ~z in
      let* () =
        requiref
          (List.length res.Charikar.centers <= k)
          "%d centers > k=%d"
          (List.length res.Charikar.centers)
          k
      in
      let* () =
        requiref
          (List.length res.Charikar.outliers <= z)
          "%d outliers > z=%d"
          (List.length res.Charikar.outliers)
          z
      in
      let keep =
        List.filter
          (fun i -> not (List.mem i res.Charikar.outliers))
          (List.init (Array.length pts) Fun.id)
      in
      let cost = Reference.kcenter_cost s ~centers:res.Charikar.centers keep in
      let* () =
        requiref
          (cost <= res.Charikar.radius +. 1e-9)
          "survivors cost %.17g > reported radius %.17g" cost
          res.Charikar.radius
      in
      let opt = Reference.kcenter_outliers_opt s ~k ~z in
      requiref
        (res.Charikar.radius <= (3.0 *. opt) +. 1e-9)
        "radius %.17g > 3*opt = %.17g" res.Charikar.radius (3.0 *. opt))

(* ------------------------------------------------------------------ *)
(* lp.*                                                               *)
(* ------------------------------------------------------------------ *)

(* Two branches: upper bounds drawn from 1..5, or every variable in
   [0, +inf), where no bound row is built and the duals alone certify
   an optimum. [~unbounded] forces the branch. *)
let gen_problem ?unbounded rng =
  let unbounded =
    match unbounded with Some u -> u | None -> Random.State.bool rng
  in
  let nv = int_in rng 1 4 and nc = int_in rng 0 5 in
  let row () = Array.init nv (fun _ -> float_of_int (int_in rng (-3) 3)) in
  {
    Simplex.num_vars = nv;
    objective = row ();
    constraints =
      List.init nc (fun _ ->
          let op =
            match Random.State.int rng 3 with
            | 0 -> Simplex.Le
            | 1 -> Simplex.Ge
            | _ -> Simplex.Eq
          in
          (row (), op, float_of_int (int_in rng (-6) 6)));
    bounds =
      Array.init nv (fun _ ->
          (0.0, if unbounded then infinity else float_of_int (int_in rng 1 5)));
  }

let shrink_problem (p : Simplex.problem) =
  let drop_constraint i =
    { p with Simplex.constraints = List.filteri (fun j _ -> j <> i) p.Simplex.constraints }
  in
  List.init (List.length p.Simplex.constraints) drop_constraint
  @
  if Array.exists (fun c -> c <> 0.0) p.Simplex.objective then
    [ { p with Simplex.objective = Array.map (fun _ -> 0.0) p.Simplex.objective } ]
  else []

let show_problem (p : Simplex.problem) =
  let row a = String.concat " " (Array.to_list (Array.map (Printf.sprintf "%g") a)) in
  Printf.sprintf "max [%s] s.t. %s bounds [%s]" (row p.Simplex.objective)
    (String.concat "; "
       (List.map
          (fun (a, op, b) ->
            Printf.sprintf "[%s] %s %g" (row a)
              (match op with Simplex.Le -> "<=" | Ge -> ">=" | Eq -> "=")
              b)
          p.Simplex.constraints))
    (String.concat " "
       (Array.to_list
          (Array.map (fun (lo, hi) -> Printf.sprintf "%g..%g" lo hi) p.Simplex.bounds)))

let lp_flat_vs_reference =
  Fuzz.make ~name:"lp.simplex_flat_vs_reference" ~gen:gen_problem
    ~shrink:shrink_problem ~show:show_problem
    ~prop:(fun p ->
      let bits a = Array.map Int64.bits_of_float a in
      match (Simplex.solve p, Reference.simplex_solve p) with
      | Simplex.Infeasible, Simplex.Infeasible
      | Simplex.Unbounded, Simplex.Unbounded ->
          Ok ()
      | Simplex.Optimal o1, Simplex.Optimal o2 ->
          let* () =
            requiref
              (Int64.equal
                 (Int64.bits_of_float o1.value)
                 (Int64.bits_of_float o2.value))
              "flat value %.17g <> reference value %.17g" o1.value o2.value
          in
          let* () =
            require (o1.solution = o2.solution)
              "flat solution differs from reference solution"
          in
          require (bits o1.duals = bits o2.duals)
            "flat duals differ from reference duals"
      | a, b ->
          let str = function
            | Simplex.Optimal { value; _ } -> Printf.sprintf "Optimal %g" value
            | Simplex.Infeasible -> "Infeasible"
            | Simplex.Unbounded -> "Unbounded"
          in
          Error (Printf.sprintf "flat %s <> reference %s" (str a) (str b)))

let lp_optimal_feasible =
  Fuzz.make ~name:"lp.simplex_optimal_is_feasible" ~gen:gen_problem
    ~shrink:shrink_problem ~show:show_problem
    ~prop:(fun p ->
      let feasible = Simplex.feasible_point p <> None in
      match Simplex.solve p with
      | Simplex.Infeasible ->
          require (not feasible) "solve Infeasible but feasible_point = Some"
      | Simplex.Unbounded -> require feasible "Unbounded but no feasible point"
      | Simplex.Optimal { value; solution = x; _ } ->
          let* () = require feasible "Optimal but feasible_point = None" in
          let* () =
            require
              (Array.for_all2
                 (fun (lo, hi) v -> lo -. 1e-9 <= v && v <= hi +. 1e-9)
                 p.Simplex.bounds x)
              "optimal solution violates variable bounds"
          in
          let dot a = Array.fold_left ( +. ) 0.0 (Array.map2 ( *. ) a x) in
          let* () =
            require
              (List.for_all
                 (fun (a, op, b) ->
                   match op with
                   | Simplex.Le -> dot a <= b +. 1e-6
                   | Simplex.Ge -> dot a >= b -. 1e-6
                   | Simplex.Eq -> abs_float (dot a -. b) <= 1e-6)
                 p.Simplex.constraints)
              "optimal solution violates a constraint"
          in
          requiref
            (abs_float (dot p.Simplex.objective -. value) <= 1e-6)
            "objective %.17g <> reported value %.17g" (dot p.Simplex.objective)
            value)

(* Weak duality made exact: over [0, +inf) bounds the solution and the
   duals are a primal-dual pair with equal objectives, so each is
   optimal. The problem is a max, hence Le prices are >= 0 and Ge
   prices <= 0, up to the 1e-9 pricing tolerance. *)
let lp_duals_certify =
  Fuzz.make ~name:"lp.simplex_duals_certify"
    ~gen:(fun rng -> gen_problem ~unbounded:true rng)
    ~shrink:shrink_problem ~show:show_problem
    ~prop:(fun p ->
      match Simplex.solve p with
      | Simplex.Infeasible | Simplex.Unbounded -> Ok ()
      | Simplex.Optimal { value; duals = y; _ } ->
          let rows = Array.of_list p.Simplex.constraints in
          let sum f = Array.fold_left ( +. ) 0.0 (Array.mapi f rows) in
          let ys =
            String.concat " " (Array.to_list (Array.map (Printf.sprintf "%g") y))
          in
          let* () =
            requiref (Array.length y = Array.length rows) "%d duals for %d rows"
              (Array.length y) (Array.length rows)
          in
          let* () =
            requiref
              (Array.for_all Fun.id
                 (Array.mapi
                    (fun i (_, op, _) ->
                      match op with
                      | Simplex.Le -> y.(i) >= -1e-9
                      | Simplex.Ge -> y.(i) <= 1e-9
                      | Simplex.Eq -> true)
                    rows))
              "duals [%s]: a Le price < 0 or a Ge price > 0" ys
          in
          let* () =
            requiref
              (List.for_all
                 (fun v ->
                   sum (fun i (a, _, _) -> a.(v) *. y.(i))
                   >= p.Simplex.objective.(v) -. 1e-6)
                 (List.init p.Simplex.num_vars Fun.id))
              "duals [%s]: A^T y < c" ys
          in
          let bty = sum (fun i (_, _, b) -> b *. y.(i)) in
          requiref
            (abs_float (bty -. value) <= 1e-6)
            "duals [%s]: b.y = %.17g <> value %.17g" ys bty value)

(* [Simplex.solve_below] against [Simplex.solve]. Lower bounds of 0..2
   go on top of [gen_problem]'s, so that the tableau's shifted value
   differs from the objective the cutoff is compared with. The cutoff
   sits [delta] from the full optimum (below, at or above it), or at
   [delta] when there is none. A solve that is not stopped is [solve]'s,
   bit for bit; a stopped one has a full optimum above the cutoff, or
   none (unbounded). *)
let lp_cutoff_vs_full =
  Fuzz.make ~name:"lp.simplex_cutoff_vs_full"
    ~gen:(fun rng ->
      let p = gen_problem rng in
      let bounds =
        Array.map
          (fun (_, hi) ->
            let lo = float_of_int (int_in rng 0 2) in
            (lo, lo +. hi))
          p.Simplex.bounds
      in
      let deltas = [| -2.0; -0.5; 0.0; 0.5; 2.0 |] in
      ({ p with Simplex.bounds }, deltas.(Random.State.int rng 5)))
    ~shrink:(fun (p, delta) -> List.map (fun p -> (p, delta)) (shrink_problem p))
    ~show:(fun (p, delta) -> Printf.sprintf "%s; cutoff delta %g" (show_problem p) delta)
    ~prop:(fun (p, delta) ->
      let bits = function
        | Simplex.Optimal { value; solution; duals } ->
            let b = Array.map Int64.bits_of_float in
            `Optimal (Int64.bits_of_float value, b solution, b duals)
        | Simplex.Infeasible -> `Infeasible
        | Simplex.Unbounded -> `Unbounded
      in
      let full = Simplex.solve p in
      let cutoff =
        match full with
        | Simplex.Optimal { value; _ } -> value +. delta
        | Simplex.Infeasible | Simplex.Unbounded -> delta
      in
      match (Simplex.solve_below ~cutoff p, full) with
      | Some o, _ ->
          require (bits o = bits full) "unstopped solve differs from solve"
      | None, Simplex.Optimal { value; _ } ->
          requiref (value > cutoff -. 1e-9)
            "stopped at cutoff %.17g but the optimum is %.17g" cutoff value
      | None, Simplex.Unbounded -> Ok ()
      | None, Simplex.Infeasible -> Error "stopped an infeasible problem")

type mwu_inst = { m_a : float array array; m_b : float array }

let lp_mwu_vs_simplex =
  Fuzz.make ~name:"lp.mwu_vs_simplex"
    ~gen:(fun rng ->
      let m = int_in rng 1 4 and nv = int_in rng 1 3 in
      {
        m_a =
          Array.init m (fun _ ->
              Array.init nv (fun _ -> float_of_int (int_in rng (-3) 3)));
        m_b = Array.init m (fun _ -> float_of_int (int_in rng (-2) 2));
      })
    ~shrink:(fun inst ->
      List.filter_map
        (fun i ->
          if Array.length inst.m_a <= 1 then None
          else
            Some
              {
                m_a = Array.of_list (List.filteri (fun j _ -> j <> i) (Array.to_list inst.m_a));
                m_b = Array.of_list (List.filteri (fun j _ -> j <> i) (Array.to_list inst.m_b));
              })
        (List.init (Array.length inst.m_a) Fun.id))
    ~show:(fun inst ->
      String.concat "; "
        (Array.to_list
           (Array.mapi
              (fun i row ->
                Printf.sprintf "[%s] >= %g"
                  (String.concat " "
                     (Array.to_list (Array.map (Printf.sprintf "%g") row)))
                  inst.m_b.(i))
              inst.m_a)))
    ~prop:(fun inst ->
      let m = Array.length inst.m_a in
      let nv = Array.length inst.m_a.(0) in
      (* Row-normalize so width = 1 on the [0,1]^nv box, exactly as the
         MWU contract requires. *)
      let w =
        Array.init m (fun i ->
            Array.fold_left (fun acc v -> acc +. abs_float v) 0.0 inst.m_a.(i)
            +. abs_float inst.m_b.(i) +. 1.0)
      in
      let a' = Array.mapi (fun i row -> Array.map (fun v -> v /. w.(i)) row) inst.m_a in
      let b' = Array.mapi (fun i v -> v /. w.(i)) inst.m_b in
      let eps = 0.3 in
      let row_dot i x =
        let acc = ref 0.0 in
        for j = 0 to nv - 1 do
          acc := !acc +. (a'.(i).(j) *. x.(j))
        done;
        !acc
      in
      let oracle sigma =
        (* Best response over the box: x_j = 1 iff its aggregated
           coefficient is positive. *)
        let x =
          Array.init nv (fun j ->
              let c = ref 0.0 in
              for i = 0 to m - 1 do
                c := !c +. (sigma.(i) *. a'.(i).(j))
              done;
              if !c > 0.0 then 1.0 else 0.0)
        in
        let lhs = ref 0.0 and rhs = ref 0.0 in
        for i = 0 to m - 1 do
          lhs := !lhs +. (sigma.(i) *. row_dot i x);
          rhs := !rhs +. (sigma.(i) *. b'.(i))
        done;
        if !lhs >= !rhs -. 1e-12 then Some x else None
      in
      let violation x = Array.init m (fun i -> row_dot i x -. b'.(i)) in
      let mwu = Mwu.run ~m ~width:1.0 ~eps ~oracle ~violation () in
      let lp =
        {
          Simplex.num_vars = nv;
          objective = Array.make nv 0.0;
          constraints =
            List.init m (fun i ->
                (Array.copy inst.m_a.(i), Simplex.Ge, inst.m_b.(i)));
          bounds = Simplex.box nv;
        }
      in
      let feasible = Simplex.feasible_point lp <> None in
      match mwu with
      | Mwu.Infeasible ->
          require (not feasible) "MWU certified infeasible but simplex found a point"
      | Mwu.Feasible sols ->
          if not feasible then Ok () (* MWU Feasible is not a certificate *)
          else
            let* () = require (sols <> []) "Feasible with no iterates" in
            let t = float_of_int (List.length sols) in
            let x_hat = Array.make nv 0.0 in
            List.iter
              (fun x -> Array.iteri (fun j v -> x_hat.(j) <- x_hat.(j) +. (v /. t)) x)
              sols;
            let worst = ref infinity in
            for i = 0 to m - 1 do
              worst := Float.min !worst (row_dot i x_hat -. b'.(i))
            done;
            requiref
              (!worst >= -.eps -. 1e-9)
              "averaged MWU solution violates a constraint by %.17g > eps=%g"
              (-. !worst) eps)

(* ------------------------------------------------------------------ *)
(* setcover.*                                                         *)
(* ------------------------------------------------------------------ *)

let gen_cover rng =
  let n = int_in rng 1 8 and m = int_in rng 1 6 in
  let sets =
    Array.init m (fun _ ->
        List.filter (fun _ -> Random.State.int rng 3 = 0) (List.init n Fun.id))
  in
  (* Patch coverage: every element must belong to at least one set. *)
  for e = 0 to n - 1 do
    if not (Array.exists (List.mem e) sets) then begin
      let j = Random.State.int rng m in
      sets.(j) <- List.sort compare (e :: sets.(j))
    end
  done;
  Set_cover.make ~n_elements:n (Array.to_list sets)

let shrink_cover (sc : Set_cover.t) =
  (* Drop a set when coverage survives without it. *)
  List.filter_map
    (fun j ->
      let kept =
        List.filteri (fun i _ -> i <> j) (Array.to_list sc.Set_cover.sets)
      in
      if
        List.length kept > 0
        && List.for_all
             (fun e -> List.exists (List.mem e) kept)
             (List.init sc.Set_cover.n_elements Fun.id)
      then Some (Set_cover.make ~n_elements:sc.Set_cover.n_elements kept)
      else None)
    (List.init (Array.length sc.Set_cover.sets) Fun.id)

let show_cover (sc : Set_cover.t) =
  Printf.sprintf "n=%d sets=%s" sc.Set_cover.n_elements
    (String.concat " " (Array.to_list (Array.map ints_str sc.Set_cover.sets)))

let setcover_greedy =
  Fuzz.make ~name:"setcover.greedy_vs_bruteforce" ~gen:gen_cover
    ~shrink:shrink_cover ~show:show_cover
    ~prop:(fun sc ->
      let g = Set_cover.greedy sc in
      let* () = require (Set_cover.is_cover sc g) "greedy output is not a cover" in
      let g_ref = Reference.greedy_cover sc in
      let* () =
        require (Set_cover.is_cover sc g_ref) "reference greedy is not a cover"
      in
      let opt = Reference.cover_opt_size sc in
      let* () =
        requiref (List.length g >= opt) "greedy %d below optimum %d"
          (List.length g) opt
      in
      let harmonic =
        List.fold_left ( +. ) 0.0
          (List.init sc.Set_cover.n_elements (fun i -> 1.0 /. float_of_int (i + 1)))
      in
      requiref
        (float_of_int (List.length g) <= (harmonic *. float_of_int opt) +. 1e-9)
        "greedy %d > H(n)*opt = %.3g" (List.length g)
        (harmonic *. float_of_int opt))

let setcover_exact =
  Fuzz.make ~name:"setcover.exact_vs_bruteforce" ~gen:gen_cover
    ~shrink:shrink_cover ~show:show_cover
    ~prop:(fun sc ->
      match Set_cover.exact sc with
      | None -> Error "exact refused a tiny instance"
      | Some cover ->
          let* () =
            require (Set_cover.is_cover sc cover) "exact output is not a cover"
          in
          let opt = Reference.cover_opt_size sc in
          requiref
            (List.length cover = opt)
            "exact cover size %d <> brute-force optimum %d" (List.length cover)
            opt)

(* ------------------------------------------------------------------ *)
(* cso.*                                                              *)
(* ------------------------------------------------------------------ *)

type cso_inst = {
  c_pts : Point.t array;
  c_sets : int list list;
  c_k : int;
  c_z : int;
}

let mk_cso ?z c =
  let z = Option.value z ~default:c.c_z in
  Instance.make
    (Space.cached (Space.of_points c.c_pts))
    ~sets:c.c_sets ~k:c.c_k ~z

let gen_cso ?(n_max = 9) rng =
  let pts = gen_points rng ~n_min:1 ~n_max ~d_max:2 in
  let n = Array.length pts in
  let m = int_in rng 1 4 in
  let sets =
    Array.init m (fun _ ->
        List.filter (fun _ -> Random.State.int rng 3 = 0) (List.init n Fun.id))
  in
  for e = 0 to n - 1 do
    if not (Array.exists (List.mem e) sets) then begin
      let j = Random.State.int rng m in
      sets.(j) <- List.sort compare (e :: sets.(j))
    end
  done;
  {
    c_pts = pts;
    c_sets = Array.to_list sets;
    c_k = int_in rng 1 2;
    c_z = int_in rng 0 2;
  }

let shrink_cso c =
  let n = Array.length c.c_pts in
  let covered sets n' =
    List.for_all (fun e -> List.exists (List.mem e) sets) (List.init n' Fun.id)
  in
  (* Drop point i, remapping set elements past it. *)
  let drop_point i =
    let pts =
      Array.init (n - 1) (fun j -> c.c_pts.(if j < i then j else j + 1))
    in
    let sets =
      List.map
        (List.filter_map (fun e ->
             if e < i then Some e else if e = i then None else Some (e - 1)))
        c.c_sets
    in
    if covered sets (n - 1) then Some { c with c_pts = pts; c_sets = sets }
    else None
  in
  let drop_set j =
    let sets = List.filteri (fun i _ -> i <> j) c.c_sets in
    if sets <> [] && covered sets n then Some { c with c_sets = sets } else None
  in
  (if n > 1 then List.filter_map drop_point (List.init n Fun.id) else [])
  @ List.filter_map drop_set (List.init (List.length c.c_sets) Fun.id)
  @ List.map (fun p -> { c with c_pts = p }) (round_pts c.c_pts)
  @ (if c.c_z > 0 then [ { c with c_z = c.c_z - 1 } ] else [])
  @ if c.c_k > 1 then [ { c with c_k = c.c_k - 1 } ] else []

let show_cso c =
  Printf.sprintf "k=%d z=%d sets=%s %s" c.c_k c.c_z
    (String.concat " " (List.map ints_str c.c_sets))
    (pts_str c.c_pts)

let cso_exact =
  Fuzz.make ~name:"cso.exact_vs_bruteforce" ~gen:gen_cso ~shrink:shrink_cso
    ~show:show_cso
    ~prop:(fun c ->
      let t = mk_cso c in
      match Exact.solve t with
      | None -> Error "Exact.solve hit its work limit on a tiny instance"
      | Some (sol, cost) ->
          let* () = require (Instance.is_valid t sol) "exact solution invalid" in
          let* () =
            requiref
              (cost = Instance.cost t sol)
              "reported cost %.17g <> recomputed %.17g" cost
              (Instance.cost t sol)
          in
          let opt = Reference.cso_opt t in
          requiref (cost = opt) "Exact cost %.17g <> brute-force %.17g" cost opt)

(* The tricriteria checks read their bounds from {!Table1}, the row's
   verdict as a property result. *)
let table1 row (p, m) = Result.map_error snd (Table1.verdict row p m)

(* T1.R2 ({!Table1.cso_general}) against the exhaustive optimum, and
   the LP's certified lower bound. *)
let cso_lp_tricriteria =
  Fuzz.make ~name:"cso.lp_tricriteria_vs_opt"
    ~gen:(fun rng -> gen_cso ~n_max:8 rng)
    ~shrink:shrink_cso ~show:show_cso
    ~prop:(fun c ->
      let t = mk_cso c in
      let rep = Cso_general.solve t in
      let opt = Reference.cso_opt t in
      let* () =
        requiref
          (rep.Cso_general.radius <= opt +. 1e-9)
          "certified lower bound %.17g above optimum %.17g"
          rep.Cso_general.radius opt
      in
      table1 Table1.cso_general (Table1.of_cso ~opt t rep.Cso_general.solution))

(* Tiny disjoint instances: the sets partition at most 8 elements, and
   some of them may be empty. *)
let gen_cso_disjoint rng =
  let n = int_in rng 1 8 and d = int_in rng 1 2 in
  let pts = Array.init n (fun _ -> Array.init d (fun _ -> signed_coord rng)) in
  let m = int_in rng 1 4 in
  let owner = Array.init n (fun _ -> Random.State.int rng m) in
  {
    c_pts = pts;
    c_sets =
      List.init m (fun j ->
          List.filter (fun e -> owner.(e) = j) (List.init n Fun.id));
    c_k = int_in rng 1 2;
    c_z = int_in rng 0 2;
  }

(* T1.R3 ({!Table1.cso_disjoint}) against the exhaustive optimum.
   Whenever km < n the search runs over the center lattice, so this also
   checks that lattice (cso_disjoint.ml). Per accepted radius r the cost
   is at most 34r: every element lies within 4r of a coreset element, which
   lies within 20r of an (LP2) center or 30r of its pruned ball's
   representative. [shrink_cso] keeps the sets disjoint: it drops an
   element from every set, and a set only when the others still cover
   every element. *)
let cso_disjoint_tricriteria =
  Fuzz.make ~name:"cso.disjoint_tricriteria_vs_opt" ~gen:gen_cso_disjoint
    ~shrink:shrink_cso ~show:show_cso
    ~prop:(fun c ->
      let t = mk_cso c in
      let rep = Cso_disjoint.solve t in
      let p, m =
        Table1.of_cso ~opt:(Reference.cso_opt t) t rep.Cso_disjoint.solution
      in
      let* () =
        requiref
          (m.Table1.cost <= (34.0 *. rep.Cso_disjoint.radius) +. 1e-9)
          "cost %.17g > 34*radius = %.17g" m.Table1.cost
          (34.0 *. rep.Cso_disjoint.radius)
      in
      table1 Table1.cso_disjoint (p, m))

(* The packing dual's verdict is (LP1)'s, and its point is one of
   (LP1)'s, at every guess the binary search could probe and at both
   ball multipliers the solvers use. *)
let cso_lp_dual_vs_primal =
  Fuzz.make ~name:"cso.lp_dual_vs_primal" ~gen:gen_cso ~shrink:shrink_cso
    ~show:show_cso
    ~prop:(fun c ->
      let t = mk_cso c in
      let probe (cover_mult, r) =
        let lp1 = Reference.cso_lp1 ~cover_mult t ~r in
        let feasible = Simplex.feasible_point lp1 <> None in
        match Cso_general.lp_point ~cover_mult t ~r with
        | None ->
            requiref (not feasible)
              "r=%.17g cover_mult=%g: dual rejects a feasible (LP1)" r cover_mult
        | Some x ->
            let* () =
              requiref feasible
                "r=%.17g cover_mult=%g: dual accepts an infeasible (LP1)" r
                cover_mult
            in
            let dot a = Array.fold_left ( +. ) 0.0 (Array.map2 ( *. ) a x) in
            let excess =
              List.map
                (fun (a, op, b) ->
                  match op with
                  | Simplex.Le -> dot a -. b
                  | Simplex.Ge -> b -. dot a
                  | Simplex.Eq -> abs_float (dot a -. b))
                lp1.Simplex.constraints
              @ Array.to_list
                  (Array.map2
                     (fun (lo, hi) v -> Float.max (lo -. v) (v -. hi))
                     lp1.Simplex.bounds x)
            in
            let worst = List.fold_left Float.max neg_infinity excess in
            requiref (worst <= 1e-9)
              "r=%.17g cover_mult=%g: point violates (LP1) by %.17g" r
              cover_mult worst
      in
      Array.to_list (Space.pairwise_distances t.Instance.space)
      |> List.concat_map (fun r -> [ (1.0, r); (10.0, r) ])
      |> List.fold_left (fun acc p -> Result.bind acc (fun () -> probe p)) (Ok ()))

(* [Kmedian]'s three tools bracket one another: its LP relaxation is a
   lower bound on the exhaustive optimum, which is at most the local
   search's cost. The LP is solved with a real objective, so this also
   pins [Simplex.solve]'s optimum, not only its feasibility. *)
let cso_kmedian_bounds =
  Fuzz.make ~name:"cso.kmedian_bounds_vs_exact"
    ~gen:(fun rng -> gen_cso ~n_max:6 rng)
    ~shrink:shrink_cso ~show:show_cso
    ~prop:(fun c ->
      let t = mk_cso c in
      let check (objective, name) =
        match
          (Kmedian.lp_lower_bound ~objective t, Kmedian.exact ~objective t)
        with
        | None, _ -> Error (name ^ ": lp_lower_bound refused a tiny instance")
        | _, None -> Error (name ^ ": exact hit its work limit on a tiny instance")
        | Some lb, Some (sol, opt) ->
            let* () =
              require (Instance.is_valid t sol) (name ^ ": exact solution invalid")
            in
            let* () =
              requiref (lb <= opt +. 1e-6) "%s: LP lower bound %.17g > exact %.17g"
                name lb opt
            in
            let ls = Kmedian.local_search ~objective t in
            let* () =
              requiref
                (Instance.is_valid t ls
                && List.length ls.Instance.centers <= c.c_k
                && List.length ls.Instance.outliers <= c.c_z)
                "%s: local search returned an invalid or over-budget solution" name
            in
            let ls_cost = Kmedian.cost ~objective t ls in
            requiref (opt <= ls_cost) "%s: exact %.17g > local search %.17g" name
              opt ls_cost
      in
      let* () = check (Kmedian.Median, "median") in
      check (Kmedian.Means, "means"))

let cso_budget_monotone =
  Fuzz.make ~name:"cso.outlier_budget_monotone"
    ~gen:(fun rng -> gen_cso ~n_max:8 rng)
    ~shrink:shrink_cso ~show:show_cso
    ~prop:(fun c ->
      let opt_z = Reference.cso_opt (mk_cso c) in
      let opt_z1 = Reference.cso_opt (mk_cso ~z:(c.c_z + 1) c) in
      requiref (opt_z1 <= opt_z)
        "optimum increased with a larger outlier budget: opt(z=%d)=%.17g < opt(z=%d)=%.17g"
        c.c_z opt_z (c.c_z + 1) opt_z1)

(* ------------------------------------------------------------------ *)
(* gcso.*                                                             *)
(* ------------------------------------------------------------------ *)

type gcso_inst = {
  g_pts : Point.t array;
  g_rects : Rect.t array; (* rects.(0) always covers all points *)
  g_k : int;
  g_z : int;
}

let gen_gcso rng =
  let n = int_in rng 2 7 in
  let pts =
    Array.init n (fun _ -> Array.init 2 (fun _ -> coord rng))
  in
  let extra = int_in rng 0 2 in
  let rects =
    Array.init (extra + 1) (fun i ->
        if i = 0 then Rect.bounding_box pts else gen_rect rng 2)
  in
  { g_pts = pts; g_rects = rects; g_k = int_in rng 1 2; g_z = int_in rng 0 1 }

let shrink_gcso g =
  let rebuild pts =
    let rects = Array.copy g.g_rects in
    rects.(0) <- Rect.bounding_box pts;
    { g with g_pts = pts; g_rects = rects }
  in
  (if Array.length g.g_pts > 2 then
     List.map rebuild (drop_each g.g_pts)
   else [])
  @ List.map rebuild (round_pts g.g_pts)
  @ List.filter_map
      (fun i ->
        if i = 0 then None
        else
          Some
            {
              g with
              g_rects =
                Array.of_list
                  (List.filteri (fun j _ -> j <> i) (Array.to_list g.g_rects));
            })
      (List.init (Array.length g.g_rects) Fun.id)
  @ (if g.g_z > 0 then [ { g with g_z = g.g_z - 1 } ] else [])
  @ if g.g_k > 1 then [ { g with g_k = g.g_k - 1 } ] else []

let show_gcso g =
  Printf.sprintf "k=%d z=%d rects=[%s] %s" g.g_k g.g_z
    (String.concat "; "
       (Array.to_list (Array.map (Format.asprintf "%a" Rect.pp) g.g_rects)))
    (pts_str g.g_pts)

(* The GCSO rows' verdicts at a capped round count. Some criteria
   ([converged]) need the MWU to certify the right guesses, which capped
   rounds can miss; a verdict that fails on one of them escalates to
   [run None], the default rounds, whose verdict decides. Every other
   criterion, and [run]'s own per-radius invariants, fail at once. *)
let screened ~rounds ~converged run =
  let* v = run (Some rounds) in
  match v with
  | Error (c, _) when List.mem c converged ->
      let* v = run None in
      Result.map_error (fun (_, msg) -> msg ^ " at default rounds") v
  | v -> Result.map_error snd v

(* T1.R4 ({!Table1.gcso_general}) against the exhaustive optimum.
   Explicit rounds: the honest default scales as 1/(eps/5)^2 and is
   ~25x too slow for a 1000-case fuzz budget. Validity, the outlier
   count and cost <= 2(1+eps/5)*radius hold at any round count, and the
   center count holds at 150 rounds on these tiny instances (not in
   general: bench T1.R4). The cost against opt does not — with too few
   rounds MWU can fail to certify feasibility at the critical radius
   guess and the search settles one lattice step too high. So only the
   cost escalates. (The escalation's first catch, seed 5 case 2013,
   failed at honest rounds too: the un-inflated WSPD lattice had no
   feasible guess within (1+eps/5) of the optimum — fixed in
   [Gcso_general.solve] and pinned by the lattice-gap canary in
   test/suite_refcheck.ml.) *)
let gcso_mwu_tricriteria =
  Fuzz.make ~name:"gcso.mwu_tricriteria_vs_opt" ~gen:gen_gcso
    ~shrink:shrink_gcso ~show:show_gcso
    ~prop:(fun g ->
      let eps = 0.5 in
      let inst =
        Geo_instance.make ~points:g.g_pts ~rects:g.g_rects ~k:g.g_k ~z:g.g_z
      in
      let opt = Reference.cso_opt (Geo_instance.to_cso inst) in
      screened ~rounds:150 ~converged:[ Table1.Cost ] (fun rounds ->
          let rep = Gcso_general.solve ~eps ?rounds inst in
          let p, m = Table1.of_gcso ~eps ~opt inst rep.Gcso_general.solution in
          (* Rounding invariant: greedy covering uses balls of radius
             [2 * radius] with BBD slack [(1 + eps/5)] — [solve] hands
             each internal consumer eps/5 (see gcso_general.mli). *)
          let per_r = 2.0 *. (1.0 +. (eps /. 5.0)) *. rep.Gcso_general.radius in
          let* () =
            requiref (m.Table1.cost <= per_r +. 1e-9)
              "cost %.17g > 2(1+eps/5)*radius = %.17g" m.Table1.cost per_r
          in
          Ok (Table1.verdict Table1.gcso_general p m)))

(* Disjoint GCSO as [Planted.gcso_disjoint] builds it: slab [j] is the
   degenerate rectangle [x_0 = ids.(j)] with infinite bounds in every
   feature coordinate, and a point's [x_0] is its slab's id, or -0. for
   the slab at 0. *)
type gcso_slabs = {
  sl_ids : float array; (* distinct *)
  sl_pts : Point.t array;
  sl_k : int;
  sl_z : int;
}

let gen_gcso_slabs rng =
  let m = int_in rng 1 4 and d = 1 + int_in rng 1 2 in
  let scale = if Random.State.bool rng then 1.0 else 1e-3 in
  let ids = Array.init m (fun j -> float_of_int j *. scale) in
  let pts =
    Array.init (int_in rng 1 8) (fun _ ->
        let j = Random.State.int rng m in
        let id = if j = 0 && Random.State.bool rng then -0.0 else ids.(j) in
        Array.init d (fun c -> if c = 0 then id else signed_coord rng))
  in
  { sl_ids = ids; sl_pts = pts; sl_k = int_in rng 1 2; sl_z = int_in rng 0 2 }

let slab_geo s =
  let d = Point.dim s.sl_pts.(0) in
  let rects =
    Array.map
      (fun id ->
        let lo = Array.make d neg_infinity and hi = Array.make d infinity in
        lo.(0) <- id;
        hi.(0) <- id;
        Rect.make ~lo ~hi)
      s.sl_ids
  in
  Geo_instance.make ~points:s.sl_pts ~rects ~k:s.sl_k ~z:s.sl_z

(* Drops a point, or a slab no point lies in; snaps feature coordinates
   only, so every point stays in its slab. *)
let shrink_gcso_slabs s =
  let used id = Array.exists (fun p -> p.(0) = id) s.sl_pts in
  (if Array.length s.sl_pts > 1 then
     List.map (fun pts -> { s with sl_pts = pts }) (drop_each s.sl_pts)
   else [])
  @ List.filter_map
      (fun j ->
        if Array.length s.sl_ids = 1 || used s.sl_ids.(j) then None
        else
          Some
            {
              s with
              sl_ids =
                Array.of_list
                  (List.filteri (fun i _ -> i <> j) (Array.to_list s.sl_ids));
            })
      (List.init (Array.length s.sl_ids) Fun.id)
  @ (let snapped =
       Array.map
         (Array.mapi (fun c x -> if c = 0 then x else Float.round x))
         s.sl_pts
     in
     if snapped = s.sl_pts then [] else [ { s with sl_pts = snapped } ])
  @ (if s.sl_z > 0 then [ { s with sl_z = s.sl_z - 1 } ] else [])
  @ if s.sl_k > 1 then [ { s with sl_k = s.sl_k - 1 } ] else []

let show_gcso_slabs s =
  Printf.sprintf "k=%d z=%d slabs=%s %s" s.sl_k s.sl_z
    (pt_str s.sl_ids) (pts_str s.sl_pts)

(* T1.R5 ({!Table1.gcso_disjoint}) against the exhaustive optimum.
   Validity, the outlier count and the cost per accepted radius,
   (34+30 eps) r, hold at any round count. The center count and the
   cost against rho* need the MWU to certify the right guesses, so both
   escalate. *)
let gcso_disjoint_tricriteria =
  Fuzz.make ~name:"gcso.disjoint_tricriteria_vs_opt" ~gen:gen_gcso_slabs
    ~shrink:shrink_gcso_slabs ~show:show_gcso_slabs
    ~prop:(fun s ->
      let eps = 0.3 in
      let g = slab_geo s in
      let opt = Reference.cso_opt (Geo_instance.to_cso g) in
      screened ~rounds:60 ~converged:[ Table1.Centers; Table1.Cost ]
        (fun rounds ->
          let rep = Gcso_disjoint.solve ~eps ?rounds g in
          let p, m = Table1.of_gcso ~eps ~opt g rep.Gcso_disjoint.solution in
          let per_r = (34.0 +. (30.0 *. eps)) *. rep.Gcso_disjoint.radius in
          let* () =
            requiref (m.Table1.cost <= per_r +. 1e-9)
              "cost %.17g > (34+30eps)*radius = %.17g" m.Table1.cost per_r
          in
          Ok (Table1.verdict Table1.gcso_disjoint p m)))

(* The batched MWU oracle (one CSR scatter + pooled gathers per round)
   against the per-constraint reference closures it replaced: the whole
   observable trace — rounded solution, round count, weight-vector bits
   and counter deltas — must be identical at every radius guess. *)
let gcso_batched_oracle =
  Fuzz.make ~name:"gcso.batched_oracle" ~gen:gen_gcso ~shrink:shrink_gcso
    ~show:show_gcso
    ~prop:(fun g ->
      let inst =
        Geo_instance.make ~points:g.g_pts ~rects:g.g_rects ~k:g.g_k ~z:g.g_z
      in
      let prepared = Gcso_general.prepare inst in
      let gamma =
        Cso_geom.Wspd.candidate_distances_packed inst.Geo_instance.coords
      in
      let trace which ~r =
        let solve =
          match which with
          | `Batched -> Gcso_general.solve_at
          | `Reference -> Gcso_general.solve_at_reference
        in
        let rounds = ref 0 and weights = ref [] in
        let sol, deltas =
          Cso_obs.Obs.with_delta (fun () ->
              solve ~eps:0.4 ~rounds:25
                ~on_round:(fun ~round:_ ~max_violation:_ -> incr rounds)
                ~on_weights:(fun w ->
                  weights := Array.map Int64.bits_of_float w :: !weights)
                prepared ~r)
        in
        (sol, !rounds, !weights, deltas)
      in
      let guesses =
        sorted_ints [ 0; Array.length gamma / 2; Array.length gamma - 1 ]
      in
      List.fold_left
        (fun acc gi ->
          let* () = acc in
          let r = gamma.(gi) in
          let batched = trace `Batched ~r in
          let reference = trace `Reference ~r in
          requiref (batched = reference)
            "batched oracle trace diverges from reference at r=%.17g" r)
        (Ok ()) guesses)

(* ------------------------------------------------------------------ *)
(* dynamic.*                                                          *)
(* ------------------------------------------------------------------ *)

module Dyn = Cso_geom.Dynamic

(* Insert/delete scripts. A delete stores an arbitrary non-negative
   int interpreted at execution time as an index into the current
   live-id list modulo its length (no-op when empty), so every op
   subsequence is itself a valid script — the shrinker's drop-one
   candidates never need re-validation. *)
type dyn_op = D_ins of Point.t | D_del of int

type dyn_script = { dy_dim : int; dy_ops : dyn_op array }

let gen_dyn rng =
  let dim = int_in rng 1 3 in
  let n_ops = int_in rng 1 30 in
  let ops =
    Array.init n_ops (fun _ ->
        if Random.State.int rng 10 < 6 then
          D_ins (Array.init dim (fun _ -> coord rng))
        else D_del (Random.State.int rng 16))
  in
  { dy_dim = dim; dy_ops = ops }

let shrink_dyn s =
  let round_ops =
    Array.map
      (function D_ins p -> D_ins (Array.map Float.round p) | d -> d)
      s.dy_ops
  in
  List.map (fun ops -> { s with dy_ops = ops }) (drop_each s.dy_ops)
  @
  if round_ops = s.dy_ops then []
  else [ { s with dy_ops = round_ops } ]

let show_dyn s =
  Printf.sprintf "dim=%d ops=[%s]" s.dy_dim
    (String.concat "; "
       (Array.to_list
          (Array.map
             (function
               | D_ins p -> "+" ^ pt_str p
               | D_del t -> Printf.sprintf "-%d" t)
             s.dy_ops)))

(* Replays the script against [insert]/[delete], maintaining the
   reference model (ascending (id, point) assoc of survivors) that
   delete targets are resolved against. *)
let apply_dyn ~insert ~delete s =
  let model = ref [] in
  Array.iter
    (function
      | D_ins p ->
          let id = insert p in
          model := !model @ [ (id, Array.copy p) ]
      | D_del t -> (
          match !model with
          | [] -> ()
          | live ->
              let id, _ = List.nth live (t mod List.length live) in
              delete id;
              model := List.filter (fun (i, _) -> i <> id) !model))
    s.dy_ops;
  !model

let subset a b = List.for_all (fun x -> List.mem x b) a

(* Query centers: a few survivors plus the origin; radii: 0, survivor
   distances (on-boundary on purpose) and scaled variants. *)
let dyn_query_points dim model =
  let surv = List.map snd model in
  let origin = Array.make dim 0.0 in
  let picks =
    match surv with
    | [] -> []
    | [ p ] -> [ p ]
    | p :: _ ->
        let arr = Array.of_list surv in
        [ p; arr.(Array.length arr / 2); arr.(Array.length arr - 1) ]
  in
  origin :: picks

let dyn_radii center model =
  let ds = List.map (fun (_, p) -> Point.l2 center p) model in
  let dmax = List.fold_left Float.max 0.0 ds in
  0.0 :: (dmax /. 2.0) :: dmax
  :: (match ds with d :: _ -> [ d ] | [] -> [])

let dynamic_bbd =
  Fuzz.make ~name:"dynamic.bbd_vs_static_rebuild" ~gen:gen_dyn
    ~shrink:shrink_dyn ~show:show_dyn
    ~prop:(fun s ->
      let t = Dyn.Ball.create ~dim:s.dy_dim () in
      let model =
        apply_dyn ~insert:(Dyn.Ball.insert t) ~delete:(Dyn.Ball.delete t) s
      in
      let ids = List.map fst model in
      let* () =
        requiref
          (Dyn.Ball.live_ids t = ids)
          "live_ids %s <> model %s"
          (ints_str (Dyn.Ball.live_ids t))
          (ints_str ids)
      in
      (* Weight-balance policy: every level keeps its dead fraction
         strictly below alpha of its live points after each op. *)
      let alpha = Dyn.Ball.alpha t in
      let* () =
        List.fold_left
          (fun acc (stored, live) ->
            let* () = acc in
            requiref
              (float_of_int (stored - live) < alpha *. float_of_int live)
              "level dead %d >= alpha (%.2f) * live %d" (stored - live) alpha
              live)
          (Ok ()) (Dyn.Ball.level_stats t)
      in
      let idarr = Array.of_list ids in
      let static =
        if model = [] then None
        else
          Some
            (Bbd.build_packed
               (Points.of_array (Array.of_list (List.map snd model))))
      in
      let static_report center radius =
        match static with
        | None -> []
        | Some st ->
            Bbd.ball_query st ~center ~radius ~eps:0.0
            |> List.concat_map (Bbd.points_of_node st)
            |> List.map (fun l -> idarr.(l))
            |> List.sort compare
      in
      let check_query center radius =
        let reference =
          List.filter_map
            (fun (id, p) -> if Point.l2 center p <= radius then Some id else None)
            model
        in
        let got = Dyn.Ball.ball_report t ~center ~radius in
        let* () =
          requiref (got = reference)
            "ball_report r=%.17g: %s <> scan %s" radius (ints_str got)
            (ints_str reference)
        in
        let* () =
          requiref
            (got = static_report center radius)
            "ball_report r=%.17g differs from static rebuild" radius
        in
        let* () =
          requiref
            (Dyn.Ball.count_in_ball t ~center ~radius = List.length reference)
            "count_in_ball r=%.17g" radius
        in
        (* eps > 0: the union of per-level canonical answers keeps the
           sandwich guarantee over the live set. *)
        let eps = 0.4 in
        let approx = Dyn.Ball.ball_points t ~center ~radius ~eps in
        let outer =
          List.filter_map
            (fun (id, p) ->
              if Point.l2 center p <= (1.0 +. eps) *. radius then Some id
              else None)
            model
        in
        let* () =
          requiref (subset reference approx)
            "eps=0.4 r=%.17g answer misses an in-ball survivor" radius
        in
        requiref (subset approx outer)
          "eps=0.4 r=%.17g answer exceeds the outer ball" radius
      in
      List.fold_left
        (fun acc center ->
          let* () = acc in
          List.fold_left
            (fun acc radius ->
              let* () = acc in
              check_query center radius)
            (Ok ()) (dyn_radii center model))
        (Ok ())
        (dyn_query_points s.dy_dim model))

(* Incremental GCSO: (a) the first query is bit-identical to a fresh
   [Gcso_general.solve] over the surviving points (the re-solve path
   reconstructs the same instance; no warm weights exist yet); (b) an
   immediate repeat is served from cache; (c) after more updates, a
   query either re-solves onto exactly the current live population
   (warm-started from the prior weights) with a structurally valid
   solution, or keeps serving the cached report. *)
let dynamic_gcso_incremental =
  Fuzz.make ~name:"dynamic.gcso_incremental_vs_scratch"
    ~gen:(fun rng ->
      let dim = 2 in
      let n_ops = int_in rng 2 14 in
      let ops =
        Array.init n_ops (fun _ ->
            if Random.State.int rng 10 < 7 then
              D_ins (Array.init dim (fun _ -> coord rng))
            else D_del (Random.State.int rng 16))
      in
      ({ dy_dim = dim; dy_ops = ops }, int_in rng 1 2, int_in rng 0 1))
    ~shrink:(fun (s, k, z) ->
      List.map (fun s' -> (s', k, z)) (shrink_dyn s)
      @ (if z > 0 then [ (s, k, z - 1) ] else [])
      @ if k > 1 then [ (s, k - 1, z) ] else [])
    ~show:(fun (s, k, z) -> Printf.sprintf "k=%d z=%d %s" k z (show_dyn s))
    ~prop:(fun (s, k, z) ->
      let eps = 0.5 and rounds = 40 in
      (* One rect covering the whole coordinate range of [coord]. *)
      let rects =
        [| Rect.of_intervals [ (-1.0, 6.0); (-1.0, 6.0) ] |]
      in
      let inc =
        Gcso_general.Incremental.create ~eps ~rounds ~rects ~k ~z ()
      in
      let model =
        apply_dyn
          ~insert:(Gcso_general.Incremental.insert inc)
          ~delete:(Gcso_general.Incremental.delete inc)
          s
      in
      if model = [] then
        let rep, _, _ = Gcso_general.Incremental.query inc in
        require
          (rep.Gcso_general.solution.Instance.centers = [])
          "empty population produced centers"
      else begin
        let rep1, ids1, _ = Gcso_general.Incremental.query inc in
        let* () =
          requiref
            (Array.to_list ids1 = List.map fst model)
            "first query ids %s <> live %s"
            (ints_str (Array.to_list ids1))
            (ints_str (List.map fst model))
        in
        let points = Array.of_list (List.map snd model) in
        let fresh =
          Gcso_general.solve ~eps ~rounds
            (Geo_instance.make ~points ~rects ~k ~z)
        in
        let* () =
          require
            (rep1.Gcso_general.solution = fresh.Gcso_general.solution
            && rep1.Gcso_general.radius = fresh.Gcso_general.radius)
            "first query differs from a from-scratch solve"
        in
        (* Cache: an immediate repeat re-solves nothing. *)
        let before = Gcso_general.Incremental.re_solves inc in
        let rep2, _, _ = Gcso_general.Incremental.query inc in
        let* () =
          require
            (Gcso_general.Incremental.re_solves inc = before
            && rep2.Gcso_general.solution = rep1.Gcso_general.solution)
            "repeat query was not served from cache"
        in
        (* More churn, then a query: re-solve lands exactly on the
           current population and is structurally valid; a cached answer
           is unchanged. *)
        let model' =
          apply_dyn
            ~insert:(Gcso_general.Incremental.insert inc)
            ~delete:(Gcso_general.Incremental.delete inc)
            s
        in
        ignore model';
        let expected_resolve = Gcso_general.Incremental.needs_resolve inc in
        let live_now = Gcso_general.Incremental.live_ids inc in
        let rep3, ids3, _ = Gcso_general.Incremental.query inc in
        if expected_resolve then begin
          let* () =
            if live_now = [] then Ok ()
            else
              requiref
                (Array.to_list ids3 = live_now)
                "re-solve ids %s <> live %s"
                (ints_str (Array.to_list ids3))
                (ints_str live_now)
          in
          if live_now = [] then Ok ()
          else
            let pts =
              Array.map (Gcso_general.Incremental.point inc) ids3
            in
            let g = Geo_instance.make ~points:pts ~rects ~k ~z in
            require
              (Geo_instance.is_valid g rep3.Gcso_general.solution)
              "warm-started re-solve produced an invalid solution"
        end
        else
          require
            (rep3.Gcso_general.solution = rep1.Gcso_general.solution)
            "cached query changed without a re-solve"
      end)

(* Delete-heavy scripts: a build phase of pure inserts followed by a
   churn phase biased 7:3 towards deletes, so per-level dead fractions
   keep crossing the alpha threshold and partial rebuilds actually
   fire (the plain [gen_dyn] scripts rarely trigger one). *)
let gen_churn rng =
  let dim = int_in rng 1 3 in
  let build = int_in rng 4 20 in
  let churn = int_in rng 4 30 in
  let ops =
    Array.init (build + churn) (fun i ->
        if i < build || Random.State.int rng 10 >= 7 then
          D_ins (Array.init dim (fun _ -> coord rng))
        else D_del (Random.State.int rng 16))
  in
  { dy_dim = dim; dy_ops = ops }

(* Weight-balanced partial rebuilds under churn: replay one script into
   a Ball structure and pin (a) the per-level invariant
   [dead < alpha * live], (b) the clean-level counting fast path against
   the full report, and (c) bit-identity of reports against a static
   rebuild of the survivors. *)
let dynamic_partial_rebuild =
  Fuzz.make ~name:"dynamic.partial_rebuild_vs_static" ~gen:gen_churn
    ~shrink:shrink_dyn ~show:show_dyn
    ~prop:(fun s ->
      let ball = Dyn.Ball.create ~dim:s.dy_dim () in
      let model =
        apply_dyn ~insert:(Dyn.Ball.insert ball) ~delete:(Dyn.Ball.delete ball)
          s
      in
      let ids = List.map fst model in
      let* () =
        require (Dyn.Ball.live_ids ball = ids) "live_ids diverged from the model"
      in
      let alpha = Dyn.Ball.alpha ball in
      let* () =
        List.fold_left
          (fun acc (stored, live) ->
            let* () = acc in
            requiref
              (float_of_int (stored - live) < alpha *. float_of_int live)
              "level dead %d >= alpha (%.2f) * live %d" (stored - live) alpha
              live)
          (Ok ()) (Dyn.Ball.level_stats ball)
      in
      let origin = Array.make s.dy_dim 0.0 in
      let dmax =
        List.fold_left
          (fun m (_, p) -> Float.max m (Point.l2 origin p))
          0.0 model
      in
      let* () =
        requiref
          (Dyn.Ball.count_in_ball ball ~center:origin ~radius:dmax
           = List.length
               (Dyn.Ball.ball_report ball ~center:origin ~radius:dmax))
          "count_in_ball disagrees with ball_report at r=%.17g" dmax
      in
      (* Bit-identity against a static rebuild of the survivors. *)
      if model = [] then Ok ()
      else begin
        let idarr = Array.of_list ids in
        let st_ball =
          Bbd.build_packed
            (Points.of_array (Array.of_list (List.map snd model)))
        in
        let radius = dmax /. 2.0 in
        let static_ball =
          Bbd.ball_query st_ball ~center:origin ~radius ~eps:0.0
          |> List.concat_map (Bbd.points_of_node st_ball)
          |> List.map (fun l -> idarr.(l))
          |> List.sort compare
        in
        requiref
          (Dyn.Ball.ball_report ball ~center:origin ~radius = static_ball)
          "ball_report r=%.17g differs from static rebuild" radius
      end)

(* Op scripts over the incremental GCSO driver extended with rectangle
   inserts/deletes. Targets are resolved modulo the current live
   population at execution time (as in [dyn_script]), so every op
   subsequence is valid and the drop-one shrinker needs no
   re-validation. Rect deletes are predicted against the model: the
   driver must refuse exactly the orphaning ones, with the smallest
   orphaned live id as witness. *)
type gcso_op =
  | G_pt of dyn_op
  | G_ins_rect of Rect.t
  | G_del_rect of int  (** index into the live rect list mod its length *)

let show_gop = function
  | G_pt (D_ins p) -> "+" ^ pt_str p
  | G_pt (D_del t) -> Printf.sprintf "-%d" t
  | G_ins_rect r ->
      Printf.sprintf "+R%s/%s" (pt_str r.Rect.lo) (pt_str r.Rect.hi)
  | G_del_rect t -> Printf.sprintf "-R%d" t

(* The base rectangle handed to [create]; generated points always lie
   inside it, so only satellite-rect deletion can orphan — until the
   base rect itself is deleted (legal once every live point is covered
   by some satellite), after which uncovered point inserts must be
   refused. *)
let gcso_base_rect = Rect.of_intervals [ (-1.0, 6.0); (-1.0, 6.0) ]

let gen_gcso_rect_ops rng =
  let pt () = Array.init 2 (fun _ -> coord rng) in
  let n_ops = int_in rng 3 16 in
  let ops =
    Array.init n_ops (fun _ ->
        match Random.State.int rng 10 with
        | 0 | 1 | 2 | 3 | 4 -> G_pt (D_ins (pt ()))
        | 5 | 6 -> G_pt (D_del (Random.State.int rng 16))
        | 7 | 8 ->
            let c = pt () and w = 0.5 +. Random.State.float rng 1.5 in
            G_ins_rect
              (Rect.of_intervals
                 [ (c.(0) -. w, c.(0) +. w); (c.(1) -. w, c.(1) +. w) ])
        | _ -> G_del_rect (Random.State.int rng 16))
  in
  (ops, int_in rng 1 2, int_in rng 0 1)

let shrink_gcso_rect_ops (ops, k, z) =
  List.map (fun ops' -> (ops', k, z)) (drop_each ops)
  @ (if z > 0 then [ (ops, k, z - 1) ] else [])
  @ if k > 1 then [ (ops, k - 1, z) ] else []

let show_gcso_rect_ops (ops, k, z) =
  Printf.sprintf "k=%d z=%d ops=[%s]" k z
    (String.concat "; " (Array.to_list (Array.map show_gop ops)))

(* Replays one pass of the script, keeping the reference model of live
   points and rects and checking every rect-delete verdict against the
   model's own orphan prediction. Returns
   [Ok (points, rects, rects_changed)]. *)
let apply_gcso_rect_ops inc ~pts ~rcs ops =
  let rects_changed = ref false in
  let* () =
    Array.fold_left
      (fun acc op ->
        let* () = acc in
        match op with
        | G_pt (D_ins p) ->
            if List.exists (fun (_, r) -> Rect.contains r p) !rcs then begin
              let id = Gcso_general.Incremental.insert inc p in
              pts := !pts @ [ (id, Array.copy p) ];
              Ok ()
            end
            else begin
              (* Uncovered point: the driver must refuse it. *)
              match Gcso_general.Incremental.insert inc p with
              | exception Invalid_argument _ -> Ok ()
              | id ->
                  requiref false
                    "insert %s outside every rect accepted as id %d"
                    (pt_str p) id
            end
        | G_pt (D_del t) -> (
            match !pts with
            | [] -> Ok ()
            | live ->
                let id, _ = List.nth live (t mod List.length live) in
                Gcso_general.Incremental.delete inc id;
                pts := List.filter (fun (i, _) -> i <> id) !pts;
                Ok ())
        | G_ins_rect r ->
            let expect = Gcso_general.Incremental.next_rect_id inc in
            let rid = Gcso_general.Incremental.insert_rect inc r in
            let* () =
              requiref (rid = expect)
                "insert_rect returned id %d, expected dense id %d" rid
                expect
            in
            rcs := !rcs @ [ (rid, r) ];
            rects_changed := true;
            Ok ()
        | G_del_rect t -> (
            match !rcs with
            | [] -> Ok ()
            | live_rects -> (
                let rid, doomed =
                  List.nth live_rects (t mod List.length live_rects)
                in
                let others =
                  List.filter (fun (rid', _) -> rid' <> rid) live_rects
                in
                let predicted =
                  (* Smallest live id inside the doomed rect that no
                     other rect covers. Every live point is covered by
                     some rect, so restricting to the doomed rect is a
                     no-op — kept for clarity. *)
                  List.find_opt
                    (fun (_, p) ->
                      Rect.contains doomed p
                      && not
                           (List.exists
                              (fun (_, r) -> Rect.contains r p)
                              others))
                    !pts
                in
                match
                  (Gcso_general.Incremental.delete_rect inc rid, predicted)
                with
                | Ok (), None ->
                    rcs := others;
                    rects_changed := true;
                    Ok ()
                | Error o, Some (wid, _) ->
                    let* () =
                      requiref
                        (o.Gcso_general.Incremental.rect_id = rid
                        && o.Gcso_general.Incremental.witness = wid)
                        "delete_rect %d: orphan (%d,%d) <> predicted \
                         (%d,%d)"
                        rid o.Gcso_general.Incremental.rect_id
                        o.Gcso_general.Incremental.witness rid wid
                    in
                    requiref
                      (List.mem_assoc rid
                         (Gcso_general.Incremental.rects inc))
                      "refused delete_rect %d still removed the rect" rid
                | Ok (), Some (wid, _) ->
                    requiref false
                      "delete_rect %d succeeded but would orphan %d" rid
                      wid
                | Error o, None ->
                    requiref false
                      "delete_rect %d refused with witness %d but no \
                       point is orphaned"
                      rid o.Gcso_general.Incremental.witness)))
      (Ok ()) ops
  in
  Ok !rects_changed

let gcso_rect_updates =
  Fuzz.make ~name:"gcso.incremental_rect_updates_vs_scratch"
    ~gen:gen_gcso_rect_ops ~shrink:shrink_gcso_rect_ops
    ~show:show_gcso_rect_ops
    ~prop:(fun (ops, k, z) ->
      let eps = 0.5 and rounds = 40 in
      let inc =
        Gcso_general.Incremental.create ~eps ~rounds
          ~rects:[| gcso_base_rect |] ~k ~z ()
      in
      let pts = ref [] and rcs = ref [ (0, gcso_base_rect) ] in
      let* _ = apply_gcso_rect_ops inc ~pts ~rcs ops in
      let rep1, ids1, rids1 = Gcso_general.Incremental.query inc in
      let* () =
        requiref
          (Array.to_list ids1 = List.map fst !pts
          && Array.to_list rids1 = List.map fst !rcs)
          "first query ids (%s, rects %s) <> model (%s, rects %s)"
          (ints_str (Array.to_list ids1))
          (ints_str (Array.to_list rids1))
          (ints_str (List.map fst !pts))
          (ints_str (List.map fst !rcs))
      in
      let* () =
        if !pts = [] then
          require
            (rep1.Gcso_general.solution.Instance.centers = [])
            "empty population produced centers"
        else
          (* No solve has happened before, so the re-solve is cold and
             must be bit-identical to a from-scratch solve over the
             model's points and rects (same positional order). *)
          let points = Array.of_list (List.map snd !pts) in
          let rects = Array.of_list (List.map snd !rcs) in
          let fresh =
            Gcso_general.solve ~eps ~rounds
              (Geo_instance.make ~points ~rects ~k ~z)
          in
          require
            (rep1.Gcso_general.solution = fresh.Gcso_general.solution
            && rep1.Gcso_general.radius = fresh.Gcso_general.radius)
            "first query differs from a from-scratch solve"
      in
      (* Second pass of the same script (targets re-resolve against the
         current state), then: any successful rect update must force a
         re-solve, which lands exactly on the current populations and
         is structurally valid; with no re-solve due, the cached report
         is unchanged. *)
      let* rects_changed = apply_gcso_rect_ops inc ~pts ~rcs ops in
      let expected_resolve = Gcso_general.Incremental.needs_resolve inc in
      let* () =
        require
          ((not rects_changed) || expected_resolve)
          "a rect update did not force needs_resolve"
      in
      let rep3, ids3, rids3 = Gcso_general.Incremental.query inc in
      if expected_resolve then begin
        let* () =
          requiref
            (Array.to_list ids3 = List.map fst !pts
            && Array.to_list rids3 = List.map fst !rcs)
            "re-solve ids (%s, rects %s) <> model (%s, rects %s)"
            (ints_str (Array.to_list ids3))
            (ints_str (Array.to_list rids3))
            (ints_str (List.map fst !pts))
            (ints_str (List.map fst !rcs))
        in
        if !pts = [] then Ok ()
        else
          let g =
            Geo_instance.make
              ~points:(Array.of_list (List.map snd !pts))
              ~rects:(Array.of_list (List.map snd !rcs))
              ~k ~z
          in
          require
            (Geo_instance.is_valid g rep3.Gcso_general.solution)
            "warm-started re-solve produced an invalid solution"
      end
      else
        require
          (rep3.Gcso_general.solution = rep1.Gcso_general.solution)
          "cached query changed without a re-solve")

(* The warm-weight constraint-id mapping: a point surviving across a
   re-solve must feed its stored weight back bit-identically; a point
   first seen at this re-solve must enter at the floor
   [Mwu.min_weight_factor / prior_m] where [prior_m] is the previous
   solve's constraint count. *)
let gcso_warm_map =
  Fuzz.make ~name:"gcso.warm_weight_id_mapping"
    ~gen:(fun rng ->
      let pt () = Array.init 2 (fun _ -> coord rng) in
      let init = Array.init (int_in rng 2 8) (fun _ -> pt ()) in
      let dels =
        Array.init (int_in rng 0 (Array.length init - 1)) (fun _ ->
            Random.State.int rng 16)
      in
      let news = Array.init (int_in rng 0 4) (fun _ -> pt ()) in
      (init, dels, news, int_in rng 1 2, int_in rng 0 1))
    ~shrink:(fun (init, dels, news, k, z) ->
      List.map (fun i -> (i, dels, news, k, z)) (drop_each ~keep:2 init)
      @ List.map (fun d -> (init, d, news, k, z)) (drop_each dels)
      @ List.map (fun n -> (init, dels, n, k, z)) (drop_each news)
      @ (if z > 0 then [ (init, dels, news, k, z - 1) ] else [])
      @ if k > 1 then [ (init, dels, news, k - 1, z) ] else [])
    ~show:(fun (init, dels, news, k, z) ->
      Printf.sprintf "k=%d z=%d init=%s dels=%s news=%s" k z (pts_str init)
        (ints_str (Array.to_list dels))
        (pts_str news))
    ~prop:(fun (init, dels, news, k, z) ->
      let eps = 0.5 and rounds = 40 in
      let inc =
        Gcso_general.Incremental.create ~eps ~rounds
          ~rects:[| gcso_base_rect |] ~k ~z ()
      in
      Array.iter
        (fun p -> ignore (Gcso_general.Incremental.insert inc p))
        init;
      let _ = Gcso_general.Incremental.query inc in
      let* () =
        require
          (Gcso_general.Incremental.last_warm inc = None)
          "the first (cold) solve fed warm weights"
      in
      let stored = Gcso_general.Incremental.stored_weights inc in
      let prior = Gcso_general.Incremental.prior_constraints inc in
      let* () =
        requiref
          (List.map fst stored
           = List.init (Array.length init) Fun.id
          && prior = Array.length init)
          "cold solve stored %d weights over ids %s (expected all %d \
           initial ids)"
          (List.length stored)
          (ints_str (List.map fst stored))
          (Array.length init)
      in
      (* Churn: delete some survivors (never draining below one live
         point), add fresh points, and force a re-solve via a rect
         insert far from every point (changes no coverage). *)
      Array.iter
        (fun t ->
          let live = Gcso_general.Incremental.live_ids inc in
          if List.length live > 1 then
            Gcso_general.Incremental.delete inc
              (List.nth live (t mod List.length live)))
        dels;
      Array.iter
        (fun p -> ignore (Gcso_general.Incremental.insert inc p))
        news;
      ignore
        (Gcso_general.Incremental.insert_rect inc
           (Rect.of_intervals [ (50.0, 51.0); (50.0, 51.0) ]));
      let _, ids2, _ = Gcso_general.Incremental.query inc in
      match Gcso_general.Incremental.last_warm inc with
      | None -> Error "re-solve after a prior solve fed no warm weights"
      | Some (wids, ws) ->
          let* () =
            require (wids = ids2)
              "warm vector ids differ from the re-solve's live ids"
          in
          let floor_w =
            Cso_lp.Mwu.min_weight_factor /. float_of_int prior
          in
          Array.to_list wids
          |> List.mapi (fun i id -> (i, id))
          |> List.fold_left
               (fun acc (i, id) ->
                 let* () = acc in
                 match List.assoc_opt id stored with
                 | Some w ->
                     requiref
                       (Int64.bits_of_float ws.(i) = Int64.bits_of_float w)
                       "surviving id %d warm weight %.17g <> stored %.17g"
                       id ws.(i) w
                 | None ->
                     requiref
                       (Int64.bits_of_float ws.(i)
                       = Int64.bits_of_float floor_w)
                       "fresh id %d entered at %.17g, expected the floor \
                        %.17g"
                       id ws.(i) floor_w)
               (Ok ()))

(* ------------------------------------------------------------------ *)
(* relational.*                                                       *)
(* ------------------------------------------------------------------ *)

(* Schema pool: indices into this array are part of the instance so the
   shrinker can keep the schema fixed while dropping tuples. The first
   [n_acyclic] schemas have a join tree; the triangle is cyclic and only
   exercised through the hypertree decomposition. *)
let schemas =
  [|
    Rel.Schema.make ~attr_names:[ "A"; "B"; "C" ] [ ("R", [ 0; 1 ]); ("S", [ 1; 2 ]) ];
    Rel.Schema.make
      ~attr_names:[ "A"; "B"; "C"; "D" ]
      [ ("R", [ 0; 1 ]); ("S", [ 1; 2 ]); ("T", [ 2; 3 ]) ];
    Rel.Schema.make
      ~attr_names:[ "A"; "B"; "C"; "D" ]
      [ ("R", [ 0; 1 ]); ("S", [ 1; 2 ]); ("T", [ 1; 3 ]) ];
    Rel.Schema.make
      ~attr_names:[ "A"; "B"; "C"; "D" ]
      [ ("R", [ 0; 1 ]); ("S", [ 2; 3 ]) ];
    Rel.Schema.make ~attr_names:[ "A"; "B"; "C" ]
      [ ("R", [ 0; 1 ]); ("S", [ 1; 2 ]); ("T", [ 0; 2 ]) ];
  |]

let n_acyclic = 4

type rel_inst = { r_schema : int; r_tuples : float array list list }

let gen_rel ?(n_schemas = n_acyclic) rng =
  let si = Random.State.int rng n_schemas in
  let schema = schemas.(si) in
  let tuples =
    List.init (Rel.Schema.n_relations schema) (fun rel ->
        let arity = Array.length (Rel.Schema.rel_attrs schema rel) in
        List.init (int_in rng 0 4) (fun _ ->
            Array.init arity (fun _ -> float_of_int (Random.State.int rng 3))))
  in
  { r_schema = si; r_tuples = tuples }

let shrink_rel r =
  List.concat
    (List.mapi
       (fun rel ts ->
         List.init (List.length ts) (fun j ->
             {
               r with
               r_tuples =
                 List.mapi
                   (fun rel' ts' ->
                     if rel' = rel then List.filteri (fun j' _ -> j' <> j) ts'
                     else ts')
                   r.r_tuples;
             }))
       r.r_tuples)

let show_rel r =
  Printf.sprintf "schema#%d %s" r.r_schema
    (String.concat " | "
       (List.map
          (fun ts ->
            String.concat ";"
              (List.map
                 (fun t ->
                   "("
                   ^ String.concat ","
                       (List.map (Printf.sprintf "%g") (Array.to_list t))
                   ^ ")")
                 ts))
          r.r_tuples))

let rel_instance r = Rel.Instance.make schemas.(r.r_schema) r.r_tuples

let pts_sorted a = List.sort compare (Array.to_list a)

let rel_yannakakis =
  Fuzz.make ~name:"relational.yannakakis_vs_nested_loop"
    ~gen:(fun rng -> gen_rel rng)
    ~shrink:shrink_rel ~show:show_rel
    ~prop:(fun r ->
      let inst = rel_instance r in
      let jt = Rel.Join_tree.build_exn schemas.(r.r_schema) in
      let naive = Reference.join inst in
      let* () =
        requiref
          (Rel.Yannakakis.count inst jt = List.length naive)
          "count %d <> nested-loop %d"
          (Rel.Yannakakis.count inst jt)
          (List.length naive)
      in
      let enum = pts_sorted (Rel.Yannakakis.enumerate inst jt) in
      let* () = require (enum = naive) "enumerate differs from nested-loop join" in
      match Rel.Yannakakis.any inst jt with
      | None -> require (naive = []) "any = None on a non-empty join"
      | Some q ->
          require (List.mem (Array.copy q) naive) "any returned a non-result")

let rel_semijoin =
  Fuzz.make ~name:"relational.semijoin_preserves_join"
    ~gen:(fun rng -> gen_rel rng)
    ~shrink:shrink_rel ~show:show_rel
    ~prop:(fun r ->
      let inst = rel_instance r in
      let jt = Rel.Join_tree.build_exn schemas.(r.r_schema) in
      let naive = Reference.join inst in
      let reduced = Rel.Yannakakis.semijoin_reduce inst jt in
      let* () =
        require
          (Reference.join reduced = naive)
          "semijoin reduction changed the join"
      in
      let* () =
        requiref
          (Rel.Instance.size reduced <= Rel.Instance.size inst)
          "reduction grew the instance: %d > %d"
          (Rel.Instance.size reduced) (Rel.Instance.size inst)
      in
      (* Full reduction: every surviving tuple participates in a result. *)
      require
        (List.for_all
           (fun (rel, tup) ->
             List.exists
               (fun res -> Rel.Instance.project_result reduced ~rel res = tup)
               naive)
           (Rel.Instance.all_tuples reduced))
        "a reduced tuple participates in no join result")

let rel_sample =
  Fuzz.make ~name:"relational.sample_membership"
    ~gen:(fun rng -> gen_rel rng)
    ~shrink:shrink_rel ~show:show_rel
    ~prop:(fun r ->
      let inst = rel_instance r in
      let jt = Rel.Join_tree.build_exn schemas.(r.r_schema) in
      let naive = Reference.join inst in
      let rng = Random.State.make [| 42 |] in
      let samples = Rel.Yannakakis.sample ~rng inst jt 8 in
      if naive = [] then
        requiref
          (Array.length samples = 0)
          "%d samples from an empty join" (Array.length samples)
      else
        require
          (Array.for_all (fun q -> List.mem q naive) samples)
          "sample returned a non-result")

let rel_hypertree =
  Fuzz.make ~name:"relational.hypertree_vs_nested_loop"
    ~gen:(fun rng -> gen_rel ~n_schemas:(Array.length schemas) rng)
    ~shrink:shrink_rel ~show:show_rel
    ~prop:(fun r ->
      let inst = rel_instance r in
      let naive = Reference.join inst in
      match Rel.Hypertree.decompose inst with
      | Error e -> Error ("decompose failed: " ^ Rel.Hypertree.error_to_string e)
      | Ok d ->
          let enum =
            pts_sorted
              (Rel.Yannakakis.enumerate d.Rel.Hypertree.instance
                 d.Rel.Hypertree.tree)
          in
          require (enum = naive)
            "decomposed join differs from nested-loop join of the original")

(* [Rcto.solve] splits the instance with a coin flip per tuple, and
   Theorem 4.4 assumes each tuple lands on exactly one side: the
   predicate must run once per tuple, its [true] tuples forming the
   first half and the rest the second, both in the original order. The
   coins come from a seed drawn with the instance, so a failure
   replays. *)
let rel_partition =
  Fuzz.make ~name:"relational.partition_exact"
    ~gen:(fun rng ->
      let r = gen_rel rng in
      (r, Random.State.bits rng))
    ~shrink:(fun (r, seed) -> List.map (fun r -> (r, seed)) (shrink_rel r))
    ~show:(fun (r, seed) -> Printf.sprintf "%s coins=%d" (show_rel r) seed)
    ~prop:(fun (r, seed) ->
      let inst = rel_instance r in
      let coins = Random.State.make [| seed |] in
      let coin_log = ref [] in
      let i1, i2 =
        Rel.Instance.partition inst (fun rel tup ->
            let b = Random.State.bool coins in
            coin_log := (b, (rel, tup)) :: !coin_log;
            b)
      in
      let drawn = List.rev !coin_log in
      let pick b =
        List.filter_map (fun (c, x) -> if c = b then Some x else None)
      in
      let tuples t =
        List.concat
          (List.mapi
             (fun rel ts ->
               List.map (fun tup -> (rel, tup)) (Array.to_list ts))
             (Array.to_list t.Rel.Instance.tuples))
      in
      requiref
        (List.map snd drawn = tuples inst
        && pick true drawn = tuples i1
        && pick false drawn = tuples i2)
        "%d coins for %d tuples, halves of %d and %d" (List.length drawn)
        (Rel.Instance.size inst) (Rel.Instance.size i1)
        (Rel.Instance.size i2))

(* The prepared rectangle oracle against the filtered copy and
   Yannakakis pass it replaced ([Reference.any_in_rect]), probe after
   probe on one handle: the same point bit for bit, or both [None], and
   the same counter deltas. Values repeat and mix -0. with 0., so keys
   meet across signs; bounds come from the values, -0. and the
   infinities, and are often flat. Removals and restores between probes
   pin the handle to [Instance.remove]. *)
type probe = P_rect of Rect.t | P_remove of int * float array | P_restore

type probe_inst = { pr_rel : rel_inst; pr_ops : probe list }

let probe_value rng = [| -0.0; 0.0; 1.0; 2.0 |].(Random.State.int rng 4)

let probe_bound rng =
  match Random.State.int rng 6 with
  | 0 -> neg_infinity
  | 1 -> infinity
  | 2 -> -0.0
  | _ -> probe_value rng

let gen_probe_rect rng d =
  Rect.of_intervals
    (List.init d (fun _ ->
         let a = probe_bound rng in
         let b = if Random.State.int rng 3 = 0 then a else probe_bound rng in
         if Float.compare a b <= 0 then (a, b) else (b, a)))

let gen_probes rng =
  let si = Random.State.int rng n_acyclic in
  let schema = schemas.(si) in
  let tuples =
    List.init (Rel.Schema.n_relations schema) (fun rel ->
        let arity = Array.length (Rel.Schema.rel_attrs schema rel) in
        List.init (int_in rng 0 5) (fun _ ->
            Array.init arity (fun _ -> probe_value rng)))
  in
  let victim () =
    let rel = Random.State.int rng (List.length tuples) in
    match List.nth tuples rel with
    | [] -> P_restore
    | ts ->
        (* Flip the sign of the zeros now and then: [Instance.remove]
           compares with [=], which equates them. *)
        let j = Random.State.int rng (List.length ts) in
        let tup = Array.copy (List.nth ts j) in
        if Random.State.bool rng then
          Array.iteri (fun i x -> if x = 0.0 then tup.(i) <- -.x) tup;
        P_remove (rel, tup)
  in
  let ops =
    List.init (int_in rng 1 8) (fun _ ->
        match Random.State.int rng 6 with
        | 0 -> victim ()
        | 1 -> P_restore
        | _ -> P_rect (gen_probe_rect rng (Rel.Schema.dims schema)))
  in
  { pr_rel = { r_schema = si; r_tuples = tuples }; pr_ops = ops }

let show_probe = function
  | P_rect r -> "rect " ^ rect_str r
  | P_remove (rel, tup) -> Printf.sprintf "remove %d:%s" rel (pt_str tup)
  | P_restore -> "restore"

let rel_any_in_rect =
  Fuzz.make ~name:"relational.any_in_rect_vs_reference" ~gen:gen_probes
    ~shrink:(fun p ->
      List.map (fun r -> { p with pr_rel = r }) (shrink_rel p.pr_rel)
      @ List.init (List.length p.pr_ops) (fun i ->
            { p with pr_ops = List.filteri (fun j _ -> j <> i) p.pr_ops }))
    ~show:(fun p ->
      Printf.sprintf "%s ops: %s" (show_rel p.pr_rel)
        (String.concat "; " (List.map show_probe p.pr_ops)))
    ~prop:(fun p ->
      let inst = rel_instance p.pr_rel in
      let jt = Rel.Join_tree.build_exn schemas.(p.pr_rel.r_schema) in
      let h = Rel.Oracles.prepare inst jt in
      let cur = ref inst in
      let bits = Option.map (Array.map Int64.bits_of_float) in
      let show = function None -> "none" | Some q -> pt_str q in
      List.fold_left
        (fun acc op ->
          let* () = acc in
          match op with
          | P_remove (rel, tup) ->
              Rel.Oracles.remove h [ (rel, tup) ];
              cur := Rel.Instance.remove !cur [ (rel, tup) ];
              Ok ()
          | P_restore ->
              Rel.Oracles.restore h;
              cur := inst;
              Ok ()
          | P_rect rect ->
              let got, gd =
                Cso_obs.Obs.with_delta (fun () ->
                    Rel.Oracles.any_in_rect h rect)
              in
              let want, wd =
                Cso_obs.Obs.with_delta (fun () ->
                    Reference.any_in_rect !cur jt rect)
              in
              let* () =
                requiref (bits got = bits want) "rect %s: %s vs reference %s"
                  (rect_str rect) (show got) (show want)
              in
              requiref (gd = wd) "rect %s: counter deltas differ"
                (rect_str rect))
        (Ok ()) p.pr_ops)

(* The pruned complement walk ([Oracles.find_outside]) against the
   unpruned [Box_complement.find_map] over [Reference.any_in_rect]: the
   first hit of [outside_witness] bit for bit, and the whole hit
   sequence of a drain that removes each hit's provenance, the pruned
   side from its handle and the unpruned side from an
   [Instance.remove]d copy. Values mix -0. with 0. and take the
   infinities; cube centers come from the same values and the half-side
   from {0, 0.5, 1, 1.5}, so tuples sit on cell faces and cubes can be
   flat. Some tuples are masked before the walk. *)
type walk_inst = {
  wk_rel : rel_inst;
  wk_mask : (int * float array) list;
  wk_centers : float array list;
  wk_r : float;
}

let walk_value rng =
  match Random.State.int rng 8 with
  | 0 -> neg_infinity
  | 1 -> infinity
  | _ -> probe_value rng

(* An acyclic instance with up to [max_tuples] tuples per relation
   (often none), each coordinate drawn by [value]. *)
let gen_valued_rel ?(max_tuples = 5) value rng =
  let si = Random.State.int rng n_acyclic in
  let schema = schemas.(si) in
  let tuples =
    List.init (Rel.Schema.n_relations schema) (fun rel ->
        let arity = Array.length (Rel.Schema.rel_attrs schema rel) in
        List.init (int_in rng 0 max_tuples) (fun _ ->
            Array.init arity (fun _ -> value rng)))
  in
  { r_schema = si; r_tuples = tuples }

(* Up to two (relation, tuple) pairs of [r] to hide. *)
let gen_mask rng r =
  List.concat
    (List.init (int_in rng 0 2) (fun _ ->
         let rel = Random.State.int rng (List.length r.r_tuples) in
         match List.nth r.r_tuples rel with
         | [] -> []
         | ts ->
             [ (rel, List.nth ts (Random.State.int rng (List.length ts))) ]))

let mask_str mask =
  String.concat "; "
    (List.map (fun (rel, tup) -> Printf.sprintf "%d:%s" rel (pt_str tup)) mask)

let gen_walk rng =
  let r = gen_valued_rel walk_value rng in
  let d = Rel.Schema.dims schemas.(r.r_schema) in
  let mask = gen_mask rng r in
  {
    wk_rel = r;
    wk_mask = mask;
    wk_centers =
      List.init (int_in rng 0 3) (fun _ ->
          Array.init d (fun _ -> walk_value rng));
    wk_r = [| 0.0; 0.5; 1.0; 1.5 |].(Random.State.int rng 4);
  }

let rel_outside_walk =
  Fuzz.make ~name:"relational.outside_walk_vs_reference" ~gen:gen_walk
    ~shrink:(fun w ->
      List.map (fun r -> { w with wk_rel = r }) (shrink_rel w.wk_rel)
      @ List.init (List.length w.wk_mask) (fun i ->
            { w with wk_mask = List.filteri (fun j _ -> j <> i) w.wk_mask })
      @ List.init (List.length w.wk_centers) (fun i ->
            {
              w with
              wk_centers = List.filteri (fun j _ -> j <> i) w.wk_centers;
            }))
    ~show:(fun w ->
      Printf.sprintf "%s mask: %s centers: %s r=%g" (show_rel w.wk_rel)
        (mask_str w.wk_mask)
        (String.concat "; " (List.map pt_str w.wk_centers))
        w.wk_r)
    ~prop:(fun w ->
      let schema = schemas.(w.wk_rel.r_schema) in
      let d = Rel.Schema.dims schema in
      let inst = rel_instance w.wk_rel in
      let jt = Rel.Join_tree.build_exn schema in
      let h = Rel.Oracles.prepare inst jt in
      Rel.Oracles.remove h w.wk_mask;
      let masked = Rel.Instance.remove inst w.wk_mask in
      let cubes =
        List.map
          (fun c -> Rect.cube ~center:c ~side:(2.0 *. w.wk_r))
          w.wk_centers
      in
      let bits = List.map (Array.map Int64.bits_of_float) in
      let show = function
        | [] -> "none"
        | qs -> String.concat " " (List.map pt_str qs)
      in
      let got =
        Option.to_list
          (Rel.Oracles.outside_witness h ~centers:w.wk_centers ~r:w.wk_r)
      in
      let want =
        Option.to_list
          (Cso_geom.Box_complement.find_map cubes d
             (Reference.any_in_rect masked jt))
      in
      let* () =
        requiref (bits got = bits want) "witness %s vs reference %s" (show got)
          (show want)
      in
      let provenance q =
        List.init (Rel.Schema.n_relations schema) (fun i ->
            (i, Rel.Instance.project_result inst ~rel:i q))
      in
      (* Drain every cell as [Rcto.drain] does, recording the hits. *)
      let drain walk any remove =
        let hits = ref [] in
        ignore
          (walk (fun cell ->
               let rec loop () =
                 match any cell with
                 | None -> None
                 | Some q ->
                     hits := q :: !hits;
                     remove (provenance q);
                     loop ()
               in
               loop ()));
        List.rev !hits
      in
      let got =
        drain
          (Rel.Oracles.find_outside h cubes)
          (Rel.Oracles.any_in_rect h) (Rel.Oracles.remove h)
      in
      let cur = ref masked in
      let want =
        drain
          (Cso_geom.Box_complement.find_map cubes d)
          (fun cell -> Reference.any_in_rect !cur jt cell)
          (fun victims -> cur := Rel.Instance.remove !cur victims)
      in
      requiref (bits got = bits want) "drained %s vs reference %s" (show got)
        (show want))

(* The flat L_inf lattice against the list-based one it replaced
   ([Reference.candidate_linf_distances]), bit for bit. Values mix -0.
   with 0., take the infinities and repeat, relations are often empty,
   and a third of the values come off a quarter grid or uniform, so the
   lattice has more than a handful of entries. *)
let lattice_value rng =
  match Random.State.int rng 3 with
  | 0 -> walk_value rng
  | 1 -> float_of_int (int_in rng (-8) 8) /. 4.0
  | _ -> Random.State.float rng 10.0

let rel_linf_candidates =
  Fuzz.make ~name:"relational.linf_candidates_vs_reference"
    ~gen:(gen_valued_rel ~max_tuples:6 lattice_value)
    ~shrink:shrink_rel ~show:show_rel
    ~prop:(fun r ->
      let inst = rel_instance r in
      let bits a = Array.map Int64.bits_of_float a in
      let got = Rel.Oracles.candidate_linf_distances inst in
      let want = Reference.candidate_linf_distances inst in
      requiref
        (bits got = bits want)
        "candidates [%s] vs reference [%s]" (floats_str got) (floats_str want))

(* The witness ascent ([Oracles.farthest_linf]) against the bisection it
   replaced ([Reference.farthest_linf]) on one masked handle: the same
   witness and distance, bit for bit, in at most 2 ceil(log2 |cand|) + 1
   walks. Values mix -0. with 0. and repeat, on a half grid wide enough
   for long candidate arrays; in half the instances some are infinite
   and some are tenths, whose differences and midpoints round. The 1-3 centers are join
   results of the masked instance or points whose every coordinate is a
   value its attribute takes there (the shrinker may break either).
   [cand] is the masked instance's own lattice, the unmasked one's, or
   that of the instance with more tuples, as a caller may pass a
   superset.

   Where every center and every masked join result is finite, every
   center coordinate is a value of its attribute in the masked
   instance, and all of them lie on the half grid, the distance must
   also be the brute-force max-min L_inf distance over
   [Yannakakis.enumerate]. Elsewhere it need not be, in both searches:
   a radius of inf covers every point around a finite center, so no
   probe can find a result at distance inf; a cube around a center with
   an infinite coordinate covers no point the walk tests; and where a
   rounded cube face lands on a result's coordinate, the closed cell
   still holds the result, so the search reads the next candidate, a
   few ulps above the distance. *)
type farthest_inst = {
  fr_rel : rel_inst;
  fr_mask : (int * float array) list;
  fr_centers : float array list;
  fr_cand : int; (* 0: the masked instance's own, 1: unmasked, 2: more *)
  fr_extra : float array list list;
}

(* On the half grid, or, unless [exact], an infinity or a tenth one
   time in eight each. *)
let farthest_value ~exact rng =
  match Random.State.int rng 16 with
  | 0 when not exact -> neg_infinity
  | 1 when not exact -> infinity
  | 2 -> -0.0
  | (3 | 4) when not exact -> float_of_int (int_in rng (-12) 12) /. 10.0
  | _ -> float_of_int (int_in rng (-12) 12) /. 2.0

(* The values attribute [a] takes in [inst], repeats included. *)
let attr_values (inst : Rel.Instance.t) a =
  let schema = inst.Rel.Instance.schema in
  List.concat
    (List.mapi
       (fun rel ts ->
         match Array.find_index (( = ) a) (Rel.Schema.rel_attrs schema rel) with
         | None -> []
         | Some pos ->
             List.map (fun (t : float array) -> t.(pos)) (Array.to_list ts))
       (Array.to_list inst.Rel.Instance.tuples))

let gen_farthest rng =
  (* Half the instances stay on the half grid, where the brute-force
     comparison applies. Most coordinates come from a pool of three per
     attribute, so that relations join; the rest are fresh. *)
  let farthest_value = farthest_value ~exact:(Random.State.bool rng) in
  let si = Random.State.int rng n_acyclic in
  let schema = schemas.(si) in
  let pools =
    Array.init (Rel.Schema.dims schema) (fun _ ->
        Array.init 3 (fun _ -> farthest_value rng))
  in
  let tuples =
    List.init (Rel.Schema.n_relations schema) (fun rel ->
        let attrs = Rel.Schema.rel_attrs schema rel in
        List.init (int_in rng 0 6) (fun _ ->
            Array.map
              (fun a ->
                if Random.State.int rng 3 = 0 then farthest_value rng
                else pools.(a).(Random.State.int rng 3))
              attrs))
  in
  let r = { r_schema = si; r_tuples = tuples } in
  let mask = gen_mask rng r in
  let masked = Rel.Instance.remove (rel_instance r) mask in
  let results = Array.of_list (Reference.join masked) in
  let off_join () =
    Array.init (Rel.Schema.dims schema) (fun a ->
        match attr_values masked a with
        | [] -> farthest_value rng
        | vs -> List.nth vs (Random.State.int rng (List.length vs)))
  in
  let centers =
    List.init (int_in rng 1 3) (fun _ ->
        if Array.length results > 0 && Random.State.bool rng then
          Array.copy results.(Random.State.int rng (Array.length results))
        else off_join ())
  in
  let extra =
    List.init (Rel.Schema.n_relations schema) (fun rel ->
        let arity = Array.length (Rel.Schema.rel_attrs schema rel) in
        List.init (int_in rng 0 2) (fun _ ->
            Array.init arity (fun _ -> farthest_value rng)))
  in
  { fr_rel = r; fr_mask = mask; fr_centers = centers;
    fr_cand = Random.State.int rng 3; fr_extra = extra }

let rec ceil_log2 m = if m <= 1 then 0 else 1 + ceil_log2 ((m + 1) / 2)

let rel_farthest_linf =
  Fuzz.make ~name:"relational.farthest_linf_vs_reference" ~gen:gen_farthest
    ~shrink:(fun f ->
      List.map (fun r -> { f with fr_rel = r }) (shrink_rel f.fr_rel)
      @ List.init (List.length f.fr_mask) (fun i ->
            { f with fr_mask = List.filteri (fun j _ -> j <> i) f.fr_mask })
      @ (if List.length f.fr_centers <= 1 then []
         else
           List.init (List.length f.fr_centers) (fun i ->
               { f with
                 fr_centers = List.filteri (fun j _ -> j <> i) f.fr_centers }))
      @ if f.fr_extra = [] || List.for_all (( = ) []) f.fr_extra then []
        else [ { f with fr_extra = List.map (fun _ -> []) f.fr_extra } ])
    ~show:(fun f ->
      Printf.sprintf "%s mask: %s centers: %s cand#%d extra: %s"
        (show_rel f.fr_rel) (mask_str f.fr_mask)
        (String.concat "; " (List.map pt_str f.fr_centers))
        f.fr_cand
        (show_rel { f.fr_rel with r_tuples = f.fr_extra }))
    ~prop:(fun f ->
      let schema = schemas.(f.fr_rel.r_schema) in
      let inst = rel_instance f.fr_rel in
      let jt = Rel.Join_tree.build_exn schema in
      let masked = Rel.Instance.remove inst f.fr_mask in
      let h = Rel.Oracles.prepare inst jt in
      Rel.Oracles.remove h f.fr_mask;
      let cand =
        Rel.Oracles.candidate_linf_distances
          (match f.fr_cand with
          | 0 -> masked
          | 1 -> inst
          | _ ->
              Rel.Instance.make schema
                (List.map2 ( @ ) f.fr_rel.r_tuples f.fr_extra))
      in
      let centers = f.fr_centers in
      let (gw, gd), deltas =
        Cso_obs.Obs.with_delta (fun () ->
            Rel.Oracles.farthest_linf h ~centers ~cand)
      in
      let ww, wd = Reference.farthest_linf h ~centers ~cand in
      let bits = Option.map (Array.map Int64.bits_of_float) in
      let show = function None -> "none" | Some q -> pt_str q in
      let* () =
        requiref
          (bits gw = bits ww && Int64.bits_of_float gd = Int64.bits_of_float wd)
          "(%s, %h) vs reference (%s, %h)" (show gw) gd (show ww) wd
      in
      let walks =
        Option.value ~default:0
          (List.assoc_opt "relational.oracle.outside_witness" deltas)
      in
      let cap = (2 * ceil_log2 (Array.length cand)) + 1 in
      let* () =
        requiref (walks <= cap) "%d walks over %d candidates, more than %d"
          walks (Array.length cand) cap
      in
      (* Every distance from a center to a result is then a difference
         of two values of one attribute, which [cand] holds, and every
         midpoint and cube face is exact. *)
      let results = Array.to_list (Rel.Yannakakis.enumerate masked jt) in
      let exact p = Array.for_all (fun x -> Float.is_integer (2.0 *. x)) p in
      let on_values c =
        let ok = ref true in
        Array.iteri
          (fun a x ->
            if not (List.mem x (attr_values masked a)) then ok := false)
          c;
        !ok
      in
      if
        List.for_all exact centers
        && List.for_all exact results
        && List.for_all on_values centers
      then
        let brute =
          List.fold_left
            (fun acc q ->
              Float.max acc
                (List.fold_left
                   (fun m c -> Float.min m (Point.linf c q))
                   infinity centers))
            0.0 results
        in
        requiref (gd = brute) "distance %h, brute force %h" gd brute
      else Ok ())

(* ------------------------------------------------------------------ *)
(* serve.*                                                            *)
(* ------------------------------------------------------------------ *)

module Sproto = Cso_serve.Protocol

(* Wire values covering every constructor of both message types: floats
   from the grid/uniform mix plus infinite rectangle bounds, names that
   exercise JSON escaping, ids up to the 2^53 JSONL-exactness bound. *)

type wire_msg = Wreq of Sproto.request | Wresp of Sproto.response

let gen_wire_name rng =
  let pool = "abz \"\\\n\t/{}" in
  String.init (int_in rng 0 6) (fun _ ->
      pool.[Random.State.int rng (String.length pool)])

let gen_wire_id rng =
  if Random.State.int rng 10 = 0 then (1 lsl 53) - 1
  else Random.State.int rng 1000

let gen_wire_req rng =
  let d = int_in rng 1 3 in
  let pt () = Array.init d (fun _ -> coord rng) in
  let wrect () =
    Rect.make
      ~lo:
        (Array.init d (fun _ ->
             if Random.State.int rng 8 = 0 then neg_infinity
             else -.coord rng))
      ~hi:
        (Array.init d (fun _ ->
             if Random.State.int rng 8 = 0 then infinity
             else 4.0 +. coord rng))
  in
  let name = gen_wire_name rng in
  match Random.State.int rng 14 with
  | 0 ->
      let points = Array.init (int_in rng 0 4) (fun _ -> pt ()) in
      let rects = Array.init (int_in rng 1 3) (fun _ -> wrect ()) in
      Sproto.Load
        {
          name;
          points;
          rects;
          k = int_in rng 1 3;
          z = int_in rng 0 2;
          eps = 0.5 +. Random.State.float rng 1.0;
          rounds = (if Random.State.bool rng then None else Some (int_in rng 1 50));
          drift = 1.0 +. Random.State.float rng 2.0;
        }
  | 1 -> Sproto.Prepare name
  | 2 -> Sproto.Solve name
  | 3 ->
      Sproto.Query_ball
        { name; center = pt (); radius = coord rng;
          eps = Random.State.float rng 0.5 }
  | 4 ->
      Sproto.Balls_all
        { name; radius = coord rng; eps = Random.State.float rng 0.5 }
  | 5 -> Sproto.Assign name
  | 6 -> Sproto.Insert { name; point = pt () }
  | 7 -> Sproto.Delete { name; id = gen_wire_id rng }
  | 8 -> Sproto.Stats
  | 9 -> Sproto.Metrics
  | 10 -> Sproto.Flight
  | 11 -> Sproto.Insert_rect { name; rect = wrect () }
  | 12 -> Sproto.Delete_rect { name; id = gen_wire_id rng }
  | _ -> Sproto.Shutdown

let gen_wire_resp rng =
  let ids () = List.init (int_in rng 0 4) (fun _ -> gen_wire_id rng) in
  match Random.State.int rng 12 with
  | 0 -> Sproto.Ok_reply
  | 1 -> Sproto.Inserted (gen_wire_id rng)
  | 2 ->
      Sproto.Solved
        {
          centers = ids ();
          outliers = ids ();
          radius = coord rng;
          rounds_per_guess = int_in rng 1 50;
          guesses = int_in rng 1 5;
          re_solves = int_in rng 0 9;
          cached = Random.State.bool rng;
        }
  | 3 -> Sproto.Ball (ids ())
  | 4 -> Sproto.Balls (Array.init (int_in rng 0 3) (fun _ -> ids ()))
  | 5 ->
      Sproto.Assigned
        (List.init (int_in rng 0 4) (fun _ -> (gen_wire_id rng, gen_wire_id rng)))
  | 6 -> Sproto.Stats_reply (gen_wire_name rng)
  | 7 ->
      let kinds =
        [| Sproto.Bad_request; Sproto.Unknown_instance; Sproto.Already_loaded;
           Sproto.Not_prepared; Sproto.No_solution; Sproto.Bad_frame;
           Sproto.Too_large; Sproto.Orphaned |]
      in
      Sproto.Error
        (kinds.(Random.State.int rng (Array.length kinds)), gen_wire_name rng)
  | 8 -> Sproto.Overloaded
  | 9 -> Sproto.Metrics_reply (gen_wire_name rng)
  | 10 -> Sproto.Flight_reply (gen_wire_name rng)
  | _ -> Sproto.Bye

let gen_wire rng =
  if Random.State.bool rng then Wreq (gen_wire_req rng)
  else Wresp (gen_wire_resp rng)

let show_wire = function
  | Wreq r -> "request " ^ String.trim (Sproto.encode_request Sproto.Jsonl r)
  | Wresp r -> "response " ^ String.trim (Sproto.encode_response Sproto.Jsonl r)

let wire_frame mode = function
  | Wreq r -> Sproto.encode_request mode r
  | Wresp r -> Sproto.encode_response mode r

let serve_protocol_roundtrip =
  Fuzz.make ~name:"serve.protocol_roundtrip" ~gen:gen_wire
    ~shrink:(fun _ -> [])
    ~show:show_wire
    ~prop:(fun msg ->
      (* The full frame goes through a {!Sproto.reader} (exercising the
         length/newline framing), then the extracted payload must decode
         back to the identical value — in both codecs. *)
      let one mode =
        let frame = wire_frame mode msg in
        let rd = Sproto.reader mode in
        match Sproto.feed rd (Bytes.of_string frame) (String.length frame) with
        | [ `Frame payload ] when Sproto.reader_pending rd = 0 -> (
            match msg with
            | Wreq r -> (
                match Sproto.decode_request mode payload with
                | Ok r' when r' = r -> Ok ()
                | Ok _ ->
                    Error
                      (Sproto.mode_to_string mode
                      ^ ": request roundtrip changed the value")
                | Error m ->
                    Error
                      (Sproto.mode_to_string mode
                      ^ ": request failed to decode: " ^ m))
            | Wresp r -> (
                match Sproto.decode_response mode payload with
                | Ok r' when r' = r -> Ok ()
                | Ok _ ->
                    Error
                      (Sproto.mode_to_string mode
                      ^ ": response roundtrip changed the value")
                | Error m ->
                    Error
                      (Sproto.mode_to_string mode
                      ^ ": response failed to decode: " ^ m)))
        | evs ->
            Error
              (Printf.sprintf "%s: reader yielded %d events for one frame"
                 (Sproto.mode_to_string mode) (List.length evs))
      in
      let* () = one Sproto.Binary in
      one Sproto.Jsonl)

let serve_protocol_malformed =
  Fuzz.make ~name:"serve.protocol_malformed"
    ~gen:(fun rng ->
      let mode = if Random.State.bool rng then Sproto.Binary else Sproto.Jsonl in
      let b = Bytes.of_string (wire_frame mode (gen_wire rng)) in
      let s =
        match Random.State.int rng 3 with
        | 0 -> Bytes.sub_string b 0 (Random.State.int rng (Bytes.length b + 1))
        | 1 ->
            if Bytes.length b > 0 then
              Bytes.set b
                (Random.State.int rng (Bytes.length b))
                (Char.chr (Random.State.int rng 256));
            Bytes.to_string b
        | _ ->
            String.init (Random.State.int rng 32) (fun _ ->
                Char.chr (Random.State.int rng 256))
      in
      (mode, s))
    ~shrink:(fun (mode, s) ->
      if String.length s = 0 then []
      else
        [
          (mode, String.sub s 0 (String.length s - 1));
          (mode, String.sub s 1 (String.length s - 1));
        ])
    ~show:(fun (mode, s) ->
      Printf.sprintf "%s %d bytes: \"%s\"" (Sproto.mode_to_string mode)
        (String.length s) (String.escaped s))
    ~prop:(fun (mode, s) ->
      (* Decoders are total on hostile bytes, and the frame reader never
         raises — an oversized length header must poison it. *)
      let total what f =
        match f mode s with
        | Ok _ | Error _ -> Ok ()
        | exception e ->
            Error (Printf.sprintf "%s raised %s" what (Printexc.to_string e))
      in
      let* () = total "decode_request" Sproto.decode_request in
      let* () = total "decode_response" Sproto.decode_response in
      match
        let rd = Sproto.reader mode in
        let evs = Sproto.feed rd (Bytes.of_string s) (String.length s) in
        List.for_all
          (function
            | `Oversized _ -> Sproto.reader_poisoned rd | `Frame _ -> true)
          evs
      with
      | true -> Ok ()
      | false -> Error "oversized frame did not poison the reader"
      | exception e -> Error ("reader raised " ^ Printexc.to_string e))

(* ------------------------------------------------------------------ *)

let all =
  [
    metric_ball;
    metric_pairwise;
    metric_sort_uniq;
    metric_cached;
    metric_packed_kernels;
    metric_radius_grid;
    geom_bbd_sandwich;
    geom_bbd_balls_all;
    geom_bbd_scale;
    geom_wspd_lattice;
    geom_box_complement;
    kcenter_gonzalez;
    kcenter_gonzalez_scale;
    kcenter_charikar;
    lp_flat_vs_reference;
    lp_optimal_feasible;
    lp_duals_certify;
    lp_cutoff_vs_full;
    lp_mwu_vs_simplex;
    setcover_greedy;
    setcover_exact;
    cso_exact;
    cso_lp_tricriteria;
    cso_disjoint_tricriteria;
    cso_lp_dual_vs_primal;
    cso_budget_monotone;
    cso_kmedian_bounds;
    gcso_mwu_tricriteria;
    gcso_disjoint_tricriteria;
    gcso_batched_oracle;
    gcso_rect_members;
    dynamic_bbd;
    dynamic_gcso_incremental;
    dynamic_partial_rebuild;
    gcso_rect_updates;
    gcso_warm_map;
    rel_yannakakis;
    rel_semijoin;
    rel_sample;
    rel_hypertree;
    rel_any_in_rect;
    rel_outside_walk;
    rel_linf_candidates;
    rel_farthest_linf;
    rel_partition;
    serve_protocol_roundtrip;
    serve_protocol_malformed;
  ]

let names = List.map Fuzz.name all
