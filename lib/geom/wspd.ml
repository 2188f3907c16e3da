module Points = Cso_metric.Points
module Float_sort = Cso_metric.Float_sort
module Obs = Cso_obs.Obs

(* Pairs emitted and split-tree recursion steps: the decomposition's
   O(s^d n) pair bound shows up as near-linear growth of both. *)
let c_pairs = Obs.counter "geom.wspd.pairs"
let c_find = Obs.counter "geom.wspd.find_calls"

(* Distribution of achieved separation ratios (center distance over the
   larger radius) across emitted pairs. Every emitted pair must clear
   the requested [s]; the histogram shows how much slack the fair-split
   tree actually leaves. Leaf-leaf fallback pairs have radius 0 on both
   sides and land in the top bucket (ratio = infinity). *)
let h_sep = Obs.Hist.hist "geom.wspd.pair_sep_ratio"

(* Every center-to-center distance and node radius is a Euclidean
   distance evaluation, counted once each on the shared counter exactly
   as a [Point.l2] call would; the flat code tallies them locally and
   publishes one [Obs.add] per call. *)
let c_dist = Obs.counter "metric.dist_evals"

(* Fair-split tree as flat arrays indexed by node id (pre-order). Node
   [u] has representative point [repr.(u)], ball center
   [center.(u * d .. u * d + d - 1)] (the middle of its tight bounding
   box) and radius [radius.(u)] (that box's half-diagonal); [left] and
   [right] are [-1] at leaves. Leaves hold one point each. *)
type tree = {
  d : int;
  n_nodes : int;
  repr : int array;
  center : float array;
  radius : float array;
  left : int array;
  right : int array;
}

(* [Point.l2] between rows [u] and [v] of a row-major array of
   [d]-vectors, same accumulation order (hence also bit-identical to
   [Points.l2_idx]), without a counter event. *)
let[@inline] l2_rows (x : float array) d u v =
  let acc = ref 0.0 in
  for j = 0 to d - 1 do
    let e =
      Array.unsafe_get x ((u * d) + j) -. Array.unsafe_get x ((v * d) + j)
    in
    acc := !acc +. (e *. e)
  done;
  sqrt !acc

let[@inline] center_dist t u v = l2_rows t.center t.d u v

(* [Stdlib.max] on floats: [if a >= b then a else b]. *)
let[@inline] fmax (a : float) b = if a >= b then a else b

(* Fair-split tree: split the widest dimension of the bounding box at the
   median point. Identical-coordinate inputs still split by index count.
   Every node costs one distance evaluation (its radius). *)
let build_tree coords =
  let n = Points.length coords and d = Points.dim coords in
  let nn = if n = 0 then 0 else (2 * n) - 1 in
  let t =
    { d; n_nodes = nn; repr = Array.make nn (-1);
      center = Array.make (nn * d) 0.0; radius = Array.make nn 0.0;
      left = Array.make nn (-1); right = Array.make nn (-1) }
  in
  let idx = Array.init n (fun i -> i) in
  let box = Array.make (2 * d) 0.0 in
  let keys = Array.make n 0.0 and ids = Array.make n 0 in
  let next = ref 0 in
  let rec go lo hi =
    let id = !next in
    incr next;
    Rect.bounding_box_into coords idx ~lo ~hi box 0;
    let acc = ref 0.0 in
    for j = 0 to d - 1 do
      let c = (box.(j) +. box.(d + j)) /. 2.0 in
      t.center.((id * d) + j) <- c;
      let e = c -. box.(j) in
      acc := !acc +. (e *. e)
    done;
    t.radius.(id) <- sqrt !acc;
    if hi - lo = 1 then t.repr.(id) <- idx.(lo)
    else begin
      Rect.sort_by_widest_dim coords idx ~lo ~hi ~keys ~ids;
      let mid = lo + ((hi - lo) / 2) in
      t.left.(id) <- go lo mid;
      t.right.(id) <- go mid hi;
      (* Read after the children's splits: the leftmost leaf's point. *)
      t.repr.(id) <- idx.(lo)
    end;
    id
  in
  if n > 0 then ignore (go 0 n);
  Obs.add c_dist nn;
  t

(* Core recursion over the split tree, shared by [pairs_info] and
   [candidate_distances_packed]; [emit u v] receives each
   well-separated node pair. With observability on, each emitted pair
   also records its separation ratio, one more center distance unless
   both radii are 0. *)
let iter_pairs ~s t emit =
  let left = t.left and right = t.right and radius = t.radius in
  let finds = ref 0 and pairs = ref 0 and dists = ref 0 in
  let emit u v =
    incr pairs;
    if Obs.enabled () then begin
      let rmax = fmax radius.(u) radius.(v) in
      let ratio =
        if rmax > 0.0 then begin
          incr dists;
          center_dist t u v /. rmax
        end
        else infinity
      in
      Obs.Hist.observe_float h_sep ratio
    end;
    emit u v
  in
  let rec find u v =
    incr finds;
    incr dists;
    let ru = radius.(u) and rv = radius.(v) in
    if center_dist t u v -. ru -. rv >= s *. fmax ru rv then emit u v
    else if ru >= rv then begin
      (* A leaf u splits v instead; two leaves here coincide. *)
      if left.(u) >= 0 then begin
        find left.(u) v;
        find right.(u) v
      end
      else if left.(v) >= 0 then begin
        find u left.(v);
        find u right.(v)
      end
      else emit u v
    end
    else if left.(v) >= 0 then begin
      find u left.(v);
      find u right.(v)
    end
    else if left.(u) >= 0 then begin
      find left.(u) v;
      find right.(u) v
    end
    else emit u v
  in
  let rec walk u =
    if left.(u) >= 0 then begin
      find left.(u) right.(u);
      walk left.(u);
      walk right.(u)
    end
  in
  if t.n_nodes > 0 then walk 0;
  Obs.add c_find !finds;
  Obs.add c_pairs !pairs;
  Obs.add c_dist !dists

let separation ?(eps = 0.25) () =
  (* Separation 4/eps: representative distances then approximate every
     cross pair within (1 +- eps). *)
  max (4.0 /. eps) 1.0

type pair_info = {
  pi_a : int;
  pi_b : int;
  pi_ra : float;
  pi_rb : float;
  pi_center_dist : float;
  pi_pts_a : int list;
  pi_pts_b : int list;
}

let rec points_of t u acc =
  if t.left.(u) >= 0 then points_of t t.left.(u) (points_of t t.right.(u) acc)
  else t.repr.(u) :: acc

let pairs_info ?(eps = 0.25) pts =
  let s = separation ~eps () in
  let t = build_tree (Points.of_array pts) in
  let acc = ref [] in
  iter_pairs ~s t (fun u v ->
      Obs.incr c_dist;
      acc :=
        { pi_a = t.repr.(u); pi_b = t.repr.(v); pi_ra = t.radius.(u);
          pi_rb = t.radius.(v); pi_center_dist = center_dist t u v;
          pi_pts_a = points_of t u []; pi_pts_b = points_of t v [] }
        :: !acc);
  !acc

(* Production entry point. The representative distance of every pair
   goes straight into one float buffer, after a leading [0.]; the
   emitted run is then reversed, so the buffer holds the values in the
   order the list-based reference (lib/refcheck) sorts them.
   {!Cso_metric.Float_sort.sort_uniq} then leaves the [Array.sort]
   permutation plus a first-of-run dedupe under [=], bit for bit: with
   a nan or a [-0.] among the values it runs that very heap sort on
   this order, and without either the order of ties cannot show. *)
let candidate_distances_packed ?(eps = 0.25) coords =
  let s = separation ~eps () in
  let t = build_tree coords in
  let buf = ref (Array.make (max 16 (8 * Points.length coords)) 0.0) in
  let len = ref 1 in
  iter_pairs ~s t (fun u v ->
      if !len = Array.length !buf then begin
        let bigger = Array.make (2 * !len) 0.0 in
        Array.blit !buf 0 bigger 0 !len;
        buf := bigger
      end;
      Array.unsafe_set !buf !len
        (l2_rows coords.Points.data coords.Points.dim t.repr.(u) t.repr.(v));
      incr len);
  let a = !buf and len = !len in
  Obs.add c_dist (len - 1);
  let i = ref 1 and j = ref (len - 1) in
  while !i < !j do
    let x = a.(!i) in
    a.(!i) <- a.(!j);
    a.(!j) <- x;
    incr i;
    decr j
  done;
  Array.sub a 0 (Float_sort.sort_uniq a len)

(* Boxed wrapper, test/reference only: packs and delegates. *)
let candidate_distances ?eps pts =
  candidate_distances_packed ?eps (Points.of_array pts)
