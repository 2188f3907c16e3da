type t = {
  size : int;
  dist : int -> int -> float;
}

(* Distance probes against the Space interface. Distinct from
   [metric.dist_evals]: a matrix-backed (or cached) space answers a
   probe by lookup without evaluating any norm, yet the probe is still
   the unit of work the k-center algorithms are measured in. *)
let c_probe = Cso_obs.Obs.counter "metric.space_probes"

let instrument dist i j =
  Cso_obs.Obs.incr c_probe;
  dist i j

let create ~size ~dist =
  if size < 0 then invalid_arg "Space.create: negative size";
  { size; dist = instrument dist }

let of_points pts =
  { size = Array.length pts; dist = instrument (fun i j -> Point.l2 pts.(i) pts.(j)) }

let of_matrix m =
  let n = Array.length m in
  Array.iter
    (fun row ->
      if Array.length row <> n then
        invalid_arg "Space.of_matrix: matrix is not square")
    m;
  { size = n; dist = instrument (fun i j -> m.(i).(j)) }

(* Rows are independent; a whole row is the unit of parallel work so
   that the per-index overhead stays negligible. Symmetry is a
   documented precondition of [create], so only the diagonal-and-up part
   of each row is evaluated and the lower triangle is mirrored — this
   halves [metric.dist_evals] / [metric.space_probes] per [cached] call.
   The mirror writes m.(j).(i) with j > i, slots the worker owning row j
   never touches (it fills columns >= j only), so rows still fill in
   parallel without overlap. *)
let cached s =
  let n = s.size in
  let m = Array.make_matrix n n 0.0 in
  let pool = Cso_parallel.Pool.get_default () in
  Cso_parallel.Pool.parallel_for pool ~chunk:16 ~start:0 ~finish:(n - 1)
    (fun i ->
      let row = m.(i) in
      for j = i to n - 1 do
        row.(j) <- s.dist i j
      done;
      for j = i + 1 to n - 1 do
        m.(j).(i) <- row.(j)
      done);
  { size = n; dist = instrument (fun i j -> m.(i).(j)) }

let nearest_center s ~centers p =
  match centers with
  | [] -> invalid_arg "Space.nearest_center: no centers"
  | c0 :: rest ->
      let best = ref c0 and best_d = ref (s.dist p c0) in
      List.iter
        (fun c ->
          let d = s.dist p c in
          if d < !best_d then begin
            best := c;
            best_d := d
          end)
        rest;
      (!best, !best_d)

let cost s ~centers pts =
  match (pts, centers) with
  | [], _ -> 0.0
  | _, [] -> infinity
  | _ ->
      List.fold_left
        (fun acc p ->
          let _, d = nearest_center s ~centers p in
          max acc d)
        0.0 pts

let pairwise_distances s =
  let n = s.size in
  (* Pack the strict upper triangle into one flat array (row i starts at
     offset i*n - i*(i+1)/2 - (i+1)); slots are disjoint so rows fill in
     parallel. The extra last slot holds the 0. the paper's distance
     list always contains. *)
  let total = n * (n - 1) / 2 in
  let arr = Array.make (total + 1) 0.0 in
  let pool = Cso_parallel.Pool.get_default () in
  Cso_parallel.Pool.parallel_for pool ~chunk:16 ~start:0 ~finish:(n - 1)
    (fun i ->
      let base = (i * n) - (i * (i + 1) / 2) - (i + 1) in
      for j = i + 1 to n - 1 do
        arr.(base + j) <- s.dist i j
      done);
  (* [Array.sort Float.compare] plus a first-of-run dedupe, bit for
     bit, with no boxed comparison. *)
  Array.sub arr 0 (Float_sort.sort_uniq arr (total + 1))

let ball s ~center ~radius =
  let acc = ref [] in
  for i = s.size - 1 downto 0 do
    if s.dist center i <= radius then acc := i :: !acc
  done;
  !acc

let is_metric ?(eps = 1e-9) s =
  let ok = ref true in
  for i = 0 to s.size - 1 do
    if abs_float (s.dist i i) > eps then ok := false;
    for j = 0 to s.size - 1 do
      if abs_float (s.dist i j -. s.dist j i) > eps then ok := false;
      if i <> j && s.dist i j < -.eps then ok := false;
      for k = 0 to s.size - 1 do
        if s.dist i k > s.dist i j +. s.dist j k +. eps then ok := false
      done
    done
  done;
  !ok
