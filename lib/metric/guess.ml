(* The last [Some] seen is the answer: after a [Some] at [mid] the
   bracket keeps only the indices past [mid] in the search's direction,
   so each accepted index improves on the one before. *)
let search ~down n probe =
  let rec go lo hi best =
    if lo > hi then best
    else
      let mid = (lo + hi) / 2 in
      match probe mid with
      | Some v when down -> go lo (mid - 1) (Some (mid, v))
      | Some v -> go (mid + 1) hi (Some (mid, v))
      | None when down -> go (mid + 1) hi best
      | None -> go lo (mid - 1) best
  in
  go 0 (n - 1) None

let lowest n probe = search ~down:true n probe
let highest n probe = search ~down:false n probe

let c_grid_values = Cso_obs.Obs.counter "metric.radius_grid.values"

(* The smallest finite positive difference between two values of one
   coordinate ([infinity] when there is none), and the squares of the
   coordinate spans summed in the distance kernels' order: a computed
   coordinate difference never exceeds its span, so no computed distance
   exceeds the sum's square root. A nan or infinite coordinate makes the
   sum non-finite. *)
let gap_and_diag_sq (p : Points.t) =
  let n = p.Points.n and dim = p.Points.dim and data = p.Points.data in
  let col = Array.make n 0.0 in
  let gap = ref infinity and sum = ref 0.0 in
  for j = 0 to dim - 1 do
    for i = 0 to n - 1 do
      col.(i) <- data.((i * dim) + j)
    done;
    let m = Float_sort.sort_uniq col n in
    for i = 1 to m - 1 do
      let g = col.(i) -. col.(i - 1) in
      if g > 0.0 && g < !gap then gap := g
    done;
    if m > 0 then begin
      let span = col.(m - 1) -. col.(0) in
      sum := !sum +. (span *. span)
    end
  done;
  (!gap, !sum)

let radius_grid ~ratio p =
  if not (ratio > 1.0) then
    invalid_arg "Guess.radius_grid: ratio must exceed 1";
  let gap, diag_sq = gap_and_diag_sq p in
  let grid =
    if gap = infinity then [| 0.0 |]
    else begin
      let hi =
        let h = Float.sqrt diag_sq in
        if h <= Float.max_float then h else Float.max_float
      in
      (* Where [x *. ratio] rounds back to [x] (deep subnormals), step one
         float up instead, so the grid grows strictly and the loop ends. *)
      let step x =
        let y = x *. ratio in
        if y > x then Float.min y Float.max_float else Float.succ x
      in
      let rec climb acc x =
        if x >= hi then x :: acc else climb (x :: acc) (step x)
      in
      let lo = Float.max (gap /. 2.0) (Float.succ 0.0) in
      Array.of_list (0.0 :: List.rev (climb [] lo))
    end
  in
  Cso_obs.Obs.add c_grid_values (Array.length grid);
  grid
