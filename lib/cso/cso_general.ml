module Space = Cso_metric.Space
module Simplex = Cso_lp.Simplex
module Obs = Cso_obs.Obs

(* Coverage LPs solved by the binary search over pairwise distances. *)
let c_lp_solves = Obs.counter "cso.lp.solves"

type report = {
  solution : Instance.solution;
  radius : float;
  lp_solves : int;
}

(* (LP1) at guess [r] is the covering LP
     sum_{l in B(p_i, r)} x_l + sum_{j in L_i} y_j >= 1   (each i),
     sum_j y_j <= z,  sum_l x_l <= k,  0 <= x, y <= 1.
   Dropping the [<= 1] bounds does not change whether it is feasible
   (clipping a value above 1 down to 1 keeps every row satisfied), and
   then it is feasible iff [min sum x] over the other rows is at most
   [k]. That minimum is the optimum of the packing dual built here, by
   strong duality (DESIGN.md section 2, substitution 1):
     max sum_i u_i - z w
     s.t. sum_{i : l in B(p_i, r)} u_i <= 1      (one row per x_l)
          sum_{i in S_j} u_i - w <= 0           (one row per y_j)
          u, w >= 0.
   Its rows are LP1's columns, entry for entry ([Space.ball] from each
   [p_i] in turn, so an asymmetric distance transposes correctly), and
   its all-slack basis is feasible: one simplex phase, no artificials.
   Variables: u_0 .. u_{n-1}, then w. *)
let dual_lp ~cover_mult (t : Instance.t) ~r =
  let n = Instance.n_elements t and m = Instance.n_sets t in
  let nv = n + 1 in
  let x_rows = Array.init n (fun _ -> Array.make nv 0.0) in
  let y_rows =
    Array.init m (fun _ ->
        let a = Array.make nv 0.0 in
        a.(n) <- -1.0;
        a)
  in
  for i = 0 to n - 1 do
    List.iter
      (fun l -> x_rows.(l).(i) <- 1.0)
      (Space.ball t.Instance.space ~center:i ~radius:(cover_mult *. r));
    List.iter (fun j -> y_rows.(j).(i) <- 1.0) t.Instance.membership.(i)
  done;
  let objective = Array.make nv 1.0 in
  objective.(n) <- -.float_of_int t.Instance.z;
  let le b rows = Array.to_list (Array.map (fun a -> (a, Simplex.Le, b)) rows) in
  {
    Simplex.num_vars = nv;
    objective;
    constraints = le 1.0 x_rows @ le 0.0 y_rows;
    bounds = Simplex.box ~hi:infinity nv;
  }

(* The residual [Simplex]'s phase 1 allows, so that the verdict agrees
   with a two-phase solve of (LP1). *)
let accept_tol = 1e-7

let lp_point ?(cover_mult = 1.0) (t : Instance.t) ~r =
  let lp = Obs.with_span "cso.lp_build" (fun () -> dual_lp ~cover_mult t ~r) in
  match Simplex.solve lp with
  | Simplex.Optimal { value; duals; _ }
    when value <= float_of_int t.Instance.k +. accept_tol ->
      (* The dual prices are an optimal (x, y); clipping into [0, 1]
         keeps it feasible for (LP1) with its bounds (the prices are
         already >= -1e-9) and changes no rounding decision. *)
      Some (Array.map (fun v -> Float.min 1.0 (Float.max 0.0 v)) duals)
  | Simplex.Optimal _ | Simplex.Infeasible | Simplex.Unbounded -> None

(* Rounds a fractional (x, y) solution: threshold the set variables at
   1/(2f), then greedily cover the surviving elements. *)
let round ?(removal_mult = 2.0) (t : Instance.t) ~r ~sol =
  let n = Instance.n_elements t and m = Instance.n_sets t in
  let f = float_of_int (max 1 (Instance.frequency t)) in
  let threshold = (1.0 /. (2.0 *. f)) -. 1e-9 in
  let outliers = ref [] in
  for j = m - 1 downto 0 do
    if sol.(n + j) >= threshold then outliers := j :: !outliers
  done;
  let active = Array.make n false in
  List.iter (fun i -> active.(i) <- true) (Instance.surviving t !outliers);
  let centers = ref [] in
  let removal = removal_mult *. r in
  for i = 0 to n - 1 do
    if active.(i) then begin
      centers := i :: !centers;
      for l = 0 to n - 1 do
        if active.(l) && t.Instance.space.Space.dist i l <= removal then
          active.(l) <- false
      done
    end
  done;
  { Instance.centers = List.rev !centers; outliers = !outliers }

let solve_at ?cover_mult ?removal_mult t ~r =
  match lp_point ?cover_mult t ~r with
  | None -> None
  | Some sol ->
      Some (Obs.with_span "cso.lp_round" (fun () -> round ?removal_mult t ~r ~sol))

let solve t =
  Obs.with_span "cso.solve" @@ fun () ->
  (* The binary search probes most pairwise distances many times over. *)
  let t = if Instance.n_elements t <= 2048 then Instance.with_cached_space t else t in
  let dists = Space.pairwise_distances t.Instance.space in
  let lp_solves = ref 0 in
  let lo = ref 0 and hi = ref (Array.length dists - 1) in
  let best = ref None in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    incr lp_solves;
    Obs.incr c_lp_solves;
    match solve_at t ~r:dists.(mid) with
    | Some sol ->
        Log.debug (fun m ->
            m "cso-lp: r=%g feasible (|C|=%d |H|=%d)" dists.(mid)
              (List.length sol.Instance.centers)
              (List.length sol.Instance.outliers));
        best := Some (sol, dists.(mid));
        hi := mid - 1
    | None ->
        Log.debug (fun m -> m "cso-lp: r=%g infeasible" dists.(mid));
        lo := mid + 1
  done;
  match !best with
  | Some (solution, radius) -> { solution; radius; lp_solves = !lp_solves }
  | None ->
      (* Unreachable: the largest pairwise distance is always feasible. *)
      assert false
