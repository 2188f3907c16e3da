module Obs = Cso_obs.Obs

(* Pivot operations across both phases (the simplex's unit of work) and
   top-level solves. *)
let c_pivots = Obs.counter "lp.simplex.pivots"
let c_solves = Obs.counter "lp.simplex.solves"

(* Pivots per top-level solve. The per-solve figure comes from a
   domain-local counter rather than the global atomic: concurrent solves
   on other domains would otherwise pollute each other's deltas. *)
let h_pivots = Obs.Hist.hist "lp.simplex.pivots_per_solve"
let dls_pivots : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0)

type op = Le | Ge | Eq

type problem = {
  num_vars : int;
  objective : float array;
  constraints : (float array * op * float) list;
  bounds : (float * float) array;
}

type outcome =
  | Optimal of { value : float; solution : float array; duals : float array }
  | Infeasible
  | Unbounded

let eps = 1e-9

let box ?(lo = 0.0) ?(hi = 1.0) n = Array.make n (lo, hi)

(* A nan anywhere would slip through every comparison below and the
   pivots would return a wrong outcome rather than fail; an infinite
   coefficient or rhs turns into nan on the first elimination. Only an
   upper bound may be infinite, and it builds no bound row. *)
let validate p =
  if Array.length p.objective <> p.num_vars then
    invalid_arg "Simplex: objective length";
  if Array.length p.bounds <> p.num_vars then invalid_arg "Simplex: bounds length";
  if not (Array.for_all Float.is_finite p.objective) then
    invalid_arg "Simplex: non-finite objective coefficient";
  Array.iter
    (fun (lo, hi) ->
      if Float.is_nan lo || Float.is_nan hi then invalid_arg "Simplex: nan bound";
      if lo = infinity then invalid_arg "Simplex: infinite lower bound";
      if lo < 0.0 then invalid_arg "Simplex: negative lower bound";
      if lo > hi then invalid_arg "Simplex: lo > hi")
    p.bounds;
  List.iter
    (fun (a, _, b) ->
      if Array.length a <> p.num_vars then invalid_arg "Simplex: row length";
      if not (Array.for_all Float.is_finite a) then
        invalid_arg "Simplex: non-finite constraint coefficient";
      if not (Float.is_finite b) then invalid_arg "Simplex: non-finite rhs")
    p.constraints

(* The working tableau: the m x (ncols + 1) matrix [coefficients | rhs]
   in one row-major [float array] of stride [ncols + 1] — one
   allocation, and no per-row pointer chase in the pivot's elimination
   sweep (the dominant cost of a solve). [basis.(i)] is the column
   currently basic in row [i]. The row-of-rows tableau this replaced is
   kept in [lib/refcheck] ([Reference.simplex_solve]); outcomes, pivot
   sequences and the [lp.simplex.*] counters are pinned bit-identical
   to it. *)

type tableau = {
  tab : float array; (* row i at offset i * stride *)
  basis : int array;
  ncols : int;
  m : int;
  stride : int; (* ncols + 1 *)
}

let pivot t obj r c =
  Obs.incr c_pivots;
  incr (Domain.DLS.get dls_pivots);
  let tab = t.tab and stride = t.stride and nc = t.ncols in
  let ro = r * stride in
  let piv = tab.(ro + c) in
  for j = ro to ro + nc do
    Array.unsafe_set tab j (Array.unsafe_get tab j /. piv)
  done;
  for i = 0 to t.m - 1 do
    if i <> r then begin
      let io = i * stride in
      let f = Array.unsafe_get tab (io + c) in
      if abs_float f > 0.0 then begin
        (* Elimination sweep, four elements per iteration. Each element
           is updated independently with the same single fused
           expression as the row-by-row sweep, so the unroll changes
           neither results nor rounding -- only loop overhead. *)
        let a = ref io and b = ref ro in
        let last = io + nc in
        while !a + 3 <= last do
          let a0 = !a and b0 = !b in
          Array.unsafe_set tab a0
            (Array.unsafe_get tab a0 -. (f *. Array.unsafe_get tab b0));
          Array.unsafe_set tab (a0 + 1)
            (Array.unsafe_get tab (a0 + 1)
            -. (f *. Array.unsafe_get tab (b0 + 1)));
          Array.unsafe_set tab (a0 + 2)
            (Array.unsafe_get tab (a0 + 2)
            -. (f *. Array.unsafe_get tab (b0 + 2)));
          Array.unsafe_set tab (a0 + 3)
            (Array.unsafe_get tab (a0 + 3)
            -. (f *. Array.unsafe_get tab (b0 + 3)));
          a := a0 + 4;
          b := b0 + 4
        done;
        while !a <= last do
          let a0 = !a and b0 = !b in
          Array.unsafe_set tab a0
            (Array.unsafe_get tab a0 -. (f *. Array.unsafe_get tab b0));
          a := a0 + 1;
          b := b0 + 1
        done
      end
    end
  done;
  (let f = obj.(c) in
   if abs_float f > 0.0 then
     for j = 0 to nc do
       obj.(j) <- obj.(j) -. (f *. Array.unsafe_get tab (ro + j))
     done);
  t.basis.(r) <- c

let objective_row t cost =
  let obj = Array.make (t.ncols + 1) 0.0 in
  for j = 0 to t.ncols do
    let zj = ref 0.0 in
    Array.iteri
      (fun i b -> zj := !zj +. (cost.(b) *. t.tab.((i * t.stride) + j)))
      t.basis;
    obj.(j) <- !zj -. (if j < t.ncols then cost.(j) else 0.0)
  done;
  obj

(* Primal simplex with Bland's rule (smallest-index entering column,
   smallest-index tie-break on the leaving variable): guarantees
   termination. On the bounded two-phase (LP1) that CSO used to solve,
   Dantzig (most-negative) pricing took ~2x the pivots of Bland. On the
   packing dual [Cso_general] solves instead (one phase from the slack
   basis) the comparison reverses: a Dantzig variant took ~410 pivots
   per CSO binary search (~12 LPs) against Bland's ~1,140, so the rule
   is worth revisiting.
   [allowed.(j)] gates entering columns. Returns the final reduced-cost
   row, whose last entry is the objective value. *)
let optimize t cost allowed =
  let obj = objective_row t cost in
  let m = t.m in
  let rec loop () =
    let entering = ref (-1) in
    (try
       for j = 0 to t.ncols - 1 do
         if allowed.(j) && obj.(j) < -.eps then begin
           entering := j;
           raise Exit
         end
       done
     with Exit -> ());
    if !entering < 0 then `Optimal obj
    else begin
      let c = !entering in
      (* Ratio test; Bland tie-break on the leaving basic variable. *)
      let best_row = ref (-1) and best_ratio = ref infinity in
      for i = 0 to m - 1 do
        let a = t.tab.((i * t.stride) + c) in
        if a > eps then begin
          let ratio = t.tab.((i * t.stride) + t.ncols) /. a in
          if
            ratio < !best_ratio -. eps
            || (ratio < !best_ratio +. eps
                && (!best_row < 0 || t.basis.(i) < t.basis.(!best_row)))
          then begin
            best_row := i;
            best_ratio := ratio
          end
        end
      done;
      if !best_row < 0 then `Unbounded
      else begin
        pivot t obj !best_row c;
        loop ()
      end
    end
  in
  loop ()

let solve_shifted p =
  let n = p.num_vars in
  let shift = Array.map fst p.bounds in
  (* Rows: user constraints with rhs shifted, then the finite upper
     bounds. *)
  let user_rows =
    List.map
      (fun (a, op, b) ->
        let b' = ref b in
        for i = 0 to n - 1 do
          b' := !b' -. (a.(i) *. shift.(i))
        done;
        (Array.copy a, op, !b'))
      p.constraints
  in
  let bound_rows =
    List.filter_map
      (fun i ->
        let lo, hi = p.bounds.(i) in
        if hi = infinity then None
        else begin
          let a = Array.make n 0.0 in
          a.(i) <- 1.0;
          Some (a, Le, hi -. lo)
        end)
      (List.init n Fun.id)
  in
  let rows0 = user_rows @ bound_rows in
  (* Normalize rhs >= 0; [negated.(i)] records which rows flipped, so
     their duals can be flipped back. *)
  let negated = Array.of_list (List.map (fun (_, _, b) -> b < 0.0) rows0) in
  let rows0 =
    List.map
      (fun (a, op, b) ->
        if b < 0.0 then
          ( Array.map (fun x -> -.x) a,
            (match op with Le -> Ge | Ge -> Le | Eq -> Eq),
            -.b )
        else (a, op, b))
      rows0
  in
  let m = List.length rows0 in
  (* Column layout: structural | slack/surplus | artificial. *)
  let n_slack =
    List.fold_left
      (fun acc (_, op, _) -> match op with Le | Ge -> acc + 1 | Eq -> acc)
      0 rows0
  in
  let n_art =
    List.fold_left
      (fun acc (_, op, _) -> match op with Ge | Eq -> acc + 1 | Le -> acc)
      0 rows0
  in
  let ncols = n + n_slack + n_art in
  let stride = ncols + 1 in
  let tab = Array.make (m * stride) 0.0 in
  let basis = Array.make m 0 in
  let is_artificial = Array.make ncols false in
  (* [price_col.(i)] is the column whose final reduced cost is row [i]'s
     dual price, negated when [price_sign.(i) < 0]: the slack of a Le
     row, the surplus of a Ge row (which enters as [-1]), and the
     artificial of an Eq row (phase 2 prices artificials at 0). *)
  let price_col = Array.make m 0 and price_sign = Array.make m 1.0 in
  let slack_idx = ref n and art_idx = ref (n + n_slack) in
  List.iteri
    (fun i (a, op, b) ->
      let off = i * stride in
      Array.blit a 0 tab off n;
      tab.(off + ncols) <- b;
      match op with
      | Le ->
          tab.(off + !slack_idx) <- 1.0;
          basis.(i) <- !slack_idx;
          price_col.(i) <- !slack_idx;
          incr slack_idx
      | Ge ->
          tab.(off + !slack_idx) <- -1.0;
          price_col.(i) <- !slack_idx;
          price_sign.(i) <- -1.0;
          incr slack_idx;
          tab.(off + !art_idx) <- 1.0;
          is_artificial.(!art_idx) <- true;
          basis.(i) <- !art_idx;
          incr art_idx
      | Eq ->
          tab.(off + !art_idx) <- 1.0;
          is_artificial.(!art_idx) <- true;
          basis.(i) <- !art_idx;
          price_col.(i) <- !art_idx;
          incr art_idx)
    rows0;
  let t = { tab; basis; ncols; m; stride } in
  (* Phase 1: maximize -(sum of artificials). *)
  let phase1_cost =
    Array.init ncols (fun j -> if is_artificial.(j) then -1.0 else 0.0)
  in
  let all_allowed = Array.make ncols true in
  (match optimize t phase1_cost all_allowed with
  | `Unbounded -> assert false (* phase-1 objective is bounded by 0 *)
  | `Optimal obj -> if obj.(ncols) < -1e-7 then raise Exit);
  (* Drive artificials out of the basis where possible; redundant rows
     (all-zero over non-artificial columns) are neutralized in place. *)
  for i = 0 to m - 1 do
    if is_artificial.(t.basis.(i)) then begin
      let off = i * stride in
      let found = ref (-1) in
      (try
         for j = 0 to ncols - 1 do
           if (not is_artificial.(j)) && abs_float tab.(off + j) > 1e-7
           then begin
             found := j;
             raise Exit
           end
         done
       with Exit -> ());
      if !found >= 0 then begin
        let dummy = Array.make (ncols + 1) 0.0 in
        pivot t dummy i !found
      end
    end
  done;
  (* Phase 2. *)
  let phase2_cost = Array.make ncols 0.0 in
  Array.blit p.objective 0 phase2_cost 0 n;
  let allowed = Array.map not is_artificial in
  match optimize t phase2_cost allowed with
  | `Unbounded -> Unbounded
  | `Optimal obj ->
      let x = Array.make n 0.0 in
      Array.iteri
        (fun i b -> if b < n then x.(b) <- tab.((i * stride) + ncols))
        t.basis;
      let solution = Array.init n (fun i -> x.(i) +. shift.(i)) in
      let value = ref 0.0 in
      for i = 0 to n - 1 do
        value := !value +. (p.objective.(i) *. solution.(i))
      done;
      (* User rows come first in [rows0]; bound rows get no dual. *)
      let duals =
        Array.init (List.length p.constraints) (fun i ->
            let d = price_sign.(i) *. obj.(price_col.(i)) in
            if negated.(i) then -.d else d)
      in
      Optimal { value = !value; solution; duals }

let solve p =
  validate p;
  Obs.incr c_solves;
  let local = Domain.DLS.get dls_pivots in
  let before = !local in
  Fun.protect
    ~finally:(fun () -> Obs.Hist.observe h_pivots (!local - before))
    (fun () ->
      Obs.with_span "simplex.solve" (fun () ->
          try solve_shifted p with Exit -> Infeasible))

let feasible_point p =
  match solve { p with objective = Array.make p.num_vars 0.0 } with
  | Optimal { solution; _ } -> Some solution
  | Infeasible | Unbounded -> None
