(* Deliberately naive reference implementations: every function here is
   a direct transcription of a definition, with no data structure, no
   pruning and no incremental state. They are quadratic-to-exponential
   and only meant for the tiny instances the fuzzer generates, where
   "obviously correct" beats "fast" — the optimized substrates are
   checked against these, never the other way around. A few entries are
   instead the earlier, simpler implementation of a substrate that was
   since rewritten for speed, kept so the rewrite can be pinned to it
   bit for bit. *)

module Point = Cso_metric.Point
module Space = Cso_metric.Space
module Rect = Cso_geom.Rect
module Set_cover = Cso_setcover.Set_cover
module Instance = Cso_core.Instance
module Rel = Cso_relational

(* All subsets of [items] with at most [r] elements, preserving order. *)
let rec subsets_up_to items r =
  match (items, r) with
  | _, 0 | [], _ -> [ [] ]
  | x :: rest, r ->
      subsets_up_to rest r
      @ List.map (fun s -> x :: s) (subsets_up_to rest (r - 1))

let indices n = List.init n Fun.id

(* --- exhaustive geometric queries --- *)

let ball pts ~center ~radius =
  List.filter (fun i -> Point.l2 pts.(i) center <= radius)
    (indices (Array.length pts))

let range_report pts rect =
  List.filter (fun i -> Rect.contains rect pts.(i))
    (indices (Array.length pts))

(* --- WSPD candidate lattice --- *)

(* The boxed fair-split tree and list-based lattice that
   [Cso_geom.Wspd.candidate_distances_packed] replaced with flat arrays:
   option-linked nodes with boxed centers, [Point.l2] per center
   distance, a pair list, and [Array.sort Float.compare] on the boxed
   distances. It publishes the same counter and histogram events, one
   at a time, so the flat lattice must match it event for event as well
   as bit for bit. *)
module Wspd_lattice = struct
  module Points = Cso_metric.Points
  module Obs = Cso_obs.Obs

  let c_pairs = Obs.counter "geom.wspd.pairs"
  let c_find = Obs.counter "geom.wspd.find_calls"
  let h_sep = Obs.Hist.hist "geom.wspd.pair_sep_ratio"

  type node = {
    repr : int;
    center : Point.t;
    radius : float;
    left : node option;
    right : node option;
  }

  let node_of_box coords idx lo hi =
    let box = Rect.bounding_box_idx coords idx ~lo ~hi in
    let center =
      Array.init (Rect.dim box) (fun j ->
          (box.Rect.lo.(j) +. box.Rect.hi.(j)) /. 2.0)
    in
    (center, Point.l2 center box.Rect.lo)

  let build_tree coords =
    let n = Points.length coords in
    let idx = Array.init n (fun i -> i) in
    let widest lo hi =
      let best = ref 0 and best_w = ref neg_infinity in
      for j = 0 to Points.dim coords - 1 do
        let mn = ref infinity and mx = ref neg_infinity in
        for i = lo to hi - 1 do
          let x = Points.coord coords idx.(i) j in
          if x < !mn then mn := x;
          if x > !mx then mx := x
        done;
        if !mx -. !mn > !best_w then begin
          best_w := !mx -. !mn;
          best := j
        end
      done;
      !best
    in
    let rec go lo hi =
      let center, radius = node_of_box coords idx lo hi in
      if hi - lo = 1 then
        { repr = idx.(lo); center; radius; left = None; right = None }
      else begin
        let j = widest lo hi in
        let sub = Array.sub idx lo (hi - lo) in
        Array.sort
          (fun a b ->
            Float.compare (Points.coord coords a j) (Points.coord coords b j))
          sub;
        Array.blit sub 0 idx lo (hi - lo);
        let mid = lo + ((hi - lo) / 2) in
        let l = go lo mid in
        let r = go mid hi in
        { repr = idx.(lo); center; radius; left = Some l; right = Some r }
      end
    in
    if n = 0 then None else Some (go 0 n)

  let iter_pairs ~s root emit =
    let well_separated u v =
      let gap = Point.l2 u.center v.center -. u.radius -. v.radius in
      gap >= s *. max u.radius v.radius
    in
    let emit u v =
      Obs.incr c_pairs;
      if Obs.enabled () then begin
        let rmax = max u.radius v.radius in
        let ratio =
          if rmax > 0.0 then Point.l2 u.center v.center /. rmax else infinity
        in
        Obs.Hist.observe_float h_sep ratio
      end;
      emit u v
    in
    let rec find u v =
      Obs.incr c_find;
      if well_separated u v then emit u v
      else if u.radius >= v.radius then
        match (u.left, u.right) with
        | Some l, Some r ->
            find l v;
            find r v
        | _ -> (
            match (v.left, v.right) with
            | Some l, Some r ->
                find u l;
                find u r
            | _ -> emit u v)
      else
        match (v.left, v.right) with
        | Some l, Some r ->
            find u l;
            find u r
        | _ -> (
            match (u.left, u.right) with
            | Some l, Some r ->
                find l v;
                find r v
            | _ -> emit u v)
    in
    let rec walk u =
      match (u.left, u.right) with
      | Some l, Some r ->
          find l r;
          walk l;
          walk r
      | _ -> ()
    in
    walk root

  let candidate_distances ?(eps = 0.25) coords =
    let s = max (4.0 /. eps) 1.0 in
    let ps = ref [] in
    (match build_tree coords with
    | None -> ()
    | Some root ->
        iter_pairs ~s root (fun u v -> ps := (u.repr, v.repr) :: !ps));
    let ds = List.map (fun (a, b) -> Points.l2_idx coords a b) !ps in
    let arr = Array.of_list (0.0 :: ds) in
    Array.sort Float.compare arr;
    let out = ref [] in
    Array.iter
      (fun d ->
        match !out with x :: _ when x = d -> () | _ -> out := d :: !out)
      arr;
    Array.of_list (List.rev !out)
end

let wspd_candidate_distances = Wspd_lattice.candidate_distances

(* --- complement of a union of boxes --- *)

(* [Cso_geom.Box_complement.decompose] as it was before its breakpoint
   arrays and scratch witness: list breakpoints, a fresh witness array
   per cell, cells consed in enumeration order. *)
module Box_complement_list = struct
  let cover_test boxes p = List.exists (fun b -> Rect.contains b p) boxes

  (* Witness coordinate strictly inside an interval that may be unbounded. *)
  let witness lo hi =
    if lo = neg_infinity && hi = infinity then 0.0
    else if lo = neg_infinity then hi -. 1.0
    else if hi = infinity then lo +. 1.0
    else (lo +. hi) /. 2.0

  let decompose ?domain boxes d =
    let domain = match domain with Some r -> r | None -> Rect.unbounded d in
    (* Per-dimension grid breakpoints: all box faces clipped to the domain,
       plus the domain bounds. *)
    let breakpoints j =
      let vals =
        List.concat_map
          (fun (b : Rect.t) ->
            List.filter
              (fun v -> v > domain.Rect.lo.(j) && v < domain.Rect.hi.(j))
              [ b.Rect.lo.(j); b.Rect.hi.(j) ])
          boxes
      in
      let all = domain.Rect.lo.(j) :: domain.Rect.hi.(j) :: vals in
      List.sort_uniq Float.compare all
    in
    let intervals j =
      let rec pair = function
        | a :: (b :: _ as rest) -> (a, b) :: pair rest
        | _ -> []
      in
      pair (breakpoints j)
    in
    let dims = Array.init d intervals in
    (* Cartesian product of per-dimension intervals; keep the cells whose
       interior witness lies in no box. *)
    let cells = ref [] in
    let lo = Array.make d 0.0 and hi = Array.make d 0.0 in
    let rec enumerate j =
      if j = d then begin
        let w = Array.init d (fun i -> witness lo.(i) hi.(i)) in
        if not (cover_test boxes w) then
          cells := Rect.make ~lo:(Array.copy lo) ~hi:(Array.copy hi) :: !cells
      end
      else
        List.iter
          (fun (a, b) ->
            lo.(j) <- a;
            hi.(j) <- b;
            enumerate (j + 1))
          dims.(j)
    in
    enumerate 0;
    !cells
end

let box_complement = Box_complement_list.decompose

(* --- simplex: the row-of-rows tableau --- *)

(* [Cso_lp.Simplex.solve] as it was before its tableau went flat: one
   float array per row, the same pricing (Dantzig's, with Bland's rule
   after 50 consecutive degenerate pivots), hence the same pivots in the
   same order. It publishes the same [lp.simplex.*] counters, the
   [lp.simplex.pivots_per_solve] histogram and the [simplex.solve] span,
   so the flat tableau must match it event for event as well as bit for
   bit, duals included. Like it, it builds no bound row for an infinite
   upper bound. The problem must pass [Simplex.solve]'s validation. *)
module Simplex_rows = struct
  module Obs = Cso_obs.Obs
  open Cso_lp.Simplex

  let c_pivots = Obs.counter "lp.simplex.pivots"
  let c_solves = Obs.counter "lp.simplex.solves"
  let h_pivots = Obs.Hist.hist "lp.simplex.pivots_per_solve"
  let eps = 1e-9

  (* The working tableau. Row layout: [coefficients ... | rhs]. [basis.(i)]
     is the column currently basic in row [i]. *)
  type tableau = {
    mutable rows : float array array;
    mutable basis : int array;
    ncols : int;
  }

  let pivot pivots t obj r c =
    Obs.incr c_pivots;
    incr pivots;
    let piv = t.rows.(r).(c) in
    let row = t.rows.(r) in
    for j = 0 to t.ncols do
      row.(j) <- row.(j) /. piv
    done;
    let eliminate target =
      let f = target.(c) in
      if abs_float f > 0.0 then
        for j = 0 to t.ncols do
          target.(j) <- target.(j) -. (f *. row.(j))
        done
    in
    Array.iteri (fun i tr -> if i <> r then eliminate tr) t.rows;
    eliminate obj;
    t.basis.(r) <- c

  (* Reduced-cost row for [cost]: obj.(j) = z_j - c_j; obj.(ncols) = value. *)
  let objective_row t cost =
    let obj = Array.make (t.ncols + 1) 0.0 in
    for j = 0 to t.ncols do
      let zj = ref 0.0 in
      Array.iteri (fun i b -> zj := !zj +. (cost.(b) *. t.rows.(i).(j))) t.basis;
      obj.(j) <- !zj -. (if j < t.ncols then cost.(j) else 0.0)
    done;
    obj

  (* Dantzig's rule: the most negative reduced cost enters, ties to the
     smallest index; after 50 consecutive degenerate pivots, Bland's
     smallest-index entering column until a non-degenerate one. The
     leaving variable breaks ratio ties to the smallest index. *)
  let optimize pivots t cost allowed =
    let obj = objective_row t cost in
    let m = Array.length t.rows in
    let rec loop degenerate =
      let entering = ref (-1) and best = ref (-.eps) in
      (try
         for j = 0 to t.ncols - 1 do
           if allowed.(j) && obj.(j) < !best then begin
             entering := j;
             if degenerate >= 50 then raise Exit;
             best := obj.(j)
           end
         done
       with Exit -> ());
      if !entering < 0 then `Optimal obj
      else begin
        let c = !entering in
        (* Ratio test; Bland tie-break on the leaving basic variable. *)
        let best_row = ref (-1) and best_ratio = ref infinity in
        for i = 0 to m - 1 do
          let a = t.rows.(i).(c) in
          if a > eps then begin
            let ratio = t.rows.(i).(t.ncols) /. a in
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
          pivot pivots t obj !best_row c;
          loop (if !best_ratio <= eps then degenerate + 1 else 0)
        end
      end
    in
    loop 0

  let solve_shifted pivots p =
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
      List.concat
        (List.init n (fun i ->
             let lo, hi = p.bounds.(i) in
             if hi = infinity then []
             else begin
               let a = Array.make n 0.0 in
               a.(i) <- 1.0;
               [ (a, Le, hi -. lo) ]
             end))
    in
    let rows0 = user_rows @ bound_rows in
    let negated = Array.of_list (List.map (fun (_, _, b) -> b < 0.0) rows0) in
    (* Normalize rhs >= 0. *)
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
    let rows = Array.make m [||] in
    let basis = Array.make m 0 in
    let is_artificial = Array.make ncols false in
    (* Row [i]'s dual price is the final reduced cost of its slack
       (Le), minus that of its surplus (Ge), or that of its artificial
       (Eq): [sign.(i) *. obj.(price_col.(i))]. *)
    let price_col = Array.make m 0 and sign = Array.make m 1.0 in
    let slack_idx = ref n and art_idx = ref (n + n_slack) in
    List.iteri
      (fun i (a, op, b) ->
        let row = Array.make (ncols + 1) 0.0 in
        Array.blit a 0 row 0 n;
        row.(ncols) <- b;
        (match op with
        | Le ->
            row.(!slack_idx) <- 1.0;
            basis.(i) <- !slack_idx;
            price_col.(i) <- !slack_idx;
            incr slack_idx
        | Ge ->
            row.(!slack_idx) <- -1.0;
            price_col.(i) <- !slack_idx;
            sign.(i) <- -1.0;
            incr slack_idx;
            row.(!art_idx) <- 1.0;
            is_artificial.(!art_idx) <- true;
            basis.(i) <- !art_idx;
            incr art_idx
        | Eq ->
            row.(!art_idx) <- 1.0;
            is_artificial.(!art_idx) <- true;
            basis.(i) <- !art_idx;
            price_col.(i) <- !art_idx;
            incr art_idx);
        rows.(i) <- row)
      rows0;
    let t = { rows; basis; ncols } in
    (* Phase 1: maximize -(sum of artificials). *)
    let phase1_cost =
      Array.init ncols (fun j -> if is_artificial.(j) then -1.0 else 0.0)
    in
    let all_allowed = Array.make ncols true in
    (match optimize pivots t phase1_cost all_allowed with
    | `Unbounded -> assert false (* phase-1 objective is bounded by 0 *)
    | `Optimal obj -> if obj.(t.ncols) < -1e-7 then raise Exit);
    (* Drive artificials out of the basis where possible; redundant rows
       (all-zero over non-artificial columns) are neutralized in place. *)
    let m = Array.length t.rows in
    for i = 0 to m - 1 do
      if is_artificial.(t.basis.(i)) then begin
        let found = ref (-1) in
        (try
           for j = 0 to ncols - 1 do
             if (not is_artificial.(j)) && abs_float t.rows.(i).(j) > 1e-7 then begin
               found := j;
               raise Exit
             end
           done
         with Exit -> ());
        if !found >= 0 then begin
          let dummy = Array.make (t.ncols + 1) 0.0 in
          pivot pivots t dummy i !found
        end
      end
    done;
    (* Phase 2. *)
    let phase2_cost = Array.make ncols 0.0 in
    Array.blit p.objective 0 phase2_cost 0 n;
    let allowed = Array.map not is_artificial in
    match optimize pivots t phase2_cost allowed with
    | `Unbounded -> Unbounded
    | `Optimal obj ->
        let x = Array.make n 0.0 in
        Array.iteri
          (fun i b -> if b < n then x.(b) <- t.rows.(i).(t.ncols))
          t.basis;
        let solution = Array.init n (fun i -> x.(i) +. shift.(i)) in
        let value = ref 0.0 in
        for i = 0 to n - 1 do
          value := !value +. (p.objective.(i) *. solution.(i))
        done;
        (* User rows come first; a row negated to make its rhs >= 0
           has its price negated back. *)
        let duals =
          Array.init (List.length p.constraints) (fun i ->
              let d = sign.(i) *. obj.(price_col.(i)) in
              if negated.(i) then -.d else d)
        in
        Optimal { value = !value; solution; duals }

  let solve p =
    Obs.incr c_solves;
    let pivots = ref 0 in
    Fun.protect
      ~finally:(fun () -> Obs.Hist.observe h_pivots !pivots)
      (fun () ->
        Obs.with_span "simplex.solve" (fun () ->
            try solve_shifted pivots p with Exit -> Infeasible))
end

let simplex_solve = Simplex_rows.solve

(* --- k-center: cost and exhaustive optimum --- *)

let kcenter_cost (s : Space.t) ~centers pts =
  List.fold_left
    (fun acc p ->
      max acc
        (List.fold_left (fun d c -> min d (s.Space.dist p c)) infinity centers))
    0.0 pts

let kcenter_opt (s : Space.t) ~subset ~k =
  if subset = [] then 0.0
  else
    List.fold_left
      (fun best centers ->
        if centers = [] then best
        else min best (kcenter_cost s ~centers subset))
      infinity (subsets_up_to subset k)

let kcenter_outliers_opt (s : Space.t) ~k ~z =
  let pts = indices s.Space.size in
  List.fold_left
    (fun best out ->
      let keep = List.filter (fun i -> not (List.mem i out)) pts in
      min best (kcenter_opt s ~subset:keep ~k))
    infinity (subsets_up_to pts z)

(* --- CSO: exhaustive optimum over (H, C) pairs --- *)

let cso_opt (t : Instance.t) =
  let m = Instance.n_sets t in
  List.fold_left
    (fun best outliers ->
      let survivors = Instance.surviving t outliers in
      if survivors = [] then min best 0.0
      else
        List.fold_left
          (fun b centers ->
            if centers = [] then b
            else min b (Instance.cost t { Instance.centers; outliers }))
          best
          (subsets_up_to survivors t.Instance.k))
    infinity
    (subsets_up_to (indices m) t.Instance.z)

(* (LP1) of Section 2.2 as [Cso_general] solved it before it moved to the
   packing dual: the center budget, the outlier budget, one Ge-1
   coverage row per element, all over the [0,1] box. *)
let cso_lp1 ?(cover_mult = 1.0) (t : Instance.t) ~r =
  let n = Instance.n_elements t and m = Instance.n_sets t in
  let nv = n + m in
  let centers_cap =
    let a = Array.make nv 0.0 in
    for i = 0 to n - 1 do
      a.(i) <- 1.0
    done;
    (a, Cso_lp.Simplex.Le, float_of_int t.Instance.k)
  in
  let outliers_cap =
    let a = Array.make nv 0.0 in
    for j = 0 to m - 1 do
      a.(n + j) <- 1.0
    done;
    (a, Cso_lp.Simplex.Le, float_of_int t.Instance.z)
  in
  let coverage =
    List.init n (fun i ->
        let a = Array.make nv 0.0 in
        List.iter (fun j -> a.(n + j) <- 1.0) t.Instance.membership.(i);
        List.iter
          (fun l -> a.(l) <- 1.0)
          (Space.ball t.Instance.space ~center:i ~radius:(cover_mult *. r));
        (a, Cso_lp.Simplex.Ge, 1.0))
  in
  {
    Cso_lp.Simplex.num_vars = nv;
    objective = Array.make nv 0.0;
    constraints = centers_cap :: outliers_cap :: coverage;
    bounds = Cso_lp.Simplex.box nv;
  }

(* --- set cover: naive greedy and brute-force optimum --- *)

let greedy_cover (sc : Set_cover.t) =
  let covered = Array.make sc.Set_cover.n_elements false in
  let gain j =
    List.length
      (List.filter (fun e -> not covered.(e)) sc.Set_cover.sets.(j))
  in
  let rec go acc =
    if Array.for_all Fun.id covered then List.rev acc
    else begin
      let best = ref 0 in
      Array.iteri (fun j _ -> if gain j > gain !best then best := j)
        sc.Set_cover.sets;
      List.iter (fun e -> covered.(e) <- true) sc.Set_cover.sets.(!best);
      go (!best :: acc)
    end
  in
  go []

let cover_opt_size (sc : Set_cover.t) =
  let ids = indices (Array.length sc.Set_cover.sets) in
  List.fold_left
    (fun best cand ->
      if List.length cand < best && Set_cover.is_cover sc cand then
        List.length cand
      else best)
    max_int
    (subsets_up_to ids (List.length ids))

(* --- relational: nested-loop natural join --- *)

let join (inst : Rel.Instance.t) =
  let schema = inst.Rel.Instance.schema in
  let d = Rel.Schema.dims schema and g = Rel.Schema.n_relations schema in
  let results = ref [] in
  let rec go rel (acc : float option array) =
    if rel = g then
      results := Array.map Option.get acc :: !results
    else
      Array.iter
        (fun tup ->
          let attrs = Rel.Schema.rel_attrs schema rel in
          let consistent = ref true in
          Array.iteri
            (fun pos a ->
              match acc.(a) with
              | Some v when v <> tup.(pos) -> consistent := false
              | _ -> ())
            attrs;
          if !consistent then begin
            let acc' = Array.copy acc in
            Array.iteri (fun pos a -> acc'.(a) <- Some tup.(pos)) attrs;
            go (rel + 1) acc'
          end)
        inst.Rel.Instance.tuples.(rel)
  in
  go 0 (Array.make d None);
  List.sort_uniq compare !results

(* [Oracles.any_in_rect] as it was before prepared handles: the oracle
   counter, then a filtered copy of the instance and a Yannakakis pass
   over it. *)
let any_in_rect inst tree rect =
  Cso_obs.Obs.incr (Cso_obs.Obs.counter "relational.oracle.any_in_rect");
  Rel.Yannakakis.any (Rel.Instance.filter_rect inst rect) tree

(* [Oracles.candidate_linf_distances] as it was before its flat arrays:
   per-attribute value lists and two [List.sort_uniq]s. *)
let candidate_linf_distances (inst : Rel.Instance.t) =
  let schema = inst.Rel.Instance.schema in
  let d = Rel.Schema.dims schema in
  let per_attr = Array.make d [] in
  Array.iteri
    (fun i rel ->
      let attrs = Rel.Schema.rel_attrs schema i in
      Array.iter
        (fun tup ->
          Array.iteri (fun pos a -> per_attr.(a) <- tup.(pos) :: per_attr.(a)) attrs)
        rel)
    inst.Rel.Instance.tuples;
  let acc = ref [ 0.0 ] in
  Array.iter
    (fun vals ->
      let vs = Array.of_list (List.sort_uniq Float.compare vals) in
      let n = Array.length vs in
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          acc := (vs.(j) -. vs.(i)) :: !acc
        done
      done)
    per_attr;
  Array.of_list (List.sort_uniq Float.compare !acc)

(* [Oracles.farthest_linf] as it was before the witness ascent: a
   bisection with one complement walk per probed index. *)
let farthest_linf h ~centers ~cand =
  if centers = [] then invalid_arg "Oracles.farthest_linf: no centers";
  Cso_obs.Obs.with_span "oracle.farthest_linf" @@ fun () ->
  (* Binary search the largest index [i] such that some result lies
     strictly beyond radius (cand.(i) + cand.(i+1)) / 2; the farthest
     distance is then cand.(i+1), attained by the witness. *)
  match
    Cso_metric.Guess.highest (Array.length cand - 1) (fun mid ->
        Rel.Oracles.outside_witness h ~centers
          ~r:((cand.(mid) +. cand.(mid + 1)) /. 2.0))
  with
  | Some (mid, w) -> (Some w, cand.(mid + 1))
  | None -> (None, 0.0)
