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
