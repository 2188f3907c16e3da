module Points = Cso_metric.Points
module Guess = Cso_metric.Guess
module Rect = Cso_geom.Rect
module Bbd = Cso_geom.Bbd_tree
module Range_tree = Cso_geom.Range_tree
module Wspd = Cso_geom.Wspd
module Gonzalez = Cso_kcenter.Gonzalez

(* Phase-2 pruning on a tagged coreset: deactivate 15r-balls around
   points whose 10r-ball meets more than [z] distinct sets, via the
   per-node index-set BBD structure of Appendix D. Returns the removed
   balls as (center index, member indices) or [None] if more than [k]
   balls are needed. *)
let prune ~eps tree ~set_of ~k ~z ~r =
  Cso_geom.Dense_regions.prune_balls tree ~set_of ~inner:(10.0 *. r)
    ~outer:(15.0 *. r) ~eps ~threshold:z ~max_balls:k

let solve_core ?(eps = 0.3) ?rounds ~points ~set_of ~rects ~k ~z r =
  let n = Array.length points in
  if n = 0 then Some ([], [])
  else begin
    let tree = Bbd.build_packed (Points.of_array points) in
    match prune ~eps tree ~set_of ~k ~z ~r with
    | None -> None
    | Some x ->
        let k' = k - List.length x in
        let live = ref [] in
        for i = n - 1 downto 0 do
          if Bbd.point_is_active tree i then live := i :: !live
        done;
        let live = Array.of_list !live in
        let ball_reps ~banned =
          List.filter_map
            (fun (_, members) ->
              List.find_opt (fun l -> not (List.mem set_of.(l) banned)) members)
            x
        in
        if Array.length live = 0 then Some (ball_reps ~banned:[], [])
        else begin
          let live_sets =
            List.sort_uniq compare
              (Array.to_list (Array.map (fun l -> set_of.(l)) live))
          in
          if List.length live_sets > min (Array.length rects) (max 1 (2 * k * z))
          then None
          else if k' <= 0 then
            (* Pruning consumed the whole center budget: the surviving
               sets must all be outliers (each pruned ball stands in for
               one optimum cluster, so at r >= opt nothing else needs a
               center). *)
            if List.length live_sets <= z then
              Some (ball_reps ~banned:live_sets, live_sets)
            else None
          else begin
            let live_pts = Array.map (fun l -> points.(l)) live in
            let live_rects =
              Array.of_list (List.map (fun j -> rects.(j)) live_sets)
            in
            let live_sets_arr = Array.of_list live_sets in
            let sub =
              Geo_instance.make ~points:live_pts ~rects:live_rects ~k:k' ~z
            in
            let prepared = Gcso_general.prepare sub in
            match
              Gcso_general.solve_at ~eps ?rounds ~cover_mult:10.0
                ~removal_mult:20.0 prepared ~r
            with
            | None -> None
            | Some sol ->
                let chosen_sets =
                  List.map (fun j -> live_sets_arr.(j)) sol.Instance.outliers
                in
                let centers =
                  List.map (fun a -> live.(a)) sol.Instance.centers
                in
                Some (centers @ ball_reps ~banned:chosen_sets, chosen_sets)
          end
        end
  end

type report = {
  solution : Instance.solution;
  radius : float;
  coreset_points : int;
  forced_outliers : int;
}

(* Phase 1: per-rectangle Gonzalez, forcing uncoverable rectangles out. *)
let per_rect_centers (g : Geo_instance.t) rtree ~r =
  let h0 = ref [] and kept = ref [] in
  Array.iteri
    (fun j rect ->
      let members = Range_tree.report rtree rect in
      if members <> [] then begin
        (* Per-rectangle coreset: pack the members once; Gonzalez and
           the sparsification both read the packed store by index. *)
        let sub_pts =
          Array.of_list (List.map (fun i -> g.Geo_instance.points.(i)) members)
        in
        let sub_coords = Points.of_array sub_pts in
        let member_arr = Array.of_list members in
        let centers, rad = Gonzalez.run_packed sub_coords ~k:g.Geo_instance.k in
        if rad > 2.0 *. r then h0 := j :: !h0
        else begin
          (* Sparsify to 2r separation. *)
          let keep = ref [] in
          List.iter
            (fun c ->
              if
                not
                  (List.exists
                     (fun c' -> Points.l2_idx sub_coords c c' <= 2.0 *. r)
                     !keep)
              then keep := c :: !keep)
            centers;
          kept :=
            (j, List.map (fun c -> member_arr.(c)) (List.rev !keep)) :: !kept
        end
      end)
    g.Geo_instance.rects;
  (List.rev !h0, List.rev !kept)

let solve_at ?(eps = 0.3) ?rounds (g : Geo_instance.t) rtree ~r =
  let h0, kept = per_rect_centers g rtree ~r in
  let zbar = g.Geo_instance.z - List.length h0 in
  if zbar < 0 then None
  else begin
    let core_ids =
      Array.of_list (List.concat_map (fun (_, cs) -> cs) kept)
    in
    let core_set_of =
      Array.of_list
        (List.concat_map (fun (j, cs) -> List.map (fun _ -> j) cs) kept)
    in
    let core_pts = Array.map (fun i -> g.Geo_instance.points.(i)) core_ids in
    match
      solve_core ~eps ?rounds ~points:core_pts ~set_of:core_set_of
        ~rects:g.Geo_instance.rects ~k:g.Geo_instance.k ~z:zbar r
    with
    | None -> None
    | Some (centers, chosen_sets) ->
        let centers = List.map (fun a -> core_ids.(a)) centers in
        Some
          ( { Instance.centers; outliers = h0 @ chosen_sets },
            Array.length core_pts )
  end

let solve ?(eps = 0.3) ?rounds (g : Geo_instance.t) =
  if Geo_instance.frequency g > 1 then
    invalid_arg "Gcso_disjoint.solve: rectangles must be disjoint (f = 1)";
  let rtree = Range_tree.build_packed g.Geo_instance.coords in
  (* Same lattice hazard as [Gcso_general.solve]: raw WSPD candidates can
     all fall below the optimum in its (1+eps) band, leaving the smallest
     feasible guess unboundedly far above it. Generate finer and inflate
     so some guess lands in [opt, (1+eps) opt]. *)
  let gamma =
    let eps_w = eps /. (2.0 +. eps) in
    Array.map
      (fun d -> d /. (1.0 -. eps_w))
      (Wspd.candidate_distances_packed ~eps:eps_w g.Geo_instance.coords)
  in
  let gamma =
    let len = Array.length gamma in
    if len = 0 then [| 0.0 |]
    else Array.append gamma [| 4.0 *. gamma.(len - 1) |]
  in
  match
    Guess.lowest (Array.length gamma) (fun mid ->
        solve_at ~eps ?rounds g rtree ~r:gamma.(mid))
  with
  | Some (mid, (solution, coreset_points)) ->
      let radius = gamma.(mid) in
      let h0, _ = per_rect_centers g rtree ~r:radius in
      { solution; radius; coreset_points; forced_outliers = List.length h0 }
  | None -> assert false (* the appended top guess always succeeds *)
