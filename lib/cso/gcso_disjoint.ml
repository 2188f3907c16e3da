module Points = Cso_metric.Points
module Guess = Cso_metric.Guess
module Bbd = Cso_geom.Bbd_tree
module Csr = Cso_geom.Csr
module Gonzalez = Cso_kcenter.Gonzalez
module Obs = Cso_obs.Obs

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

(* Phase 1's radius-independent half for one non-empty rectangle: its
   members (ascending point ids), their packed coordinates, and
   Gonzalez's centers (indices into [coords]) and covering radius. *)
type core = {
  rect : int;
  members : int array;
  coords : Points.t;
  centers : int list;
  radius : float;
}

(* Once per solve. The members come from the instance's membership
   (DESIGN.md section 2, substitution 7). *)
let cores (g : Geo_instance.t) =
  let { Csr.offsets; ids } = Geo_instance.rect_members g in
  List.filter_map
    (fun j ->
      let len = offsets.(j + 1) - offsets.(j) in
      if len = 0 then None
      else begin
        let members = Array.sub ids offsets.(j) len in
        let coords =
          Points.of_array (Array.map (fun i -> g.Geo_instance.points.(i)) members)
        in
        let centers, radius = Gonzalez.run_packed coords ~k:g.Geo_instance.k in
        Some { rect = j; members; coords; centers; radius }
      end)
    (List.init (Array.length g.Geo_instance.rects) Fun.id)

(* Phase 1's radius-dependent half: a rectangle whose covering radius
   exceeds 2r is forced out; the others keep their 2r-separated
   centers, as point ids. *)
let per_rect_centers cores ~r =
  let h0 = ref [] and kept = ref [] in
  List.iter
    (fun c ->
      if c.radius > 2.0 *. r then h0 := c.rect :: !h0
      else begin
        let keep = ref [] in
        List.iter
          (fun a ->
            if
              not
                (List.exists
                   (fun b -> Points.l2_idx c.coords a b <= 2.0 *. r)
                   !keep)
            then keep := a :: !keep)
          c.centers;
        kept :=
          (c.rect, List.map (fun a -> c.members.(a)) (List.rev !keep)) :: !kept
      end)
    cores;
  (List.rev !h0, List.rev !kept)

let solve_at ~eps ?rounds (g : Geo_instance.t) cores ~r =
  let h0, kept = per_rect_centers cores ~r in
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
  Obs.with_span "gcso_disjoint.solve" @@ fun () ->
  let cores = Obs.with_span "gcso_disjoint.cores" (fun () -> cores g) in
  (* Some grid value lies in [rho*, (1+eps) rho*] (guess.mli), and the
     search accepts it. *)
  let gamma =
    Obs.with_span "gcso_disjoint.lattice" @@ fun () ->
    let gamma = Guess.radius_grid ~ratio:(1.0 +. eps) g.Geo_instance.coords in
    Array.append gamma [| 4.0 *. gamma.(Array.length gamma - 1) |]
  in
  match
    Guess.lowest (Array.length gamma) (fun mid ->
        Obs.with_span "gcso_disjoint.guess" (fun () ->
            solve_at ~eps ?rounds g cores ~r:gamma.(mid)))
  with
  | Some (mid, (solution, coreset_points)) ->
      let radius = gamma.(mid) in
      let forced_outliers =
        List.length (List.filter (fun c -> c.radius > 2.0 *. radius) cores)
      in
      { solution; radius; coreset_points; forced_outliers }
  | None -> assert false (* the appended top guess always succeeds *)
