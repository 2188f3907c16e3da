module Point = Cso_metric.Point
module Guess = Cso_metric.Guess
module Rel = Cso_relational
module Oracles = Cso_relational.Oracles
module Obs = Cso_obs.Obs

type report = {
  centers : Point.t list;
  outlier_tuples : float array list;
  radius : float;
  cost_upper : float;
  coreset_size : int;
}

(* Per-tuple relational clustering: for every tuple t of the dirty
   relation, the k-center structure of Q_t(I) = rect_t cap Q(I). This is
   radius-guess independent, so it is computed once. *)
type tuple_summary = {
  tup : float array;
  tc : Point.t list; (* rel_cluster centers of Q_t(I) *)
  tr : float; (* their certified covering radius *)
}

let summarize inst tree ~dirty_rel ~k =
  let nt = Rel.Instance.n_tuples inst dirty_rel in
  let out = ref [] in
  for idx = nt - 1 downto 0 do
    let tup = Rel.Instance.tuple inst ~rel:dirty_rel ~idx in
    let restricted = Rel.Instance.restrict_to_tuple inst ~rel:dirty_rel tup in
    let tc, tr = Oracles.rel_cluster restricted tree ~k in
    if tc <> [] then out := { tup; tc; tr } :: !out
  done;
  !out

let solve ?(eps = 0.3) ?rounds ?(dirty_rel = 0) inst tree ~k ~z =
  if k <= 0 then invalid_arg "Rcto1.solve: k <= 0";
  if z < 0 then invalid_arg "Rcto1.solve: z < 0";
  Obs.with_span "rcto1.solve" @@ fun () ->
  let d = Rel.Schema.dims inst.Rel.Instance.schema in
  let sqd = sqrt (float_of_int d) in
  let summaries = Array.of_list (summarize inst tree ~dirty_rel ~k) in
  let rects =
    Array.map
      (fun s -> Rel.Instance.tuple_rect inst ~rel:dirty_rel s.tup)
      summaries
  in
  let cand = Oracles.candidate_linf_distances inst in
  (* The guesses are L_inf candidates; scale the top so the Euclidean
     optimum is always below the last guess. *)
  let cand =
    let len = Array.length cand in
    if len = 0 then [| 0.0 |]
    else Array.append cand [| 4.0 *. sqd *. cand.(len - 1) |]
  in
  let attempt r =
    (* Tuples whose restricted join cannot be k-covered at this radius
       are forced outliers. *)
    let forced = ref [] and kept = ref [] in
    Array.iteri
      (fun j s ->
        if s.tr > 2.0 *. sqd *. r then forced := j :: !forced
        else kept := j :: !kept)
      summaries;
    let forced = List.rev !forced and kept = List.rev !kept in
    let zbar = z - List.length forced in
    if zbar < 0 then None
    else begin
      (* Coreset: the per-tuple centers, 2r-sparsified, tagged by their
         tuple's rectangle. *)
      let pts = ref [] and set_of = ref [] in
      List.iter
        (fun j ->
          let s = summaries.(j) in
          let keep = ref [] in
          List.iter
            (fun c ->
              if
                not (List.exists (fun c' -> Point.l2 c c' <= 2.0 *. r) !keep)
              then keep := c :: !keep)
            s.tc;
          List.iter
            (fun c ->
              pts := c :: !pts;
              set_of := j :: !set_of)
            !keep)
        kept;
      let points = Array.of_list (List.rev !pts) in
      let set_of = Array.of_list (List.rev !set_of) in
      match
        Gcso_disjoint.solve_core ~eps ?rounds ~points ~set_of ~rects ~k
          ~z:zbar r
      with
      | None -> None
      | Some (centers, chosen_sets) ->
          let outlier_ids = forced @ chosen_sets in
          Some
            ( List.map (fun i -> points.(i)) centers,
              List.map (fun j -> summaries.(j).tup) outlier_ids,
              Array.length points )
    end
  in
  match Guess.lowest (Array.length cand) (fun mid -> attempt cand.(mid)) with
  | None ->
      (* Empty join: nothing to cluster. *)
      {
        centers = [];
        outlier_tuples = [];
        radius = 0.0;
        cost_upper = 0.0;
        coreset_size = 0;
      }
  | Some (mid, (centers, outlier_tuples, coreset_size)) ->
      let radius = cand.(mid) in
      (* Certify the output cost relationally: the L_inf covering radius
         of Q(I \ T) from the centers, times sqrt d. *)
      let reduced =
        Rel.Instance.remove inst
          (List.map (fun tup -> (dirty_rel, tup)) outlier_tuples)
      in
      let cost_upper =
        if centers = [] then 0.0
        else
          let _, delta =
            Oracles.farthest_linf (Oracles.prepare reduced tree) ~centers
              ~cand:(Oracles.candidate_linf_distances reduced)
          in
          sqd *. delta
      in
      { centers; outlier_tuples; radius; cost_upper; coreset_size }
