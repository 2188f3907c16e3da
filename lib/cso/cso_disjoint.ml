module Space = Cso_metric.Space
module Guess = Cso_metric.Guess
module Gonzalez = Cso_kcenter.Gonzalez
module Obs = Cso_obs.Obs

type report = {
  solution : Instance.solution;
  radius : float;
  coreset_elements : int;
  coreset_sets : int;
}

type attempt =
  | Solved of Instance.solution
  | Skip

(* Phase 1's radius-independent half, once per solve: every set's
   Gonzalez centers and covering radius, indexed like [t.sets]. *)
let cores (t : Instance.t) =
  Array.map
    (fun elements ->
      Gonzalez.run t.Instance.space ~subset:(Array.of_list elements)
        ~k:t.Instance.k)
    t.Instance.sets

(* Phase 1's radius-dependent half. Returns the forced outliers H_0 (sets
   whose covering radius exceeds 2r) and, for every surviving set, its
   2r-separated center elements. *)
let per_set_centers (t : Instance.t) cores ~r =
  let s = t.Instance.space in
  let h0 = ref [] in
  let kept = ref [] in
  Array.iteri
    (fun j (centers, rad) ->
      if rad > 2.0 *. r then h0 := j :: !h0
      else begin
        (* Sparsify: drop centers within 2r of an earlier kept center. *)
        let keep = ref [] in
        List.iter
          (fun c ->
            if
              not
                (List.exists (fun c' -> s.Space.dist c c' <= 2.0 *. r) !keep)
            then keep := c :: !keep)
          centers;
        kept := (j, List.rev !keep) :: !kept
      end)
    cores;
  (!h0, List.rev !kept)

(* Phase 2: repeatedly remove 15r-balls around elements whose 10r-ball
   meets more than [zbar] distinct sets. Mutates [alive]. Returns the
   ball memberships removed (the family X) or [None] if more than [k]
   balls were needed (certifying the guess is too small). *)
let prune_dense_balls (t : Instance.t) ~r ~zbar ~alive ~set_of ~elems =
  let s = t.Instance.space in
  let nb = Array.length elems in
  let x = ref [] in
  let k_used = ref 0 in
  let distinct_sets_near i =
    let seen = Hashtbl.create 16 in
    for l = 0 to nb - 1 do
      if alive.(l) && s.Space.dist elems.(i) elems.(l) <= 10.0 *. r then
        Hashtbl.replace seen set_of.(l) ()
    done;
    Hashtbl.length seen
  in
  let exception Too_many in
  try
    let changed = ref true in
    while !changed do
      changed := false;
      let i = ref 0 in
      while !i < nb do
        if alive.(!i) && distinct_sets_near !i > zbar then begin
          (* Remove the 15r-ball around this element. *)
          let members = ref [] in
          for l = 0 to nb - 1 do
            if alive.(l) && s.Space.dist elems.(!i) elems.(l) <= 15.0 *. r
            then begin
              alive.(l) <- false;
              members := l :: !members
            end
          done;
          x := (!i, !members) :: !x;
          incr k_used;
          if !k_used > t.Instance.k then raise Too_many;
          changed := true
        end;
        incr i
      done
    done;
    Some (List.rev !x)
  with Too_many -> None

let check_disjoint t =
  if Instance.frequency t > 1 then
    invalid_arg "Cso_disjoint.solve_at: sets must be disjoint (f = 1)"

let solve_with (t : Instance.t) cores ~r =
  let h0, kept = per_set_centers t cores ~r in
  let zbar = t.Instance.z - List.length h0 in
  if zbar < 0 then Skip
  else begin
    (* Flatten the kept centers; remember their set. *)
    let elems =
      Array.of_list (List.concat_map (fun (_, cs) -> cs) kept)
    in
    let set_of =
      Array.of_list
        (List.concat_map (fun (j, cs) -> List.map (fun _ -> j) cs) kept)
    in
    let alive = Array.make (Array.length elems) true in
    match prune_dense_balls t ~r ~zbar ~alive ~set_of ~elems with
    | None -> Skip
    | Some x ->
        let k' = t.Instance.k - List.length x in
        (* Coreset elements and sets that still have a member. *)
        let live_idx = ref [] in
        for l = Array.length elems - 1 downto 0 do
          if alive.(l) then live_idx := l :: !live_idx
        done;
        let live_idx = Array.of_list !live_idx in
        let live_sets =
          List.sort_uniq compare
            (Array.to_list (Array.map (fun l -> set_of.(l)) live_idx))
        in
        if Array.length live_idx = 0 then begin
          (* Everything was pruned into balls: the ball representatives
             plus the forced outliers already form a solution. *)
          let centers =
            List.filter_map (fun (i, _) -> Some elems.(i)) x
          in
          let mask = Instance.covered_mask t h0 in
          let centers = List.filter (fun c -> not (mask.(c))) centers in
          Solved { Instance.centers; outliers = h0 }
        end
        else if
          List.length live_sets
          > min (Instance.n_sets t) (max 1 (2 * t.Instance.k * t.Instance.z))
        then Skip
        else if k' <= 0 then begin
          (* Pruning consumed the whole center budget: the surviving sets
             must all become outliers. *)
          if List.length live_sets <= zbar then begin
            let outliers = h0 @ live_sets in
            let mask = Instance.covered_mask t outliers in
            let centers =
              List.filter_map
                (fun (_, members) ->
                  List.find_map
                    (fun l ->
                      let e = elems.(l) in
                      if mask.(e) then None else Some e)
                    members)
                x
            in
            Solved { Instance.centers; outliers }
          end
          else Skip
        end
        else begin
          (* Sub-instance over the live coreset elements. *)
          let sub_space =
            Space.create ~size:(Array.length live_idx)
              ~dist:(fun a b ->
                t.Instance.space.Space.dist elems.(live_idx.(a))
                  elems.(live_idx.(b)))
          in
          let set_rank = Hashtbl.create 16 in
          List.iteri (fun rank j -> Hashtbl.add set_rank j rank) live_sets;
          let sub_sets = Array.make (List.length live_sets) [] in
          Array.iteri
            (fun a l ->
              let rank = Hashtbl.find set_rank set_of.(l) in
              sub_sets.(rank) <- a :: sub_sets.(rank))
            live_idx;
          let sub =
            Instance.make sub_space ~sets:(Array.to_list sub_sets) ~k:k'
              ~z:zbar
          in
          match
            Cso_general.solve_at ~cover_mult:10.0 ~removal_mult:20.0 sub ~r
          with
          | None -> Skip
          | Some sub_sol ->
              let live_sets_arr = Array.of_list live_sets in
              let outliers =
                h0
                @ List.map (fun j -> live_sets_arr.(j)) sub_sol.Instance.outliers
              in
              let mask = Instance.covered_mask t outliers in
              let centers =
                List.map
                  (fun a -> elems.(live_idx.(a)))
                  sub_sol.Instance.centers
              in
              (* One representative per removed ball, avoiding chosen
                 outlier sets. *)
              let ball_reps =
                List.filter_map
                  (fun (_, members) ->
                    List.find_map
                      (fun l ->
                        let e = elems.(l) in
                        if mask.(e) then None else Some e)
                      members)
                  x
              in
              Solved
                {
                  Instance.centers = centers @ ball_reps;
                  outliers;
                }
        end
  end

let solve_at t ~r =
  check_disjoint t;
  solve_with t (cores t) ~r

(* Remark after Theorem 2.6: when km < n, binary-search a lattice built
   from phase 1 instead of all n^2 distances: the distances among the
   per-set Gonzalez centers and every set's covering radius, each also
   doubled, plus a safe top. Some value lies in [opt, 4 opt]. Let M be
   the largest covering radius of a set the optimum keeps, and D the
   largest distance from a kept center to one chosen kept center of its
   optimum cluster. Gonzalez is a 2-approximation, so M, D <= 2 opt, and
   the chosen centers cover every kept element within M + D, so
   opt <= M + D <= 2 max(M, D): twice a lattice value. The top guess,
   four times the largest value, is at least the largest center
   distance plus twice the largest radius, which bounds every distance:
   there no set is forced out and one ball covers every element. *)
let center_lattice (t : Instance.t) cores =
  let s = t.Instance.space in
  let centers =
    Array.of_list (List.concat_map fst (Array.to_list cores))
  in
  let acc = ref (0.0 :: List.map snd (Array.to_list cores)) in
  Array.iteri
    (fun i a ->
      Array.iteri
        (fun j b -> if i < j then acc := s.Space.dist a b :: !acc)
        centers)
    centers;
  let sorted =
    List.sort_uniq compare (!acc @ List.map (fun d -> 2.0 *. d) !acc)
  in
  let top = List.fold_left max 0.0 sorted in
  Array.of_list (sorted @ [ 4.0 *. top ])

let solve t =
  check_disjoint t;
  Obs.with_span "cso_disjoint.solve" @@ fun () ->
  let cores = Obs.with_span "cso_disjoint.cores" (fun () -> cores t) in
  let n = Instance.n_elements t in
  let km = t.Instance.k * Instance.n_sets t in
  let dists =
    if km < n then center_lattice t cores
    else Space.pairwise_distances t.Instance.space
  in
  let best =
    Guess.lowest (Array.length dists) (fun mid ->
        Obs.with_span "cso_disjoint.guess" @@ fun () ->
        match solve_with t cores ~r:dists.(mid) with
        | Solved sol ->
            Log.debug (fun m ->
                m "cso-coreset: r=%g solved (|C|=%d |H|=%d)" dists.(mid)
                  (List.length sol.Instance.centers)
                  (List.length sol.Instance.outliers));
            Some sol
        | Skip ->
            Log.debug (fun m -> m "cso-coreset: r=%g skipped" dists.(mid));
            None)
  in
  match best with
  | Some (mid, solution) ->
      let radius = dists.(mid) in
      (* The final coreset sizes, for reporting. *)
      let _, kept = per_set_centers t cores ~r:radius in
      let n_elems =
        List.fold_left (fun acc (_, cs) -> acc + List.length cs) 0 kept
      in
      {
        solution;
        radius;
        coreset_elements = n_elems;
        coreset_sets = List.length kept;
      }
  | None -> assert false (* the largest guess always solves *)
