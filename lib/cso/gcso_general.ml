module Point = Cso_metric.Point
module Guess = Cso_metric.Guess
module Bbd = Cso_geom.Bbd_tree
module Csr = Cso_geom.Csr
module Float_sort = Cso_metric.Float_sort
module Mwu = Cso_lp.Mwu
module Pool = Cso_parallel.Pool
module Obs = Cso_obs.Obs

(* MWU oracle/violation closures invoked per radius guess, and the
   guesses themselves: the paper's outer loop does O(log |Gamma|)
   guesses, each paying O(rounds) oracle + violation sweeps. *)
let c_oracle = Obs.counter "cso.gcso.oracle_calls"
let c_violation = Obs.counter "cso.gcso.violation_sweeps"
let c_guesses = Obs.counter "cso.gcso.guesses"

(* Canonical ball nodes per constraint point at each radius guess —
   observed inside a parallel tabulate body, which is safe because
   histogram increments are atomic and commute. *)
let h_ball_nodes = Obs.Hist.hist "cso.gcso.ball_nodes_per_point"

type prepared = {
  g : Geo_instance.t;
  bbd : Bbd.t;
  (* [Geo_instance.rect_members]. The Oracle sums tau_j over row j in
     ascending order, the float accumulation order the reference
     repeats. *)
  rect_pts : Csr.t;
}

let prepare (g : Geo_instance.t) =
  { g; bbd = Bbd.build_packed g.Geo_instance.coords;
    rect_pts = Geo_instance.rect_members g }

(* Indices of the [k] largest weights, largest first: the first
   [min k n] ids after a descending [Array.sort]. The per-constraint
   reference keeps this sort; [top_k] must return the same list. *)
let top_k_reference weights k =
  let idx = Array.init (Array.length weights) Fun.id in
  (* Monomorphic float sort; same descending order as the polymorphic
     comparator (ties keep falling through to the sort's own order). *)
  Array.sort (fun a b -> Float.compare weights.(b) weights.(a)) idx;
  Array.to_list (Array.sub idx 0 (min k (Array.length idx)))

(* Selection scratch, allocated once per guess and reused by every
   round: the [k + 1] largest keys seen so far (descending) and their
   ids, and the key/id arrays the tie fallback sorts. *)
type topk = {
  best_ids : int array;
  best_ks : float array;
  sort_ids : int array;
  sort_ks : float array;
}

let topk_scratch ~k ~n =
  { best_ids = Array.make (k + 1) 0; best_ks = Array.make (k + 1) 0.0;
    sort_ids = Array.make n 0; sort_ks = Array.make n 0.0 }

(* [top_k_reference weights k] without sorting all of [weights]. One pass
   keeps the [k + 1] largest keys by [Float.compare]. When those are
   pairwise distinct, every correct descending sort starts with the
   same [k] ids, so the kept prefix is the answer. A tie there (sibling
   points no canonical ball separates get bit-equal weights) leaves the
   order among equal keys to [Array.sort], so the fallback sorts every
   id with {!Float_sort.ids_by_key_desc}, which leaves [Array.sort]'s
   exact permutation, in the scratch arrays. *)
let top_k_into s weights k =
  let n = Array.length weights in
  let take = min k n in
  if take <= 0 then []
  else begin
    let cap = min (k + 1) n in
    let bi = s.best_ids and bk = s.best_ks in
    let len = ref 0 in
    for l = 0 to n - 1 do
      let x = Array.unsafe_get weights l in
      if !len < cap || Float.compare x bk.(cap - 1) > 0 then begin
        let j = ref (if !len < cap then !len else cap - 1) in
        if !len < cap then incr len;
        while !j > 0 && Float.compare x bk.(!j - 1) > 0 do
          bk.(!j) <- bk.(!j - 1);
          bi.(!j) <- bi.(!j - 1);
          decr j
        done;
        bk.(!j) <- x;
        bi.(!j) <- l
      end
    done;
    let distinct = ref true in
    for j = 1 to cap - 1 do
      if Float.compare bk.(j - 1) bk.(j) = 0 then distinct := false
    done;
    let ids =
      if !distinct then bi
      else begin
        let ids = s.sort_ids in
        for l = 0 to n - 1 do
          ids.(l) <- l
        done;
        Array.blit weights 0 s.sort_ks 0 n;
        Float_sort.ids_by_key_desc s.sort_ks ids n;
        ids
      end
    in
    let rec mk j acc = if j < 0 then acc else mk (j - 1) (ids.(j) :: acc) in
    mk (take - 1) []
  end

let top_k weights k =
  top_k_into (topk_scratch ~k:(max 0 k) ~n:(Array.length weights)) weights k

type oracle_sol = {
  chosen_pts : int list;
  chosen_rects : int list;
  value : float;
}

(* Rounding (Appendix C), shared by the batched production path and the
   per-constraint reference: average the per-round rectangle choices,
   keep rectangles with mass >= 1/(2f), flag their member points, and
   greedily cover the points left with balls of radius
   [removal_mult * r]. The greedy centers are instance point indices,
   so the ball queries go through the packed store by index — no boxed
   point on this path. *)
let round_solution p ~eps ~r ~removal_mult sols =
  let g = p.g in
  let n = Array.length g.Geo_instance.points in
  let m = Array.length g.Geo_instance.rects in
  let t = float_of_int (List.length sols) in
  let y_hat = Array.make m 0.0 in
  List.iter
    (fun sol ->
      List.iter (fun j -> y_hat.(j) <- y_hat.(j) +. 1.0) sol.chosen_rects)
    sols;
  Array.iteri (fun j v -> y_hat.(j) <- v /. t) y_hat;
  let f = float_of_int (max 1 (Geo_instance.frequency g)) in
  let threshold = (1.0 /. (2.0 *. f)) -. 1e-9 in
  let outliers = ref [] in
  for j = m - 1 downto 0 do
    if y_hat.(j) >= threshold then outliers := j :: !outliers
  done;
  let mo = p.rect_pts.Csr.offsets and mi = p.rect_pts.Csr.ids in
  let removed = Array.make n false in
  List.iter
    (fun j ->
      for e = mo.(j) to mo.(j + 1) - 1 do
        removed.(mi.(e)) <- true
      done)
    !outliers;
  Bbd.reset_active p.bbd;
  for i = 0 to n - 1 do
    if removed.(i) then Bbd.deactivate p.bbd (Bbd.leaf_of_point p.bbd i)
  done;
  let centers = ref [] in
  let removal = removal_mult *. r in
  let rec greedy () =
    match Bbd.root_repr p.bbd with
    | None -> ()
    | Some pi ->
        centers := pi :: !centers;
        let nodes =
          Bbd.ball_query_active_idx p.bbd ~center:pi ~radius:removal ~eps
        in
        List.iter (Bbd.deactivate p.bbd) nodes;
        (* The representative itself is always captured (distance 0),
           but guard against a pathological miss. *)
        if Bbd.point_is_active p.bbd pi then
          Bbd.deactivate p.bbd (Bbd.leaf_of_point p.bbd pi);
        greedy ()
  in
  greedy ();
  Some { Instance.centers = List.rev !centers; outliers = !outliers }

(* Batched oracle. Per guess, the canonical ball nodes are flattened to
   CSR and transposed to node -> constraints. Per round:

   - Oracle: one sequential scatter of sigma into the flat BBD node
     weights (the float accumulation whose order is the bit-identity
     contract), one pooled gather of each point's root-path sum, and
     tau_j summed over rectangle j's member points in ascending order.
   - Update: R1_i and R2_i are sums of 1.0, hence exact small integers,
     so they are counted from the chosen side: each chosen point's root
     path bumps the constraints whose canonical set holds a path node,
     each chosen rectangle bumps its member points. A round touches
     O(what the chosen solution covers), not every constraint's lists.

   Values, counters and histogram events are bit-identical to
   [solve_at_reference]'s per-constraint closures — pinned by the
   differential tests in [test/suite_gcso.ml] and the
   [gcso.batched_oracle] fuzz check. *)
let solve_at ?(eps = 0.3) ?rounds ?(cover_mult = 1.0) ?(removal_mult = 2.0)
    ?warm_weights ?on_round ?on_weights p ~r =
  let g = p.g in
  let n = Array.length g.Geo_instance.points in
  let m = Array.length g.Geo_instance.rects in
  let k = g.Geo_instance.k and z = g.Geo_instance.z in
  if n = 0 then Some { Instance.centers = []; outliers = [] }
  else begin
    let rc = cover_mult *. r in
    (* Canonical ball nodes per point: fixed for this guess, shared by
       every Oracle and Update call. One batched sweep over the packed
       store (parallel, allocation-free traversal scratch); lists and
       counters are identical to per-point [ball_query] calls. *)
    let canon = Bbd.balls_all p.bbd ~radius:rc ~eps in
    Array.iter
      (fun nodes -> Obs.Hist.observe h_ball_nodes (List.length nodes))
      canon;
    let canon_csr = Csr.of_lists canon in
    let holders = Csr.transpose canon_csr ~cols:(Bbd.n_nodes p.bbd) in
    let ho = holders.Csr.offsets and hi = holders.Csr.ids in
    let mo = p.rect_pts.Csr.offsets and mi = p.rect_pts.Csr.ids in
    let width = float_of_int (k + z) in
    (* Per-guess buffers, overwritten in full every round. [viol] is
       returned to [Mwu.run], which only reads it within the round. *)
    let w = Array.make n 0.0 in
    let tau = Array.make m 0.0 in
    let hits = Array.make n 0 in
    let viol = Array.make n 0.0 in
    let sel_pts = topk_scratch ~k ~n and sel_rects = topk_scratch ~k:z ~n:m in
    let oracle sigma =
      Obs.incr c_oracle;
      (* w_l = sum of sigma over the points whose ball query captured l.
         Sequential scatter in constraint order: the same float
         accumulation order as the per-constraint list walk. The tree
         weights are fixed once it finishes, so the per-point root-path
         sums are one pooled read-only pass. *)
      Bbd.reset_weights p.bbd;
      Bbd.scatter_weights p.bbd canon_csr sigma;
      Bbd.path_weights p.bbd w;
      (* tau_j = sigma-weight of the points inside rectangle j. *)
      for j = 0 to m - 1 do
        let acc = ref 0.0 in
        for e = mo.(j) to mo.(j + 1) - 1 do
          acc := !acc +. Array.unsafe_get sigma (Array.unsafe_get mi e)
        done;
        tau.(j) <- !acc
      done;
      let chosen_pts = top_k_into sel_pts w k in
      let chosen_rects = top_k_into sel_rects tau z in
      let value =
        List.fold_left (fun acc l -> acc +. w.(l)) 0.0 chosen_pts
        +. List.fold_left (fun acc j -> acc +. tau.(j)) 0.0 chosen_rects
      in
      if value >= 1.0 -. 1e-12 then Some { chosen_pts; chosen_rects; value }
      else None
    in
    let violation sol =
      Obs.incr c_violation;
      Array.fill hits 0 n 0;
      (* R1_i: chosen points captured by point i's ball query. *)
      List.iter
        (fun l ->
          let u = ref (Bbd.leaf_of_point p.bbd l) in
          while !u >= 0 do
            for h = ho.(!u) to ho.(!u + 1) - 1 do
              let i = Array.unsafe_get hi h in
              hits.(i) <- hits.(i) + 1
            done;
            u := Bbd.parent p.bbd !u
          done)
        sol.chosen_pts;
      (* R2_i: chosen rectangles containing point i. *)
      List.iter
        (fun j ->
          for e = mo.(j) to mo.(j + 1) - 1 do
            let i = Array.unsafe_get mi e in
            hits.(i) <- hits.(i) + 1
          done)
        sol.chosen_rects;
      for i = 0 to n - 1 do
        viol.(i) <- float_of_int hits.(i) -. 1.0
      done;
      viol
    in
    match
      Mwu.run ~m:n ~width ~eps ?rounds ?warm_weights ?on_round ?on_weights
        ~oracle ~violation ()
    with
    | Mwu.Infeasible -> None
    | Mwu.Feasible sols ->
        Obs.with_span "gcso.round" (fun () ->
            round_solution p ~eps ~r ~removal_mult sols)
  end

(* Per-constraint reference path: the pre-batching oracle, kept verbatim
   (list walks, per-round allocations) as the differential baseline the
   batched [solve_at] is pinned against. Test-only — nothing in the
   production call graph reaches it. Its node accumulators are arrays
   of its own: [bw] takes sigma in the order [Bbd.scatter_weights] adds
   it, and [bw2] holds the Update's [v.w] on the BBD nodes. Rectangles
   are read from [membership] alone: walking it point by point adds
   each rectangle's members to tau_j in ascending order, and R2_i walks
   point i's rectangles. *)
let solve_at_reference ?(eps = 0.3) ?rounds ?(cover_mult = 1.0)
    ?(removal_mult = 2.0) ?warm_weights ?on_round ?on_weights p ~r =
  let g = p.g in
  let n = Array.length g.Geo_instance.points in
  let m = Array.length g.Geo_instance.rects in
  let k = g.Geo_instance.k and z = g.Geo_instance.z in
  if n = 0 then Some { Instance.centers = []; outliers = [] }
  else begin
    let rc = cover_mult *. r in
    let canon = Bbd.balls_all p.bbd ~radius:rc ~eps in
    Array.iter
      (fun nodes -> Obs.Hist.observe h_ball_nodes (List.length nodes))
      canon;
    let width = float_of_int (k + z) in
    let path_sum acc l =
      Bbd.fold_path_to_root p.bbd (Bbd.leaf_of_point p.bbd l) ~init:0.0
        ~f:(fun s u -> s +. acc.(u))
    in
    let oracle sigma =
      Obs.incr c_oracle;
      let bw = Array.make (Bbd.n_nodes p.bbd) 0.0 in
      Array.iteri
        (fun i nodes ->
          List.iter (fun u -> bw.(u) <- bw.(u) +. sigma.(i)) nodes)
        canon;
      let pool = Pool.get_default () in
      let w = Pool.tabulate pool ~chunk:64 n (path_sum bw) in
      let tau = Array.make m 0.0 in
      Array.iteri
        (fun i js -> List.iter (fun j -> tau.(j) <- tau.(j) +. sigma.(i)) js)
        g.Geo_instance.membership;
      let chosen_pts = top_k_reference w k in
      let chosen_rects = top_k_reference tau z in
      let value =
        List.fold_left (fun acc l -> acc +. w.(l)) 0.0 chosen_pts
        +. List.fold_left (fun acc j -> acc +. tau.(j)) 0.0 chosen_rects
      in
      if value >= 1.0 -. 1e-12 then Some { chosen_pts; chosen_rects; value }
      else None
    in
    let violation sol =
      Obs.incr c_violation;
      let bw2 = Array.make (Bbd.n_nodes p.bbd) 0.0 in
      List.iter
        (fun l ->
          Bbd.fold_path_to_root p.bbd (Bbd.leaf_of_point p.bbd l) ~init:()
            ~f:(fun () u -> bw2.(u) <- bw2.(u) +. 1.0))
        sol.chosen_pts;
      let rw2 = Array.make m 0.0 in
      List.iter (fun j -> rw2.(j) <- rw2.(j) +. 1.0) sol.chosen_rects;
      let pool = Pool.get_default () in
      Pool.tabulate pool ~chunk:64 n (fun i ->
          let r1 = List.fold_left (fun acc u -> acc +. bw2.(u)) 0.0 canon.(i) in
          let r2 =
            List.fold_left
              (fun acc j -> acc +. rw2.(j))
              0.0 g.Geo_instance.membership.(i)
          in
          r1 +. r2 -. 1.0)
    in
    match
      Mwu.run ~m:n ~width ~eps ?rounds ?warm_weights ?on_round ?on_weights
        ~oracle ~violation ()
    with
    | Mwu.Infeasible -> None
    | Mwu.Feasible sols -> round_solution p ~eps ~r ~removal_mult sols
  end

type report = {
  solution : Instance.solution;
  radius : float;
  rounds_per_guess : int;
  guesses : int;
}

(* Accuracy budget split (the eps-overspend fix). Three consumers spend
   accuracy: the radius grid (a guess within a factor (1+eps_c) above
   the discrete optimum; see [solve]), the BBD ball queries (rounding
   invariant cost <= 2 (1+eps_b) radius), and the MWU rounds (additive
   eps_m feasibility slack, absorbed by the 1/(2f) rounding threshold).
   Passing the caller's eps to all three un-split multiplies out to
   2 (1+eps)^2 — the calibration bug pinned by the PR-5 canary. Giving
   each consumer eps/5 yields

     2 (1 + eps/5)^2 = 2 + 4 eps/5 + 2 eps^2 / 25 <= 2 + eps

   for eps <= 5/2 (the quadratic term needs 2 eps^2/25 <= eps/5), with
   eps/5 of headroom left over the linear term to absorb the MWU slack —
   so [solve ~eps] is an honest end-to-end (2+eps) cost bound. *)
let split_eps eps = eps /. 5.0

let solve ?(eps = 0.3) ?rounds ?candidates ?warm_weights ?on_weights g =
  Obs.with_span "gcso.solve" @@ fun () ->
  if not (eps > 0.0 && eps <= 2.5) then
    invalid_arg "Gcso_general.solve: eps must be in (0, 2.5]";
  if Option.fold ~none:false ~some:(fun r -> r < 1) rounds then
    invalid_arg "Gcso_general.solve: rounds < 1";
  let eps_c = split_eps eps in
  let p = Obs.with_span "gcso.prepare" (fun () -> prepare g) in
  let n = Array.length g.Geo_instance.points in
  let gamma =
    match candidates with
    | Some c -> c
    | None ->
        (* Some grid value lies in [rho*, (1+eps_c) rho*] (guess.mli),
           and the search accepts it. *)
        Obs.with_span "gcso.lattice" @@ fun () ->
        Guess.radius_grid ~ratio:(1.0 +. eps_c) g.Geo_instance.coords
  in
  (* Append a guess safely above the top value so the binary search
     always has a feasible endpoint. *)
  let gamma =
    let len = Array.length gamma in
    if len = 0 then [| 0.0 |]
    else Array.append gamma [| 4.0 *. gamma.(len - 1) |]
  in
  let rounds_per_guess =
    match rounds with
    | Some r -> r
    | None ->
        Mwu.default_rounds ~m:(max 1 n)
          ~width:(float_of_int (g.Geo_instance.k + g.Geo_instance.z))
          ~eps:eps_c
  in
  let guesses = ref 0 in
  (* [on_weights] reports the final MWU weight vector of the accepted
     (smallest feasible) guess, not every round of every guess: track
     the last per-round snapshot and stash it whenever a guess is
     accepted, since each accepted guess lies below the one before. *)
  let latest_weights = ref None in
  let best_weights = ref None in
  let inner_on_weights =
    match on_weights with
    | None -> None
    | Some _ -> Some (fun w -> latest_weights := Some w)
  in
  let best =
    Guess.lowest (Array.length gamma) (fun mid ->
        incr guesses;
        Obs.incr c_guesses;
        latest_weights := None;
        match
          Obs.with_span "gcso.guess" (fun () ->
              solve_at ~eps:eps_c ~rounds:rounds_per_guess ?warm_weights
                ?on_weights:inner_on_weights p ~r:gamma.(mid))
        with
        | Some sol ->
            Log.debug (fun m ->
                m "gcso-mwu: r=%g feasible (|C|=%d |R|=%d)" gamma.(mid)
                  (List.length sol.Instance.centers)
                  (List.length sol.Instance.outliers));
            best_weights := !latest_weights;
            Some sol
        | None ->
            Log.debug (fun m -> m "gcso-mwu: r=%g infeasible" gamma.(mid));
            None)
  in
  (match (on_weights, !best_weights) with
  | Some f, Some w -> f w
  | _ -> ());
  match best with
  | Some (mid, solution) ->
      { solution; radius = gamma.(mid); rounds_per_guess; guesses = !guesses }
  | None ->
      (* The top guess exceeds the diameter, where the oracle is always
         feasible; unreachable for non-empty inputs. *)
      let sol = { Instance.centers = []; outliers = [] } in
      { solution = sol; radius = 0.0; rounds_per_guess; guesses = !guesses }

(* ------------------------------------------------------------------ *)
(* Incremental mode                                                    *)
(* ------------------------------------------------------------------ *)

module Incremental = struct
  module Dyn = Cso_geom.Dynamic
  module Rect = Cso_geom.Rect
  module Streaming = Cso_kcenter.Streaming

  let c_resolves = Obs.counter "cso.gcso.inc.re_solves"
  let c_cached = Obs.counter "cso.gcso.inc.cached_queries"
  let c_updates = Obs.counter "cso.gcso.inc.updates"
  let c_rect_updates = Obs.counter "cso.gcso.inc.rect_updates"

  type orphan = { rect_id : int; witness : int }

  type t = {
    (* Live rectangles as [(external id, rect)], ascending by id; ids
       are dense creation order and never reused, so warm state and
       cached reports survive set updates unambiguously. *)
    mutable rect_slots : (int * Rect.t) list;
    mutable next_rect_id : int;
    (* A rect insert/delete changes the constraint matrix in ways the
       insert-only point sketch cannot see, so it must force the next
       query to re-solve. *)
    mutable rects_dirty : bool;
    k : int;
    z : int;
    eps : float;
    rounds : int option;
    drift : float;
    ball : Dyn.Ball.t;
    (* Insert-only doubling k-center sketch over the points live at the
       last re-solve plus everything inserted since; rebuilt from the
       survivors after each re-solve so deletions eventually leave it. *)
    mutable sketch : Streaming.t;
    (* Cached report plus the instance-index -> external-id maps it was
       solved under: centers/point indices translate through the first
       array, outlier rect indices through the second. *)
    mutable last : (report * int array * int array) option;
    mutable solved_live : int;
    (* Sketch radius bound right after the post-re-solve rebuild: the
       drift baseline. The tri-criteria radius is useless here — its
       center blow-up puts it far below any (k+z)-center covering
       radius, so comparing against it would re-solve on every query. *)
    mutable sketch_base : float;
    (* External point id -> final MWU weight of the accepted guess at
       the last re-solve; warm-starts the next one. *)
    weights : (int, float) Hashtbl.t;
    mutable prior_m : int; (* constraint count those weights summed over *)
    (* The warm vector actually fed to the last re-solve, by external
       id — observability for the constraint-id mapping tests. *)
    mutable warm_fed : (int array * float array) option;
    mutable re_solves : int;
  }

  let create ?(eps = 0.3) ?rounds ?(drift = 2.0) ~rects ~k ~z () =
    if Array.length rects = 0 then
      invalid_arg "Gcso_general.Incremental.create: no rectangles";
    if not (eps > 0.0 && eps <= 2.5) then
      invalid_arg "Gcso_general.Incremental.create: eps must be in (0, 2.5]";
    if not (drift >= 1.0) then
      invalid_arg "Gcso_general.Incremental.create: drift < 1";
    if Option.fold ~none:false ~some:(fun r -> r < 1) rounds then
      invalid_arg "Gcso_general.Incremental.create: rounds < 1";
    if k < 1 then invalid_arg "Gcso_general.Incremental.create: k < 1";
    if z < 0 then invalid_arg "Gcso_general.Incremental.create: z < 0";
    let dim = Rect.dim rects.(0) in
    Array.iter
      (fun r ->
        if Rect.dim r <> dim then
          invalid_arg "Gcso_general.Incremental.create: mixed rect dimensions")
      rects;
    {
      (* Initial rects get external ids [0 .. m-1] in array order, so a
         session that never touches the rect set sees outlier indices
         identical to the frozen-rects behavior. *)
      rect_slots = List.mapi (fun i r -> (i, r)) (Array.to_list rects);
      next_rect_id = Array.length rects;
      rects_dirty = false;
      k;
      z;
      eps;
      rounds;
      drift;
      ball = Dyn.Ball.create ~dim ();
      (* k + z centers: up to z far-away outlier groups may exist without
         the solved radius having to cover them, so the drift signal
         over-provisions by z to avoid spurious re-solves. *)
      sketch = Streaming.create ~k:(k + z);
      last = None;
      solved_live = 0;
      sketch_base = 0.0;
      weights = Hashtbl.create 64;
      prior_m = 0;
      warm_fed = None;
      re_solves = 0;
    }

  let live_count t = Dyn.Ball.live_count t.ball
  let live_ids t = Dyn.Ball.live_ids t.ball
  let re_solves t = t.re_solves
  let ball_stats t = Dyn.Ball.stats t.ball
  let point t id = Dyn.Ball.point t.ball id
  let dim t = Dyn.Ball.dim t.ball
  let rects t = t.rect_slots
  let rect_count t = List.length t.rect_slots
  let next_rect_id t = t.next_rect_id

  let insert t p =
    if not (List.exists (fun (_, r) -> Rect.contains r p) t.rect_slots) then
      invalid_arg "Gcso_general.Incremental.insert: point in no rectangle";
    let id = Dyn.Ball.insert t.ball p in
    Streaming.insert t.sketch p;
    Obs.incr c_updates;
    id

  let delete t id =
    Dyn.Ball.delete t.ball id;
    (* The sketch is insert-only; the live-count trigger below covers
       deletion drift, and the sketch is rebuilt at the next re-solve. *)
    Obs.incr c_updates

  let insert_rect t r =
    if Rect.dim r <> dim t then
      invalid_arg "Gcso_general.Incremental.insert_rect: wrong dimension";
    let rid = t.next_rect_id in
    t.next_rect_id <- rid + 1;
    t.rect_slots <- t.rect_slots @ [ (rid, r) ];
    t.rects_dirty <- true;
    Obs.incr c_updates;
    Obs.incr c_rect_updates;
    rid

  (* A delete is rejected when it would orphan a live point — leave it
     inside no rectangle, violating the [insert] invariant that every
     live point can be clustered or outliered. The witness is the
     smallest orphaned external id: live ids are scanned ascending, and
     [Rect.contains] tests the doomed rectangle's closed bounds. *)
  let delete_rect t rid =
    if not (List.mem_assoc rid t.rect_slots) then
      invalid_arg
        "Gcso_general.Incremental.delete_rect: unknown or deleted rect id";
    let doomed = List.assoc rid t.rect_slots in
    let others = List.filter (fun (rid', _) -> rid' <> rid) t.rect_slots in
    let orphaned (_, p) =
      Rect.contains doomed p
      && not (List.exists (fun (_, r) -> Rect.contains r p) others)
    in
    match List.find_opt orphaned (Dyn.Ball.live_points t.ball) with
    | Some (witness, _) -> Error { rect_id = rid; witness }
    | None ->
        t.rect_slots <- others;
        t.rects_dirty <- true;
        Obs.incr c_updates;
        Obs.incr c_rect_updates;
        Ok ()

  (* Re-solve policy: solve if never solved, if the live population
     halved or doubled since the last solve (deletion drift; the sketch
     cannot shrink), or if the streaming k-center certifies that
     covering the union of last-solve survivors and every insert since
     needs radius more than [drift] times its bound at the last solve.
     Right after a re-solve the bound equals the baseline, so a query
     with no intervening updates is always served from cache. *)
  let needs_resolve t =
    t.rects_dirty
    ||
    match t.last with
    | None -> live_count t > 0
    | Some _ ->
        let live = live_count t in
        if t.solved_live = 0 then live > 0
        else
          2 * live <= t.solved_live
          || live >= 2 * t.solved_live
          || Streaming.radius_bound t.sketch > t.drift *. t.sketch_base

  let empty_report =
    {
      solution = { Instance.centers = []; outliers = [] };
      radius = 0.0;
      rounds_per_guess = 0;
      guesses = 0;
    }

  let re_solve t =
    let live = Dyn.Ball.live_points t.ball in
    let ids = Array.of_list (List.map fst live) in
    let points = Array.of_list (List.map snd live) in
    let n = Array.length points in
    let rect_ids = Array.of_list (List.map fst t.rect_slots) in
    let rep =
      if n = 0 then empty_report
      else begin
        (* Live points always lie in some live rectangle (insert checks,
           delete_rect refuses orphaning), so [rect_slots] is non-empty
           whenever [n > 0]. *)
        let rects = Array.of_list (List.map snd t.rect_slots) in
        let g = Geo_instance.make ~points ~rects ~k:t.k ~z:t.z in
        (* Warm start, mapped by stable external constraint id: a point
           seen at the last solve keeps its weight; one unseen enters at
           the floor [Mwu.min_weight_factor / prior_m] — exactly where
           Mwu's clamp would put a zero — so fresh constraints start
           from the same state a cold MWU assigns its least-trusted
           rows, and the subsequent renormalization is bit-stable. *)
        let warm_weights =
          if t.prior_m = 0 then None
          else
            Some
              (Array.map
                 (fun id ->
                   match Hashtbl.find_opt t.weights id with
                   | Some w -> w
                   | None -> Mwu.min_weight_factor /. float_of_int t.prior_m)
                 ids)
        in
        (match warm_weights with
        | None -> t.warm_fed <- None
        | Some w -> t.warm_fed <- Some (Array.copy ids, Array.copy w));
        let captured = ref None in
        let rep =
          solve ~eps:t.eps ?rounds:t.rounds ?warm_weights
            ~on_weights:(fun w -> captured := Some w)
            g
        in
        (match !captured with
        | None -> ()
        | Some w ->
            Hashtbl.reset t.weights;
            Array.iteri (fun i id -> Hashtbl.replace t.weights id w.(i)) ids;
            t.prior_m <- n);
        rep
      end
    in
    t.last <- Some (rep, ids, rect_ids);
    t.solved_live <- n;
    t.rects_dirty <- false;
    t.sketch <- Streaming.create ~k:(t.k + t.z);
    Array.iter (fun p -> Streaming.insert t.sketch p) points;
    t.sketch_base <- Streaming.radius_bound t.sketch;
    t.re_solves <- t.re_solves + 1;
    Obs.incr c_resolves;
    (rep, ids, rect_ids)

  let query t =
    match t.last with
    | Some cached when not (needs_resolve t) ->
        Obs.incr c_cached;
        cached
    | _ -> re_solve t

  (* --- observability for the warm-weight constraint-id mapping --- *)

  let stored_weights t =
    Hashtbl.fold (fun id w acc -> (id, w) :: acc) t.weights []
    |> List.sort compare

  let last_warm t =
    Option.map (fun (ids, w) -> (Array.copy ids, Array.copy w)) t.warm_fed

  let prior_constraints t = t.prior_m

  let live_points t = Dyn.Ball.live_points t.ball

  let ball_points t ~center ~radius ~eps =
    Dyn.Ball.ball_points t.ball ~center ~radius ~eps

  let ball_report t ~center ~radius =
    Dyn.Ball.ball_report t.ball ~center ~radius
end
