(* Logarithmic-method (rebuild-by-level) dynamic wrapper over the
   static packed BBD tree build.

   The classic Bentley–Saxe decomposition: live points are partitioned
   into O(log n) static trees ("levels"), level [i] holding at most
   [2^i] points. An insert works like a binary-counter increment — the
   new point plus every point of the occupied prefix of levels is merged
   into the first free level, one static rebuild whose amortized cost is
   O(log n) build-shares per point.

   Deletes are weight-balanced per level: a delete tombstones the point
   inside the level that stores it and bumps that level's dead counter;
   when a level's dead fraction reaches [alpha] of its live points, that
   single level is rebuilt in place from its survivors (survivors <=
   stored <= 2^i, so the capacity invariant is untouched). Every level
   therefore maintains [dead < alpha * live] between operations, i.e.
   [stored < (1 + alpha) * live] per level — the old global half-dead
   scheme allowed 2x blowup and forced point-level filtering on every
   query even when no tombstone existed anywhere. Levels with
   [dead = 0] (the common case under balanced churn) answer counting
   queries straight from canonical-node counts, no point
   materialization.

   Determinism contract: every operation is sequential and derived only
   from the operation sequence — level layouts, point ids, query answers
   and all [geom.dynbbd.*] counters are bit-identical across domain counts
   and with [CSO_OBS=0] (modulo the counters themselves being off). Query
   answers are sorted ascending by point id, so they are directly
   comparable with a static rebuild of the survivors. *)

module Point = Cso_metric.Point
module Obs = Cso_obs.Obs

type stats = {
  inserts : int;
  deletes : int;
  level_rebuilds : int; (* static tree builds (insert merges + partial) *)
  points_rebuilt : int; (* total points fed through static builds *)
  partial_rebuilds : int; (* dead-fraction-triggered per-level rebuilds *)
}

let default_alpha = 0.25

module Ball = struct
  let c_inserts = Obs.counter "geom.dynbbd.inserts"
  let c_deletes = Obs.counter "geom.dynbbd.deletes"
  let c_level_rebuilds = Obs.counter "geom.dynbbd.level_rebuilds"
  let c_points_rebuilt = Obs.counter "geom.dynbbd.points_rebuilt"
  let c_partial_rebuilds = Obs.counter "geom.dynbbd.partial_rebuilds"

  type level = {
    tree : Bbd_tree.t;
    ids : int array; (* external id of local point index, ascending *)
    mutable dead : int; (* tombstones currently stored in this level *)
  }

  type t = {
    dim : int;
    alpha : float; (* per-level dead-fraction rebuild threshold *)
    mutable levels : level option array; (* index i: at most 2^i points *)
    mutable coords : Point.t array; (* id -> coordinates *)
    mutable alive : bool array;
    mutable loc : int array; (* id -> level index while stored, else -1 *)
    mutable next_id : int;
    mutable n_live : int;
    mutable n_stored : int; (* sum of level sizes, dead included *)
    mutable n_dead_stored : int;
    mutable s_inserts : int;
    mutable s_deletes : int;
    mutable s_level_rebuilds : int;
    mutable s_points_rebuilt : int;
    mutable s_partial_rebuilds : int;
  }

  let create ?(alpha = default_alpha) ~dim () =
    if dim < 1 then invalid_arg "geom.dynbbd.create: dim < 1";
    if not (alpha > 0.0 && alpha <= 1.0) then
      invalid_arg "geom.dynbbd.create: alpha must be in (0, 1]";
    {
      dim;
      alpha;
      levels = Array.make 4 None;
      coords = Array.make 16 [||];
      alive = Array.make 16 false;
      loc = Array.make 16 (-1);
      next_id = 0;
      n_live = 0;
      n_stored = 0;
      n_dead_stored = 0;
      s_inserts = 0;
      s_deletes = 0;
      s_level_rebuilds = 0;
      s_points_rebuilt = 0;
      s_partial_rebuilds = 0;
    }

  let dim t = t.dim
  let alpha t = t.alpha
  let live_count t = t.n_live
  let stored_count t = t.n_stored
  let next_id t = t.next_id

  let mem t id = id >= 0 && id < t.next_id && t.alive.(id)

  let point t id =
    if not (mem t id) then invalid_arg "geom.dynbbd.point: dead or unknown id";
    Array.copy t.coords.(id)

  let stats t =
    {
      inserts = t.s_inserts;
      deletes = t.s_deletes;
      level_rebuilds = t.s_level_rebuilds;
      points_rebuilt = t.s_points_rebuilt;
      partial_rebuilds = t.s_partial_rebuilds;
    }

  let level_sizes t =
    Array.to_list t.levels
    |> List.filter_map (Option.map (fun l -> Array.length l.ids))

  let level_stats t =
    Array.to_list t.levels
    |> List.filter_map
         (Option.map (fun l ->
              (Array.length l.ids, Array.length l.ids - l.dead)))

  let live_ids t =
    let acc = ref [] in
    for id = t.next_id - 1 downto 0 do
      if t.alive.(id) then acc := id :: !acc
    done;
    !acc

  let live_points t = List.map (fun id -> (id, Array.copy t.coords.(id))) (live_ids t)

  let grow_ids t =
    let cap = Array.length t.coords in
    if t.next_id = cap then begin
      let coords = Array.make (2 * cap) [||] in
      let alive = Array.make (2 * cap) false in
      let loc = Array.make (2 * cap) (-1) in
      Array.blit t.coords 0 coords 0 cap;
      Array.blit t.alive 0 alive 0 cap;
      Array.blit t.loc 0 loc 0 cap;
      t.coords <- coords;
      t.alive <- alive;
      t.loc <- loc
    end

  let grow_levels t upto =
    let cap = Array.length t.levels in
    if upto >= cap then begin
      let levels = Array.make (max (upto + 1) (2 * cap)) None in
      Array.blit t.levels 0 levels 0 cap;
      t.levels <- levels
    end

  (* Builds one static tree over [ids] (sorted ascending) at [level]. *)
  let set_level t level ids =
    grow_levels t level;
    let pts = Array.map (fun id -> t.coords.(id)) ids in
    t.levels.(level) <-
      Some
        { tree = Bbd_tree.build_packed (Cso_metric.Points.of_array pts); ids;
          dead = 0 };
    Array.iter (fun id -> t.loc.(id) <- level) ids;
    t.n_stored <- t.n_stored + Array.length ids;
    t.s_level_rebuilds <- t.s_level_rebuilds + 1;
    t.s_points_rebuilt <- t.s_points_rebuilt + Array.length ids;
    Obs.incr c_level_rebuilds;
    Obs.add c_points_rebuilt (Array.length ids)

  (* Removes a level, returning its live ids (tombstones are dropped
     here — a merge or partial rebuild is where dead points leave the
     store). *)
  let take_level t i acc =
    match t.levels.(i) with
    | None -> acc
    | Some l ->
        t.levels.(i) <- None;
        t.n_stored <- t.n_stored - Array.length l.ids;
        t.n_dead_stored <- t.n_dead_stored - l.dead;
        Array.fold_left
          (fun acc id ->
            t.loc.(id) <- -1;
            if t.alive.(id) then id :: acc else acc)
          acc l.ids

  let insert t p =
    if Array.length p <> t.dim then
      invalid_arg "geom.dynbbd.insert: wrong dimension";
    grow_ids t;
    let id = t.next_id in
    t.coords.(id) <- Array.copy p;
    t.alive.(id) <- true;
    t.next_id <- id + 1;
    t.n_live <- t.n_live + 1;
    t.s_inserts <- t.s_inserts + 1;
    Obs.incr c_inserts;
    (* Binary-counter carry: merge the occupied prefix of levels with the
       new point into the first free level. At most 1 + sum_{i<j} 2^i =
       2^j points reach level j, preserving the capacity invariant. *)
    let acc = ref [ id ] in
    let j = ref 0 in
    while !j < Array.length t.levels && t.levels.(!j) <> None do
      acc := take_level t !j !acc;
      incr j
    done;
    let ids = Array.of_list (List.sort compare !acc) in
    set_level t !j ids;
    id

  (* Rebuild one level in place from its survivors. The survivors fit
     the level they came from (survivors <= stored <= 2^i), so rebuilding
     at the same index preserves the capacity invariant; an empty
     survivor set just frees the slot. *)
  let rebuild_level t i =
    match t.levels.(i) with
    | None -> ()
    | Some l ->
        t.levels.(i) <- None;
        t.n_stored <- t.n_stored - Array.length l.ids;
        t.n_dead_stored <- t.n_dead_stored - l.dead;
        t.s_partial_rebuilds <- t.s_partial_rebuilds + 1;
        Obs.incr c_partial_rebuilds;
        let survivors =
          Array.of_list
            (Array.fold_left
               (fun acc id ->
                 t.loc.(id) <- -1;
                 if t.alive.(id) then id :: acc else acc)
               [] l.ids
            |> List.rev)
        in
        if Array.length survivors > 0 then set_level t i survivors

  let delete t id =
    if not (mem t id) then
      invalid_arg "geom.dynbbd.delete: dead or unknown id";
    t.alive.(id) <- false;
    t.n_live <- t.n_live - 1;
    t.n_dead_stored <- t.n_dead_stored + 1;
    t.s_deletes <- t.s_deletes + 1;
    Obs.incr c_deletes;
    let i = t.loc.(id) in
    (match t.levels.(i) with
    | None -> assert false
    | Some l ->
        l.dead <- l.dead + 1;
        (* Weight balance: once the dead fraction of this level reaches
           [alpha] of its live points, purge it. A level whose points all
           died ([live = 0]) always trips the trigger and frees its
           slot. *)
        let live = Array.length l.ids - l.dead in
        if float_of_int l.dead >= t.alpha *. float_of_int live then
          rebuild_level t i)

  (* Folds [f] over the non-empty levels in ascending level order. [f]
     sees the whole level record, so counting queries can branch on
     [dead = 0] (tombstone-free level: canonical-node counts are
     exact). *)
  let fold_levels t ~init ~f =
    let acc = ref init in
    for i = 0 to Array.length t.levels - 1 do
      match t.levels.(i) with None -> () | Some l -> acc := f !acc l
    done;
    !acc

  let is_alive t id = t.alive.(id)

  (* --- ball queries --- *)

  let of_points ?alpha pts =
    if Array.length pts = 0 then
      invalid_arg "geom.dynbbd.of_points: empty (use create ~dim)";
    let t = create ?alpha ~dim:(Array.length pts.(0)) () in
    Array.iter (fun p -> ignore (insert t p)) pts;
    t

  (* Union of the per-level canonical answers, tombstones dropped,
     sorted ascending by id. Each level satisfies the sandwich guarantee
     for its own stored points, so the union does for the live set:
     [B(c,r) cap live subseteq answer subseteq B(c,(1+eps)r) cap live]. *)
  let ball_points t ~center ~radius ~eps =
    if Array.length center <> t.dim then
      invalid_arg "geom.dynbbd.ball_points: wrong dimension";
    let ids =
      fold_levels t ~init:[] ~f:(fun acc l ->
          List.fold_left
            (fun acc node ->
              List.fold_left
                (fun acc local ->
                  let id = l.ids.(local) in
                  if is_alive t id then id :: acc else acc)
                acc
                (Bbd_tree.points_of_node l.tree node))
            acc
            (Bbd_tree.ball_query l.tree ~center ~radius ~eps))
    in
    List.sort compare ids

  (* [eps = 0] turns the sandwich band degenerate, so the canonical
     union is exactly the closed ball: an exact report. *)
  let ball_report t ~center ~radius = ball_points t ~center ~radius ~eps:0.0

  (* With [eps = 0] the canonical nodes of each level exactly partition
     that level's stored points inside the closed ball, so a level with
     no tombstone contributes its canonical-node counts directly; only
     levels holding tombstones materialize and filter points. *)
  let count_in_ball t ~center ~radius =
    if Array.length center <> t.dim then
      invalid_arg "geom.dynbbd.count_in_ball: wrong dimension";
    fold_levels t ~init:0 ~f:(fun acc l ->
        let nodes = Bbd_tree.ball_query l.tree ~center ~radius ~eps:0.0 in
        if l.dead = 0 then
          List.fold_left
            (fun acc node -> acc + Bbd_tree.node_count l.tree node)
            acc nodes
        else
          List.fold_left
            (fun acc node ->
              List.fold_left
                (fun acc local ->
                  if is_alive t l.ids.(local) then acc + 1 else acc)
                acc
                (Bbd_tree.points_of_node l.tree node))
            acc nodes)
end
