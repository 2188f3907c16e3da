module Points = Cso_metric.Points
module Obs = Cso_obs.Obs
module Pool = Cso_parallel.Pool

(* The work measures behind the O(log n + 1/eps^d) query bound of the
   paper's Section 3: queries issued, nodes touched, internal nodes
   expanded because their box straddles the (1+eps) sandwich band, and
   canonical nodes reported. *)
let c_queries = Obs.counter "geom.bbd.ball_queries"
let c_visits = Obs.counter "geom.bbd.nodes_visited"
let c_expansions = Obs.counter "geom.bbd.expansions"
let c_canonical = Obs.counter "geom.bbd.canonical_nodes"

(* Points actually materialized by [points_of_node] — counting paths
   that stay on canonical-node counts never move it. *)
let c_reported_pts = Obs.counter "geom.bbd.reported_points"

(* Per-query magnitude: the aggregate [c_visits] can't tell "O(log n)
   everywhere" from "O(log n) on average with a heavy tail"; the
   histogram can. *)
let h_nodes = Obs.Hist.hist "geom.bbd.nodes_per_query"

let budgets =
  [
    {
      Obs.Budget.b_name = "geom.bbd.nodes_per_query";
      b_expected = 0.0;
      b_tolerance = 0.6;
      b_doc =
        "Paper Sec 3: O(log n + eps^(1-d)) nodes per ball query. The \
         kd-tree substitute (DESIGN.md substitution 2) is near-log on \
         average, so the fitted exponent of mean nodes/query vs n must \
         stay well below the O(n) regression slope of 1.";
    };
  ]

type node = {
  box : Rect.t;
  parent : int;
  left : int; (* -1 for leaves *)
  right : int;
  point : int; (* point index for leaves, -1 otherwise *)
  count : int;
  mutable active : bool;
  mutable active_count : int;
  mutable repr : int; (* an active point in the subtree, -1 if none *)
}

(* The two weight accumulators live in flat float arrays indexed by
   node id, not in the node records: a mutable float field of a mixed
   record is boxed, so every [add_weight] would allocate. *)
type t = {
  coords : Points.t;
  mutable nodes : node array;
  mutable n_nodes : int;
  root : int;
  leaf_of : int array;
  weight : float array;
  weight2 : float array;
}

let dummy_node =
  {
    box = Rect.unbounded 1;
    parent = -1;
    left = -1;
    right = -1;
    point = -1;
    count = 0;
    active = true;
    active_count = 0;
    repr = -1;
  }

let push t node =
  if t.n_nodes = Array.length t.nodes then begin
    let bigger = Array.make (max 16 (2 * t.n_nodes)) dummy_node in
    Array.blit t.nodes 0 bigger 0 t.n_nodes;
    t.nodes <- bigger
  end;
  t.nodes.(t.n_nodes) <- node;
  t.n_nodes <- t.n_nodes + 1;
  t.n_nodes - 1

(* Widest dimension of the bounding box of [idx.(lo..hi-1)], read straight
   off the packed coordinate store. *)
let widest_dim coords idx lo hi =
  let d = Points.dim coords in
  let best = ref 0 and best_w = ref neg_infinity in
  for j = 0 to d - 1 do
    let mn = ref infinity and mx = ref neg_infinity in
    for i = lo to hi - 1 do
      let x = Points.coord coords idx.(i) j in
      if x < !mn then mn := x;
      if x > !mx then mx := x
    done;
    let w = !mx -. !mn in
    if w > !best_w then begin
      best_w := w;
      best := j
    end
  done;
  !best

let build_with coords =
  let n = Points.length coords in
  let t =
    { coords; nodes = Array.make (max 1 (2 * n)) dummy_node; n_nodes = 0;
      root = 0; leaf_of = Array.make n (-1); weight = [||]; weight2 = [||] }
  in
  if n = 0 then t
  else begin
    let idx = Array.init n (fun i -> i) in
    (* Builds the subtree over idx.(lo..hi-1); returns its node id. *)
    let rec go parent lo hi =
      let count = hi - lo in
      let box = Rect.bounding_box_idx coords idx ~lo ~hi in
      if count = 1 then begin
        let p = idx.(lo) in
        let id =
          push t
            { box; parent; left = -1; right = -1; point = p; count = 1;
              active = true; active_count = 1; repr = p }
        in
        t.leaf_of.(p) <- id;
        id
      end
      else begin
        let j = widest_dim coords idx lo hi in
        let sub = Array.sub idx lo count in
        Array.sort
          (fun a b ->
            Float.compare (Points.coord coords a j) (Points.coord coords b j))
          sub;
        Array.blit sub 0 idx lo count;
        let mid = lo + (count / 2) in
        let id =
          push t
            { box; parent; left = -1; right = -1; point = -1; count;
              active = true; active_count = count; repr = idx.(lo) }
        in
        let l = go id lo mid in
        let r = go id mid hi in
        t.nodes.(id) <- { (t.nodes.(id)) with left = l; right = r };
        id
      end
    in
    ignore (go (-1) 0 n);
    { t with weight = Array.make t.n_nodes 0.0;
             weight2 = Array.make t.n_nodes 0.0 }
  end

let build pts = build_with (Points.of_array pts)
let build_packed coords = build_with coords

let size t = t.coords.Points.n

(* Boxed view for tests and reference paths only: fresh copies, rebuilt
   on every call — the tree no longer retains a boxed array. *)
let points t = Points.to_array t.coords
let coords t = t.coords
let node_count t id = t.nodes.(id).count
let node_active_count t id =
  if t.nodes.(id).active then t.nodes.(id).active_count else 0
let leaf_of_point t i = t.leaf_of.(i)
let n_nodes t = t.n_nodes
let parent t id = t.nodes.(id).parent
let node_point t id = t.nodes.(id).point

(* Per-domain traversal scratch: an explicit DFS stack and a canonical-id
   buffer, reused across queries so the hot sweep allocates only the
   result lists. Domain-local, hence race-free under [Pool] fan-out. *)
type scratch = {
  mutable stk : int array;
  mutable cbuf : int array;
  mutable ctr : float array; (* packed-center staging for [balls_all] *)
}

let scratch_key =
  Domain.DLS.new_key (fun () ->
      { stk = Array.make 64 0; cbuf = Array.make 64 0; ctr = Array.make 8 0.0 })

let scratch_for t =
  let s = Domain.DLS.get scratch_key in
  let need = max 64 (t.n_nodes + 1) in
  if Array.length s.stk < need then s.stk <- Array.make need 0;
  if Array.length s.cbuf < need then s.cbuf <- Array.make need 0;
  if Array.length s.ctr < t.coords.Points.dim then
    s.ctr <- Array.make t.coords.Points.dim 0.0;
  s

(* Iterative DFS. Pushing [right] before [left] pops the left subtree
   first, reproducing the recursive [go left; go right] visit order
   exactly — canonical ids land in [cbuf] in discovery order and the
   final list is built back-to-front, matching the [id :: !out]
   accumulation of the recursive original element for element (GCSO
   folds over these lists in float order, so the order is part of the
   bit-identity contract). The visit, canonical and expansion counts
   are tallied locally and published with one [Obs.add] each per query:
   the same totals as an atomic increment per event, at a fraction of
   the cost. *)
let query_into ~respect_active t ~center ~radius ~eps s =
  Obs.incr c_queries;
  let visited = ref 0 and expanded = ref 0 in
  let r_out = (1.0 +. eps) *. radius in
  let stk = s.stk and cbuf = s.cbuf in
  let sp = ref 1 and cnt = ref 0 in
  stk.(0) <- t.root;
  while !sp > 0 do
    decr sp;
    let id = Array.unsafe_get stk !sp in
    incr visited;
    let nd = Array.unsafe_get t.nodes id in
    if respect_active && not nd.active then ()
    else begin
      let dmin = Rect.min_dist_to_point nd.box center in
      if dmin > radius then ()
      else
        let dmax = Rect.max_dist_to_point nd.box center in
        if dmax <= r_out then begin
          Array.unsafe_set cbuf !cnt id;
          incr cnt
        end
        else if nd.left >= 0 then begin
          incr expanded;
          (* Two pushes per expansion, one pop per visit: the stack top
             never exceeds one slot per tree level plus one, well inside
             the [n_nodes + 1] capacity of the scratch. *)
          Array.unsafe_set stk !sp nd.right;
          incr sp;
          Array.unsafe_set stk !sp nd.left;
          incr sp
        end
          (* A leaf always satisfies dmax = dmin <= radius <= r_out here,
             so this branch is unreachable for leaves. *)
    end
  done;
  Obs.add c_visits !visited;
  Obs.add c_canonical !cnt;
  Obs.add c_expansions !expanded;
  Obs.Hist.observe h_nodes !visited;
  let rec mk acc k = if k >= !cnt then acc else mk (cbuf.(k) :: acc) (k + 1) in
  mk [] 0

let ball_query_gen ~respect_active t ~center ~radius ~eps =
  if t.coords.Points.n = 0 then []
  else query_into ~respect_active t ~center ~radius ~eps (scratch_for t)

let ball_query t ~center ~radius ~eps =
  ball_query_gen ~respect_active:false t ~center ~radius ~eps

let ball_query_active t ~center ~radius ~eps =
  ball_query_gen ~respect_active:true t ~center ~radius ~eps

(* Index-centered queries: the center is one of the tree's own points,
   staged from the packed store into the per-domain scratch row — no
   boxed point anywhere on the path. Results and counter events are
   identical to the boxed-center query at the same coordinates. *)
let ball_query_idx_gen ~respect_active t ~center ~radius ~eps =
  if t.coords.Points.n = 0 then []
  else begin
    let s = scratch_for t in
    Points.blit_point t.coords center s.ctr;
    query_into ~respect_active t ~center:s.ctr ~radius ~eps s
  end

let ball_query_idx t ~center ~radius ~eps =
  ball_query_idx_gen ~respect_active:false t ~center ~radius ~eps

let ball_query_active_idx t ~center ~radius ~eps =
  ball_query_idx_gen ~respect_active:true t ~center ~radius ~eps

(* One canonical-node query per point, batched: the per-domain scratch is
   fetched once per chunk index, the center is staged into the packed
   scratch row (no boxed point per query), and results land in disjoint
   slots. Result lists and every counter/histogram event are identical
   to [n] separate [ball_query]s with boxed centers. *)
let balls_all t ~radius ~eps =
  let n = t.coords.Points.n in
  if n = 0 then [||]
  else begin
    let out = Array.make n [] in
    let pool = Pool.get_default () in
    Pool.parallel_for pool ~chunk:64 ~start:0 ~finish:(n - 1) (fun i ->
        let s = scratch_for t in
        Points.blit_point t.coords i s.ctr;
        out.(i) <-
          query_into ~respect_active:false t ~center:s.ctr ~radius ~eps s);
    out
  end

let points_of_node t id =
  let acc = ref [] in
  let rec go id =
    let nd = t.nodes.(id) in
    if nd.point >= 0 then acc := nd.point :: !acc
    else begin
      go nd.left;
      go nd.right
    end
  in
  go id;
  Obs.add c_reported_pts (List.length !acc);
  !acc

let active_points_of_node t id =
  let acc = ref [] in
  let rec go id =
    let nd = t.nodes.(id) in
    if not nd.active then ()
    else if nd.point >= 0 then acc := nd.point :: !acc
    else begin
      go nd.left;
      go nd.right
    end
  in
  go id;
  !acc

let fold_path_to_root t id ~init ~f =
  let rec go acc id = if id < 0 then acc else go (f acc id) t.nodes.(id).parent in
  go init id

let reset_weights t =
  Array.fill t.weight 0 t.n_nodes 0.0;
  Array.fill t.weight2 0 t.n_nodes 0.0

let add_weight t id w = t.weight.(id) <- t.weight.(id) +. w
let get_weight t id = t.weight.(id)
let add_weight2 t id w = t.weight2.(id) <- t.weight2.(id) +. w
let get_weight2 t id = t.weight2.(id)

(* The batched forms run inside this module, where the accumulator is a
   local float array: an inlined [add_weight] from another module still
   boxes its float argument on every call. *)
let scatter_weights t (rows : Csr.t) w =
  let o = rows.Csr.offsets and ids = rows.Csr.ids and acc = t.weight in
  for i = 0 to Csr.rows rows - 1 do
    let x = w.(i) in
    for e = o.(i) to o.(i + 1) - 1 do
      let u = Array.unsafe_get ids e in
      acc.(u) <- acc.(u) +. x
    done
  done

let path_weights t out =
  let n = t.coords.Points.n in
  let pool = Pool.get_default () in
  Pool.parallel_for pool ~chunk:64 ~start:0 ~finish:(n - 1) (fun l ->
      let acc = ref 0.0 and u = ref t.leaf_of.(l) in
      while !u >= 0 do
        acc := !acc +. t.weight.(!u);
        u := t.nodes.(!u).parent
      done;
      out.(l) <- !acc)

let reset_active t =
  for i = 0 to t.n_nodes - 1 do
    let nd = t.nodes.(i) in
    nd.active <- true;
    nd.active_count <- nd.count;
    nd.repr <- (if nd.point >= 0 then nd.point else nd.repr)
  done;
  (* Recompute internal representatives bottom-up: node ids are assigned
     pre-order so a simple reverse scan sees children before parents. *)
  for i = t.n_nodes - 1 downto 0 do
    let nd = t.nodes.(i) in
    if nd.left >= 0 then nd.repr <- t.nodes.(nd.left).repr
  done

let eff t id = if t.nodes.(id).active then t.nodes.(id).active_count else 0

let deactivate t id =
  let nd = t.nodes.(id) in
  nd.active <- false;
  nd.active_count <- 0;
  nd.repr <- -1;
  let rec up pid =
    if pid >= 0 then begin
      let p = t.nodes.(pid) in
      p.active_count <- eff t p.left + eff t p.right;
      if p.active_count = 0 then begin
        p.active <- false;
        p.repr <- -1
      end
      else
        p.repr <-
          (if eff t p.left > 0 then t.nodes.(p.left).repr
           else t.nodes.(p.right).repr);
      up p.parent
    end
  in
  up nd.parent

let is_active t id = t.nodes.(id).active

let root_active_count t =
  if t.n_nodes = 0 then 0 else eff t t.root

let root_repr t =
  if t.n_nodes = 0 || not t.nodes.(t.root).active then None
  else Some t.nodes.(t.root).repr

let point_is_active t i =
  fold_path_to_root t (leaf_of_point t i) ~init:true ~f:(fun acc id ->
      acc && t.nodes.(id).active)

let active_count_in_ball t ~center ~radius ~eps =
  List.fold_left
    (fun acc id -> acc + node_active_count t id)
    0
    (ball_query_active t ~center ~radius ~eps)

let active_count_in_ball_idx t ~center ~radius ~eps =
  List.fold_left
    (fun acc id -> acc + node_active_count t id)
    0
    (ball_query_active_idx t ~center ~radius ~eps)
