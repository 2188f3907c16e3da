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

(* Struct-of-arrays layout, indexed by node id (pre-order, so every
   parent id is smaller than its children's and a left child is its
   parent's id + 1). Node [u]'s box is [boxes.(u * 2d .. u * 2d + d - 1)]
   (low corner) followed by its [d] high coordinates. A ball query, a
   root-path sum or a rounding step reads these int and float arrays
   and dereferences no per-node record. The weight accumulator is flat
   too: a mutable float field of a record would be boxed. *)
type t = {
  coords : Points.t;
  n_nodes : int;
  boxes : float array;
  parent : int array; (* -1 at the root *)
  left : int array; (* -1 for leaves *)
  right : int array;
  point : int array; (* point index for leaves, -1 otherwise *)
  count : int array;
  active : bool array;
  active_count : int array;
  repr : int array; (* an active point in the subtree, -1 if none *)
  leaf_of : int array;
  weight : float array;
}

let root = 0

let build_packed coords =
  let n = Points.length coords in
  let d = Points.dim coords in
  let nn = if n = 0 then 0 else (2 * n) - 1 in
  let t =
    { coords; n_nodes = nn; boxes = Array.make (nn * 2 * d) 0.0;
      parent = Array.make nn (-1); left = Array.make nn (-1);
      right = Array.make nn (-1); point = Array.make nn (-1);
      count = Array.make nn 0; active = Array.make nn true;
      active_count = Array.make nn 0; repr = Array.make nn (-1);
      leaf_of = Array.make n (-1); weight = Array.make nn 0.0 }
  in
  if n > 0 then begin
    let idx = Array.init n (fun i -> i) in
    let keys = Array.make n 0.0 and ids = Array.make n 0 in
    let next = ref 0 in
    (* Builds the subtree over idx.(lo..hi-1); returns its node id. *)
    let rec go parent lo hi =
      let id = !next in
      incr next;
      let count = hi - lo in
      Rect.bounding_box_into coords idx ~lo ~hi t.boxes (id * 2 * d);
      t.parent.(id) <- parent;
      t.count.(id) <- count;
      t.active_count.(id) <- count;
      if count = 1 then begin
        let p = idx.(lo) in
        t.point.(id) <- p;
        t.repr.(id) <- p;
        t.leaf_of.(p) <- id
      end
      else begin
        Rect.sort_by_widest_dim coords idx ~lo ~hi ~keys ~ids;
        t.repr.(id) <- idx.(lo);
        let mid = lo + (count / 2) in
        t.left.(id) <- go id lo mid;
        t.right.(id) <- go id mid hi
      end;
      id
    in
    ignore (go (-1) 0 n)
  end;
  t

let size t = t.coords.Points.n
let node_count t id = t.count.(id)
let leaf_of_point t i = t.leaf_of.(i)
let n_nodes t = t.n_nodes
let parent t id = t.parent.(id)

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
  let boxes = t.boxes and d = t.coords.Points.dim in
  let sp = ref 1 and cnt = ref 0 in
  stk.(0) <- root;
  while !sp > 0 do
    decr sp;
    let id = Array.unsafe_get stk !sp in
    incr visited;
    if respect_active && not (Array.unsafe_get t.active id) then ()
    else begin
      let lo = id * 2 * d in
      let dmin = Rect.min_dist_packed boxes ~lo ~hi:(lo + d) ~d center in
      if dmin > radius then ()
      else
        let dmax = Rect.max_dist_packed boxes ~lo ~hi:(lo + d) ~d center in
        if dmax <= r_out then begin
          Array.unsafe_set cbuf !cnt id;
          incr cnt
        end
        else begin
          let l = Array.unsafe_get t.left id in
          if l >= 0 then begin
            incr expanded;
            (* Two pushes per expansion, one pop per visit: the stack
               top never exceeds one slot per tree level plus one, well
               inside the [n_nodes + 1] capacity of the scratch. *)
            Array.unsafe_set stk !sp (Array.unsafe_get t.right id);
            incr sp;
            Array.unsafe_set stk !sp l;
            incr sp
          end
          (* A leaf always satisfies dmax = dmin <= radius <= r_out
             here, so a leaf never reaches this branch. *)
        end
    end
  done;
  Obs.add c_visits !visited;
  Obs.add c_canonical !cnt;
  Obs.add c_expansions !expanded;
  Obs.Hist.observe h_nodes !visited;
  let cnt = !cnt in
  let rec mk acc k = if k >= cnt then acc else mk (cbuf.(k) :: acc) (k + 1) in
  mk [] 0

let ball_query t ~center ~radius ~eps =
  if t.coords.Points.n = 0 then []
  else query_into ~respect_active:false t ~center ~radius ~eps (scratch_for t)

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
    let p = t.point.(id) in
    if p >= 0 then acc := p :: !acc
    else begin
      go t.left.(id);
      go t.right.(id)
    end
  in
  go id;
  Obs.add c_reported_pts (List.length !acc);
  !acc

let active_points_of_node t id =
  let acc = ref [] in
  let rec go id =
    if not t.active.(id) then ()
    else if t.point.(id) >= 0 then acc := t.point.(id) :: !acc
    else begin
      go t.left.(id);
      go t.right.(id)
    end
  in
  go id;
  !acc

let fold_path_to_root t id ~init ~f =
  let rec go acc id = if id < 0 then acc else go (f acc id) t.parent.(id) in
  go init id

let reset_weights t = Array.fill t.weight 0 t.n_nodes 0.0

(* The accumulator is only written and read here, in batched form, as a
   local float array: a per-node accessor called from another module
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
  let weight = t.weight and parent = t.parent and leaf_of = t.leaf_of in
  Pool.parallel_for pool ~chunk:64 ~start:0 ~finish:(n - 1) (fun l ->
      let acc = ref 0.0 and u = ref leaf_of.(l) in
      while !u >= 0 do
        acc := !acc +. Array.unsafe_get weight !u;
        u := Array.unsafe_get parent !u
      done;
      out.(l) <- !acc)

let reset_active t =
  for i = 0 to t.n_nodes - 1 do
    t.active.(i) <- true;
    t.active_count.(i) <- t.count.(i);
    if t.point.(i) >= 0 then t.repr.(i) <- t.point.(i)
  done;
  (* Recompute internal representatives bottom-up: node ids are assigned
     pre-order so a simple reverse scan sees children before parents. *)
  for i = t.n_nodes - 1 downto 0 do
    let l = t.left.(i) in
    if l >= 0 then t.repr.(i) <- t.repr.(l)
  done

let eff t id = if t.active.(id) then t.active_count.(id) else 0

let deactivate t id =
  t.active.(id) <- false;
  t.active_count.(id) <- 0;
  t.repr.(id) <- -1;
  let rec up p =
    if p >= 0 then begin
      let l = t.left.(p) and r = t.right.(p) in
      let c = eff t l + eff t r in
      t.active_count.(p) <- c;
      if c = 0 then begin
        t.active.(p) <- false;
        t.repr.(p) <- -1
      end
      else t.repr.(p) <- (if eff t l > 0 then t.repr.(l) else t.repr.(r));
      up t.parent.(p)
    end
  in
  up t.parent.(id)

let root_active_count t = if t.n_nodes = 0 then 0 else eff t root

let root_repr t =
  if t.n_nodes = 0 || not t.active.(root) then None else Some t.repr.(root)

let point_is_active t i =
  fold_path_to_root t (leaf_of_point t i) ~init:true ~f:(fun acc id ->
      acc && t.active.(id))

let active_count_in_ball_idx t ~center ~radius ~eps =
  List.fold_left
    (fun acc id -> acc + eff t id)
    0
    (ball_query_active_idx t ~center ~radius ~eps)
