module Points = Cso_metric.Points
module Obs = Cso_obs.Obs

(* Canonical-decomposition work measures: queries issued, tree nodes
   touched while descending, canonical nodes emitted, and the total
   point mass under those canonical nodes. The paper's O(log^d n)
   canonical-set bound is checked against [canonical_nodes] per query. *)
let c_queries = Obs.counter "geom.rtree.queries"
let c_visits = Obs.counter "geom.rtree.nodes_visited"
let c_canonical = Obs.counter "geom.rtree.canonical_nodes"
let c_canonical_pts = Obs.counter "geom.rtree.canonical_points"

(* Points actually materialized by [node_points] (hence by [report]) —
   counting paths that stay on canonical-node counts never move it. *)
let c_reported_pts = Obs.counter "geom.rtree.reported_points"

(* Per-query canonical-set size — the quantity the O(log^d n) bound is
   actually about. *)
let h_canonical = Obs.Hist.hist "geom.rtree.canonical_per_query"

let budgets =
  [
    {
      Obs.Budget.b_name = "geom.rtree.canonical_per_query";
      b_expected = 0.0;
      b_tolerance = 0.6;
      b_doc =
        "Paper Sec 2 prelims: a d-dim range tree decomposes any rectangle \
         into O(log^d n) canonical nodes. Polylog grows slower than any \
         power of n, so the fitted exponent of mean canonical nodes per \
         query vs n must stay well below 1 (the O(n) regression).";
    };
  ]

(* Last-level (dimension d-1) subtree: a segment tree over its subset of
   points sorted by the last coordinate. Its nodes are the canonical
   nodes of the whole structure; they get global ids [base .. base+nn-1]
   assigned in pre-order (parents before children). *)
type seg = {
  base : int;
  s_pts : int array; (* point ids, sorted by last coordinate *)
  s_keys : float array;
  s_lo : int array; (* per local node: range [lo, hi) in s_pts *)
  s_hi : int array;
  s_left : int array; (* local child ids, -1 for leaves *)
  s_right : int array;
}

type tree =
  | Last of seg
  | Inner of inner

and inner = {
  i_keys : float array; (* coordinate of this dimension, sorted *)
  i_root : itnode;
}

and itnode = {
  t_lo : int;
  t_hi : int;
  t_left : itnode option;
  t_right : itnode option;
  t_assoc : tree;
}

type t = {
  coords : Points.t;
  d : int;
  root : tree option;
  weight : float array; (* indexed by global canonical-node id *)
  mark : int array;
  parent : int array; (* global id -> global parent id, -1 at seg roots *)
  seg_of : seg array; (* all last-level subtrees *)
  point_leaves : int list array; (* point -> global leaf ids *)
}

(* First index with keys.(i) >= v. *)
let lower_bound keys v =
  let lo = ref 0 and hi = ref (Array.length keys) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if keys.(mid) < v then lo := mid + 1 else hi := mid
  done;
  !lo

(* First index with keys.(i) > v. *)
let upper_bound keys v =
  let lo = ref 0 and hi = ref (Array.length keys) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if keys.(mid) <= v then lo := mid + 1 else hi := mid
  done;
  !lo

type build_state = {
  mutable next : int;
  mutable parents : int list; (* reversed: parent of ids next-1, next-2, .. *)
  mutable segs : seg list;
  b_point_leaves : int list array;
}

let build_packed coords =
  let n = Points.length coords in
  let d = if n = 0 then 1 else Points.dim coords in
  let state =
    { next = 0; parents = []; segs = []; b_point_leaves = Array.make n [] }
  in
  let build_seg subset =
    let m = Array.length subset in
    let sorted = Array.copy subset in
    Array.sort
      (fun a b ->
        Float.compare
          (Points.coord coords a (d - 1))
          (Points.coord coords b (d - 1)))
      sorted;
    let nn = (2 * m) - 1 in
    let base = state.next in
    state.next <- state.next + nn;
    let s_lo = Array.make nn 0 and s_hi = Array.make nn 0 in
    let s_left = Array.make nn (-1) and s_right = Array.make nn (-1) in
    let parents = Array.make nn (-1) in
    let ctr = ref 0 in
    let rec go parent lo hi =
      let id = !ctr in
      incr ctr;
      parents.(id) <- parent;
      s_lo.(id) <- lo;
      s_hi.(id) <- hi;
      if hi - lo = 1 then begin
        let p = sorted.(lo) in
        state.b_point_leaves.(p) <- (base + id) :: state.b_point_leaves.(p)
      end
      else begin
        let mid = (lo + hi) / 2 in
        s_left.(id) <- go (base + id) lo mid;
        s_right.(id) <- go (base + id) mid hi
      end;
      id
    in
    ignore (go (-1) 0 m);
    (* Record parents in reverse id order so the final flattening is a
       single List.rev_append per seg. *)
    for i = 0 to nn - 1 do
      state.parents <- parents.(i) :: state.parents
    done;
    let seg =
      {
        base;
        s_pts = sorted;
        s_keys = Array.map (fun p -> Points.coord coords p (d - 1)) sorted;
        s_lo;
        s_hi;
        s_left;
        s_right;
      }
    in
    state.segs <- seg :: state.segs;
    seg
  in
  let rec build_tree subset j =
    if j = d - 1 then Last (build_seg subset)
    else begin
      let sorted = Array.copy subset in
      Array.sort
        (fun a b ->
          Float.compare (Points.coord coords a j) (Points.coord coords b j))
        sorted;
      let keys = Array.map (fun p -> Points.coord coords p j) sorted in
      let rec go lo hi =
        let assoc = build_tree (Array.sub sorted lo (hi - lo)) (j + 1) in
        if hi - lo = 1 then
          { t_lo = lo; t_hi = hi; t_left = None; t_right = None;
            t_assoc = assoc }
        else begin
          let mid = (lo + hi) / 2 in
          { t_lo = lo; t_hi = hi; t_left = Some (go lo mid);
            t_right = Some (go mid hi); t_assoc = assoc }
        end
      in
      Inner { i_keys = keys; i_root = go 0 (Array.length sorted) }
    end
  in
  let root =
    if n = 0 then None
    else Some (build_tree (Array.init n (fun i -> i)) 0)
  in
  let parent = Array.of_list (List.rev state.parents) in
  {
    coords;
    d;
    root;
    weight = Array.make state.next 0.0;
    mark = Array.make state.next 0;
    parent;
    seg_of = Array.of_list (List.rev state.segs);
    point_leaves = state.b_point_leaves;
  }

let n_nodes t = Array.length t.weight

(* Canonical cover of index range [a, b) inside a seg. *)
let seg_cover seg a b acc =
  let rec go id acc =
    Obs.incr c_visits;
    let lo = seg.s_lo.(id) and hi = seg.s_hi.(id) in
    if b <= lo || hi <= a then acc
    else if a <= lo && hi <= b then begin
      Obs.incr c_canonical;
      Obs.add c_canonical_pts (hi - lo);
      (seg.base + id) :: acc
    end
    else go seg.s_left.(id) (go seg.s_right.(id) acc)
  in
  go 0 acc

let query_nodes t (rect : Rect.t) =
  (* An empty tree has no meaningful dimension (build accepted [[||]]
     without one), so any query rectangle is answerable: nothing is
     inside it. Only non-empty trees can reject a mismatched rect. *)
  match t.root with
  | None -> []
  | Some root ->
      if Rect.dim rect <> t.d then invalid_arg "Range_tree.query_nodes: dim";
      Obs.incr c_queries;
      let rec go tree j acc =
        match tree with
        | Last seg ->
            let a = lower_bound seg.s_keys rect.Rect.lo.(j) in
            let b = upper_bound seg.s_keys rect.Rect.hi.(j) in
            if a >= b then acc else seg_cover seg a b acc
        | Inner inner ->
            let a = lower_bound inner.i_keys rect.Rect.lo.(j) in
            let b = upper_bound inner.i_keys rect.Rect.hi.(j) in
            if a >= b then acc
            else
              let rec cover node acc =
                Obs.incr c_visits;
                if b <= node.t_lo || node.t_hi <= a then acc
                else if a <= node.t_lo && node.t_hi <= b then
                  go node.t_assoc (j + 1) acc
                else
                  match (node.t_left, node.t_right) with
                  | Some l, Some r -> cover l (cover r acc)
                  | _ -> acc
              in
              cover inner.i_root acc
      in
      let nodes = go root 0 [] in
      (* Every element of the canonical cover reaches the result list,
         so its length is exactly canonical-nodes-for-this-query. *)
      Obs.Hist.observe h_canonical (List.length nodes);
      nodes

(* Locates the seg owning a global node id by binary search on bases. *)
let seg_of_global t gid =
  let lo = ref 0 and hi = ref (Array.length t.seg_of) in
  while !hi - !lo > 1 do
    let mid = (!lo + !hi) / 2 in
    if t.seg_of.(mid).base <= gid then lo := mid else hi := mid
  done;
  t.seg_of.(!lo)

let node_points t gid =
  let seg = seg_of_global t gid in
  let local = gid - seg.base in
  Obs.add c_reported_pts (seg.s_hi.(local) - seg.s_lo.(local));
  let acc = ref [] in
  for i = seg.s_hi.(local) - 1 downto seg.s_lo.(local) do
    acc := seg.s_pts.(i) :: !acc
  done;
  !acc

let node_count t gid =
  let seg = seg_of_global t gid in
  let local = gid - seg.base in
  seg.s_hi.(local) - seg.s_lo.(local)

let report t rect =
  List.concat_map (node_points t) (query_nodes t rect)

let count t rect =
  List.fold_left (fun acc gid -> acc + node_count t gid) 0 (query_nodes t rect)

(* Aggregates the local ids [first .. last] of a seg from point weights
   [w]. Pre-order ids: children come after parents, so a reverse scan
   aggregates bottom-up. *)
let aggregate t seg w ~first ~last =
  for local = last downto first do
    let gid = seg.base + local in
    if seg.s_left.(local) < 0 then
      t.weight.(gid) <- w.(seg.s_pts.(seg.s_lo.(local)))
    else
      t.weight.(gid) <-
        t.weight.(seg.base + seg.s_left.(local))
        +. t.weight.(seg.base + seg.s_right.(local))
  done

let set_point_weights t w =
  if Array.length w <> Points.length t.coords then
    invalid_arg "Range_tree.set_point_weights: length";
  Array.iter
    (fun seg -> aggregate t seg w ~first:0 ~last:(Array.length seg.s_lo - 1))
    t.seg_of

(* A pre-order subtree over [m] points is the contiguous id range of
   its [2m - 1] nodes, starting at its root. *)
let set_subtree_weights t w gid =
  let seg = seg_of_global t gid in
  let top = gid - seg.base in
  let m = seg.s_hi.(top) - seg.s_lo.(top) in
  aggregate t seg w ~first:top ~last:(top + (2 * m) - 2)

let node_weight t gid = t.weight.(gid)

let add_mark t gid = t.mark.(gid) <- t.mark.(gid) + 1
let reset_marks t = Array.fill t.mark 0 (Array.length t.mark) 0

let fold_point_paths t i ~init ~f =
  List.fold_left
    (fun acc leaf ->
      let rec up acc gid = if gid < 0 then acc else up (f acc gid) t.parent.(gid) in
      up acc leaf)
    init t.point_leaves.(i)

let marked_on_paths t i =
  let exception Found in
  try
    fold_point_paths t i ~init:() ~f:(fun () gid ->
        if t.mark.(gid) > 0 then raise Found);
    false
  with Found -> true
