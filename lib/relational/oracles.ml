module Point = Cso_metric.Point
module Rect = Cso_geom.Rect
module Box_complement = Cso_geom.Box_complement
module Obs = Cso_obs.Obs

(* Yannakakis-backed rectangle probes: the relational algorithms only
   touch the join through these three oracles plus the complement-cell
   witness search, so their counts are the paper's "number of oracle
   calls" measure for Section 5. *)
let c_count = Obs.counter "relational.oracle.count_rect"
let c_sample = Obs.counter "relational.oracle.sample_rect"
let c_any = Obs.counter "relational.oracle.any_in_rect"
let c_witness = Obs.counter "relational.oracle.outside_witness"

let count_rect inst tree rect =
  Obs.incr c_count;
  Yannakakis.count (Instance.filter_rect inst rect) tree

let sample_rect ?rng inst tree rect n =
  Obs.incr c_sample;
  Yannakakis.sample ?rng (Instance.filter_rect inst rect) tree n

(* A prepared handle (DESIGN.md §3l). Every join-tree edge [c -> parent c]
   interns the projections of its tuples onto the shared attributes: the
   child side's keys get ids [0 .. n_keys - 1] in first-seen order, and a
   parent tuple whose key no child tuple carries gets [-1]. Keys are
   [Yannakakis.project]ed and interned in the structural [Hashtbl] that
   [Yannakakis.build_dp] groups by, so the same tuples meet on an edge
   as there. [best] and [pick] are the one query's scratch: a handle has
   a single owner. *)
type prepared = {
  inst : Instance.t;
  root : int;
  parent : int array;
  order : int array; (* [Join_tree.order]: children before parents *)
  preorder : int array; (* the order [Yannakakis] writes a result in *)
  kids : int array array;
  attrs : int array array;
  up_key : int array array; (* [up_key.(c).(j)]: key of tuple j of c *)
  down_key : int array array;
      (* [down_key.(c).(j)]: key of tuple j of [parent c] on edge c, or -1 *)
  best : int array array;
      (* [best.(c).(key)]: highest-index alive tuple of c with [key], or -1 *)
  pick : int array; (* the tuple each relation contributes to the result *)
  hidden : bool array array; (* tuples [remove] has taken out *)
}

let prepare (inst : Instance.t) (tree : Join_tree.t) =
  let schema = inst.Instance.schema in
  let g = Schema.n_relations schema in
  let tuples = inst.Instance.tuples in
  let parent = tree.Join_tree.parent in
  let up_key = Array.make g [||]
  and down_key = Array.make g [||]
  and best = Array.make g [||] in
  for c = 0 to g - 1 do
    let p = parent.(c) in
    if p >= 0 then begin
      let shared = Schema.shared_attrs schema c p in
      let kp_child = Yannakakis.positions (Schema.rel_attrs schema c) shared in
      let kp_parent = Yannakakis.positions (Schema.rel_attrs schema p) shared in
      let ids = Hashtbl.create (max 16 (Array.length tuples.(c))) in
      up_key.(c) <-
        Array.map
          (fun tup ->
            let key = Yannakakis.project tup kp_child in
            match Hashtbl.find_opt ids key with
            | Some id -> id
            | None ->
                let id = Hashtbl.length ids in
                Hashtbl.add ids key id;
                id)
          tuples.(c);
      down_key.(c) <-
        Array.map
          (fun tup ->
            Option.value ~default:(-1)
              (Hashtbl.find_opt ids (Yannakakis.project tup kp_parent)))
          tuples.(p);
      best.(c) <- Array.make (Hashtbl.length ids) (-1)
    end
  done;
  let kids = Array.map Array.of_list tree.Join_tree.children in
  let preorder = ref [] in
  let rec visit i =
    preorder := i :: !preorder;
    Array.iter visit kids.(i)
  in
  visit tree.Join_tree.root;
  {
    inst;
    root = tree.Join_tree.root;
    parent;
    order = tree.Join_tree.order;
    preorder = Array.of_list (List.rev !preorder);
    kids;
    attrs = Array.init g (Schema.rel_attrs schema);
    up_key;
    down_key;
    best;
    pick = Array.make g (-1);
    hidden = Array.map (fun r -> Array.make (Array.length r) false) tuples;
  }

let remove h victims =
  let tuples = h.inst.Instance.tuples in
  List.iter
    (fun (rel, u) ->
      if rel >= 0 && rel < Array.length tuples then
        Array.iteri
          (fun j tup -> if tup = u then h.hidden.(rel).(j) <- true)
          tuples.(rel))
    victims

let restore h =
  Array.iter (fun a -> Array.fill a 0 (Array.length a) false) h.hidden

(* [Instance.filter_rect]'s closed-interval test, same comparisons; the
   annotations make them float compares, not polymorphic ones. *)
let in_rect attrs (tup : float array) (lo : float array) (hi : float array) =
  let n = Array.length attrs in
  let rec go pos =
    pos >= n
    ||
    let a = attrs.(pos) in
    let v = tup.(pos) in
    (not (v < lo.(a) || v > hi.(a))) && go (pos + 1)
  in
  go 0

(* Every child edge of relation [i] has an alive tuple with tuple [j]'s
   key. *)
let children_alive h i j =
  let kids = h.kids.(i) in
  let n = Array.length kids in
  let rec go x =
    x >= n
    ||
    let c = kids.(x) in
    let key = h.down_key.(c).(j) in
    key >= 0 && h.best.(c).(key) >= 0 && go (x + 1)
  in
  go 0

let alive h i j lo hi =
  (not h.hidden.(i).(j))
  && in_rect h.attrs.(i) h.inst.Instance.tuples.(i).(j) lo hi
  && children_alive h i j

(* One pass in [order]: a non-root relation records, per key, its
   highest-index alive tuple; the root stops at its first alive tuple.
   A relation with no alive tuple empties the join, so the pass stops
   there. The result is then written top-down in [preorder]: exactly
   the point [Yannakakis.enumerate ~limit:1] returns on the filtered
   instance (DESIGN.md §3l). *)
let first_result h (rect : Rect.t) =
  let d = Array.length rect.Rect.lo in
  if d <> Schema.dims h.inst.Instance.schema then
    invalid_arg "Oracles.any_in_rect: dimension mismatch";
  let lo = rect.Rect.lo and hi = rect.Rect.hi in
  let tuples = h.inst.Instance.tuples in
  (* The root comes last in [order], so the pass always reaches it. *)
  let rec pass x =
    let i = h.order.(x) in
    let n = Array.length tuples.(i) in
    if i = h.root then begin
      let j = ref 0 in
      while !j < n && not (alive h i !j lo hi) do
        incr j
      done;
      h.pick.(i) <- !j;
      !j < n
    end
    else begin
      let best = h.best.(i) and up = h.up_key.(i) in
      Array.fill best 0 (Array.length best) (-1);
      let any = ref false in
      for j = 0 to n - 1 do
        if alive h i j lo hi then begin
          best.(up.(j)) <- j;
          any := true
        end
      done;
      !any && pass (x + 1)
    end
  in
  if not (pass 0) then None
  else begin
    let p = Array.make d nan in
    Array.iter
      (fun i ->
        if i <> h.root then
          h.pick.(i) <- h.best.(i).(h.down_key.(i).(h.pick.(h.parent.(i))));
        let tup = tuples.(i).(h.pick.(i)) in
        Array.iteri (fun pos a -> p.(a) <- tup.(pos)) h.attrs.(i))
      h.preorder;
    Some p
  end

let any_in_rect h rect =
  Obs.incr c_any;
  first_result h rect

let candidate_linf_distances (inst : Instance.t) =
  let schema = inst.Instance.schema in
  let d = Schema.dims schema in
  let per_attr = Array.make d [] in
  Array.iteri
    (fun i rel ->
      let attrs = Schema.rel_attrs schema i in
      Array.iter
        (fun tup ->
          Array.iteri (fun pos a -> per_attr.(a) <- tup.(pos) :: per_attr.(a)) attrs)
        rel)
    inst.Instance.tuples;
  let acc = ref [ 0.0 ] in
  Array.iter
    (fun vals ->
      let vs = Array.of_list (List.sort_uniq Float.compare vals) in
      let n = Array.length vs in
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          acc := (vs.(j) -. vs.(i)) :: !acc
        done
      done)
    per_attr;
  Array.of_list (List.sort_uniq Float.compare !acc)

(* A join result strictly outside every L_inf ball of radius [r] around
   the centers, if one exists. [r] must not be a realizable coordinate
   difference so that no result lies exactly on a cube boundary. *)
let outside_witness h ~centers ~r =
  Obs.with_span "oracle.outside_witness" @@ fun () ->
  Obs.incr c_witness;
  let d = Schema.dims h.inst.Instance.schema in
  let cubes = List.map (fun c -> Rect.cube ~center:c ~side:(2.0 *. r)) centers in
  Box_complement.find_map cubes d (any_in_rect h)

let farthest_linf h ~centers ~cand =
  if centers = [] then invalid_arg "Oracles.farthest_linf: no centers";
  Obs.with_span "oracle.farthest_linf" @@ fun () ->
  let len = Array.length cand in
  (* Binary search the largest index [i] such that some result lies
     strictly beyond radius (cand.(i) + cand.(i+1)) / 2; the farthest
     distance is then cand.(i+1), attained by the witness. *)
  let lo = ref 0 and hi = ref (len - 2) in
  let best = ref None in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let r = (cand.(mid) +. cand.(mid + 1)) /. 2.0 in
    match outside_witness h ~centers ~r with
    | Some w ->
        best := Some (w, cand.(mid + 1));
        lo := mid + 1
    | None -> hi := mid - 1
  done;
  match !best with
  | Some (w, delta) -> (Some w, delta)
  | None -> (None, 0.0)

let rel_cluster inst tree ~k =
  if k <= 0 then invalid_arg "Oracles.rel_cluster: k <= 0";
  let h = prepare inst tree in
  let d = Schema.dims inst.Instance.schema in
  (* The first result of the whole join, uncounted as [Yannakakis.any]. *)
  match first_result h (Rect.unbounded d) with
  | None -> ([], 0.0)
  | Some p0 ->
      let cand = candidate_linf_distances inst in
      let centers = ref [ p0 ] in
      (try
         for _ = 2 to k do
           match farthest_linf h ~centers:!centers ~cand with
           | Some w, _ -> centers := w :: !centers
           | None, _ -> raise Exit (* every result coincides with a center *)
         done
       with Exit -> ());
      let _, cover_inf = farthest_linf h ~centers:!centers ~cand in
      (List.rev !centers, sqrt (float_of_int d) *. cover_inf)
