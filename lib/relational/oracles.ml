module Point = Cso_metric.Point
module Float_sort = Cso_metric.Float_sort
module Rect = Cso_geom.Rect
module Box_complement = Cso_geom.Box_complement
module Obs = Cso_obs.Obs

(* Yannakakis-backed rectangle probes: the relational algorithms only
   touch the join through these oracles plus the complement-cell
   witness search, so their counts are the paper's "number of oracle
   calls" measure for Section 5. *)
let c_count = Obs.counter "relational.oracle.count_rect"
let c_any = Obs.counter "relational.oracle.any_in_rect"
let c_witness = Obs.counter "relational.oracle.outside_witness"

let count_rect inst tree rect =
  Obs.incr c_count;
  Yannakakis.count (Instance.filter_rect inst rect) tree

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
  owners : (int * int) array array;
      (* [owners.(a)]: each relation [i] with attribute [a], paired with
         the number of its attributes [<= a] *)
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
  let attrs = Array.init g (Schema.rel_attrs schema) in
  let owners = Array.make (Schema.dims schema) [] in
  for i = g - 1 downto 0 do
    (* Schema attributes are sorted, so those [<= a] come first. *)
    Array.iteri
      (fun pos a -> owners.(a) <- (i, pos + 1) :: owners.(a))
      attrs.(i)
  done;
  {
    inst;
    root = tree.Join_tree.root;
    parent;
    order = tree.Join_tree.order;
    preorder = Array.of_list (List.rev !preorder);
    kids;
    attrs;
    owners = Array.map Array.of_list owners;
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

(* [Instance.filter_rect]'s closed-interval test on a tuple's
   attributes [pos .. n - 1], same comparisons; the annotations make
   them float compares, not polymorphic ones. Top-level recursion
   allocates no closure per tuple. *)
let rec in_rect_from pos n attrs (tup : float array) (lo : float array)
    (hi : float array) =
  pos >= n
  ||
  let a = attrs.(pos) in
  let v = tup.(pos) in
  (not (v < lo.(a) || v > hi.(a))) && in_rect_from (pos + 1) n attrs tup lo hi

let in_rect attrs tup lo hi =
  in_rect_from 0 (Array.length attrs) attrs tup lo hi

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
  let tuples = inst.Instance.tuples in
  (* Each attribute's values, from every relation that has it. *)
  let count = Array.make d 0 in
  Array.iteri
    (fun i rel ->
      Array.iter
        (fun a -> count.(a) <- count.(a) + Array.length rel)
        (Schema.rel_attrs schema i))
    tuples;
  let vals = Array.map (fun c -> Array.make c 0.0) count in
  let filled = Array.make d 0 in
  Array.iteri
    (fun i rel ->
      let attrs = Schema.rel_attrs schema i in
      Array.iter
        (fun (tup : float array) ->
          Array.iteri
            (fun pos a ->
              vals.(a).(filled.(a)) <- tup.(pos);
              filled.(a) <- filled.(a) + 1)
            attrs)
        rel)
    tuples;
  let distinct = Array.map2 Float_sort.sort_uniq vals count in
  let total =
    Array.fold_left (fun acc m -> acc + (m * (m - 1) / 2)) 1 distinct
  in
  (* The differences go after a leading [0.]. An attribute keeps one of
     [0.] and [-0.] when it holds both, and either gives the same
     differences; distinct values differ by more than zero, so no nan and
     no [-0.] reaches the final sort. *)
  let out = Array.make total 0.0 in
  let len = ref 1 in
  Array.iteri
    (fun a (vs : float array) ->
      for i = 0 to distinct.(a) - 1 do
        for j = i + 1 to distinct.(a) - 1 do
          out.(!len) <- vs.(j) -. vs.(i);
          incr len
        done
      done)
    vals;
  Array.sub out 0 (Float_sort.sort_uniq out total)

(* Some tuple from index [j] on is unhidden and passes [in_rect] on its
   first [n] attributes. *)
let rec any_visible j tuples hidden attrs n lo hi =
  j < Array.length tuples
  && ((not hidden.(j)) && in_rect_from 0 n attrs tuples.(j) lo hi
     || any_visible (j + 1) tuples hidden attrs n lo hi)

(* The complement walk's [keep] (DESIGN.md §3l): with dimensions
   [0 .. a] of [cell] fixed, every relation with attribute [a] still
   has an unhidden tuple whose attributes [<= a] lie in the cell, by
   [in_rect]'s comparisons. A join result in any cell below projects
   onto such a tuple of every relation, and hiding more tuples only
   shrinks the join, so below a [false] every [any_in_rect] answers
   [None]. *)
let populated h a (cell : Rect.t) =
  let owners = h.owners.(a) in
  let ok = ref true and x = ref 0 in
  while !ok && !x < Array.length owners do
    let i, n = owners.(!x) in
    ok :=
      any_visible 0 h.inst.Instance.tuples.(i) h.hidden.(i) h.attrs.(i) n
        cell.Rect.lo cell.Rect.hi;
    incr x
  done;
  !ok

let find_outside h cubes f =
  Box_complement.find_map ~keep:(populated h) cubes
    (Schema.dims h.inst.Instance.schema)
    f

let cubes_at centers r =
  List.map (fun c -> Rect.cube ~center:c ~side:(2.0 *. r)) centers

(* A join result strictly outside every L_inf ball of radius [r] around
   the centers, if one exists. [r] must not be a realizable coordinate
   difference so that no result lies exactly on a cube boundary. *)
let outside_witness h ~centers ~r =
  Obs.with_span "oracle.outside_witness" @@ fun () ->
  Obs.incr c_witness;
  find_outside h (cubes_at centers r) (any_in_rect h)

let rec ceil_log2 m = if m <= 1 then 0 else 1 + ceil_log2 ((m + 1) / 2)

let farthest_linf h ~centers ~cand =
  if centers = [] then invalid_arg "Oracles.farthest_linf: no centers";
  Obs.with_span "oracle.farthest_linf" @@ fun () ->
  (* Index [i] asks for a result strictly beyond the midpoint radius
     (cand.(i) + cand.(i+1)) / 2. The answers are [Some] up to some i*
     and [None] past it, and the farthest distance is cand.(i* + 1)
     (DESIGN.md §3l). [lo] is the largest index known to answer [Some]
     and [hi] the largest not known to answer [None]; [best] is the
     witness that the walk at index [at] found. *)
  let radius i = (cand.(i) +. cand.(i + 1)) /. 2.0 in
  let walk i = outside_witness h ~centers ~r:(radius i) in
  let lo = ref (-1) and hi = ref (Array.length cand - 2) in
  let best = ref [||] and at = ref (-1) in
  let probe i =
    match walk i with
    | None -> hi := i - 1
    | Some w ->
        best := w;
        at := i;
        (* The witness answers [Some] for every index whose cubes it
           stays outside, by the walk's own cubes and cover test:
           bisect that test for the last such index and jump there,
           without a walk. *)
        let a = ref i and b = ref !hi in
        while !a < !b do
          let m = (!a + !b + 1) / 2 in
          if Box_complement.cover_test (cubes_at centers (radius m)) w then
            b := m - 1
          else a := m
        done;
        lo := !a
  in
  (* Ascend from index 0, at most ceil(log2 |cand|) walks, then bisect
     what is left: at most 2 ceil(log2 |cand|) + 1 walks in all. *)
  let steps = ref (ceil_log2 (Array.length cand)) in
  while !lo < !hi && !steps > 0 do
    decr steps;
    probe (!lo + 1)
  done;
  while !lo < !hi do
    probe ((!lo + 1 + !hi) / 2)
  done;
  if !lo < 0 then (None, 0.0)
  else
    (* The witness the bisection returns is the walk's at i* itself.
       That walk answers [Some] wherever the walk is exact; where it is
       not (coordinates from 2^53 on), keep the witness found below. *)
    let w =
      if !at = !lo then !best else Option.value (walk !lo) ~default:!best
    in
    (Some w, cand.(!lo + 1))

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
