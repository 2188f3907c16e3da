module Point = Cso_metric.Point

type t = {
  lo : float array;
  hi : float array;
}

let make ~lo ~hi =
  if Array.length lo <> Array.length hi then
    invalid_arg "Rect.make: dimension mismatch";
  Array.iteri
    (fun i l ->
      (* A nan bound would make [contains] reject every point, so the
         rectangle would silently hold nothing, whatever its other
         bounds say. *)
      if Float.is_nan l || Float.is_nan hi.(i) then
        invalid_arg (Printf.sprintf "Rect.make: nan bound in dimension %d" i);
      if l > hi.(i) then
        invalid_arg
          (Printf.sprintf "Rect.make: lo.(%d) = %g > hi.(%d) = %g" i l i
             hi.(i)))
    lo;
  { lo; hi }

let of_intervals ivs =
  let lo = Array.of_list (List.map fst ivs) in
  let hi = Array.of_list (List.map snd ivs) in
  make ~lo ~hi

let dim r = Array.length r.lo

let unbounded d =
  { lo = Array.make d neg_infinity; hi = Array.make d infinity }

let contains r (p : Point.t) =
  let n = dim r in
  Array.length p = n
  &&
  let rec go i =
    i >= n || (r.lo.(i) <= p.(i) && p.(i) <= r.hi.(i) && go (i + 1))
  in
  go 0

let contains_rect outer inner =
  let n = dim outer in
  dim inner = n
  &&
  let rec go i =
    i >= n
    || (outer.lo.(i) <= inner.lo.(i)
        && inner.hi.(i) <= outer.hi.(i)
        && go (i + 1))
  in
  go 0

let intersects a b =
  let n = dim a in
  dim b = n
  &&
  let rec go i =
    i >= n || (a.lo.(i) <= b.hi.(i) && b.lo.(i) <= a.hi.(i) && go (i + 1))
  in
  go 0

let inter a b =
  if not (intersects a b) then None
  else
    Some
      {
        lo = Array.init (dim a) (fun i -> max a.lo.(i) b.lo.(i));
        hi = Array.init (dim a) (fun i -> min a.hi.(i) b.hi.(i));
      }

let bounding_box pts =
  if Array.length pts = 0 then invalid_arg "Rect.bounding_box: empty";
  let d = Point.dim pts.(0) in
  let lo = Array.copy pts.(0) and hi = Array.copy pts.(0) in
  Array.iter
    (fun p ->
      for i = 0 to d - 1 do
        if p.(i) < lo.(i) then lo.(i) <- p.(i);
        if p.(i) > hi.(i) then hi.(i) <- p.(i)
      done)
    pts;
  { lo; hi }

(* Packed equivalent of [bounding_box] over the points [idx.(lo..hi-1)]
   of a packed store: same seed-with-first-point, same strict-compare
   updates, so the box coordinates are bit-identical to boxing the points
   first. The low corner goes to [dst.(off ..)], the high one right
   after it. *)
let bounding_box_into coords idx ~lo ~hi dst off =
  if hi <= lo then invalid_arg "Rect.bounding_box_into: empty";
  let module Points = Cso_metric.Points in
  let d = Points.dim coords in
  if off < 0 || off + (2 * d) > Array.length dst then
    invalid_arg "Rect.bounding_box_into: destination too short";
  let p0 = idx.(lo) in
  for j = 0 to d - 1 do
    let x = Points.coord coords p0 j in
    dst.(off + j) <- x;
    dst.(off + d + j) <- x
  done;
  for i = lo to hi - 1 do
    let p = idx.(i) in
    for j = 0 to d - 1 do
      let x = Points.coord coords p j in
      if x < dst.(off + j) then dst.(off + j) <- x;
      if x > dst.(off + d + j) then dst.(off + d + j) <- x
    done
  done

let bounding_box_idx coords idx ~lo ~hi =
  if hi <= lo then invalid_arg "Rect.bounding_box_idx: empty";
  let d = Cso_metric.Points.dim coords in
  let box = Array.make (2 * d) 0.0 in
  bounding_box_into coords idx ~lo ~hi box 0;
  { lo = Array.sub box 0 d; hi = Array.sub box d d }

(* Both trees' median split. The widest side is the first dimension of
   largest [max -. min] under strict [>]; the sort is the permutation
   [Array.sort] leaves under [Float.compare] on that coordinate
   (Float_sort's contract), with the keys staged in [keys]. *)
let sort_by_widest_dim coords idx ~lo ~hi ~keys ~ids =
  let module Points = Cso_metric.Points in
  let best = ref 0 and best_w = ref neg_infinity in
  for j = 0 to Points.dim coords - 1 do
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
  let c = hi - lo in
  for i = 0 to c - 1 do
    let p = idx.(lo + i) in
    ids.(i) <- p;
    keys.(i) <- Points.coord coords p !best
  done;
  Cso_metric.Float_sort.ids_by_key keys ids c;
  Array.blit ids 0 idx lo c

let cube ~center ~side =
  let h = side /. 2.0 in
  {
    lo = Array.map (fun x -> x -. h) center;
    hi = Array.map (fun x -> x +. h) center;
  }

(* Both distances run on every node a BBD ball query visits. They are
   [@inline] so that the query loop gets the float unboxed: a call that
   returns a float allocates a box for it. The low corner is
   [lo_a.(lo ..)] and the high one [hi_a.(hi ..)], so a [t] and a box
   packed in one array share one formula. *)
let[@inline] min_dist_gen lo_a ~lo hi_a ~hi ~d (p : Point.t) =
  let acc = ref 0.0 in
  for i = 0 to d - 1 do
    let l = Array.unsafe_get lo_a (lo + i)
    and h = Array.unsafe_get hi_a (hi + i) in
    let x = p.(i) in
    let e = if x < l then l -. x else if x > h then x -. h else 0.0 in
    acc := !acc +. (e *. e)
  done;
  sqrt !acc

(* Monomorphic and exception-free. [if a >= b then a else b] is
   [Stdlib.max]'s own definition, and IEEE [>=] on floats is what the
   polymorphic compare does for them, so nan and signed zeros pick the
   same side as [max] did. An infinite side short-cuts to [infinity]
   whatever the other dimensions hold; [sqrt infinity = infinity]
   covers an overflowing sum. *)
let[@inline] max_dist_gen lo_a ~lo hi_a ~hi ~d (p : Point.t) =
  let acc = ref 0.0 and i = ref 0 in
  while !i < d do
    let x = p.(!i) in
    let a = abs_float (x -. Array.unsafe_get lo_a (lo + !i))
    and b = abs_float (Array.unsafe_get hi_a (hi + !i) -. x) in
    let m = if a >= b then a else b in
    if m = infinity then begin
      acc := infinity;
      i := d
    end
    else begin
      acc := !acc +. (m *. m);
      incr i
    end
  done;
  sqrt !acc

let[@inline] min_dist_to_point r p =
  min_dist_gen r.lo ~lo:0 r.hi ~hi:0 ~d:(dim r) p

let[@inline] max_dist_to_point r p =
  max_dist_gen r.lo ~lo:0 r.hi ~hi:0 ~d:(dim r) p

let[@inline] min_dist_packed box ~lo ~hi ~d p =
  min_dist_gen box ~lo box ~hi ~d p

let[@inline] max_dist_packed box ~lo ~hi ~d p =
  max_dist_gen box ~lo box ~hi ~d p

let points_inside r pts =
  let acc = ref [] in
  for i = Array.length pts - 1 downto 0 do
    if contains r pts.(i) then acc := i :: !acc
  done;
  !acc

let is_bounded r =
  let rec go i =
    i >= dim r
    || (r.lo.(i) > neg_infinity && r.hi.(i) < infinity && go (i + 1))
  in
  go 0

let pp fmt r =
  Format.fprintf fmt "[%a]"
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.fprintf fmt " x ")
       (fun fmt (l, h) -> Format.fprintf fmt "[%g,%g]" l h))
    (Array.to_list (Array.mapi (fun i l -> (l, r.hi.(i))) r.lo))
