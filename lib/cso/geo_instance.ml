module Point = Cso_metric.Point
module Rect = Cso_geom.Rect
module Space = Cso_metric.Space

type t = {
  points : Point.t array;
  coords : Cso_metric.Points.t;
  rects : Rect.t array;
  k : int;
  z : int;
  membership : int list array;
}

let make ~points ~rects ~k ~z =
  if k <= 0 then invalid_arg "Geo_instance.make: k <= 0";
  if z < 0 then invalid_arg "Geo_instance.make: z < 0";
  let membership =
    Array.mapi
      (fun i p ->
        let l = ref [] in
        Array.iteri (fun j r -> if Rect.contains r p then l := j :: !l) rects;
        if !l = [] then
          invalid_arg
            (Printf.sprintf "Geo_instance.make: point %d in no rectangle" i);
        List.rev !l)
      points
  in
  (* Pack once at construction: every solver (trees, WSPD, greedy) reads
     [coords]; the boxed [points] stay as the I/O/validation view. *)
  { points; coords = Cso_metric.Points.of_array points; rects; k; z;
    membership }

let dims t = if Array.length t.points = 0 then 0 else Point.dim t.points.(0)

let rect_members t =
  Cso_geom.Csr.transpose
    (Cso_geom.Csr.of_lists t.membership)
    ~cols:(Array.length t.rects)

let frequency t =
  Array.fold_left (fun acc l -> max acc (List.length l)) 0 t.membership

let to_cso t =
  let m = Array.length t.rects in
  let sets = Array.make m [] in
  Array.iteri
    (fun i l -> List.iter (fun j -> sets.(j) <- i :: sets.(j)) l)
    t.membership;
  Instance.make
    (Space.of_points t.points)
    ~sets:(Array.to_list (Array.map List.rev sets))
    ~k:t.k ~z:t.z

let cost t sol = Instance.cost (to_cso t) sol
let is_valid t sol = Instance.is_valid (to_cso t) sol
