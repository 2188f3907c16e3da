module Rect = Cso_geom.Rect

type t = {
  schema : Schema.t;
  tuples : float array array array;
}

let dedupe arr =
  let tbl = Hashtbl.create (Array.length arr) in
  let out = ref [] in
  Array.iter
    (fun tup ->
      if not (Hashtbl.mem tbl tup) then begin
        Hashtbl.add tbl tup ();
        out := tup :: !out
      end)
    arr;
  Array.of_list (List.rev !out)

let of_arrays schema tuples =
  if Array.length tuples <> Schema.n_relations schema then
    invalid_arg "Instance.of_arrays: relation count mismatch";
  let tuples =
    Array.mapi
      (fun i rel ->
        let arity = Array.length (Schema.rel_attrs schema i) in
        Array.iteri
          (fun j tup ->
            if Array.length tup <> arity then
              invalid_arg "Instance.of_arrays: tuple arity mismatch";
            (* A nan passes every [filter_rect] interval test, so the
               oracles would return a point [Rect.contains] rejects, and
               [Hashtbl] keys treat nan as equal to itself while [=]
               does not, so join counts and materialized joins would
               disagree. *)
            if Array.exists Float.is_nan tup then
              invalid_arg
                (Printf.sprintf
                   "Instance.of_arrays: nan in tuple %d of relation %d" j i))
          rel;
        dedupe rel)
      tuples
  in
  { schema; tuples }

let make schema per_rel =
  of_arrays schema (Array.of_list (List.map Array.of_list per_rel))

let size t = Array.fold_left (fun acc r -> acc + Array.length r) 0 t.tuples
let n_tuples t i = Array.length t.tuples.(i)
let tuple t ~rel ~idx = t.tuples.(rel).(idx)

let project_result t ~rel (p : Cso_metric.Point.t) =
  Array.map (fun a -> p.(a)) (Schema.rel_attrs t.schema rel)

let mem_tuple t ~rel tup = Array.exists (fun u -> u = tup) t.tuples.(rel)

let filter t pred =
  {
    t with
    tuples =
      Array.mapi
        (fun i rel ->
          Array.of_list (List.filter (pred i) (Array.to_list rel)))
        t.tuples;
  }

let filter_rect t rect =
  if Rect.dim rect <> Schema.dims t.schema then
    invalid_arg "Instance.filter_rect: dimension mismatch";
  filter t (fun i tup ->
      let attrs = Schema.rel_attrs t.schema i in
      let ok = ref true in
      Array.iteri
        (fun pos a ->
          if tup.(pos) < rect.Rect.lo.(a) || tup.(pos) > rect.Rect.hi.(a) then
            ok := false)
        attrs;
      !ok)

let restrict_to_tuple t ~rel tup =
  {
    t with
    tuples = Array.mapi (fun i r -> if i = rel then [| tup |] else r) t.tuples;
  }

let remove t victims =
  filter t (fun i tup ->
      not (List.exists (fun (j, u) -> j = i && u = tup) victims))

let partition t pred =
  let halves =
    Array.mapi
      (fun i rel -> List.partition (pred i) (Array.to_list rel))
      t.tuples
  in
  let half pick =
    { t with tuples = Array.map (fun h -> Array.of_list (pick h)) halves }
  in
  (half fst, half snd)

let all_tuples t =
  let acc = ref [] in
  Array.iteri
    (fun i rel -> Array.iter (fun tup -> acc := (i, tup) :: !acc) rel)
    t.tuples;
  List.rev !acc

let tuple_rect t ~rel tup =
  let d = Schema.dims t.schema in
  let lo = Array.make d neg_infinity and hi = Array.make d infinity in
  Array.iteri
    (fun pos a ->
      lo.(a) <- tup.(pos);
      hi.(a) <- tup.(pos))
    (Schema.rel_attrs t.schema rel);
  Rect.make ~lo ~hi
