module Point = Cso_metric.Point

let rec cover_test boxes p =
  match boxes with
  | [] -> false
  | b :: rest -> Rect.contains b p || cover_test rest p

(* Witness coordinate strictly inside an interval that may be unbounded. *)
let witness lo hi =
  if lo = neg_infinity && hi = infinity then 0.0
  else if lo = neg_infinity then hi -. 1.0
  else if hi = infinity then lo +. 1.0
  else (lo +. hi) /. 2.0

(* The cells come in the order [decompose] has always listed them:
   the reverse of the lexicographic enumeration of grid intervals, dim 0
   outermost, so every dimension walks its intervals downwards. *)
let find_map ?domain boxes d f =
  let domain = match domain with Some r -> r | None -> Rect.unbounded d in
  (* Per-dimension grid breakpoints: all box faces clipped to the domain,
     plus the domain bounds. The lists are tiny; [List.sort_uniq] picks
     which of two equal faces (0. and -0.) survives. *)
  let breakpoints j =
    let vals =
      List.concat_map
        (fun (b : Rect.t) ->
          List.filter
            (fun v -> v > domain.Rect.lo.(j) && v < domain.Rect.hi.(j))
            [ b.Rect.lo.(j); b.Rect.hi.(j) ])
        boxes
    in
    let all = domain.Rect.lo.(j) :: domain.Rect.hi.(j) :: vals in
    Array.of_list (List.sort_uniq Float.compare all)
  in
  let grid = Array.init d breakpoints in
  (* One scratch cell: [Rect.make] keeps the arrays it is given, so the
     cell follows [lo] and [hi]. Breakpoints are sorted, so every cell
     [Rect.make] would accept. *)
  let lo = Array.make d 0.0 and hi = Array.make d 0.0 in
  let w = Array.make d 0.0 in
  let cell = Rect.make ~lo ~hi in
  (* Keep the cells whose interior witness lies in no box. *)
  let rec go j =
    if j = d then if cover_test boxes w then None else f cell
    else
      let bp = grid.(j) in
      let rec each i =
        if i < 0 then None
        else begin
          lo.(j) <- bp.(i);
          hi.(j) <- bp.(i + 1);
          w.(j) <- witness bp.(i) bp.(i + 1);
          match go (j + 1) with None -> each (i - 1) | found -> found
        end
      in
      each (Array.length bp - 2)
  in
  go 0

let decompose ?domain boxes d =
  let cells = ref [] in
  ignore
    (find_map ?domain boxes d (fun (c : Rect.t) ->
         let lo = Array.copy c.Rect.lo and hi = Array.copy c.Rect.hi in
         cells := Rect.make ~lo ~hi :: !cells;
         None));
  List.rev !cells
