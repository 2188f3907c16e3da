module Space = Cso_metric.Space

type t = {
  space : Space.t;
  sets : int list array;
  k : int;
  z : int;
  membership : int list array;
}

type solution = {
  centers : int list;
  outliers : int list;
}

let make space ~sets ~k ~z =
  if k <= 0 then invalid_arg "Instance.make: k <= 0";
  if z < 0 then invalid_arg "Instance.make: z < 0";
  let n = space.Space.size in
  let sets = Array.of_list sets in
  let membership = Array.make n [] in
  Array.iteri
    (fun j s ->
      List.iter
        (fun e ->
          if e < 0 || e >= n then
            invalid_arg "Instance.make: element out of range";
          membership.(e) <- j :: membership.(e))
        s)
    sets;
  Array.iteri
    (fun e l ->
      if l = [] then
        invalid_arg
          (Printf.sprintf "Instance.make: element %d belongs to no set" e))
    membership;
  { space; sets; k; z; membership = Array.map List.rev membership }

let with_cached_space t = { t with space = Space.cached t.space }

let frequency t =
  Array.fold_left (fun acc l -> max acc (List.length l)) 0 t.membership

let n_elements t = t.space.Space.size
let n_sets t = Array.length t.sets

let covered_mask t outliers =
  let mask = Array.make (n_elements t) false in
  List.iter (fun j -> List.iter (fun e -> mask.(e) <- true) t.sets.(j)) outliers;
  mask

let surviving t outliers =
  let mask = covered_mask t outliers in
  let acc = ref [] in
  for i = n_elements t - 1 downto 0 do
    if not mask.(i) then acc := i :: !acc
  done;
  !acc

let is_valid t sol =
  let n = n_elements t and m = n_sets t in
  let mask = covered_mask t sol.outliers in
  List.for_all (fun c -> c >= 0 && c < n && not mask.(c)) sol.centers
  && List.for_all (fun j -> j >= 0 && j < m) sol.outliers
  && List.length (List.sort_uniq compare sol.outliers)
     = List.length sol.outliers

let cost t sol =
  Space.cost t.space ~centers:sol.centers (surviving t sol.outliers)
