type t = float array

(* Every metric evaluation (any norm) counts once; the paper's
   complexity claims are stated in distance evaluations, so this is the
   primary machine-independent cost measure of the whole library. *)
let c_dist = Cso_obs.Obs.counter "metric.dist_evals"

let dim (p : t) = Array.length p

let make coords = Array.of_list coords

let equal (p : t) (q : t) =
  Array.length p = Array.length q
  && (let rec go i = i >= Array.length p || (p.(i) = q.(i) && go (i + 1)) in
      go 0)

(* Monomorphic replacement for [Stdlib.compare]: the polymorphic
   comparator dispatches on runtime tags per element, which is an order
   of magnitude slower on float arrays. Order is identical — polymorphic
   compare on float arrays also compares lengths first, then elements
   with [Float.compare]'s total order (NaN smallest, equal to itself). *)
let compare (p : t) (q : t) =
  let lp = Array.length p and lq = Array.length q in
  if lp <> lq then Stdlib.compare lp lq
  else begin
    let rec go i =
      if i >= lp then 0
      else
        let c = Float.compare p.(i) q.(i) in
        if c <> 0 then c else go (i + 1)
    in
    go 0
  end

let check_dims name p q =
  if Array.length p <> Array.length q then
    invalid_arg (Printf.sprintf "Point.%s: dimension mismatch (%d vs %d)" name
                   (Array.length p) (Array.length q))

let l2_sq p q =
  check_dims "l2_sq" p q;
  Cso_obs.Obs.incr c_dist;
  let acc = ref 0.0 in
  for i = 0 to Array.length p - 1 do
    let d = p.(i) -. q.(i) in
    acc := !acc +. (d *. d)
  done;
  !acc

let l2 p q = sqrt (l2_sq p q)

let linf p q =
  check_dims "linf" p q;
  Cso_obs.Obs.incr c_dist;
  let acc = ref 0.0 in
  for i = 0 to Array.length p - 1 do
    let d = abs_float (p.(i) -. q.(i)) in
    if d > !acc then acc := d
  done;
  !acc

let pp fmt p =
  Format.fprintf fmt "(%a)"
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.fprintf fmt ", ")
       (fun fmt x -> Format.fprintf fmt "%g" x))
    (Array.to_list p)

let to_string p = Format.asprintf "%a" pp p
