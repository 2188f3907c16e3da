let uniform rng ~lo ~hi = lo +. (Random.State.float rng 1.0 *. (hi -. lo))

let uniform_point rng ~d ~lo ~hi = Array.init d (fun _ -> uniform rng ~lo ~hi)

let around rng anchor ~radius =
  Array.map (fun x -> x +. uniform rng ~lo:(-.radius) ~hi:radius) anchor

let separated_anchors rng ~k ~d ~separation =
  (* A jittered lattice: anchor i at lattice cell i, jitter < sep/4, so
     pairwise distances stay >= sep/2 * 2 = sep (cells are 2*sep apart). *)
  let side = max 1 (int_of_float (ceil (float_of_int k ** (1.0 /. float_of_int d)))) in
  Array.init k (fun i ->
      Array.init d (fun j ->
          let cell = i / int_of_float (float_of_int side ** float_of_int j) mod side in
          (2.0 *. separation *. float_of_int cell)
          +. uniform rng ~lo:(-.separation /. 4.0) ~hi:(separation /. 4.0)))
