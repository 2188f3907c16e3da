module Obs = Cso_obs.Obs

(* Same counter as [Point]: counters are interned by name, so the packed
   and boxed kernels feed one cell and the Table-1 dist-eval series
   cannot drift between the two representations. *)
let c_dist = Obs.counter "metric.dist_evals"

type t = {
  data : float array;
  n : int;
  dim : int;
}

let length t = t.n
let dim t = t.dim

let of_array pts =
  let n = Array.length pts in
  if n = 0 then { data = [||]; n = 0; dim = 0 }
  else begin
    let dim = Array.length pts.(0) in
    Array.iteri
      (fun i p ->
        if Array.length p <> dim then
          invalid_arg
            (Printf.sprintf
               "Points.of_array: point %d has dimension %d, expected %d" i
               (Array.length p) dim))
      pts;
    let data = Array.make (n * dim) 0.0 in
    for i = 0 to n - 1 do
      Array.blit pts.(i) 0 data (i * dim) dim
    done;
    { data; n; dim }
  end

let check_i name t i =
  if i < 0 || i >= t.n then
    invalid_arg
      (Printf.sprintf "Points.%s: index %d out of bounds (n = %d)" name i t.n)

let coord t i j = t.data.((i * t.dim) + j)

let blit_point t i dst =
  check_i "blit_point" t i;
  if Array.length dst < t.dim then
    invalid_arg "Points.blit_point: destination shorter than dim";
  Array.blit t.data (i * t.dim) dst 0 t.dim

let check_ij name t i j =
  if i < 0 || i >= t.n || j < 0 || j >= t.n then
    invalid_arg
      (Printf.sprintf "Points.%s: index out of bounds (%d, %d; n = %d)" name i
         j t.n)

(* The kernels below mirror the [Point] loops operation for operation:
   same accumulation order, one [metric.dist_evals] increment per call —
   so their results and counter deltas are bit-identical to the boxed
   path, which is what lets the counter and budget baselines keep
   gating. The d = 2/3/4 cases are unrolled (no loop counter, no
   redundant bounds checks); squares are never -0., so dropping the
   leading [0. +.] of the accumulator loop preserves bit-identity. *)

let l2_sq_idx t i j =
  check_ij "l2_sq_idx" t i j;
  Obs.incr c_dist;
  let data = t.data and d = t.dim in
  let oi = i * d and oj = j * d in
  match d with
  | 2 ->
      let d0 = Array.unsafe_get data oi -. Array.unsafe_get data oj in
      let d1 =
        Array.unsafe_get data (oi + 1) -. Array.unsafe_get data (oj + 1)
      in
      (d0 *. d0) +. (d1 *. d1)
  | 3 ->
      let d0 = Array.unsafe_get data oi -. Array.unsafe_get data oj in
      let d1 =
        Array.unsafe_get data (oi + 1) -. Array.unsafe_get data (oj + 1)
      in
      let d2 =
        Array.unsafe_get data (oi + 2) -. Array.unsafe_get data (oj + 2)
      in
      (d0 *. d0) +. (d1 *. d1) +. (d2 *. d2)
  | 4 ->
      let d0 = Array.unsafe_get data oi -. Array.unsafe_get data oj in
      let d1 =
        Array.unsafe_get data (oi + 1) -. Array.unsafe_get data (oj + 1)
      in
      let d2 =
        Array.unsafe_get data (oi + 2) -. Array.unsafe_get data (oj + 2)
      in
      let d3 =
        Array.unsafe_get data (oi + 3) -. Array.unsafe_get data (oj + 3)
      in
      (d0 *. d0) +. (d1 *. d1) +. (d2 *. d2) +. (d3 *. d3)
  | _ ->
      let acc = ref 0.0 in
      for k = 0 to d - 1 do
        let dk =
          Array.unsafe_get data (oi + k) -. Array.unsafe_get data (oj + k)
        in
        acc := !acc +. (dk *. dk)
      done;
      !acc

let l2_idx t i j = sqrt (l2_sq_idx t i j)

(* Batch row kernel: squared distances from point [i] to every point in
   one pass over the store. The per-element arithmetic is the same fused
   expression as [l2_sq_idx] (loads commute, so hoisting point [i]'s
   coordinates changes nothing), and the counter is bumped once per
   element, so both the written floats and the [metric.dist_evals] delta
   are bit-identical to the per-index loop — only the per-call overhead
   (call, bounds checks, counter gate) is amortized across the row. *)
let l2_sq_to t i dst =
  check_i "l2_sq_to" t i;
  if Array.length dst < t.n then
    invalid_arg "Points.l2_sq_to: destination shorter than n";
  Obs.add c_dist t.n;
  let data = t.data and d = t.dim and n = t.n in
  let oi = i * d in
  match d with
  | 2 ->
      let x0 = Array.unsafe_get data oi
      and x1 = Array.unsafe_get data (oi + 1) in
      let oj = ref 0 in
      for j = 0 to n - 1 do
        let o = !oj in
        let d0 = x0 -. Array.unsafe_get data o in
        let d1 = x1 -. Array.unsafe_get data (o + 1) in
        Array.unsafe_set dst j ((d0 *. d0) +. (d1 *. d1));
        oj := o + 2
      done
  | 3 ->
      let x0 = Array.unsafe_get data oi
      and x1 = Array.unsafe_get data (oi + 1)
      and x2 = Array.unsafe_get data (oi + 2) in
      let oj = ref 0 in
      for j = 0 to n - 1 do
        let o = !oj in
        let d0 = x0 -. Array.unsafe_get data o in
        let d1 = x1 -. Array.unsafe_get data (o + 1) in
        let d2 = x2 -. Array.unsafe_get data (o + 2) in
        Array.unsafe_set dst j ((d0 *. d0) +. (d1 *. d1) +. (d2 *. d2));
        oj := o + 3
      done
  | 4 ->
      let x0 = Array.unsafe_get data oi
      and x1 = Array.unsafe_get data (oi + 1)
      and x2 = Array.unsafe_get data (oi + 2)
      and x3 = Array.unsafe_get data (oi + 3) in
      let oj = ref 0 in
      for j = 0 to n - 1 do
        let o = !oj in
        let d0 = x0 -. Array.unsafe_get data o in
        let d1 = x1 -. Array.unsafe_get data (o + 1) in
        let d2 = x2 -. Array.unsafe_get data (o + 2) in
        let d3 = x3 -. Array.unsafe_get data (o + 3) in
        Array.unsafe_set dst j
          ((d0 *. d0) +. (d1 *. d1) +. (d2 *. d2) +. (d3 *. d3));
        oj := o + 4
      done
  | _ ->
      for j = 0 to n - 1 do
        let oj = j * d in
        let acc = ref 0.0 in
        for k = 0 to d - 1 do
          let dk =
            Array.unsafe_get data (oi + k) -. Array.unsafe_get data (oj + k)
          in
          acc := !acc +. (dk *. dk)
        done;
        Array.unsafe_set dst j !acc
      done
