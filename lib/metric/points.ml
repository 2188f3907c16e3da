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

let get t i =
  check_i "get" t i;
  Array.sub t.data (i * t.dim) t.dim

let to_array t = Array.init t.n (fun i -> Array.sub t.data (i * t.dim) t.dim)

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
   same accumulation order, same strict comparisons, one
   [metric.dist_evals] increment per call — so their results and counter
   deltas are bit-identical to the boxed path, which is what lets the
   PR 2–3 counter/budget baselines keep gating. The d = 2/3/4 cases are
   unrolled (no loop counter, no redundant bounds checks); squares and
   absolute values are never -0., so dropping the leading [0. +.] of the
   accumulator loop preserves bit-identity. *)

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

(* Cache-tiled block kernel: squared distances from every query point in
   [lo, hi) to every point of the store, written row-major into [dst]
   (row [i - lo] holds point [i]'s distances). The store is swept in
   j-tiles sized to stay resident in L1 ([tile_floats] floats per tile),
   and each loaded tile is reused for all [hi - lo] query rows — the
   memory traffic per distance drops by the block height compared to
   [l2_sq_to] row by row. Each element is the same fused expression as
   [l2_sq_idx] (loads commute; hoisting the query coordinates changes
   nothing), so every written float is bit-identical to the row kernel
   and the per-index loop, and the counter delta is one event per
   element — the same accounting as [(hi - lo)] row calls. *)
let tile_floats = 2048 (* 16 KB of doubles: half a typical 32 KB L1d *)

let l2_sq_block t ~lo ~hi dst =
  if lo < 0 || hi > t.n || lo > hi then
    invalid_arg
      (Printf.sprintf "Points.l2_sq_block: bad row range [%d, %d) (n = %d)"
         lo hi t.n);
  let rows = hi - lo in
  if rows > 0 then begin
    if Array.length dst < rows * t.n then
      invalid_arg "Points.l2_sq_block: destination shorter than rows * n";
    Obs.add c_dist (rows * t.n);
    let data = t.data and d = t.dim and n = t.n in
    let tile = max 1 (tile_floats / max 1 d) in
    let jt = ref 0 in
    while !jt < n do
      let j_hi = min n (!jt + tile) in
      (match d with
      | 2 ->
          for i = lo to hi - 1 do
            let oi = i * 2 in
            let x0 = Array.unsafe_get data oi
            and x1 = Array.unsafe_get data (oi + 1) in
            let base = ((i - lo) * n) in
            for j = !jt to j_hi - 1 do
              let o = j * 2 in
              let d0 = x0 -. Array.unsafe_get data o in
              let d1 = x1 -. Array.unsafe_get data (o + 1) in
              Array.unsafe_set dst (base + j) ((d0 *. d0) +. (d1 *. d1))
            done
          done
      | 3 ->
          for i = lo to hi - 1 do
            let oi = i * 3 in
            let x0 = Array.unsafe_get data oi
            and x1 = Array.unsafe_get data (oi + 1)
            and x2 = Array.unsafe_get data (oi + 2) in
            let base = ((i - lo) * n) in
            for j = !jt to j_hi - 1 do
              let o = j * 3 in
              let d0 = x0 -. Array.unsafe_get data o in
              let d1 = x1 -. Array.unsafe_get data (o + 1) in
              let d2 = x2 -. Array.unsafe_get data (o + 2) in
              Array.unsafe_set dst (base + j)
                ((d0 *. d0) +. (d1 *. d1) +. (d2 *. d2))
            done
          done
      | 4 ->
          for i = lo to hi - 1 do
            let oi = i * 4 in
            let x0 = Array.unsafe_get data oi
            and x1 = Array.unsafe_get data (oi + 1)
            and x2 = Array.unsafe_get data (oi + 2)
            and x3 = Array.unsafe_get data (oi + 3) in
            let base = ((i - lo) * n) in
            for j = !jt to j_hi - 1 do
              let o = j * 4 in
              let d0 = x0 -. Array.unsafe_get data o in
              let d1 = x1 -. Array.unsafe_get data (o + 1) in
              let d2 = x2 -. Array.unsafe_get data (o + 2) in
              let d3 = x3 -. Array.unsafe_get data (o + 3) in
              Array.unsafe_set dst (base + j)
                ((d0 *. d0) +. (d1 *. d1) +. (d2 *. d2) +. (d3 *. d3))
            done
          done
      | _ ->
          for i = lo to hi - 1 do
            let oi = i * d in
            let base = ((i - lo) * n) in
            for j = !jt to j_hi - 1 do
              let oj = j * d in
              let acc = ref 0.0 in
              for k = 0 to d - 1 do
                let dk =
                  Array.unsafe_get data (oi + k)
                  -. Array.unsafe_get data (oj + k)
                in
                acc := !acc +. (dk *. dk)
              done;
              Array.unsafe_set dst (base + j) !acc
            done
          done);
      jt := j_hi
    done
  end

let linf_idx t i j =
  check_ij "linf_idx" t i j;
  Obs.incr c_dist;
  let data = t.data and d = t.dim in
  let oi = i * d and oj = j * d in
  match d with
  | 2 ->
      let a0 = abs_float (Array.unsafe_get data oi -. Array.unsafe_get data oj) in
      let a1 =
        abs_float
          (Array.unsafe_get data (oi + 1) -. Array.unsafe_get data (oj + 1))
      in
      let m = if a0 > 0.0 then a0 else 0.0 in
      if a1 > m then a1 else m
  | 3 ->
      let a0 = abs_float (Array.unsafe_get data oi -. Array.unsafe_get data oj) in
      let a1 =
        abs_float
          (Array.unsafe_get data (oi + 1) -. Array.unsafe_get data (oj + 1))
      in
      let a2 =
        abs_float
          (Array.unsafe_get data (oi + 2) -. Array.unsafe_get data (oj + 2))
      in
      let m = if a0 > 0.0 then a0 else 0.0 in
      let m = if a1 > m then a1 else m in
      if a2 > m then a2 else m
  | 4 ->
      let a0 = abs_float (Array.unsafe_get data oi -. Array.unsafe_get data oj) in
      let a1 =
        abs_float
          (Array.unsafe_get data (oi + 1) -. Array.unsafe_get data (oj + 1))
      in
      let a2 =
        abs_float
          (Array.unsafe_get data (oi + 2) -. Array.unsafe_get data (oj + 2))
      in
      let a3 =
        abs_float
          (Array.unsafe_get data (oi + 3) -. Array.unsafe_get data (oj + 3))
      in
      let m = if a0 > 0.0 then a0 else 0.0 in
      let m = if a1 > m then a1 else m in
      let m = if a2 > m then a2 else m in
      if a3 > m then a3 else m
  | _ ->
      let acc = ref 0.0 in
      for k = 0 to d - 1 do
        let ak =
          abs_float
            (Array.unsafe_get data (oi + k) -. Array.unsafe_get data (oj + k))
        in
        if ak > !acc then acc := ak
      done;
      !acc

let l1_idx t i j =
  check_ij "l1_idx" t i j;
  Obs.incr c_dist;
  let data = t.data and d = t.dim in
  let oi = i * d and oj = j * d in
  match d with
  | 2 ->
      let a0 = abs_float (Array.unsafe_get data oi -. Array.unsafe_get data oj) in
      let a1 =
        abs_float
          (Array.unsafe_get data (oi + 1) -. Array.unsafe_get data (oj + 1))
      in
      a0 +. a1
  | 3 ->
      let a0 = abs_float (Array.unsafe_get data oi -. Array.unsafe_get data oj) in
      let a1 =
        abs_float
          (Array.unsafe_get data (oi + 1) -. Array.unsafe_get data (oj + 1))
      in
      let a2 =
        abs_float
          (Array.unsafe_get data (oi + 2) -. Array.unsafe_get data (oj + 2))
      in
      a0 +. a1 +. a2
  | 4 ->
      let a0 = abs_float (Array.unsafe_get data oi -. Array.unsafe_get data oj) in
      let a1 =
        abs_float
          (Array.unsafe_get data (oi + 1) -. Array.unsafe_get data (oj + 1))
      in
      let a2 =
        abs_float
          (Array.unsafe_get data (oi + 2) -. Array.unsafe_get data (oj + 2))
      in
      let a3 =
        abs_float
          (Array.unsafe_get data (oi + 3) -. Array.unsafe_get data (oj + 3))
      in
      a0 +. a1 +. a2 +. a3
  | _ ->
      let acc = ref 0.0 in
      for k = 0 to d - 1 do
        acc :=
          !acc
          +. abs_float
               (Array.unsafe_get data (oi + k) -. Array.unsafe_get data (oj + k))
      done;
      !acc
