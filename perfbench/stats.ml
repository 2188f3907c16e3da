(* Nearest-rank percentiles in the convention of the repository's
   [Util.percentile_sorted] (bench/) and [Obs.Hist.quantile]: the p-th
   percentile of n sorted samples is the sample at rank
   floor (p/100 * (n-1)). *)

let rank n p = int_of_float (p /. 100.0 *. float_of_int (n - 1))

let sorted l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

let percentile_sorted a p =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile_sorted: no samples";
  a.(rank n p)

(* Samples strictly above the percentile's rank. A percentile is only
   reported with at least [min_beyond] of them, so its value never rests
   on a handful of samples. *)
let beyond n p = if n = 0 then 0 else n - 1 - rank n p
let min_beyond = 10

exception Too_few_samples of string

let percentile ~what samples p =
  let a = sorted samples in
  let n = Array.length a in
  if beyond n p < min_beyond then
    raise
      (Too_few_samples
         (Printf.sprintf
            "%s: p%g of %d samples has %d beyond it; %d are needed" what p n
            (beyond n p) min_beyond));
  percentile_sorted a p

let mean = function
  | [] -> 0.0
  | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

let sum l = List.fold_left ( +. ) 0.0 l

(* Median of a handful of repeated measurements (set-up times): the
   middle sample, or the mean of the middle two. Unlike [percentile] it
   needs no tail. *)
let median l =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples";
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0
