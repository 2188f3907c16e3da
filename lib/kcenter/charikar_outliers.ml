module Space = Cso_metric.Space
module Guess = Cso_metric.Guess
module Obs = Cso_obs.Obs

(* Candidate disks scored (k per radius guess times n candidates) and
   radius guesses tried by the binary search over pairwise distances. *)
let c_disk_scores = Obs.counter "kcenter.charikar.disk_scores"
let c_guesses = Obs.counter "kcenter.charikar.radius_guesses"

(* Disks scored per radius guess (k greedy iterations x n candidates):
   the per-guess work Charikar's analysis charges the binary search. *)
let h_scores = Obs.Hist.hist "kcenter.charikar.disk_scores_per_guess"

type result = {
  centers : int list;
  outliers : int list;
  radius : float;
}

let run_with_radius (s : Space.t) ~k ~z ~r =
  let n = s.Space.size in
  Obs.Hist.observe h_scores (k * n);
  let pool = Cso_parallel.Pool.get_default () in
  let covered = Array.make n false in
  let centers = ref [] in
  for _ = 1 to k do
    (* Disk of radius r covering the most uncovered elements. Candidate
       disks are scored in parallel ([covered] is read-only here); the
       in-order reduction keeps the sequential earliest-argmax choice. *)
    let gain_of p =
      Obs.incr c_disk_scores;
      let gain = ref 0 in
      for q = 0 to n - 1 do
        if (not covered.(q)) && s.Space.dist p q <= r then incr gain
      done;
      (!gain, p)
    in
    let best_gain, best =
      Cso_parallel.Pool.parallel_for_reduce pool ~chunk:16 ~start:0
        ~finish:(n - 1) ~neutral:(-1, -1)
        ~combine:(fun (g1, p1) (g2, p2) ->
          if g2 > g1 then (g2, p2) else (g1, p1))
        gain_of
    in
    let best = ref best and best_gain = ref best_gain in
    if !best >= 0 && !best_gain > 0 then begin
      centers := !best :: !centers;
      (* Expanded disk: remove everything within 3r. *)
      for q = 0 to n - 1 do
        if s.Space.dist !best q <= 3.0 *. r then covered.(q) <- true
      done
    end
  done;
  let outliers = ref [] and n_out = ref 0 in
  for q = n - 1 downto 0 do
    if not covered.(q) then begin
      outliers := q :: !outliers;
      incr n_out
    end
  done;
  if !n_out > z then None
  else begin
    let centers = List.rev !centers in
    let inside = List.filter (fun q -> covered.(q)) (List.init n Fun.id) in
    let radius = Space.cost s ~centers inside in
    Some { centers; outliers = !outliers; radius }
  end

let run s ~k ~z =
  if k <= 0 then invalid_arg "Charikar_outliers.run: k <= 0";
  if z < 0 then invalid_arg "Charikar_outliers.run: z < 0";
  let dists = Space.pairwise_distances s in
  (* Binary search for the smallest feasible radius guess; the largest
     distance always works (one disk of radius max covers everything). *)
  match
    Guess.lowest (Array.length dists) (fun mid ->
        Obs.incr c_guesses;
        run_with_radius s ~k ~z ~r:dists.(mid))
  with
  | Some (_, res) -> res
  | None ->
      (* Unreachable for non-empty spaces; handle the empty space. *)
      { centers = []; outliers = []; radius = 0.0 }
