module Points = Cso_metric.Points
module Guess = Cso_metric.Guess
module Bbd = Cso_geom.Bbd_tree

type result = {
  centers : int list;
  radius : float;
  sample_size : int;
  sample_outliers : int;
}

(* One greedy pass at radius guess [r] over the sampled tree: picks [k]
   approximate-densest disks, deactivating 3r-balls. Returns the chosen
   sample centers and the number of surviving (uncovered) samples. *)
let greedy_pass tree ~k ~r ~eps =
  Bbd.reset_active tree;
  let tau = Bbd.size tree in
  let centers = ref [] in
  for _ = 1 to k do
    let best = ref (-1) and best_count = ref (-1) in
    for i = 0 to tau - 1 do
      if Bbd.point_is_active tree i then begin
        let c = Bbd.active_count_in_ball_idx tree ~center:i ~radius:r ~eps in
        if c > !best_count then begin
          best_count := c;
          best := i
        end
      end
    done;
    if !best >= 0 then begin
      centers := !best :: !centers;
      let nodes =
        Bbd.ball_query_active_idx tree ~center:!best ~radius:(3.0 *. r) ~eps
      in
      List.iter (Bbd.deactivate tree) nodes
    end
  done;
  (List.rev !centers, Bbd.root_active_count tree)

let run_on_all ?(eps = 0.25) pts ~k ~budget =
  let n = Array.length pts in
  if n = 0 then { centers = []; radius = 0.0; sample_size = 0; sample_outliers = 0 }
  else begin
    (* One pack feeds the tree and the radius grid, which holds a guess
       in [rho, (1+eps) rho] for every positive distance rho. *)
    let coords = Points.of_array pts in
    let tree = Bbd.build_packed coords in
    let gamma = Guess.radius_grid ~ratio:(1.0 +. eps) coords in
    let best =
      Guess.lowest (Array.length gamma) (fun mid ->
          let centers, remaining = greedy_pass tree ~k ~r:gamma.(mid) ~eps in
          if remaining <= budget then Some (centers, remaining) else None)
    in
    let centers, r, remaining =
      match best with
      | Some (mid, (centers, remaining)) -> (centers, gamma.(mid), remaining)
      | None ->
          (* Defensive: retry at the largest guess. *)
          let r = gamma.(Array.length gamma - 1) in
          let centers, remaining = greedy_pass tree ~k ~r ~eps in
          (centers, r, remaining)
    in
    {
      centers;
      radius = 3.0 *. (1.0 +. eps) *. r;
      sample_size = n;
      sample_outliers = remaining;
    }
  end

let run ?rng ?(eps = 0.25) pts ~k ~z =
  if k <= 0 then invalid_arg "Bbd_outliers.run: k <= 0";
  if z < 0 then invalid_arg "Bbd_outliers.run: z < 0";
  let n = Array.length pts in
  if n = 0 then { centers = []; radius = 0.0; sample_size = 0; sample_outliers = 0 }
  else begin
    let rng = match rng with Some r -> r | None -> Random.State.make [| 42 |] in
    let delta = float_of_int (max z 1) /. float_of_int n in
    let tau_f =
      4.0 *. float_of_int k *. log (float_of_int (max 2 n))
      /. (eps *. eps *. delta)
    in
    let tau = min n (max (min n (4 * k)) (int_of_float tau_f)) in
    let sample_idx =
      if tau >= n then Array.init n (fun i -> i)
      else Array.init tau (fun _ -> Random.State.int rng n)
    in
    let sample = Array.map (fun i -> pts.(i)) sample_idx in
    (* Surviving-sample budget: (1 + eps) * delta * tau. *)
    let budget =
      int_of_float
        (ceil
           ((1.0 +. eps) *. float_of_int z /. float_of_int n
          *. float_of_int tau))
    in
    let res = run_on_all ~eps sample ~k ~budget in
    { res with centers = List.map (fun i -> sample_idx.(i)) res.centers }
  end

let outliers_at pts ~centers ~threshold =
  let coords = Points.of_array pts in
  let out = ref [] in
  for i = Points.length coords - 1 downto 0 do
    let covered =
      List.exists (fun c -> Points.l2_idx coords c i <= threshold) centers
    in
    if not covered then out := i :: !out
  done;
  !out
