module Space = Cso_metric.Space
module Pool = Cso_parallel.Pool
module Obs = Cso_obs.Obs

(* One round per center chosen after the first; [pruned] counts update
   candidates the triangle-inequality test in [run_packed] skipped
   without evaluating a distance. *)
let c_rounds = Obs.counter "kcenter.gonzalez.rounds"
let c_pruned = Obs.counter "kcenter.gonzalez.pruned"

let budgets =
  [
    {
      Obs.Budget.b_name = "metric.dist_evals";
      b_expected = 1.0;
      b_tolerance = 0.3;
      b_doc =
        "Gonzalez 2-approximation is O(nk) distance relaxations; at fixed \
         k the dist-eval series must be ~linear in n (Table 1 runtime \
         column for the k-center subroutine).";
    };
  ]

(* Farthest remaining point: max distance, ties broken towards the lower
   index — exactly what the sequential strict-greater scan picks, and
   associative, so the chunked reduction is bit-identical to it. *)
let argmax_dist pool (dist : float array) n =
  Pool.parallel_for_reduce pool ~start:0 ~finish:(n - 1) ~neutral:(-1)
    ~combine:(fun a b ->
      if a < 0 then b
      else if b < 0 then a
      else if dist.(b) > dist.(a) then b
      else a)
    (fun i -> i)

let max_dist pool (dist : float array) n =
  Pool.parallel_for_reduce pool ~start:0 ~finish:(n - 1) ~neutral:0.0
    ~combine:max (fun i -> dist.(i))

let run ?first (s : Space.t) ~subset ~k =
  let n = Array.length subset in
  if n = 0 then ([], 0.0)
  else if k <= 0 then invalid_arg "Gonzalez.run: k <= 0"
  else begin
    let first =
      match first with
      | None -> subset.(0)
      | Some f ->
          if not (Array.exists (fun x -> x = f) subset) then
            invalid_arg "Gonzalez.run: first not a member of subset";
          f
    in
    let pool = Pool.get_default () in
    (* dist.(i): distance of subset.(i) to the nearest chosen center. *)
    let dist = Pool.tabulate pool n (fun i -> s.Space.dist first subset.(i)) in
    let centers = ref [ first ] in
    let n_centers = ref 1 in
    let continue = ref true in
    while !continue && !n_centers < k do
      (* Farthest point from the current centers. *)
      let far = argmax_dist pool dist n in
      if dist.(far) <= 0.0 then continue := false
      else begin
        Obs.incr c_rounds;
        let c = subset.(far) in
        centers := c :: !centers;
        incr n_centers;
        Pool.parallel_for pool ~start:0 ~finish:(n - 1) (fun i ->
            let d = s.Space.dist c subset.(i) in
            if d < dist.(i) then dist.(i) <- d)
      end
    done;
    (List.rev !centers, max_dist pool dist n)
  end

let run_all ?first s ~k =
  run ?first s ~subset:(Array.init s.Space.size (fun i -> i)) ~k

let run_points pts ~k =
  let s = Space.of_points pts in
  run_all s ~k

(* Same relaxation as [run], plus a triangle-inequality prune, with every
   distance through the index kernel on the packed store. *)
let run_packed coords ~k =
  let module Points = Cso_metric.Points in
  let n = Points.length coords in
  if n = 0 then ([], 0.0)
  else if k <= 0 then invalid_arg "Gonzalez.run_packed: k <= 0"
  else begin
    let pool = Pool.get_default () in
    (* Seed sweep through the batch row kernel: one pass over the store,
       then square roots in place — the same floats and the same
       dist-eval delta as [l2_idx coords 0 i] per index. *)
    let dist = Array.make n 0.0 in
    Points.l2_sq_to coords 0 dist;
    for i = 0 to n - 1 do
      dist.(i) <- sqrt dist.(i)
    done;
    let assigned = Array.make n 0 in
    (* centers.(j) = point index of the j-th chosen center. *)
    let centers = Array.make (min k n) 0 in
    centers.(0) <- 0;
    let n_centers = ref 1 in
    let continue = ref true in
    while !continue && !n_centers < k do
      let far = argmax_dist pool dist n in
      if dist.(far) <= 0.0 then continue := false
      else begin
        Obs.incr c_rounds;
        let c = far in
        centers.(!n_centers) <- c;
        (* Distance from the new center to each existing center, for the
           triangle-inequality skip test. *)
        let to_centers =
          Array.init !n_centers (fun j -> Points.l2_idx coords c centers.(j))
        in
        Pool.parallel_for pool ~start:0 ~finish:(n - 1) (fun i ->
            if to_centers.(assigned.(i)) < 2.0 *. dist.(i) then begin
              let d = Points.l2_idx coords c i in
              if d < dist.(i) then begin
                dist.(i) <- d;
                assigned.(i) <- !n_centers
              end
            end
            else Obs.incr c_pruned);
        incr n_centers
      end
    done;
    ( List.init !n_centers (fun j -> centers.(j)),
      max_dist pool dist n )
  end
