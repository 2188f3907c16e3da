module Point = Cso_metric.Point
module Rect = Cso_geom.Rect
module Box_complement = Cso_geom.Box_complement
module Rel = Cso_relational
module Oracles = Cso_relational.Oracles
module Yannakakis = Cso_relational.Yannakakis
module Obs = Cso_obs.Obs

type report = {
  centers : Point.t list;
  outlier_tuples : (int * float array) list;
  radius : float;
  iterations : int;
  successes : int;
}

(* All (relation, tuple) pairs whose join produces the result [q]. *)
let provenance inst q =
  let g = Rel.Schema.n_relations inst.Rel.Instance.schema in
  List.init g (fun i -> (i, Rel.Instance.project_result inst ~rel:i q))

(* One validity test at radius guess [r]: grow cubes of half-side r_hat
   around the centers, then drain the complement cells through [h], the
   handle prepared on [inst]; each drained result's tuples are removed
   from [h] until the next test. Returns the outlier tuples or [None]
   when a drained result was not fully in I_2 or more than [z] results
   had to be drained. *)
let drain h inst ~i2 ~centers ~r_hat ~z =
  let d = Rel.Schema.dims inst.Rel.Instance.schema in
  let cubes =
    List.map (fun p -> Rect.cube ~center:p ~side:(2.0 *. r_hat)) centers
  in
  Oracles.restore h;
  let t' = ref [] and visited = ref 0 in
  let exception Invalid in
  let drain_cell cell =
    let continue = ref true in
    while !continue do
      match Oracles.any_in_rect h cell with
      | None -> continue := false
      | Some q ->
          if !visited >= z then raise Invalid;
          if not (Yannakakis.contains_result i2 q) then raise Invalid;
          let victims = provenance inst q in
          Oracles.remove h victims;
          t' := victims @ !t';
          incr visited
    done;
    None
  in
  try
    ignore (Box_complement.find_map cubes d drain_cell);
    Some (List.sort_uniq compare !t')
  with Invalid -> None

let solve ?rng ?iters inst tree ~k ~z =
  if k <= 0 then invalid_arg "Rcto.solve: k <= 0";
  if z < 0 then invalid_arg "Rcto.solve: z < 0";
  Obs.with_span "rcto.solve" @@ fun () ->
  let rng = match rng with Some r -> r | None -> Random.State.make [| 11 |] in
  let schema = inst.Rel.Instance.schema in
  let g = Rel.Schema.n_relations schema in
  let d = Rel.Schema.dims schema in
  let n = max 2 (Rel.Instance.size inst) in
  let iters =
    match iters with
    | Some i -> i
    | None ->
        let shift = (g * k) + z in
        if shift >= 20 then 1 lsl 20
        else (1 lsl shift) * int_of_float (ceil (log (float_of_int n)))
  in
  let cand = Oracles.candidate_linf_distances inst in
  let h = Oracles.prepare inst tree in
  let best = ref None in
  let successes = ref 0 in
  for _ = 1 to iters do
    let i1, i2 = Rel.Instance.partition inst (fun _ _ -> Random.State.bool rng) in
    let s1, r_s1 = Oracles.rel_cluster i1 tree ~k in
    if s1 <> [] then begin
      (* Binary search the smallest valid radius guess. *)
      let lo = ref 0 and hi = ref (Array.length cand - 1) in
      let iter_best = ref None in
      while !lo <= !hi do
        let mid = (!lo + !hi) / 2 in
        let r_hat = r_s1 +. (sqrt (float_of_int d) *. cand.(mid)) in
        match drain h inst ~i2 ~centers:s1 ~r_hat ~z with
        | Some t' ->
            iter_best := Some (t', r_hat);
            hi := mid - 1
        | None -> lo := mid + 1
      done;
      match !iter_best with
      | None -> ()
      | Some (t', r_hat) ->
          incr successes;
          Log.debug (fun m ->
              m "rcto: valid partition, r_hat=%g |T'|=%d" r_hat
                (List.length t'));
          (match !best with
          | Some (_, _, r) when r <= r_hat -> ()
          | _ -> best := Some (s1, t', r_hat))
    end
  done;
  match !best with
  | None -> None
  | Some (s1, outlier_tuples, r_hat) ->
      (* Representatives: one surviving join result per center cube. *)
      Oracles.restore h;
      Oracles.remove h outlier_tuples;
      let centers =
        List.filter_map
          (fun p ->
            Oracles.any_in_rect h (Rect.cube ~center:p ~side:(2.0 *. r_hat)))
          s1
      in
      Some
        { centers; outlier_tuples; radius = r_hat; iterations = iters;
          successes = !successes }
