(* The dynamic (logarithmic-method) ball tree and the incremental GCSO
   driver. The contract under test: after ANY insert/delete script, the
   dynamic tree answers ball/count queries bit-identically to a static
   build over the surviving points — for every pool size, and with
   observability off (CSO_OBS=0). *)

module Pool = Cso_parallel.Pool
module Point = Cso_metric.Point
module Points = Cso_metric.Points
module Rect = Cso_geom.Rect
module Bbd = Cso_geom.Bbd_tree
module Dyn = Cso_geom.Dynamic
module Obs = Cso_obs.Obs
module Geo_instance = Cso_core.Geo_instance
module Gcso = Cso_core.Gcso_general
module Drift = Cso_workload.Drift

let domain_counts = [ 1; 2; 4 ]

let with_domains nd f =
  let old = Pool.get_default () in
  Pool.with_pool ~num_domains:nd (fun p ->
      Pool.set_default p;
      Fun.protect ~finally:(fun () -> Pool.set_default old) f)

let without_obs f =
  let old = Obs.enabled () in
  Obs.set_enabled false;
  Fun.protect ~finally:(fun () -> Obs.set_enabled old) f

let all_equal = function
  | [] -> true
  | x :: rest -> List.for_all (fun y -> y = x) rest

(* Scripts are (op, payload) pairs: op true = insert a point derived
   from the payload, false = delete the live id at position
   [payload mod live_count] (skip when empty) — total on every script. *)
let script_arb =
  QCheck.(
    pair (int_range 1 3)
      (list_of_size Gen.(int_range 1 40) (pair bool (int_range 0 9999))))

let replay ~dim ~insert ~delete script =
  let model = ref [] in
  List.iteri
    (fun i (is_ins, payload) ->
      if is_ins then begin
        let p =
          Array.init dim (fun j ->
              float_of_int ((payload + (7 * j) + i) mod 10) /. 2.0)
        in
        let id = insert p in
        model := !model @ [ (id, p) ]
      end
      else
        match !model with
        | [] -> ()
        | live ->
            let id, _ = List.nth live (payload mod List.length live) in
            delete id;
            model := List.filter (fun (i, _) -> i <> id) !model)
    script;
  !model

(* All query answers of the dynamic Ball tree over a script, as one
   comparable value. *)
let ball_answers ~dim script =
  let t = Dyn.Ball.create ~dim () in
  let model =
    replay ~dim ~insert:(Dyn.Ball.insert t) ~delete:(Dyn.Ball.delete t) script
  in
  let centers = Array.make dim 2.0 :: List.map snd model in
  let queries =
    List.concat_map
      (fun c ->
        List.map
          (fun r ->
            ( Dyn.Ball.ball_report t ~center:c ~radius:r,
              Dyn.Ball.count_in_ball t ~center:c ~radius:r,
              Dyn.Ball.ball_points t ~center:c ~radius:r ~eps:0.3 ))
          [ 0.0; 1.0; 2.5 ])
      centers
  in
  (List.map fst model, queries)

let static_ball_answers model =
  let pts = Array.of_list (List.map snd model) in
  let ids = Array.of_list (List.map fst model) in
  let st =
    if pts = [||] then None else Some (Bbd.build_packed (Points.of_array pts))
  in
  let report c r =
    match st with
    | None -> []
    | Some st ->
        Bbd.ball_query st ~center:c ~radius:r ~eps:0.0
        |> List.concat_map (Bbd.points_of_node st)
        |> List.map (fun l -> ids.(l))
        |> List.sort compare
  in
  report

let prop_ball_matches_static =
  QCheck.Test.make ~name:"dynamic ball = static rebuild (all pool sizes)"
    ~count:120 script_arb (fun (dim, script) ->
      let per_domain =
        List.map
          (fun nd -> with_domains nd (fun () -> ball_answers ~dim script))
          domain_counts
      in
      let no_obs = without_obs (fun () -> ball_answers ~dim script) in
      let ids, _ = List.hd per_domain in
      (* Rebuild statically from the surviving points and re-ask the
         exact queries. *)
      let t = Dyn.Ball.create ~dim () in
      let model =
        replay ~dim
          ~insert:(Dyn.Ball.insert t)
          ~delete:(Dyn.Ball.delete t)
          script
      in
      let report = static_ball_answers model in
      let centers = Array.make dim 2.0 :: List.map snd model in
      let static_ok =
        List.for_all
          (fun c ->
            List.for_all
              (fun r -> Dyn.Ball.ball_report t ~center:c ~radius:r = report c r)
              [ 0.0; 1.0; 2.5 ])
          centers
      in
      List.map fst model = ids
      && all_equal (no_obs :: per_domain)
      && static_ok)

(* --- unit tests: structure invariants --- *)

let test_levels_and_stats () =
  let t = Dyn.Ball.create ~dim:2 () in
  for i = 0 to 15 do
    ignore (Dyn.Ball.insert t [| float_of_int i; 0.0 |])
  done;
  (* 16 inserts: binary-counter merges leave one level of 16. *)
  Alcotest.(check (list int)) "levels after 16 inserts" [ 16 ]
    (Dyn.Ball.level_sizes t);
  let s = Dyn.Ball.stats t in
  Alcotest.(check int) "inserts" 16 s.Dyn.inserts;
  Alcotest.(check bool) "amortized build work is O(n log n)" true
    (s.Dyn.points_rebuilt <= 16 * 5);
  (* Delete 8 of 16 in id order (alpha = 0.25, one level of 16): the
     4th delete hits dead=4 >= 0.25*12 and rebuilds the level in place
     to 12 survivors; the 7th hits dead=3 >= 0.25*9 and rebuilds to 9;
     the 8th leaves one tombstone (1 < 0.25*8 never fires). *)
  for id = 0 to 7 do
    Dyn.Ball.delete t id
  done;
  Alcotest.(check int) "partial rebuilds" 2
    (Dyn.Ball.stats t).Dyn.partial_rebuilds;
  Alcotest.(check int) "live after deletes" 8 (Dyn.Ball.live_count t);
  Alcotest.(check int) "stored after partial rebuilds" 9
    (Dyn.Ball.stored_count t);
  Alcotest.(check (list (pair int int))) "level stats" [ (9, 8) ]
    (Dyn.Ball.level_stats t);
  (* The weight-balance invariant the scheme maintains after every op. *)
  List.iter
    (fun (stored, live) ->
      Alcotest.(check bool) "per-level dead < alpha*live" true
        (float_of_int (stored - live)
        < Dyn.Ball.alpha t *. float_of_int live))
    (Dyn.Ball.level_stats t);
  Alcotest.(check (list int)) "live ids" [ 8; 9; 10; 11; 12; 13; 14; 15 ]
    (Dyn.Ball.live_ids t)

let test_delete_errors () =
  let t = Dyn.Ball.create ~dim:1 () in
  let id = Dyn.Ball.insert t [| 0.0 |] in
  Dyn.Ball.delete t id;
  Alcotest.(check bool) "mem false after delete" false (Dyn.Ball.mem t id);
  List.iter
    (fun bad ->
      match Dyn.Ball.delete t bad with
      | () -> Alcotest.failf "delete %d should raise" bad
      | exception Invalid_argument _ -> ())
    [ id; 57; -1 ]

let test_of_points_equals_inserts () =
  let pts = Array.init 9 (fun i -> [| float_of_int i; 1.0 |]) in
  let a = Dyn.Ball.of_points pts in
  let b = Dyn.Ball.create ~dim:2 () in
  Array.iter (fun p -> ignore (Dyn.Ball.insert b p)) pts;
  Alcotest.(check (list int)) "same ids" (Dyn.Ball.live_ids a)
    (Dyn.Ball.live_ids b);
  Alcotest.(check (list int)) "same levels" (Dyn.Ball.level_sizes a)
    (Dyn.Ball.level_sizes b);
  Alcotest.(check (list int)) "same answer"
    (Dyn.Ball.ball_report a ~center:[| 4.0; 1.0 |] ~radius:2.0)
    (Dyn.Ball.ball_report b ~center:[| 4.0; 1.0 |] ~radius:2.0)

(* Counting on a tombstone-free structure must answer from
   canonical-node counts, materializing no points — the
   [geom.bbd.reported_points] counter (moved only by [points_of_node])
   pins it. *)
let test_clean_count_counters () =
  (* 10 inserts leave levels {8,9} and {0..7}, both tombstone-free. *)
  let b = Dyn.Ball.create ~dim:2 () in
  for i = 0 to 9 do
    ignore (Dyn.Ball.insert b [| float_of_int i; 0.0 |])
  done;
  let center = [| 4.5; 0.0 |] and radius = 100.0 in
  let b0 = Obs.value_of "geom.bbd.reported_points" in
  Alcotest.(check int) "ball count over clean levels" 10
    (Dyn.Ball.count_in_ball b ~center ~radius);
  let b1 = Obs.value_of "geom.bbd.reported_points" in
  Alcotest.(check int) "clean ball count materializes no points" 0 (b1 - b0);
  Alcotest.(check int) "ball report agrees" 10
    (List.length (Dyn.Ball.ball_report b ~center ~radius));
  (* One tombstone dirties the {0..7} level (1 dead < alpha*7 leaves it
     in place): counting there falls back to filtered reporting and
     stays exact, while the clean {8,9} level still counts for free. *)
  Dyn.Ball.delete b 0;
  Alcotest.(check (list (pair int int))) "one dirty level" [ (2, 2); (8, 7) ]
    (Dyn.Ball.level_stats b);
  let b2 = Obs.value_of "geom.bbd.reported_points" in
  Alcotest.(check int) "ball count after delete" 9
    (Dyn.Ball.count_in_ball b ~center ~radius);
  let b3 = Obs.value_of "geom.bbd.reported_points" in
  Alcotest.(check bool) "dirty level pays the liveness filter" true
    (b3 - b2 > 0);
  Alcotest.(check bool) "dirty level alone, not the whole structure" true
    (b3 - b2 <= 8)

(* --- incremental GCSO --- *)

let tri = [| [| 3.0; 1.0 |]; [| 0.0; 0.0 |]; [| 3.0; 2.0 |] |]

(* Regression (found by dynamic.gcso_incremental_vs_scratch): the drift
   trigger used to compare the sketch's (k+z)-center covering bound
   against the tri-criteria radius, whose center blow-up puts it far
   below — so a query straight after a re-solve re-solved again instead
   of hitting the cache. *)
let test_repeat_query_cached () =
  let inc =
    Gcso.Incremental.create ~eps:0.5 ~rounds:40
      ~rects:[| Rect.of_intervals [ (-1.0, 6.0); (-1.0, 6.0) ] |]
      ~k:1 ~z:0 ()
  in
  Array.iter (fun p -> ignore (Gcso.Incremental.insert inc p)) tri;
  let rep1, _, _ = Gcso.Incremental.query inc in
  Alcotest.(check int) "one re-solve" 1 (Gcso.Incremental.re_solves inc);
  Alcotest.(check bool) "settled" false (Gcso.Incremental.needs_resolve inc);
  let rep2, _, _ = Gcso.Incremental.query inc in
  Alcotest.(check int) "still one re-solve" 1 (Gcso.Incremental.re_solves inc);
  Alcotest.(check bool) "same report" true (rep1 = rep2)

let test_population_doubling_resolves () =
  let inc =
    Gcso.Incremental.create ~eps:0.5 ~rounds:40
      ~rects:[| Rect.of_intervals [ (-1.0, 6.0); (-1.0, 6.0) ] |]
      ~k:1 ~z:0 ()
  in
  Array.iter (fun p -> ignore (Gcso.Incremental.insert inc p)) tri;
  ignore (Gcso.Incremental.query inc);
  (* Doubling the live population forces a (warm-started) re-solve even
     if the new points sit inside the old covering radius. *)
  Array.iter (fun p -> ignore (Gcso.Incremental.insert inc p)) tri;
  Alcotest.(check bool) "doubled -> stale" true
    (Gcso.Incremental.needs_resolve inc);
  let _, ids, _ = Gcso.Incremental.query inc in
  Alcotest.(check int) "two re-solves" 2 (Gcso.Incremental.re_solves inc);
  Alcotest.(check (list int)) "solved over the full population"
    (Gcso.Incremental.live_ids inc)
    (Array.to_list ids)

let test_drift_workload_replay () =
  let rng = Random.State.make [| 606 |] in
  let w = Drift.drifting rng ~n_ops:120 ~k:2 ~z:1 in
  let inc =
    Gcso.Incremental.create ~eps:0.5 ~rounds:40 ~rects:w.Drift.rects
      ~k:w.Drift.k ~z:w.Drift.z ()
  in
  let queries = ref 0 in
  Array.iteri
    (fun i op ->
      (match op with
      | Drift.Insert p -> ignore (Gcso.Incremental.insert inc p)
      | Drift.Delete id -> Gcso.Incremental.delete inc id);
      if (i + 1) mod 20 = 0 then begin
        incr queries;
        let resolving = Gcso.Incremental.needs_resolve inc in
        let rep, ids, _ = Gcso.Incremental.query inc in
        (* A cached report is expressed over the population of its own
           solve; only a fresh re-solve must cover the current one. *)
        if resolving then begin
          Alcotest.(check (list int)) "re-solve covers the live population"
            (Gcso.Incremental.live_ids inc)
            (Array.to_list ids);
          let points = Array.map (Gcso.Incremental.point inc) ids in
          let g =
            Geo_instance.make ~points ~rects:w.Drift.rects ~k:w.Drift.k
              ~z:w.Drift.z
          in
          Alcotest.(check bool) "solution valid" true
            (Geo_instance.is_valid g rep.Gcso.solution)
        end
      end)
    w.Drift.ops;
  Alcotest.(check int) "final live population" w.Drift.final_live
    (Gcso.Incremental.live_count inc);
  let rs = Gcso.Incremental.re_solves inc in
  Alcotest.(check bool) "some queries were served from cache" true
    (rs < !queries);
  Alcotest.(check bool) "updates did trigger re-solves" true (rs >= 2)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_ball_matches_static;
    Alcotest.test_case "levels, stats and partial rebuilds" `Quick
      test_levels_and_stats;
    Alcotest.test_case "clean-level counting moves no point counters" `Quick
      test_clean_count_counters;
    Alcotest.test_case "delete errors" `Quick test_delete_errors;
    Alcotest.test_case "of_points = inserts" `Quick
      test_of_points_equals_inserts;
    Alcotest.test_case "repeat query served from cache (regression)" `Quick
      test_repeat_query_cached;
    Alcotest.test_case "population doubling re-solves" `Quick
      test_population_doubling_resolves;
    Alcotest.test_case "drift workload replay" `Quick
      test_drift_workload_replay;
  ]
