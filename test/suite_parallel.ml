(* The determinism contract of lib/parallel: every parallelized kernel
   must produce bit-identical results to the sequential path, for every
   pool size. Pools of 1, 2 and 4 domains are compared against plain
   sequential folds and against each other. *)

module Pool = Cso_parallel.Pool
module Space = Cso_metric.Space
module Point = Cso_metric.Point
module Points = Cso_metric.Points
open Cso_kcenter
module Mwu = Cso_lp.Mwu

let rng = Random.State.make [| 4242 |]
let domain_counts = [ 1; 2; 4 ]

(* Run [f] with the library's implicit pool temporarily set to [nd]
   domains; restores (and never shuts down) the previous default. *)
let with_domains nd f =
  let old = Pool.get_default () in
  Pool.with_pool ~num_domains:nd (fun p ->
      Pool.set_default p;
      Fun.protect ~finally:(fun () -> Pool.set_default old) f)

let on_all_domain_counts f =
  List.map (fun nd -> with_domains nd (fun () -> f nd)) domain_counts

let all_equal = function
  | [] -> true
  | x :: rest -> List.for_all (fun y -> y = x) rest

let random_pts n =
  Array.init n (fun _ ->
      [| Random.State.float rng 100.0; Random.State.float rng 100.0 |])

(* --- the primitives themselves --- *)

let prop_reduce_matches_sequential_fold =
  QCheck.Test.make
    ~name:"parallel_for_reduce = sequential fold (int sum, every pool size)"
    ~count:40
    QCheck.(pair (int_range 0 5000) (int_range 1 700))
    (fun (n, chunk) ->
      let xs = Array.init n (fun i -> (i * 7919) mod 257) in
      let seq = Array.fold_left ( + ) 0 xs in
      List.for_all
        (fun nd ->
          Pool.with_pool ~num_domains:nd (fun p ->
              Pool.parallel_for_reduce p ~chunk ~start:0 ~finish:(n - 1)
                ~neutral:0 ~combine:( + ) (fun i -> xs.(i))
              = seq))
        domain_counts)

let prop_reduce_float_max =
  QCheck.Test.make
    ~name:"parallel_for_reduce float max is bit-identical to fold" ~count:40
    QCheck.(int_range 0 4000)
    (fun n ->
      let xs = Array.init n (fun _ -> Random.State.float rng 1e6) in
      let seq = Array.fold_left max 0.0 xs in
      List.for_all
        (fun nd ->
          Pool.with_pool ~num_domains:nd (fun p ->
              Pool.parallel_for_reduce p ~chunk:100 ~start:0 ~finish:(n - 1)
                ~neutral:0.0 ~combine:max (fun i -> xs.(i))
              = seq))
        domain_counts)

let prop_parallel_for_writes_every_index =
  QCheck.Test.make ~name:"parallel_for visits every index exactly once"
    ~count:30
    QCheck.(pair (int_range 0 3000) (int_range 1 500))
    (fun (n, chunk) ->
      List.for_all
        (fun nd ->
          Pool.with_pool ~num_domains:nd (fun p ->
              let hits = Array.make n 0 in
              Pool.parallel_for p ~chunk ~start:0 ~finish:(n - 1) (fun i ->
                  hits.(i) <- hits.(i) + 1);
              Array.for_all (fun h -> h = 1) hits))
        domain_counts)

let prop_map_array =
  QCheck.Test.make ~name:"map_array = Array.map" ~count:30
    QCheck.(int_range 0 3000)
    (fun n ->
      let xs = Array.init n (fun i -> float_of_int i *. 0.5) in
      let seq = Array.map sqrt xs in
      List.for_all
        (fun nd ->
          Pool.with_pool ~num_domains:nd (fun p ->
              Pool.map_array p ~chunk:64 sqrt xs = seq))
        domain_counts)

let test_pool_exception_propagates () =
  Pool.with_pool ~num_domains:4 (fun p ->
      Alcotest.check_raises "body exception reaches the caller"
        (Failure "boom") (fun () ->
          Pool.parallel_for p ~chunk:8 ~start:0 ~finish:999 (fun i ->
              if i = 500 then failwith "boom"));
      (* The pool survives a failed job. *)
      let s =
        Pool.parallel_for_reduce p ~chunk:8 ~start:1 ~finish:100 ~neutral:0
          ~combine:( + ) Fun.id
      in
      Alcotest.(check int) "usable after failure" 5050 s)

let test_pool_reentrant_inlines () =
  Pool.with_pool ~num_domains:4 (fun p ->
      let acc = Array.make 100 0 in
      Pool.parallel_for p ~chunk:5 ~start:0 ~finish:9 (fun i ->
          (* Nested use of the same pool must degrade to inline, not
             deadlock. *)
          Pool.parallel_for p ~chunk:2 ~start:(10 * i)
            ~finish:((10 * i) + 9)
            (fun j -> acc.(j) <- j));
      Alcotest.(check bool) "all written" true
        (Array.for_all2 ( = ) acc (Array.init 100 Fun.id)))

let test_pool_sizes () =
  Pool.with_pool ~num_domains:3 (fun p ->
      Alcotest.(check int) "size" 3 (Pool.size p));
  Alcotest.check_raises "num_domains < 1"
    (Invalid_argument "Pool.create: num_domains < 1") (fun () ->
      ignore (Pool.create ~num_domains:0 ()));
  Alcotest.(check bool) "default size positive" true (Pool.default_size () >= 1)

(* --- the sequential cutoff --- *)

let test_seq_below_defaults () =
  Alcotest.(check int) "default grain threshold" 2048 Pool.default_seq_below;
  Pool.with_pool ~num_domains:4 (fun p ->
      (* auto_chunk: ~8 chunks per domain, clamped to [64, 1024]. *)
      let prev = ref 0 in
      List.iter
        (fun n ->
          let c = Pool.auto_chunk p n in
          Alcotest.(check bool)
            (Printf.sprintf "auto_chunk %d in [64, 1024]" n)
            true
            (c >= 64 && c <= 1024);
          Alcotest.(check bool)
            (Printf.sprintf "auto_chunk %d monotone" n)
            true (c >= !prev);
          prev := c)
        [ 1; 100; 2048; 50_000; 1_000_000; 10_000_000 ];
      Alcotest.(check int) "large n saturates at the chunk cap" 1024
        (Pool.auto_chunk p 10_000_000);
      Alcotest.(check int) "empty range gets the cap" 1024
        (Pool.auto_chunk p 0))

(* Forcing the inline path ([seq_below] above the range) and forcing the
   pooled path ([seq_below:0]) must be indistinguishable: same floats
   bit-for-bit out of reduce/tabulate, every index visited exactly once
   by [parallel_for]. This is the contract that lets wired kernels keep
   the default cutoff without changing any committed artifact. *)
let prop_seq_below_identity =
  QCheck.Test.make
    ~name:"seq_below inline path = pooled path (for / reduce / tabulate)"
    ~count:30
    QCheck.(pair (int_range 0 3000) (int_range 1 400))
    (fun (n, chunk) ->
      let xs = Array.init n (fun i -> sin (float_of_int (i + 1))) in
      Pool.with_pool ~num_domains:4 (fun p ->
          let reduce sb =
            Pool.parallel_for_reduce p ~chunk ~seq_below:sb ~start:0
              ~finish:(n - 1) ~neutral:0.0 ~combine:( +. ) (fun i -> xs.(i))
          in
          let tab sb =
            Pool.tabulate p ~chunk ~seq_below:sb n (fun i -> xs.(i) *. 0.5)
          in
          let visits sb =
            let hits = Array.make n 0 in
            Pool.parallel_for p ~chunk ~seq_below:sb ~start:0 ~finish:(n - 1)
              (fun i -> hits.(i) <- hits.(i) + 1);
            Array.for_all (fun h -> h = 1) hits
          in
          Int64.bits_of_float (reduce max_int) = Int64.bits_of_float (reduce 0)
          && tab max_int = tab 0
          && visits max_int && visits 0))

(* --- the wired hot paths --- *)

let prop_distance_matrix_identical =
  QCheck.Test.make
    ~name:"Space.cached / pairwise_distances identical across pool sizes"
    ~count:15
    QCheck.(int_range 1 90)
    (fun n ->
      let pts = random_pts n in
      let s = Space.of_points pts in
      let runs =
        on_all_domain_counts (fun _ ->
            let c = Space.cached s in
            let m =
              Array.init n (fun i -> Array.init n (fun j -> c.Space.dist i j))
            in
            (m, Space.pairwise_distances s))
      in
      all_equal runs)

let prop_gonzalez_identical =
  QCheck.Test.make
    ~name:"gonzalez (plain + fast) identical across pool sizes" ~count:8
    QCheck.(pair (int_range 1 2500) (int_range 1 8))
    (fun (n, k) ->
      let pts = random_pts n in
      let runs =
        on_all_domain_counts (fun _ ->
            let s = Space.of_points pts in
            (Gonzalez.run_points pts ~k,
             Gonzalez.run_packed (Points.of_array pts) ~k,
             Gonzalez.run s ~subset:(Array.init n Fun.id) ~k))
      in
      all_equal runs)

let prop_charikar_identical =
  QCheck.Test.make ~name:"charikar outliers identical across pool sizes"
    ~count:8
    QCheck.(pair (int_range 2 60) (int_range 0 3))
    (fun (n, z) ->
      let pts = random_pts n in
      let s = Space.of_points pts in
      let runs = on_all_domain_counts (fun _ -> Charikar_outliers.run s ~k:2 ~z) in
      all_equal runs)

let prop_mwu_identical =
  QCheck.Test.make ~name:"mwu outcome identical across pool sizes" ~count:6
    QCheck.(int_range 1500 4000)
    (fun m ->
      (* Oracle concentrates on the currently heaviest constraint; the
         violation array is a deterministic function of the choice, so
         any divergence in the weight updates would change the whole
         trajectory. *)
      let heaviest sigma =
        let best = ref 0 in
        Array.iteri (fun i w -> if w > sigma.(!best) then best := i) sigma;
        !best
      in
      let oracle sigma = Some (heaviest sigma) in
      let violation c =
        Array.init m (fun i ->
            if i = c then 1.0 else -1.0 +. (float_of_int ((i * 31) mod 13) /. 13.0))
      in
      let runs =
        on_all_domain_counts (fun _ ->
            Mwu.run ~m ~width:1.0 ~eps:0.3 ~rounds:25 ~oracle ~violation ())
      in
      all_equal runs)

let prop_balls_all_identical =
  QCheck.Test.make
    ~name:"Bbd.balls_all = per-point ball_query, identical across pool sizes"
    ~count:10
    QCheck.(pair (int_range 1 200) (float_range 5.0 40.0))
    (fun (n, radius) ->
      let pts = random_pts n in
      let eps = 0.25 in
      let module Obs = Cso_obs.Obs in
      let tree = Cso_geom.Bbd_tree.build_packed (Points.of_array pts) in
      (* Reference: one boxed-center query per point, sequentially. *)
      let reference =
        Cso_obs.Obs.Hist.with_delta (fun () ->
            Obs.with_delta (fun () ->
                Array.init n (fun i ->
                    Cso_geom.Bbd_tree.ball_query tree ~center:pts.(i) ~radius
                      ~eps)))
      in
      let runs =
        on_all_domain_counts (fun _ ->
            Cso_obs.Obs.Hist.with_delta (fun () ->
                Obs.with_delta (fun () ->
                    Cso_geom.Bbd_tree.balls_all tree ~radius ~eps)))
      in
      (* Same result lists in the same order, same geom.bbd.* counter and
         histogram deltas — for every pool size, and vs the sequential
         per-point loop. *)
      all_equal (reference :: runs))

let test_balls_all_obs_disabled () =
  let pts = random_pts 150 in
  let tree = Cso_geom.Bbd_tree.build_packed (Points.of_array pts) in
  let module Obs = Cso_obs.Obs in
  let reference =
    with_domains 2 (fun () ->
        Cso_geom.Bbd_tree.balls_all tree ~radius:20.0 ~eps:0.25)
  in
  let was = Obs.enabled () in
  Obs.set_enabled false;
  Fun.protect ~finally:(fun () -> Obs.set_enabled was) (fun () ->
      let (result, deltas), hist_deltas =
        with_domains 2 (fun () ->
            Obs.Hist.with_delta (fun () ->
                Obs.with_delta (fun () ->
                    Cso_geom.Bbd_tree.balls_all tree ~radius:20.0 ~eps:0.25)))
      in
      Alcotest.(check bool) "no counter moves with CSO_OBS off" true
        (deltas = []);
      Alcotest.(check bool) "no histogram moves with CSO_OBS off" true
        (hist_deltas = []);
      Alcotest.(check bool) "balls_all results unchanged with CSO_OBS off"
        true (result = reference))

(* --- observability counters under parallelism --- *)

module Obs = Cso_obs.Obs

(* A workload touching several instrumented substrates at once —
   including every histogram site: BBD ball queries (nodes/query),
   WSPD pair emission
   (separation ratios), MWU rounds (violations/round) and a GCSO solve,
   whose per-point ball queries run inside [Pool.tabulate] bodies. The
   inputs are built once, outside the per-domain closures: a shared rng
   inside them would feed different data to each pool size and void the
   comparison. *)
module Bbd = Cso_geom.Bbd_tree
module Wspd = Cso_geom.Wspd
module Planted = Cso_workload.Planted

let obs_workload_inputs () =
  let pts = random_pts 600 in
  let m = 800 in
  let gcso =
    Planted.gcso_overlapping (Random.State.make [| 77; 13 |]) ~n:48 ~k:3 ~z:2
  in
  (pts, m, gcso)

let run_obs_workload (pts, m, gcso) =
  let g = Gonzalez.run_packed (Points.of_array pts) ~k:5 in
  let s = Space.of_points pts in
  let c = Space.cached s in
  let d01 = c.Space.dist 0 1 in
  let bbd = Bbd.build_packed (Points.of_array pts) in
  let bbd_hits =
    List.map
      (fun i ->
        List.length
          (Bbd.ball_query bbd ~center:pts.(i) ~radius:15.0 ~eps:0.2))
      [ 0; 7; 41; 99 ]
  in
  let wspd = List.length (Wspd.pairs_info ~eps:0.5 (Array.sub pts 0 40)) in
  (* Explicit rounds: the honest default (eps split to eps/5 per
     consumer) is ~25x this and only costs time here — the determinism
     claim under test is round-count independent. *)
  let gr = Cso_core.Gcso_general.solve ~rounds:60 gcso.Planted.geo in
  let heaviest sigma =
    let best = ref 0 in
    Array.iteri (fun i w -> if w > sigma.(!best) then best := i) sigma;
    !best
  in
  let oracle sigma = Some (heaviest sigma) in
  let violation cidx =
    Array.init m (fun i ->
        if i = cidx then 1.0
        else -1.0 +. (float_of_int ((i * 31) mod 13) /. 13.0))
  in
  let mwu = Mwu.run ~m ~width:1.0 ~eps:0.3 ~rounds:12 ~oracle ~violation () in
  (g, d01, bbd_hits, wspd, gr.Cso_core.Gcso_general.radius, mwu)

let test_obs_identical_across_domains () =
  let inputs = obs_workload_inputs () in
  let runs =
    on_all_domain_counts (fun _ -> Obs.with_delta (fun () -> run_obs_workload inputs))
  in
  (match runs with
  | (_, deltas) :: _ ->
      Alcotest.(check bool) "workload produced counter deltas" true
        (deltas <> [])
  | [] -> Alcotest.fail "no runs");
  Alcotest.(check bool)
    "obs counter deltas bit-identical across 1/2/4 domains" true
    (all_equal runs)

let test_obs_disabled_is_noop () =
  let inputs = obs_workload_inputs () in
  let reference = with_domains 2 (fun () -> run_obs_workload inputs) in
  let was = Obs.enabled () in
  Obs.set_enabled false;
  Fun.protect ~finally:(fun () -> Obs.set_enabled was) (fun () ->
      let (result, deltas), hist_deltas =
        with_domains 2 (fun () ->
            Obs.Hist.with_delta (fun () ->
                Obs.with_delta (fun () -> run_obs_workload inputs)))
      in
      Alcotest.(check bool) "no counter moves with CSO_OBS off" true
        (deltas = []);
      Alcotest.(check bool) "no histogram moves with CSO_OBS off" true
        (hist_deltas = []);
      Alcotest.(check bool) "algorithm results unchanged with CSO_OBS off"
        true
        (result = reference))

let test_hist_identical_across_domains () =
  let inputs = obs_workload_inputs () in
  let runs =
    on_all_domain_counts (fun _ ->
        Obs.Hist.with_delta (fun () -> run_obs_workload inputs))
  in
  (match runs with
  | (_, hist_deltas) :: _ ->
      Alcotest.(check bool) "workload filled histograms" true
        (hist_deltas <> []);
      (* The workload must reach every instrumented histogram family. *)
      List.iter
        (fun name ->
          Alcotest.(check bool) (name ^ " observed") true
            (List.mem_assoc name hist_deltas))
        [
          "geom.bbd.nodes_per_query";
          "geom.wspd.pair_sep_ratio";
          "lp.mwu.violated_per_round";
          "cso.gcso.ball_nodes_per_point";
        ]
  | [] -> Alcotest.fail "no runs");
  Alcotest.(check bool)
    "hist bucket vectors bit-identical across 1/2/4 domains" true
    (all_equal runs)

(* The acceptance bar for the artifacts is stronger than structural
   equality: the {e rendered} JSON must be byte-identical across domain
   counts and across repeated runs, because bench gates diff these
   strings against committed baselines. *)
let test_obs_artifacts_byte_stable () =
  let inputs = obs_workload_inputs () in
  let render nd =
    with_domains nd (fun () ->
        let (_, counter_deltas), hist_deltas =
          Obs.Hist.with_delta (fun () ->
              Obs.with_delta (fun () -> run_obs_workload inputs))
        in
        (Obs.counters_json counter_deltas, Obs.hists_json hist_deltas))
  in
  let runs = List.concat_map (fun nd -> [ render nd; render nd ]) domain_counts in
  (match runs with
  | (cj, hj) :: _ ->
      Alcotest.(check bool) "counters json non-trivial" true
        (String.length cj > 2);
      Alcotest.(check bool) "hists json non-trivial" true
        (String.length hj > 2)
  | [] -> Alcotest.fail "no runs");
  Alcotest.(check bool)
    "rendered counter/hist JSON byte-identical across domains and reps" true
    (all_equal runs)

(* Budget rows feed BENCH_budgets.json; a fitted exponent that moves
   with the pool size would make the budget gate flaky. The series here
   is synthetic (formula points, no rng) so both reps see the same
   input bytes. *)
let test_budget_row_byte_stable () =
  let budget = List.hd Gonzalez.budgets in
  let sizes = [ 300; 600; 1200 ] in
  let pts_of n =
    Array.init n (fun i ->
        [| float_of_int (i * 7919 mod 1000); float_of_int (i * 104729 mod 1000) |])
  in
  let render nd =
    with_domains nd (fun () ->
        let points =
          List.map
            (fun n ->
              let _, deltas =
                Obs.with_delta (fun () ->
                    ignore (Gonzalez.run_packed (Points.of_array (pts_of n)) ~k:4))
              in
              let evals =
                Option.value ~default:0
                  (List.assoc_opt "metric.dist_evals" deltas)
              in
              (float_of_int n, float_of_int evals))
            sizes
        in
        match Obs.Budget.check budget points with
        | Ok fitted -> Obs.Budget.row_json budget ~fitted ~points
        | Error msg -> Alcotest.fail msg)
  in
  let runs = List.concat_map (fun nd -> [ render nd; render nd ]) domain_counts in
  Alcotest.(check bool)
    "budget row JSON byte-identical across domains and reps" true
    (all_equal runs)

let suite =
  [
    Alcotest.test_case "pool sizes + validation" `Quick test_pool_sizes;
    Alcotest.test_case "pool exception propagation" `Quick
      test_pool_exception_propagates;
    Alcotest.test_case "pool re-entrant calls inline" `Quick
      test_pool_reentrant_inlines;
    QCheck_alcotest.to_alcotest prop_reduce_matches_sequential_fold;
    QCheck_alcotest.to_alcotest prop_reduce_float_max;
    QCheck_alcotest.to_alcotest prop_parallel_for_writes_every_index;
    QCheck_alcotest.to_alcotest prop_map_array;
    Alcotest.test_case "seq_below / auto_chunk defaults" `Quick
      test_seq_below_defaults;
    QCheck_alcotest.to_alcotest prop_seq_below_identity;
    QCheck_alcotest.to_alcotest prop_distance_matrix_identical;
    QCheck_alcotest.to_alcotest prop_gonzalez_identical;
    QCheck_alcotest.to_alcotest prop_charikar_identical;
    QCheck_alcotest.to_alcotest prop_mwu_identical;
    QCheck_alcotest.to_alcotest prop_balls_all_identical;
    Alcotest.test_case "balls_all with obs disabled" `Quick
      test_balls_all_obs_disabled;
    Alcotest.test_case "obs counters identical across pool sizes" `Quick
      test_obs_identical_across_domains;
    Alcotest.test_case "obs disabled is a no-op" `Quick
      test_obs_disabled_is_noop;
    Alcotest.test_case "hist buckets identical across pool sizes" `Quick
      test_hist_identical_across_domains;
    Alcotest.test_case "obs artifacts byte-stable" `Quick
      test_obs_artifacts_byte_stable;
    Alcotest.test_case "budget rows byte-stable" `Quick
      test_budget_row_byte_stable;
  ]
