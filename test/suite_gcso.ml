open Cso_core
module Planted = Cso_workload.Planted
module Rect = Cso_geom.Rect
module Points = Cso_metric.Points

let rng () = Random.State.make [| 321 |]

let mwu_rounds = 120 (* capped for test speed; theory needs more *)

(* [Gcso_general.solve] splits eps across its three consumers (eps/5
   each; see gcso_general.mli). With rounds capped, MWU cannot converge
   at a 0.06 per-consumer budget, so these tests ask for the end-to-end
   eps whose per-consumer share is the classic 0.3 the cap can reach. *)
let mwu_eps = 1.5

let test_geo_instance_membership () =
  let points = [| [| 0.5; 0.5 |]; [| 5.0; 5.0 |] |] in
  let rects =
    [|
      Rect.of_intervals [ (0.0, 1.0); (0.0, 1.0) ];
      Rect.of_intervals [ (0.0, 10.0); (0.0, 10.0) ];
    |]
  in
  let g = Geo_instance.make ~points ~rects ~k:1 ~z:0 in
  Alcotest.(check int) "f" 2 (Geo_instance.frequency g);
  Alcotest.(check (list int)) "membership of point 0" [ 0; 1 ]
    g.Geo_instance.membership.(0);
  Alcotest.(check (list int)) "membership of point 1" [ 1 ]
    g.Geo_instance.membership.(1)

let test_geo_instance_requires_coverage () =
  Alcotest.check_raises "point in no rect"
    (Invalid_argument "Geo_instance.make: point 0 in no rectangle") (fun () ->
      ignore
        (Geo_instance.make
           ~points:[| [| 5.0 |] |]
           ~rects:[| Rect.of_intervals [ (0.0, 1.0) ] |]
           ~k:1 ~z:0))

let check_geo ~name (g : Geo_instance.t) sol ~mu1 ~mu2 ~cost_bound =
  Alcotest.(check bool) (name ^ ": valid") true (Geo_instance.is_valid g sol);
  Alcotest.(check bool) (name ^ ": centers") true
    (List.length sol.Instance.centers
     <= int_of_float (ceil (mu1 *. float_of_int g.Geo_instance.k)));
  Alcotest.(check bool) (name ^ ": outlier rects") true
    (List.length sol.Instance.outliers
     <= int_of_float (ceil (mu2 *. float_of_int (max 1 g.Geo_instance.z))));
  Alcotest.(check bool) (name ^ ": cost") true
    (Geo_instance.cost g sol <= cost_bound)

let test_gcso_mwu_overlapping () =
  let w = Planted.gcso_overlapping (rng ()) ~n:80 ~k:2 ~z:2 in
  let g = w.Planted.geo in
  let r = Gcso_general.solve ~eps:mwu_eps ~rounds:mwu_rounds g in
  (* (2+eps, 2f, 2+eps) with f = 2; generous slack on the cost since the
     rounds are capped below the theory bound. *)
  check_geo ~name:"mwu/overlap" g r.Gcso_general.solution ~mu1:3.0 ~mu2:4.0
    ~cost_bound:(4.0 *. w.Planted.g_opt_upper);
  Alcotest.(check bool) "decontaminated" true
    (Geo_instance.cost g r.Gcso_general.solution
     < w.Planted.g_contaminated_lower)

let test_gcso_mwu_disjoint_instance () =
  let w = Planted.gcso_disjoint (rng ()) ~n:60 ~m:8 ~k:2 ~z:2 in
  let g = w.Planted.geo in
  Alcotest.(check int) "f=1" 1 (Geo_instance.frequency g);
  let r = Gcso_general.solve ~eps:mwu_eps ~rounds:mwu_rounds g in
  check_geo ~name:"mwu/disjoint" g r.Gcso_general.solution ~mu1:3.0 ~mu2:2.0
    ~cost_bound:(4.0 *. w.Planted.g_opt_upper)

let test_gcso_coreset_disjoint () =
  let w = Planted.gcso_disjoint (rng ()) ~n:90 ~m:9 ~k:3 ~z:2 in
  let g = w.Planted.geo in
  let r = Gcso_disjoint.solve ~eps:0.3 ~rounds:mwu_rounds g in
  check_geo ~name:"coreset/disjoint" g r.Gcso_disjoint.solution ~mu1:3.0
    ~mu2:2.0
    ~cost_bound:(40.0 *. w.Planted.g_opt_upper);
  Alcotest.(check bool) "decontaminated" true
    (Geo_instance.cost g r.Gcso_disjoint.solution
     < w.Planted.g_contaminated_lower)

let test_gcso_coreset_rejects_f2 () =
  let w = Planted.gcso_overlapping (rng ()) ~n:30 ~k:2 ~z:1 in
  Alcotest.check_raises "f=1 required"
    (Invalid_argument "Gcso_disjoint.solve: rectangles must be disjoint (f = 1)")
    (fun () -> ignore (Gcso_disjoint.solve w.Planted.geo))

let test_gcso_vs_cso_lp_costs () =
  (* The geometric MWU algorithm and the general LP algorithm attack the
     same instance; both must decontaminate it. *)
  let w = Planted.gcso_disjoint (rng ()) ~n:40 ~m:6 ~k:2 ~z:1 in
  let g = w.Planted.geo in
  let mwu = Gcso_general.solve ~eps:mwu_eps ~rounds:mwu_rounds g in
  let lp = Cso_general.solve (Geo_instance.to_cso g) in
  let c1 = Geo_instance.cost g mwu.Gcso_general.solution in
  let c2 = Geo_instance.cost g lp.Cso_general.solution in
  Alcotest.(check bool) "both decontaminate" true
    (c1 < w.Planted.g_contaminated_lower && c2 < w.Planted.g_contaminated_lower)

(* End-to-end geometric property: the MWU pipeline on random tiny
   instances stays within its tri-criteria bounds relative to the exact
   optimum of the equivalent CSO instance. *)
let prop_gcso_mwu_tri_criteria =
  let rngp = Random.State.make [| 7171 |] in
  QCheck.Test.make ~name:"gcso MWU vs exact optimum on random instances"
    ~count:12 QCheck.unit
    (fun () ->
      let n = 8 + Random.State.int rngp 5 in
      let points =
        Array.init n (fun _ ->
            [| Random.State.float rngp 100.0; Random.State.float rngp 100.0 |])
      in
      (* Three random rectangles plus the whole plane for coverage. *)
      let rand_rect () =
        let a = Random.State.float rngp 100.0
        and b = Random.State.float rngp 100.0 in
        let c = Random.State.float rngp 100.0
        and d = Random.State.float rngp 100.0 in
        Rect.of_intervals [ (min a b, max a b); (min c d, max c d) ]
      in
      let rects =
        [| rand_rect (); rand_rect (); rand_rect (); Rect.unbounded 2 |]
      in
      let k = 1 + Random.State.int rngp 2 and z = 1 in
      let g = Geo_instance.make ~points ~rects ~k ~z in
      let f = Geo_instance.frequency g in
      match Exact.solve (Geo_instance.to_cso g) with
      | None -> true
      | Some (_, opt) ->
          let r = Gcso_general.solve ~eps:0.3 ~rounds:200 g in
          let sol = r.Gcso_general.solution in
          Geo_instance.is_valid g sol
          && List.length sol.Instance.centers
             <= int_of_float (ceil (2.3 *. float_of_int k))
          && List.length sol.Instance.outliers <= 2 * f * z
          (* Cost within (2+eps)(1+eps) of opt, plus slack for the capped
             round budget. *)
          && Geo_instance.cost g sol <= (3.5 *. opt) +. 1e-6)

(* ------------------------------------------------------------------ *)
(* Batched MWU oracle vs the per-constraint reference                  *)
(* ------------------------------------------------------------------ *)

module Obs = Cso_obs.Obs
module Pool = Cso_parallel.Pool

let with_domains nd f =
  let old = Pool.get_default () in
  Pool.with_pool ~num_domains:nd (fun p ->
      Pool.set_default p;
      Fun.protect ~finally:(fun () -> Pool.set_default old) f)

(* One complete observable trace of a solver at radius [r]: the rounded
   solution, the MWU round count, every weight snapshot (as raw float
   bits, so identity means bit-identity), and the counter deltas. *)
let solver_trace which prepared ~r =
  let solve =
    match which with
    | `Batched -> Gcso_general.solve_at
    | `Reference -> Gcso_general.solve_at_reference
  in
  let rounds = ref 0 and weights = ref [] in
  let sol, deltas =
    Obs.with_delta (fun () ->
        solve ~eps:0.3 ~rounds:40
          ~on_round:(fun ~round:_ ~max_violation:_ -> incr rounds)
          ~on_weights:(fun w ->
            weights := Array.map Int64.bits_of_float w :: !weights)
          prepared ~r)
  in
  (sol, !rounds, List.rev !weights, deltas)

(* The batched oracle must be indistinguishable from the per-constraint
   reference — solution, round count, weight bits and every lp.mwu.* /
   cso.gcso.* counter total — at each pool size. *)
let check_batched_matches_reference g ~domains =
  let prepared = Gcso_general.prepare g in
  let gamma = Cso_geom.Wspd.candidate_distances_packed g.Geo_instance.coords in
  List.iter
    (fun r ->
      let reference =
        with_domains 1 (fun () -> solver_trace `Reference prepared ~r)
      in
      let _, _, _, ref_deltas = reference in
      Alcotest.(check bool)
        (Printf.sprintf "reference trace at r=%g moved mwu counters" r)
        true
        (List.mem_assoc "lp.mwu.rounds" ref_deltas);
      List.iter
        (fun nd ->
          let batched =
            with_domains nd (fun () -> solver_trace `Batched prepared ~r)
          in
          Alcotest.(check bool)
            (Printf.sprintf "batched = reference (r=%g, %d domains)" r nd)
            true (batched = reference))
        domains)
    [ gamma.(Array.length gamma / 2); gamma.(Array.length gamma - 1) ]

let test_batched_oracle_matches_reference () =
  let w = Planted.gcso_disjoint (rng ()) ~n:40 ~m:6 ~k:2 ~z:1 in
  check_batched_matches_reference w.Planted.geo ~domains:[ 1; 2; 4 ]

(* Same differential with instrumentation off (the CSO_OBS=0 story):
   no counters move, and the algorithmic trace is unchanged. *)
let test_batched_oracle_obs_disabled () =
  let w = Planted.gcso_disjoint (rng ()) ~n:30 ~m:5 ~k:2 ~z:1 in
  let g = w.Planted.geo in
  let prepared = Gcso_general.prepare g in
  let gamma = Cso_geom.Wspd.candidate_distances_packed g.Geo_instance.coords in
  let r = gamma.(Array.length gamma - 1) in
  let sol, rounds, weights, _ =
    with_domains 2 (fun () -> solver_trace `Batched prepared ~r)
  in
  let was = Obs.enabled () in
  Obs.set_enabled false;
  Fun.protect ~finally:(fun () -> Obs.set_enabled was) (fun () ->
      let sol', rounds', weights', deltas =
        with_domains 2 (fun () -> solver_trace `Batched prepared ~r)
      in
      Alcotest.(check bool) "no counter moves with CSO_OBS off" true
        (deltas = []);
      Alcotest.(check bool) "trace unchanged with CSO_OBS off" true
        ((sol', rounds', weights') = (sol, rounds, weights));
      let refr, refrounds, refweights, _ =
        with_domains 2 (fun () -> solver_trace `Reference prepared ~r)
      in
      Alcotest.(check bool) "batched = reference with CSO_OBS off" true
        ((refr, refrounds, refweights) = (sol, rounds, weights)))

(* Heavily overlapping rectangles (16 wide windows over 30 points): a
   point lies in up to 17 rectangles, so tau sums long, crossing member
   rows, and which rectangles weigh most moves with sigma. *)
let test_batched_oracle_overlapping_rects () =
  let st = Random.State.make [| 5150 |] in
  let points =
    Array.init 30 (fun _ ->
        [| Random.State.float st 100.0; Random.State.float st 100.0 |])
  in
  let rects =
    Array.init 16 (fun _ ->
        let a = Random.State.float st 40.0 in
        Rect.of_intervals [ (a, a +. 60.0); (0.0, 100.0) ])
  in
  let rects = Array.append rects [| Rect.unbounded 2 |] in
  let g = Geo_instance.make ~points ~rects ~k:2 ~z:2 in
  Alcotest.(check int) "frequency" 17 (Geo_instance.frequency g);
  check_batched_matches_reference g ~domains:[ 1; 2 ]

(* Random instances (the shapes of prop_gcso_mwu_tri_criteria), random
   radius guesses: bit-identity is a property, not a fixture. *)
let prop_batched_oracle_identity =
  let rngp = Random.State.make [| 8642 |] in
  QCheck.Test.make
    ~name:"batched MWU oracle bit-identical to per-constraint reference"
    ~count:10 QCheck.unit
    (fun () ->
      let n = 8 + Random.State.int rngp 12 in
      let points =
        Array.init n (fun _ ->
            [| Random.State.float rngp 100.0; Random.State.float rngp 100.0 |])
      in
      let rand_rect () =
        let a = Random.State.float rngp 100.0
        and b = Random.State.float rngp 100.0 in
        let c = Random.State.float rngp 100.0
        and d = Random.State.float rngp 100.0 in
        Rect.of_intervals [ (min a b, max a b); (min c d, max c d) ]
      in
      let rects = [| rand_rect (); rand_rect (); Rect.unbounded 2 |] in
      let k = 1 + Random.State.int rngp 2 in
      let g = Geo_instance.make ~points ~rects ~k ~z:1 in
      let prepared = Gcso_general.prepare g in
      let gamma =
        Cso_geom.Wspd.candidate_distances_packed g.Geo_instance.coords
      in
      let r = gamma.(Random.State.int rngp (Array.length gamma)) in
      solver_trace `Batched prepared ~r = solver_trace `Reference prepared ~r)

(* The oracle's selection must return exactly the sort-based list,
   ties included: sibling points that no canonical ball separates get
   bit-equal weights, so tie-heavy inputs are the common case, not an
   edge. A few value levels (drawn per case), signed zeros, infinities
   and nan; n across the fast path and the tie fallback, and k up
   to n + 1. A stdlib change to [Array.sort] would show here. *)
let prop_top_k_matches_sort =
  let rngp = Random.State.make [| 4711 |] in
  QCheck.Test.make ~name:"top_k = Array.sort prefix on tie-heavy weights"
    ~count:400 QCheck.unit
    (fun () ->
      let n = Random.State.int rngp 401 in
      let k = Random.State.int rngp (n + 2) in
      let levels =
        Array.init
          (1 + Random.State.int rngp 5)
          (fun _ -> Random.State.float rngp 1.0)
      in
      let specials = [| 0.0; -0.0; infinity; neg_infinity; nan |] in
      let distinct = Random.State.int rngp 4 = 0 in
      let w =
        Array.init n (fun _ ->
            if distinct then Random.State.float rngp 1.0
            else if Random.State.int rngp 8 = 0 then
              specials.(Random.State.int rngp (Array.length specials))
            else levels.(Random.State.int rngp (Array.length levels)))
      in
      Gcso_general.top_k w k = Gcso_general.top_k_reference w k)

let test_mwu_on_round_trace () =
  let w = Planted.gcso_disjoint (rng ()) ~n:30 ~m:5 ~k:2 ~z:1 in
  let g = w.Planted.geo in
  let prepared = Gcso_general.prepare g in
  let seen = ref 0 in
  let gamma = Cso_geom.Wspd.candidate_distances g.Geo_instance.points in
  let r = gamma.(Array.length gamma - 1) in
  ignore
    (Gcso_general.solve_at ~eps:0.3 ~rounds:40
       ~on_round:(fun ~round:_ ~max_violation:_ -> incr seen)
       prepared ~r);
  Alcotest.(check int) "one callback per round" 40 !seen

(* --- incremental rect updates --- *)

(* Orphan protection: deleting a rectangle that is the sole cover of a
   live point must be refused with a typed witness and change nothing.
   Pins the [insert] invariant (every live point lies in some live
   rectangle) across the whole rect-update surface. *)
let test_delete_rect_orphan_witness () =
  let ra = Rect.of_intervals [ (0.0, 2.0); (0.0, 2.0) ] in
  let rb = Rect.of_intervals [ (1.0, 4.0); (0.0, 2.0) ] in
  let inc =
    Gcso_general.Incremental.create ~eps:0.5 ~rounds:40 ~rects:[| ra; rb |]
      ~k:1 ~z:0 ()
  in
  (* id 0 only in ra, id 1 in both, id 2 only in rb. *)
  ignore (Gcso_general.Incremental.insert inc [| 0.5; 1.0 |]);
  ignore (Gcso_general.Incremental.insert inc [| 1.5; 1.0 |]);
  ignore (Gcso_general.Incremental.insert inc [| 3.0; 1.0 |]);
  (match Gcso_general.Incremental.delete_rect inc 0 with
  | Ok () -> Alcotest.fail "deleting rect 0 must orphan point 0"
  | Error o ->
      Alcotest.(check int) "offending rect" 0 o.Gcso_general.Incremental.rect_id;
      Alcotest.(check int) "smallest orphan witness" 0
        o.Gcso_general.Incremental.witness);
  Alcotest.(check int) "refused delete changed nothing" 2
    (Gcso_general.Incremental.rect_count inc);
  (* Once the orphan is gone the same delete succeeds. *)
  Gcso_general.Incremental.delete inc 0;
  (match Gcso_general.Incremental.delete_rect inc 0 with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "no orphan left, delete must succeed");
  Alcotest.(check (list int)) "rect 1 survives" [ 1 ]
    (List.map fst (Gcso_general.Incremental.rects inc));
  (* Unknown / already-deleted rect ids raise, mirroring point deletes. *)
  List.iter
    (fun bad ->
      match Gcso_general.Incremental.delete_rect inc bad with
      | _ -> Alcotest.failf "delete_rect %d should raise" bad
      | exception Invalid_argument _ -> ())
    [ 0; 7; -1 ]

(* Regression (satellite of the rect-update PR): the drift trigger is
   fed by an insert-only point sketch, which cannot see coverage lost
   to a rect delete — pre-fix, a query after [delete_rect] served the
   stale cached report whose outliers named the dead rectangle. *)
let test_rect_update_forces_resolve () =
  let ra = Rect.of_intervals [ (0.0, 2.0); (0.0, 2.0) ] in
  let rb = Rect.of_intervals [ (0.0, 4.0); (0.0, 2.0) ] in
  let inc =
    Gcso_general.Incremental.create ~eps:0.5 ~rounds:40 ~rects:[| ra; rb |]
      ~k:1 ~z:1 ()
  in
  ignore (Gcso_general.Incremental.insert inc [| 0.5; 1.0 |]);
  ignore (Gcso_general.Incremental.insert inc [| 1.5; 1.0 |]);
  ignore (Gcso_general.Incremental.query inc);
  Alcotest.(check bool) "settled after solve" false
    (Gcso_general.Incremental.needs_resolve inc);
  (match Gcso_general.Incremental.delete_rect inc 0 with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "rb covers everything, delete must succeed");
  Alcotest.(check bool) "rect delete -> stale" true
    (Gcso_general.Incremental.needs_resolve inc);
  let _, _, rect_ids = Gcso_general.Incremental.query inc in
  Alcotest.(check int) "re-solved" 2 (Gcso_general.Incremental.re_solves inc);
  Alcotest.(check (array int)) "rect-id map excludes the dead rect" [| 1 |]
    rect_ids;
  (* Same for inserts: a new rectangle can only change the solution via
     a re-solve. *)
  let rid =
    Gcso_general.Incremental.insert_rect inc
      (Rect.of_intervals [ (10.0, 11.0); (10.0, 11.0) ])
  in
  Alcotest.(check int) "fresh external rect id, never reused" 2 rid;
  Alcotest.(check bool) "rect insert -> stale" true
    (Gcso_general.Incremental.needs_resolve inc);
  let _, _, rect_ids = Gcso_general.Incremental.query inc in
  Alcotest.(check (array int)) "rect-id map gains the new rect" [| 1; 2 |]
    rect_ids

(* Warm-weight mapping across a rect update: surviving point constraints
   keep their stored weights bit-identically; the mapping is keyed by
   stable external id, not position. *)
let test_warm_weights_stable_ids () =
  let ra = Rect.of_intervals [ (0.0, 6.0); (0.0, 6.0) ] in
  let inc =
    Gcso_general.Incremental.create ~eps:0.5 ~rounds:40 ~rects:[| ra |] ~k:1
      ~z:0 ()
  in
  for i = 0 to 5 do
    ignore
      (Gcso_general.Incremental.insert inc
         [| float_of_int i; Float.rem (float_of_int i) 2.0 |])
  done;
  ignore (Gcso_general.Incremental.query inc);
  Alcotest.(check bool) "first solve runs cold" true
    (Gcso_general.Incremental.last_warm inc = None);
  let stored = Gcso_general.Incremental.stored_weights inc in
  Alcotest.(check int) "one weight per constraint" 6 (List.length stored);
  let prior_m = Gcso_general.Incremental.prior_constraints inc in
  Alcotest.(check int) "normalized over 6 constraints" 6 prior_m;
  (* Delete point 0 and force a re-solve via a rect insert: the warm
     vector actually fed must be exactly the stored weights of the
     surviving ids plus the Mwu floor for unseen ones (none here). *)
  Gcso_general.Incremental.delete inc 0;
  ignore
    (Gcso_general.Incremental.insert_rect inc
       (Rect.of_intervals [ (20.0, 21.0); (20.0, 21.0) ]));
  ignore (Gcso_general.Incremental.query inc);
  (match Gcso_general.Incremental.last_warm inc with
  | None -> Alcotest.fail "second solve must warm-start"
  | Some (ids, w) ->
      Alcotest.(check (array int)) "warm ids are the survivors"
        [| 1; 2; 3; 4; 5 |] ids;
      Array.iteri
        (fun i id ->
          match List.assoc_opt id stored with
          | None -> Alcotest.failf "id %d missing from stored weights" id
          | Some sw ->
              Alcotest.(check (float 0.0))
                "surviving weight mapped bit-identically" sw w.(i))
        ids);
  (* A fresh insert enters the next warm vector at the Mwu floor. *)
  let stored2 = Gcso_general.Incremental.stored_weights inc in
  let prior2 = Gcso_general.Incremental.prior_constraints inc in
  ignore (Gcso_general.Incremental.insert inc [| 2.5; 1.5 |]);
  ignore
    (Gcso_general.Incremental.insert_rect inc
       (Rect.of_intervals [ (30.0, 31.0); (30.0, 31.0) ]));
  ignore (Gcso_general.Incremental.query inc);
  match Gcso_general.Incremental.last_warm inc with
  | None -> Alcotest.fail "third solve must warm-start"
  | Some (ids, w) ->
      Array.iteri
        (fun i id ->
          match List.assoc_opt id stored2 with
          | Some sw ->
              Alcotest.(check (float 0.0)) "survivor weight kept" sw w.(i)
          | None ->
              Alcotest.(check (float 0.0)) "fresh constraint enters at floor"
                (Cso_lp.Mwu.min_weight_factor /. float_of_int prior2)
                w.(i))
        ids

(* Identity pin for the cold solve: a digest over everything a
   [Gcso_general.solve] can show — solution, radius bits, guess and
   round counts, the accepted guess's final weight bits, and every
   counter and histogram delta — plus every bit of the radius grid the
   solve searches, on four fixed overlapping instances (three at n=300,
   one at n=800). The digest was first recorded on the record-based BBD
   and WSPD trees with an [Array.sort] tie fallback, so a layout or sort
   change that moves one bit fails here. It was re-recorded when the
   solve began searching [Guess.radius_grid] instead of the inflated
   WSPD lattice, and again when the solve stopped building a range tree:
   that removed the [geom.rtree.*] counter and histogram lines, and the
   fingerprint without them was byte-identical before and after, on
   these four instances and on forty more [gcso_overlapping] ones
   (n = 100 to 997). *)
let gcso_identity_digest = "bdf60e657a8d945897b6e5a123294d81"

let solve_fingerprint buf (w : Planted.gcso) =
  let final = ref [||] in
  let (rep, counters), hists =
    Obs.Hist.with_delta (fun () ->
        Obs.with_delta (fun () ->
            Gcso_general.solve ~eps:0.3 ~rounds:60
              ~on_weights:(fun a -> final := a)
              w.Planted.geo))
  in
  let sol = rep.Gcso_general.solution in
  let ints l = String.concat "," (List.map string_of_int l) in
  Printf.bprintf buf "centers=%s;outliers=%s;radius=%Lx;rounds=%d;guesses=%d\n"
    (ints sol.Instance.centers) (ints sol.Instance.outliers)
    (Int64.bits_of_float rep.Gcso_general.radius)
    rep.Gcso_general.rounds_per_guess rep.Gcso_general.guesses;
  Array.iter
    (fun x -> Printf.bprintf buf "%Lx," (Int64.bits_of_float x))
    !final;
  Buffer.add_char buf '\n';
  List.iter (fun (c, v) -> Printf.bprintf buf "%s=%d\n" c v) counters;
  List.iter
    (fun (h, bs) ->
      Printf.bprintf buf "%s:%s\n" h
        (String.concat ","
           (List.map (fun (b, c) -> Printf.sprintf "%d*%d" b c) bs)))
    hists;
  (* The whole radius grid at the solve's accuracy, not only the few
     guesses the binary search reads. *)
  let eps_c = 0.3 /. 5.0 in
  Array.iter
    (fun x -> Printf.bprintf buf "%Lx," (Int64.bits_of_float x))
    (Cso_metric.Guess.radius_grid ~ratio:(1.0 +. eps_c)
       w.Planted.geo.Geo_instance.coords)

let test_gcso_identity_digest () =
  let was = Obs.enabled () in
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled was) @@ fun () ->
  let buf = Buffer.create 65536 in
  List.iter
    (fun (seed, n) ->
      let st = Random.State.make [| seed; 0x1d3a |] in
      solve_fingerprint buf (Planted.gcso_overlapping st ~n ~d:2 ~k:3 ~z:2))
    [ (1, 300); (2, 300); (3, 300); (4, 800) ];
  Alcotest.(check string) "solve digest" gcso_identity_digest
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let suite =
  [
    Alcotest.test_case "geo instance membership" `Quick
      test_geo_instance_membership;
    Alcotest.test_case "geo instance coverage check" `Quick
      test_geo_instance_requires_coverage;
    Alcotest.test_case "gcso mwu: overlapping (f=2)" `Slow
      test_gcso_mwu_overlapping;
    Alcotest.test_case "gcso mwu: disjoint instance" `Slow
      test_gcso_mwu_disjoint_instance;
    Alcotest.test_case "gcso coreset: disjoint" `Slow test_gcso_coreset_disjoint;
    Alcotest.test_case "gcso coreset rejects f=2" `Quick
      test_gcso_coreset_rejects_f2;
    Alcotest.test_case "gcso mwu vs general lp" `Slow test_gcso_vs_cso_lp_costs;
    QCheck_alcotest.to_alcotest prop_gcso_mwu_tri_criteria;
    Alcotest.test_case "batched oracle = per-constraint reference" `Quick
      test_batched_oracle_matches_reference;
    Alcotest.test_case "batched oracle with obs disabled" `Quick
      test_batched_oracle_obs_disabled;
    Alcotest.test_case "batched oracle = reference, overlapping rects" `Quick
      test_batched_oracle_overlapping_rects;
    QCheck_alcotest.to_alcotest prop_batched_oracle_identity;
    QCheck_alcotest.to_alcotest prop_top_k_matches_sort;
    Alcotest.test_case "mwu round trace" `Quick test_mwu_on_round_trace;
    Alcotest.test_case "delete_rect orphan witness" `Quick
      test_delete_rect_orphan_witness;
    Alcotest.test_case "rect update forces re-solve (regression)" `Quick
      test_rect_update_forces_resolve;
    Alcotest.test_case "warm weights keyed by stable ids" `Quick
      test_warm_weights_stable_ids;
    Alcotest.test_case "cold solve identity digest" `Slow
      test_gcso_identity_digest;
  ]
