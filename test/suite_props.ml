(* Property-test hardening of the geometric substrates plus the obs
   layer itself. Run under the fixed-seed `props` alias (QCHECK_SEED,
   QCHECK_LONG) so failures reproduce; every property cross-checks a
   structure against brute force AND, where stated, against the obs
   counters the structure maintains. *)

open Cso_geom
module Point = Cso_metric.Point
module Points = Cso_metric.Points
module Mwu = Cso_lp.Mwu
module Simplex = Cso_lp.Simplex
module Obs = Cso_obs.Obs

let rng = Random.State.make [| 20250807 |]

let random_points n d =
  Array.init n (fun _ ->
      Array.init d (fun _ -> Random.State.float rng 100.0))

let delta_of deltas name =
  Option.value ~default:0 (List.assoc_opt name deltas)

let contains needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* --- BBD sandwich guarantee, general dimension and eps --- *)

let brute_ball pts c r =
  List.filter
    (fun i -> Point.l2 pts.(i) c <= r)
    (List.init (Array.length pts) Fun.id)

let prop_bbd_sandwich_general =
  QCheck.Test.make
    ~name:"bbd sandwich: brute ball subset of union subset of (1+eps) ball"
    ~count:120 ~long_factor:3
    QCheck.(triple (int_range 1 150) (int_range 1 3) (float_range 0.05 1.0))
    (fun (n, d, eps) ->
      let pts = random_points n d in
      let tree = Bbd_tree.build_packed (Points.of_array pts) in
      let center = Array.init d (fun _ -> Random.State.float rng 120.0) in
      let radius = Random.State.float rng 90.0 +. 0.5 in
      let (nodes, deltas) =
        Obs.with_delta (fun () ->
            Bbd_tree.ball_query tree ~center ~radius ~eps)
      in
      let got = List.concat_map (Bbd_tree.points_of_node tree) nodes in
      let got_sorted = List.sort_uniq compare got in
      let inner = brute_ball pts center radius in
      (* Canonical nodes are disjoint. *)
      List.length got = List.length got_sorted
      (* Everything within r is captured... *)
      && List.for_all (fun i -> List.mem i got_sorted) inner
      (* ...and nothing beyond (1+eps) r. *)
      && List.for_all
           (fun i ->
             Point.l2 pts.(i) center <= ((1.0 +. eps) *. radius) +. 1e-9)
           got
      (* The obs counters agree with what the query reported. *)
      && delta_of deltas "geom.bbd.ball_queries" = 1
      && delta_of deltas "geom.bbd.canonical_nodes" = List.length nodes
      && delta_of deltas "geom.bbd.nodes_visited"
         >= delta_of deltas "geom.bbd.canonical_nodes")

(* --- WSPD: well-separatedness and exact pair coverage --- *)

let prop_wspd_separation_and_coverage =
  QCheck.Test.make
    ~name:"wspd pairs are well-separated and cover every point pair once"
    ~count:80 ~long_factor:3
    QCheck.(triple (int_range 2 60) (int_range 1 3) (float_range 0.1 0.8))
    (fun (n, d, eps) ->
      let pts = random_points n d in
      let s = max (4.0 /. eps) 1.0 in
      let infos = Wspd.pairs_info ~eps pts in
      (* Every pair satisfies the separation inequality with the
         separation constant recomputed here, independently of the
         library. Leaf-leaf fallback pairs have both radii 0, for which
         the inequality is trivially true — so no exemption needed. *)
      let separated =
        List.for_all
          (fun pi ->
            pi.Wspd.pi_center_dist -. pi.Wspd.pi_ra -. pi.Wspd.pi_rb
            >= (s *. max pi.Wspd.pi_ra pi.Wspd.pi_rb) -. 1e-9)
          infos
      in
      (* Exact coverage: each unordered index pair {p, q}, p <> q, lies
         in A x B of exactly one decomposition pair. *)
      let seen = Hashtbl.create (n * n) in
      let dups = ref false in
      List.iter
        (fun pi ->
          List.iter
            (fun a ->
              List.iter
                (fun b ->
                  let key = (min a b, max a b) in
                  if Hashtbl.mem seen key then dups := true
                  else Hashtbl.add seen key ())
                pi.Wspd.pi_pts_b)
            pi.Wspd.pi_pts_a)
        infos;
      let all_covered = Hashtbl.length seen = n * (n - 1) / 2 in
      separated && (not !dups) && all_covered)

(* --- Packed kernels vs Point kernels: bit-identity contract --- *)


let bits = Int64.bits_of_float

(* The d range deliberately covers d = 1, the unrolled d = 2/3/4 fast
   paths, and the generic loop at d > 4. Bit-equality on the results AND
   equality of the full counter-delta lists: the packed kernels must be
   indistinguishable from the boxed ones, event for event. *)
let prop_packed_kernels_bit_identical =
  QCheck.Test.make
    ~name:"packed kernels bit-identical to Point kernels (values + counters)"
    ~count:80 ~long_factor:3
    QCheck.(pair (int_range 1 40) (int_range 1 7))
    (fun (n, d) ->
      let pts = random_points n d in
      let coords = Points.of_array pts in
      let pairs = ref [] in
      for _ = 1 to 50 do
        pairs := (Random.State.int rng n, Random.State.int rng n) :: !pairs
      done;
      let boxed, boxed_deltas =
        Obs.with_delta (fun () ->
            List.map
              (fun (i, j) ->
                ( bits (Point.l2_sq pts.(i) pts.(j)),
                  bits (Point.l2 pts.(i) pts.(j)) ))
              !pairs)
      in
      let packed, packed_deltas =
        Obs.with_delta (fun () ->
            List.map
              (fun (i, j) ->
                ( bits (Points.l2_sq_idx coords i j),
                  bits (Points.l2_idx coords i j) ))
              !pairs)
      in
      boxed = packed
      && boxed_deltas = packed_deltas
      && delta_of boxed_deltas "metric.dist_evals" = 2 * List.length !pairs)

(* The batch row kernel must be indistinguishable from a per-index
   sweep: same floats bit for bit, same counter delta (n evals). *)
let prop_row_kernel_bit_identical =
  QCheck.Test.make
    ~name:"l2_sq_to bit-identical to an l2_sq_idx sweep (values + counters)"
    ~count:80 ~long_factor:3
    QCheck.(pair (int_range 1 40) (int_range 1 7))
    (fun (n, d) ->
      let pts = random_points n d in
      let coords = Points.of_array pts in
      let i = Random.State.int rng n in
      let per_index, per_index_deltas =
        Obs.with_delta (fun () ->
            Array.init n (fun j -> bits (Points.l2_sq_idx coords i j)))
      in
      let dst = Array.make n 0.0 in
      let (), row_deltas =
        Obs.with_delta (fun () -> Points.l2_sq_to coords i dst)
      in
      Array.for_all2 (fun b x -> b = bits x) per_index dst
      && per_index_deltas = row_deltas
      && delta_of row_deltas "metric.dist_evals" = n)

(* --- Flat simplex tableau vs the reference implementation --- *)

(* Random small LPs over shifted boxes, a quarter of the variables
   unbounded above, with all three constraint ops. The flat solver must
   agree with the kept row-of-rows reference not just on outcomes
   (duals included) but on the exact pivot count and per-solve pivot
   histogram: the two are the same algorithm in different memory
   layouts. *)
let outcome_bits = function
  | Simplex.Optimal { value; solution; duals } ->
      `Optimal (bits value, Array.map bits solution, Array.map bits duals)
  | Simplex.Infeasible -> `Infeasible
  | Simplex.Unbounded -> `Unbounded

let prop_simplex_flat_equals_reference =
  QCheck.Test.make
    ~name:"flat simplex = reference simplex (outcome bits, pivots, hists)"
    ~count:120 ~long_factor:3
    QCheck.(pair (int_range 1 8) (int_range 1 6))
    (fun (m, nv) ->
      let op_of k = match k mod 3 with 0 -> Simplex.Le | 1 -> Simplex.Ge | _ -> Simplex.Eq in
      let constraints =
        List.init m (fun _ ->
            let a =
              Array.init nv (fun _ ->
                  float_of_int (Random.State.int rng 7 - 3))
            in
            let b = float_of_int (Random.State.int rng 5 - 2) in
            (a, op_of (Random.State.int rng 3), b))
      in
      let bounds =
        Array.init nv (fun _ ->
            let lo = Random.State.float rng 0.5 in
            let width = Random.State.float rng 1.0 in
            (lo, if Random.State.int rng 4 = 0 then infinity else lo +. width))
      in
      let objective =
        Array.init nv (fun _ -> float_of_int (Random.State.int rng 9 - 4))
      in
      let lp = { Simplex.num_vars = nv; objective; constraints; bounds } in
      let run solver =
        Obs.Hist.with_delta (fun () ->
            Obs.with_delta (fun () -> outcome_bits (solver lp)))
      in
      let flat = run Simplex.solve in
      let reference = run Cso_refcheck.Reference.simplex_solve in
      flat = reference
      &&
      let (_, deltas), _ = flat in
      delta_of deltas "lp.simplex.solves" = 1)

(* --- Simplex vs MWU cross-oracle agreement --- *)

(* Random small feasibility system A x >= b over the box [0,1]^nv, rows
   normalized so every violation lies in [-1, 1] (width 1). The MWU
   oracle maximizes the aggregated constraint exactly, so:
   - MWU Infeasible certifies real infeasibility => simplex agrees;
   - simplex feasible => MWU must be Feasible and its averaged solution
     satisfies every normalized constraint up to eps. *)
let prop_simplex_mwu_agree =
  QCheck.Test.make ~name:"simplex and mwu agree on random bounded LPs"
    ~count:60 ~long_factor:3
    QCheck.(pair (int_range 1 6) (int_range 1 4))
    (fun (m, nv) ->
      let a =
        Array.init m (fun _ ->
            Array.init nv (fun _ -> float_of_int (Random.State.int rng 7 - 3)))
      in
      let b =
        Array.init m (fun _ -> float_of_int (Random.State.int rng 5 - 2))
      in
      (* Row normalization: |a'_i . x - b'_i| <= 1 on the box. *)
      let w =
        Array.init m (fun i ->
            Array.fold_left (fun acc v -> acc +. abs_float v) 0.0 a.(i)
            +. abs_float b.(i) +. 1.0)
      in
      let a' = Array.mapi (fun i row -> Array.map (fun v -> v /. w.(i)) row) a in
      let b' = Array.mapi (fun i v -> v /. w.(i)) b in
      let eps = 0.3 in
      let oracle sigma =
        let x =
          Array.init nv (fun j ->
              let c = ref 0.0 in
              for i = 0 to m - 1 do
                c := !c +. (sigma.(i) *. a'.(i).(j))
              done;
              if !c > 0.0 then 1.0 else 0.0)
        in
        let lhs = ref 0.0 and rhs = ref 0.0 in
        for i = 0 to m - 1 do
          let ax = ref 0.0 in
          for j = 0 to nv - 1 do
            ax := !ax +. (a'.(i).(j) *. x.(j))
          done;
          lhs := !lhs +. (sigma.(i) *. !ax);
          rhs := !rhs +. (sigma.(i) *. b'.(i))
        done;
        if !lhs >= !rhs -. 1e-12 then Some x else None
      in
      let violation x =
        Array.init m (fun i ->
            let ax = ref 0.0 in
            for j = 0 to nv - 1 do
              ax := !ax +. (a'.(i).(j) *. x.(j))
            done;
            !ax -. b'.(i))
      in
      let (mwu, deltas) =
        Obs.with_delta (fun () ->
            Mwu.run ~m ~width:1.0 ~eps ~oracle ~violation ())
      in
      (* Round count respects the O(width log m / eps^2) budget. *)
      let budget = Mwu.default_rounds ~m ~width:1.0 ~eps in
      let rounds_ok = delta_of deltas "lp.mwu.rounds" <= budget in
      let lp =
        {
          Simplex.num_vars = nv;
          objective = Array.make nv 0.0;
          constraints =
            List.init m (fun i -> (Array.copy a.(i), Simplex.Ge, b.(i)));
          bounds = Simplex.box nv;
        }
      in
      let simplex_feasible = Simplex.feasible_point lp <> None in
      rounds_ok
      &&
      match mwu with
      | Mwu.Infeasible -> not simplex_feasible
      | Mwu.Feasible sols ->
          (not simplex_feasible)
          || (sols <> []
             &&
             let t = float_of_int (List.length sols) in
             let x_hat = Array.make nv 0.0 in
             List.iter
               (fun x ->
                 Array.iteri
                   (fun j v -> x_hat.(j) <- x_hat.(j) +. (v /. t))
                   x)
               sols;
             Array.for_all
               (fun v -> v >= -.(eps +. 1e-6))
               (violation x_hat)))

(* --- the obs layer itself --- *)

let test_obs_interning () =
  let a = Obs.counter "props.obs.shared" in
  let b = Obs.counter "props.obs.shared" in
  let v0 = Obs.value a in
  Obs.incr a;
  Obs.incr b;
  Alcotest.(check int) "two handles share the cell" (v0 + 2) (Obs.value a);
  Alcotest.(check int) "value_of sees the same cell" (v0 + 2)
    (Obs.value_of "props.obs.shared");
  Alcotest.(check string) "name preserved" "props.obs.shared" (Obs.name a)

let test_obs_add () =
  let c = Obs.counter "props.obs.add" in
  let v0 = Obs.value c in
  Obs.add c 5;
  Obs.add c 0;
  Alcotest.(check int) "add accumulates" (v0 + 5) (Obs.value c);
  Alcotest.check_raises "negative add rejected"
    (Invalid_argument "Obs.add: negative increment") (fun () -> Obs.add c (-1))

let test_obs_snapshot_sorted () =
  ignore (Obs.counter "props.obs.zzz");
  ignore (Obs.counter "props.obs.aaa");
  let snap = Obs.snapshot () in
  let names = List.map fst snap in
  Alcotest.(check bool) "sorted by name" true
    (names = List.sort compare names);
  Alcotest.(check bool) "zero counters included" true
    (List.mem_assoc "props.obs.aaa" snap)

let test_obs_with_delta () =
  let c = Obs.counter "props.obs.delta" in
  let (r, deltas) =
    Obs.with_delta (fun () ->
        Obs.incr c;
        Obs.incr c;
        "done")
  in
  Alcotest.(check string) "result passes through" "done" r;
  Alcotest.(check int) "delta of touched counter" 2
    (delta_of deltas "props.obs.delta");
  Alcotest.(check bool) "untouched counters absent" true
    (not (List.mem_assoc "props.obs.aaa" deltas))

let test_obs_disabled () =
  let c = Obs.counter "props.obs.off" in
  let v0 = Obs.value c in
  let was = Obs.enabled () in
  Obs.set_enabled false;
  Fun.protect ~finally:(fun () -> Obs.set_enabled was) (fun () ->
      Obs.incr c;
      Obs.add c 7);
  Alcotest.(check int) "no movement while disabled" v0 (Obs.value c)

let test_obs_spans () =
  (* Fake clock: each read advances by 1s, so durations are exact. *)
  let t = ref 0.0 in
  Obs.set_clock (fun () ->
      let v = !t in
      t := v +. 1.0;
      v);
  Fun.protect ~finally:(fun () -> Obs.set_clock Obs.monotonic) (fun () ->
      let r =
        Obs.with_span "props_outer" (fun () ->
            Obs.with_span "props_inner" (fun () -> 41 + 1))
      in
      Alcotest.(check int) "span passes the result through" 42 r;
      let stats = Obs.span_stats () in
      let find p =
        List.find_opt (fun (path, _, _) -> path = p) stats
      in
      Alcotest.(check bool) "outer span recorded" true
        (find "props_outer" <> None);
      Alcotest.(check bool) "nested path recorded" true
        (find "props_outer/props_inner" <> None);
      (* Exceptions still close the span. *)
      (try
         Obs.with_span "props_raises" (fun () -> failwith "boom")
       with Failure _ -> ());
      Alcotest.(check bool) "span recorded despite exception" true
        (find "props_raises" <> None
        || List.exists (fun (p, _, _) -> p = "props_raises")
             (Obs.span_stats ())))

let test_obs_json () =
  let c = Obs.counter "props.obs.json" in
  Obs.incr c;
  let j = Obs.to_json ~label:"props" () in
  Alcotest.(check bool) "bench tag" true (contains "\"bench\": \"obs\"" j);
  Alcotest.(check bool) "label" true (contains "\"label\": \"props\"" j);
  Alcotest.(check bool) "counter name" true (contains "props.obs.json" j);
  let cj = Obs.counters_json [ ("b", 2); ("a", 1) ] in
  Alcotest.(check string) "counters_json sorts" "{\"a\": 1, \"b\": 2}" cj

(* --- histograms --- *)

module Hist = Obs.Hist

let test_hist_buckets () =
  Alcotest.(check int) "v <= 0 lands in bucket 0" 0 (Hist.bucket_of_int 0);
  Alcotest.(check int) "negative lands in bucket 0" 0 (Hist.bucket_of_int (-3));
  Alcotest.(check int) "bucket_of_int 1 = 65" 65 (Hist.bucket_of_int 1);
  Alcotest.(check int) "2 starts bucket 66" 66 (Hist.bucket_of_int 2);
  Alcotest.(check int) "3 stays in bucket 66" 66 (Hist.bucket_of_int 3);
  Alcotest.(check int) "4 starts bucket 67" 67 (Hist.bucket_of_int 4);
  Alcotest.(check int) "nan in bucket 0" 0 (Hist.bucket_of_float Float.nan);
  Alcotest.(check int) "infinity in last bucket" (Hist.n_buckets - 1)
    (Hist.bucket_of_float infinity);
  Alcotest.(check int) "sub-1 magnitudes below bucket 65" 64
    (Hist.bucket_of_float 0.5);
  Alcotest.(check (float 0.0)) "bucket_lo 65 = 1" 1.0 (Hist.bucket_lo 65);
  Alcotest.(check (float 0.0)) "bucket_lo 66 = 2" 2.0 (Hist.bucket_lo 66);
  Alcotest.(check (float 0.0)) "bucket_lo 64 = 0.5" 0.5 (Hist.bucket_lo 64);
  Alcotest.(check (float 0.0)) "bucket_lo 0 = 0" 0.0 (Hist.bucket_lo 0)

let prop_hist_bucket_brackets =
  QCheck.Test.make
    ~name:"hist bucket brackets its value; float and int scales agree"
    ~count:300 ~long_factor:3
    QCheck.(int_range 1 1_000_000_000)
    (fun v ->
      let b = Hist.bucket_of_int v in
      let lo = Hist.bucket_lo b in
      lo <= float_of_int v
      && float_of_int v < 2.0 *. lo
      && b = Hist.bucket_of_float (float_of_int v))

let test_hist_observe () =
  let h = Hist.hist "props.hist.unit" in
  let (), deltas =
    Hist.with_delta (fun () ->
        Hist.observe h 1;
        Hist.observe h 3;
        Hist.observe_float h 2.5;
        Hist.observe h 0)
  in
  let buckets = Option.value ~default:[] (List.assoc_opt "props.hist.unit" deltas) in
  Alcotest.(check (list (pair int int)))
    "sparse buckets: 0 -> b0, 1 -> b65, {3, 2.5} -> b66"
    [ (0, 1); (65, 1); (66, 2) ]
    buckets;
  Alcotest.(check string) "interned name" "props.hist.unit" (Hist.name h);
  Alcotest.(check bool) "snapshot lists the histogram" true
    (List.mem_assoc "props.hist.unit" (Hist.snapshot ()))

let test_hist_disabled () =
  let h = Hist.hist "props.hist.off" in
  let t0 = Hist.total h in
  let was = Obs.enabled () in
  Obs.set_enabled false;
  Fun.protect ~finally:(fun () -> Obs.set_enabled was) (fun () ->
      Hist.observe h 5;
      Hist.observe_float h 5.0);
  Alcotest.(check int) "no observations while disabled" t0 (Hist.total h)

(* The histogram quantile estimator returns the lower bound of the
   bucket holding the nearest-rank sample — exact whenever every sample
   is a power of two, within the bucket's factor-of-two width
   otherwise. Same rank convention as [Util.percentile_sorted]. *)
let test_hist_quantile () =
  let samples = [ 1; 1; 2; 4; 4; 4; 8; 64; 64; 1024 ] in
  let h = Hist.hist "props.hist.quantile" in
  let (), deltas =
    Hist.with_delta (fun () -> List.iter (Hist.observe h) samples)
  in
  let sparse =
    Option.value ~default:[] (List.assoc_opt "props.hist.quantile" deltas)
  in
  let sorted = Array.of_list (List.map float_of_int samples) in
  List.iter
    (fun q ->
      let rank = int_of_float (q *. float_of_int (List.length samples - 1)) in
      Alcotest.(check (float 0.0))
        (Printf.sprintf "q=%g equals the nearest-rank sample" q)
        sorted.(rank)
        (Hist.quantile_of_buckets sparse q))
    [ 0.0; 0.25; 0.5; 0.9; 0.99; 1.0 ];
  Alcotest.(check (float 0.0)) "Hist.quantile reads the live registry"
    sorted.(4) (Hist.quantile h 0.5);
  Alcotest.(check (float 0.0)) "empty histogram estimates 0" 0.0
    (Hist.quantile_of_buckets [] 0.5);
  Alcotest.(check (float 0.0)) "q clamped below" sorted.(0)
    (Hist.quantile_of_buckets sparse (-3.0));
  Alcotest.(check (float 0.0)) "q clamped above" sorted.(9)
    (Hist.quantile_of_buckets sparse 17.0);
  (* Non-power-of-two samples: the estimate is the containing bucket's
     lower bound, i.e. the nearest-rank sample rounded down to a power
     of two. *)
  Alcotest.(check (float 0.0)) "mid-bucket sample rounds to bucket_lo" 4.0
    (Hist.quantile_of_buckets [ (Hist.bucket_of_int 7, 1) ] 0.5)

(* --- trace ring --- *)

let with_fake_clock f =
  let t = ref 0.0 in
  Obs.set_clock (fun () ->
      let v = !t in
      t := v +. 1.0;
      v);
  Fun.protect ~finally:(fun () -> Obs.set_clock Obs.monotonic) f

let with_tracing f =
  let was = Obs.Trace.enabled () in
  Obs.Trace.set_enabled true;
  Obs.Trace.clear ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Trace.set_enabled was;
      Obs.Trace.clear ())
    f

let test_trace_roundtrip () =
  with_fake_clock @@ fun () ->
  with_tracing @@ fun () ->
  let c = Obs.counter "props.trace.work" in
  Obs.with_span "props_t_outer" (fun () ->
      Obs.incr c;
      Obs.with_span "props_t_inner" (fun () -> Obs.incr c));
  let evs = Obs.Trace.events () in
  (match evs with
  | [ inner; outer ] ->
      (* Events are pushed at span end, so the child precedes its
         parent. *)
      Alcotest.(check string) "inner path" "props_t_outer/props_t_inner"
        inner.Obs.Trace.ev_path;
      Alcotest.(check string) "inner leaf name" "props_t_inner"
        inner.Obs.Trace.ev_name;
      Alcotest.(check int) "inner depth" 1 inner.Obs.Trace.ev_depth;
      Alcotest.(check string) "outer path" "props_t_outer"
        outer.Obs.Trace.ev_path;
      Alcotest.(check int) "outer depth" 0 outer.Obs.Trace.ev_depth;
      Alcotest.(check int) "outer deltas include nested increments" 2
        (delta_of outer.Obs.Trace.ev_deltas "props.trace.work");
      Alcotest.(check bool) "fake clock gives positive duration" true
        (outer.Obs.Trace.ev_t1 > outer.Obs.Trace.ev_t0)
  | l -> Alcotest.fail (Printf.sprintf "expected 2 events, got %d" (List.length l)));
  let jsonl = Obs.Trace.to_jsonl evs in
  Alcotest.(check bool) "jsonl round-trip is exact" true
    (Obs.Trace.parse_jsonl jsonl = evs);
  match Obs.Json.member "traceEvents" (Obs.Json.parse (Obs.Trace.to_chrome evs)) with
  | Some (Obs.Json.Arr l) ->
      Alcotest.(check int) "chrome export has one X event per span" 2
        (List.length l)
  | _ -> Alcotest.fail "chrome export lacks a traceEvents array"

let test_trace_ring_bounded () =
  with_fake_clock @@ fun () ->
  with_tracing @@ fun () ->
  Obs.Trace.set_capacity 4;
  Fun.protect ~finally:(fun () -> Obs.Trace.set_capacity 4096) @@ fun () ->
  for i = 1 to 10 do
    Obs.with_span (Printf.sprintf "props_ring_%d" i) (fun () -> ())
  done;
  let evs = Obs.Trace.events () in
  Alcotest.(check int) "ring keeps only the capacity" 4 (List.length evs);
  Alcotest.(check int) "overwritten events counted" 6 (Obs.Trace.dropped ());
  Alcotest.(check string) "oldest surviving event first" "props_ring_7"
    (List.hd evs).Obs.Trace.ev_path

let test_trace_phases () =
  let ev path name depth t0 t1 deltas =
    {
      Obs.Trace.ev_path = path; ev_name = name; ev_depth = depth;
      ev_domain = 0; ev_t0 = t0; ev_t1 = t1; ev_deltas = deltas;
    }
  in
  let phases evs =
    List.map
      (fun p -> (p.Obs.Trace.ph_path, (p.Obs.Trace.ph_calls, p.Obs.Trace.ph_total, p.Obs.Trace.ph_self)))
      (Obs.Trace.phases evs)
  in
  let tbl =
    phases
      [
        ev "a/b" "b" 1 1.0 9.0 [ ("c", 3) ];
        ev "a" "a" 0 0.0 10.0 [ ("c", 3) ];
      ]
  in
  Alcotest.(check (option (triple int (float 1e-9) (float 1e-9))))
    "parent self = total minus direct child"
    (Some (1, 10.0, 2.0))
    (List.assoc_opt "a" tbl);
  Alcotest.(check (option (triple int (float 1e-9) (float 1e-9))))
    "leaf self = total"
    (Some (1, 8.0, 8.0))
    (List.assoc_opt "a/b" tbl);
  (* A coarse clock can report a child longer than its parent; self time
     must clamp at zero rather than go negative. *)
  let clamped =
    phases [ ev "a/b" "b" 1 0.0 5.0 []; ev "a" "a" 0 0.0 4.0 [] ]
  in
  (match List.assoc_opt "a" clamped with
  | Some (_, _, self) ->
      Alcotest.(check (float 0.0)) "self clamped at zero" 0.0 self
  | None -> Alcotest.fail "phase missing")

(* --- flight recorder --- *)

let fl_rec i =
  {
    Obs.Flight.fl_id = i;
    fl_kind = (if i mod 2 = 0 then "solve" else "na\"me\n\\x");
    fl_conn = i mod 3;
    fl_queue_us = 10 * i;
    fl_exec_us = i;
    fl_flush_us = 0;
    fl_outcome = (if i mod 2 = 0 then "ok" else "error:unknown_instance");
  }

let test_flight_ring () =
  Obs.Flight.set_capacity 3;
  Fun.protect
    ~finally:(fun () -> Obs.Flight.set_capacity 1024)
    (fun () ->
      for i = 0 to 4 do
        Obs.Flight.push (fl_rec i)
      done;
      let recs = Obs.Flight.records () in
      Alcotest.(check int) "bounded at capacity" 3 (List.length recs);
      Alcotest.(check int) "overwritten records counted" 2
        (Obs.Flight.dropped ());
      Alcotest.(check (list int)) "oldest evicted, oldest-first order"
        [ 2; 3; 4 ]
        (List.map (fun r -> r.Obs.Flight.fl_id) recs);
      (* JSONL round-trips exactly, including escaped kinds/outcomes. *)
      let jsonl = Obs.Flight.to_jsonl recs in
      Alcotest.(check bool) "parse is the exact inverse" true
        (Obs.Flight.parse_jsonl jsonl = recs);
      Alcotest.(check string) "empty ring renders the empty string" ""
        (Obs.Flight.to_jsonl []);
      (* Pushes are a no-op while the kill switch is off. *)
      Obs.Flight.clear ();
      let was = Obs.enabled () in
      Obs.set_enabled false;
      Fun.protect
        ~finally:(fun () -> Obs.set_enabled was)
        (fun () -> Obs.Flight.push (fl_rec 9));
      Alcotest.(check int) "no records while disabled" 0
        (List.length (Obs.Flight.records ())))

(* --- OpenMetrics exporter --- *)

let test_metrics_render () =
  let counters = [ ("b.two", 0); ("a one\"\\\n", 3) ] in
  let hists = [ ("h.one", [ (65, 2); (67, 1) ]) ] in
  let text = Obs.Metrics.render_of ~counters ~hists in
  (match Obs.Metrics.check text with
  | Ok () -> ()
  | Error m -> Alcotest.failf "well-formed render rejected: %s" m);
  Alcotest.(check bool) "counter sample, sorted first" true
    (contains "cso_counter_total{name=\"a one\\\"\\\\\\n\"} 3\n" text);
  (* Exact cumulative buckets: le is the next bucket's lower bound
     (bucket 65 holds [1,2) so le="2"; bucket 67 holds [4,8) so
     le="8"), and +Inf equals the count. *)
  Alcotest.(check bool) "cumulative le=2 bucket" true
    (contains "cso_hist_bucket{name=\"h.one\",le=\"2\"} 2\n" text);
  Alcotest.(check bool) "cumulative le=8 bucket" true
    (contains "cso_hist_bucket{name=\"h.one\",le=\"8\"} 3\n" text);
  Alcotest.(check bool) "+Inf bucket and count agree" true
    (contains "cso_hist_bucket{name=\"h.one\",le=\"+Inf\"} 3\n" text
    && contains "cso_hist_count{name=\"h.one\"} 3\n" text);
  (* Bucket 0 (non-positive values) exports its tiny subnormal bound in
     round-trip-safe %.17g form and still validates. *)
  (match
     Obs.Metrics.check
       (Obs.Metrics.render_of ~counters:[] ~hists:[ ("z", [ (0, 1) ]) ])
   with
  | Ok () -> ()
  | Error m -> Alcotest.failf "bucket-0 histogram rejected: %s" m);
  (* The live registry renders valid text too. *)
  match Obs.Metrics.check (Obs.Metrics.render ()) with
  | Ok () -> ()
  | Error m -> Alcotest.failf "live render rejected: %s" m

let test_metrics_check_rejects () =
  let reject label text =
    match Obs.Metrics.check text with
    | Ok () -> Alcotest.failf "%s: accepted" label
    | Error _ -> ()
  in
  let good =
    Obs.Metrics.render_of ~counters:[ ("a", 1) ]
      ~hists:[ ("h", [ (65, 2) ]) ]
  in
  reject "missing EOF terminator"
    (String.sub good 0 (String.length good - 6));
  reject "truncated mid-line" (String.sub good 0 (String.length good - 8));
  let hdr =
    "# HELP cso_counter_total Monotonic lib/obs event counter.\n\
     # TYPE cso_counter_total counter\n"
  and hhdr =
    "# HELP cso_hist Log2-bucketed lib/obs per-event magnitude histogram.\n\
     # TYPE cso_hist histogram\n"
  in
  reject "cumulative count decreasing"
    (hdr ^ hhdr
    ^ "cso_hist_bucket{name=\"h\",le=\"2\"} 3\n\
       cso_hist_bucket{name=\"h\",le=\"+Inf\"} 2\n\
       cso_hist_count{name=\"h\"} 2\n# EOF\n");
  reject "+Inf bucket differs from count"
    (hdr ^ hhdr
    ^ "cso_hist_bucket{name=\"h\",le=\"+Inf\"} 2\n\
       cso_hist_count{name=\"h\"} 3\n# EOF\n");
  reject "le not ascending"
    (hdr ^ hhdr
    ^ "cso_hist_bucket{name=\"h\",le=\"8\"} 1\n\
       cso_hist_bucket{name=\"h\",le=\"2\"} 2\n\
       cso_hist_bucket{name=\"h\",le=\"+Inf\"} 2\n\
       cso_hist_count{name=\"h\"} 2\n# EOF\n");
  reject "missing +Inf bucket"
    (hdr ^ hhdr
    ^ "cso_hist_bucket{name=\"h\",le=\"2\"} 1\n\
       cso_hist_count{name=\"h\"} 1\n# EOF\n");
  reject "negative counter" (hdr ^ "cso_counter_total{name=\"a\"} -1\n"
    ^ hhdr ^ "# EOF\n");
  reject "extra label on a counter"
    (hdr ^ "cso_counter_total{name=\"a\",job=\"x\"} 1\n" ^ hhdr ^ "# EOF\n");
  (* Formatting drift: a value that parses identically but prints
     differently must fail the exact re-render. *)
  reject "formatting drift (leading zero)"
    (hdr ^ "cso_counter_total{name=\"a\"} 01\n" ^ hhdr ^ "# EOF\n")

(* --- budgets --- *)

let test_budget_fit () =
  let series expo = List.map (fun x -> (x, 3.0 *. (x ** expo))) [ 100.; 200.; 400.; 800. ] in
  Alcotest.(check (float 1e-9)) "planted exponent 1.5 recovered" 1.5
    (Obs.Budget.fit (series 1.5));
  Alcotest.(check (float 1e-9)) "planted exponent 0 recovered" 0.0
    (Obs.Budget.fit (series 0.0));
  Alcotest.(check (float 1e-9)) "planted exponent 1 recovered" 1.0
    (Obs.Budget.fit (series 1.0));
  Alcotest.check_raises "fewer than two positive points rejected"
    (Invalid_argument "Obs.Budget.fit: need at least two positive points")
    (fun () -> ignore (Obs.Budget.fit [ (100.0, 5.0) ]));
  Alcotest.check_raises "degenerate size range rejected"
    (Invalid_argument "Obs.Budget.fit: degenerate size range")
    (fun () -> ignore (Obs.Budget.fit [ (100.0, 5.0); (100.0, 9.0) ]))

let test_budget_check () =
  let b =
    {
      Obs.Budget.b_name = "props.budget.log";
      b_expected = 0.0;
      b_tolerance = 0.3;
      b_doc = "logarithmic per-query work";
    }
  in
  let sizes = [ 128.; 512.; 2048.; 8192.; 32768. ] in
  (* Genuinely logarithmic work passes an O(log n)-style budget... *)
  (match Obs.Budget.check b (List.map (fun x -> (x, log x)) sizes) with
  | Ok fitted ->
      Alcotest.(check bool) "log series fits below tolerance" true
        (Float.abs fitted < 0.3)
  | Error msg -> Alcotest.fail msg);
  (* ...and superlinear work hard-fails it, with the doc string in the
     message so the failure explains which bound broke. *)
  match Obs.Budget.check b (List.map (fun x -> (x, x ** 1.2)) sizes) with
  | Ok fitted -> Alcotest.fail (Printf.sprintf "superlinear passed: %g" fitted)
  | Error msg ->
      Alcotest.(check bool) "failure message carries the budget doc" true
        (contains "logarithmic per-query work" msg)

(* --- JSON escaping --- *)

let test_json_escape_roundtrip () =
  let nasty = "a\"b\\c\nd\te\rf\x01g" in
  let doc = "{\"k\": \"" ^ Obs.Json.escape nasty ^ "\"}" in
  (match Obs.Json.parse doc with
  | Obs.Json.Obj [ ("k", Obs.Json.Str s) ] ->
      Alcotest.(check string) "escape/parse round-trips" nasty s
  | _ -> Alcotest.fail "unexpected shape");
  Alcotest.(check string) "counters_json escapes names"
    "{\"a\\\"b\": 1}"
    (Obs.counters_json [ ("a\"b", 1) ]);
  Alcotest.check_raises "trailing garbage rejected"
    (Obs.Json.Parse_error "trailing garbage at offset 3") (fun () ->
      ignore (Obs.Json.parse "{} x"))

(* --- with_delta vs concurrent counter registration --- *)

let test_with_delta_concurrent_registration () =
  (* A domain spawned inside the measured window registers a counter the
     begin-snapshot has never seen; the delta must still count it from
     zero rather than raise or drop it. *)
  let (), deltas =
    Obs.with_delta (fun () ->
        Domain.join
          (Domain.spawn (fun () ->
               let c = Obs.counter "props.obs.spawned_mid_window" in
               Obs.incr c;
               Obs.incr c)))
  in
  Alcotest.(check int) "mid-window registration counted from zero" 2
    (delta_of deltas "props.obs.spawned_mid_window")

let suite =
  [
    QCheck_alcotest.to_alcotest prop_bbd_sandwich_general;
    QCheck_alcotest.to_alcotest prop_wspd_separation_and_coverage;
    QCheck_alcotest.to_alcotest prop_packed_kernels_bit_identical;
    QCheck_alcotest.to_alcotest prop_row_kernel_bit_identical;
    QCheck_alcotest.to_alcotest prop_simplex_flat_equals_reference;
    QCheck_alcotest.to_alcotest prop_simplex_mwu_agree;
    Alcotest.test_case "obs counter interning" `Quick test_obs_interning;
    Alcotest.test_case "obs add" `Quick test_obs_add;
    Alcotest.test_case "obs snapshot sorted, zeros included" `Quick
      test_obs_snapshot_sorted;
    Alcotest.test_case "obs with_delta" `Quick test_obs_with_delta;
    Alcotest.test_case "obs disabled counters freeze" `Quick test_obs_disabled;
    Alcotest.test_case "obs spans nest and survive exceptions" `Quick
      test_obs_spans;
    Alcotest.test_case "obs json output" `Quick test_obs_json;
    Alcotest.test_case "hist bucket scheme" `Quick test_hist_buckets;
    QCheck_alcotest.to_alcotest prop_hist_bucket_brackets;
    Alcotest.test_case "hist observe + with_delta" `Quick test_hist_observe;
    Alcotest.test_case "hist disabled is frozen" `Quick test_hist_disabled;
    Alcotest.test_case "hist quantile matches nearest-rank" `Quick
      test_hist_quantile;
    Alcotest.test_case "flight ring bounded + jsonl round-trip" `Quick
      test_flight_ring;
    Alcotest.test_case "metrics render: exact cumulative buckets" `Quick
      test_metrics_render;
    Alcotest.test_case "metrics check rejects malformed text" `Quick
      test_metrics_check_rejects;
    Alcotest.test_case "trace round-trip (jsonl + chrome)" `Quick
      test_trace_roundtrip;
    Alcotest.test_case "trace ring is bounded" `Quick test_trace_ring_bounded;
    Alcotest.test_case "trace phase table" `Quick test_trace_phases;
    Alcotest.test_case "budget fit recovers planted exponents" `Quick
      test_budget_fit;
    Alcotest.test_case "budget check passes log, fails superlinear" `Quick
      test_budget_check;
    Alcotest.test_case "json escaping round-trips" `Quick
      test_json_escape_roundtrip;
    Alcotest.test_case "with_delta vs concurrent registration" `Quick
      test_with_delta_concurrent_registration;
  ]
