(* What the workloads share: metrics, the op tally, the result line,
   GC and counter readings, and the metric lists every run prints. *)

module Obs = Cso_obs.Obs

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }

(* Ops attempted and failed. An op fails at most once, however many of
   its checks or frames go wrong. *)
type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }

let record t ok =
  t.attempted <- t.attempted + 1;
  if not ok then t.failed <- t.failed + 1

let attempt f = try Ok (f ()) with e -> Error e

(* Percent by which traced times exceed the untraced times of the same
   ops, compared by median: trace.overhead_pct. *)
let overhead_pct ~untraced ~traced =
  100.0 *. ((Stats.median traced /. Stats.median untraced) -. 1.0)

(* Sums the durations of the program's own spans named [name] among the
   trace events of one op. *)
let program_span_s events name =
  List.fold_left
    (fun acc (e : Obs.Trace.event) ->
      if e.Obs.Trace.ev_name = name then acc +. (e.Obs.Trace.ev_t1 -. e.Obs.Trace.ev_t0)
      else acc)
    0.0 events

(* Intervals of the program's spans that time one layer's own work: the
   LP solvers and the relational oracles. The solvers' entry spans
   ([gcso.solve], [cso.solve], ...) cover a whole call and attribute
   none of it. *)
let layer_span_names =
  [ "mwu.run"; "simplex.solve"; "oracle.outside_witness"; "oracle.farthest_linf" ]

let layer_spans events =
  List.filter_map
    (fun (e : Obs.Trace.event) ->
      if List.mem e.Obs.Trace.ev_name layer_span_names then
        Some (e.Obs.Trace.ev_t0, e.Obs.Trace.ev_t1)
      else None)
    events

(* A failed op misses any latency limit: its latency sorts above every
   measured one. *)
let latency_or_miss ok dt = if ok then dt else infinity

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else "1.7976931348623157e308"

let result_line ~correct ~attempted ~failed metrics =
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.name
              (json_number m.value) m.unit_)
          metrics))

(* GC work of the op calls, from the runtime's own statistics:
   [gc_track] accumulates what each call it wraps allocated and
   collected. *)
type gc_acc = { mutable minor_words : float; mutable major_collections : int }

let gc_acc () = { minor_words = 0.0; major_collections = 0 }

let gc_track acc f =
  let a = Gc.quick_stat () in
  let r = f () in
  let b = Gc.quick_stat () in
  acc.minor_words <- acc.minor_words +. (b.Gc.minor_words -. a.Gc.minor_words);
  acc.major_collections <-
    acc.major_collections + (b.Gc.major_collections - a.Gc.major_collections);
  r

let gc_metrics ~ops acc =
  [
    m "gc.minor_mwords" "Mword/op" (acc.minor_words /. 1e6 /. float_of_int (max 1 ops));
    m "gc.major_collections" "count" (float_of_int acc.major_collections);
  ]

(* Counter deltas of lib/obs between two snapshots. *)
let counter_delta before after name =
  let get l = Option.value ~default:0 (List.assoc_opt name l) in
  get after - get before

(* CPU time the hypervisor took from this machine (steal) and the total
   CPU time, in clock ticks since boot, from the first line of
   /proc/stat. Recorded with each run: host drift shows up here. *)
let cpu_ticks () =
  try
    let ic = open_in "/proc/stat" in
    let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
    let fields =
      List.filter_map int_of_string_opt (String.split_on_char ' ' line)
    in
    (List.nth fields 7, List.fold_left ( + ) 0 fields)
  with _ -> (0, 0)

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec go () =
    match input_line ic with
    | line ->
        if String.starts_with ~prefix:"VmHWM:" line then
          Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        else go ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

let sum_counter deltas pred =
  List.fold_left (fun acc (k, v) -> if pred k then acc + v else acc) 0 deltas

(* Per-op work counts of the layers, from the lib/obs counter deltas of
   the op calls alone (standalone layer calls excluded). *)
let counter_layers ~ops deltas =
  let total name = float_of_int (sum_counter deltas (String.equal name)) in
  let per_op name = total name /. float_of_int (max 1 ops) in
  let queries = total "geom.bbd.ball_queries" in
  [
    m "metric.dist_evals" "count/op" (per_op "metric.dist_evals");
    m "metric.space_probes" "count/op" (per_op "metric.space_probes");
    m "geom.wspd_pairs" "count/op" (per_op "geom.wspd.pairs");
    m "geom.bbd_nodes_per_query" "count"
      (if queries > 0.0 then total "geom.bbd.nodes_visited" /. queries else 0.0);
    m "geom.rtree_nodes_visited" "count/op" (per_op "geom.rtree.nodes_visited");
    m "lp.mwu_rounds" "count/op" (per_op "lp.mwu.rounds");
    m "lp.simplex_pivots" "count/op" (per_op "lp.simplex.pivots");
    m "cso.gcso_guesses" "count/op" (per_op "cso.gcso.guesses");
    m "relational.oracle_calls" "count/op"
      (float_of_int (sum_counter deltas (String.starts_with ~prefix:"relational.oracle."))
      /. float_of_int (max 1 ops));
    m "kcenter.gonzalez_rounds" "count/op" (per_op "kcenter.gonzalez.rounds");
  ]

(* Runs [f] [n] times and returns the median of its probe-scaled
   durations ({!Host.time}) with the last result, handing each earlier
   result to [discard]: set-up is repeated so that [setup_s] is a median
   too. *)
let repeat_setup ?(discard = ignore) n f =
  let meter = Host.meter () in
  let times = ref [] and last = ref None in
  for _ = 1 to n do
    Option.iter discard !last;
    let r, dt = Host.time meter f in
    times := dt :: !times;
    last := Some r
  done;
  Printf.eprintf "perfbench: set-up %s\n%!" (Host.summary meter);
  (Stats.median !times, Option.get !last)

(* Every run reports every end-to-end metric. A solve workload has one
   op class, so the serve workload's class metrics report that class:
   each class p50 is the op p50, and each class tail (p99) is the op
   p90, the highest rank that keeps ten samples beyond it at 100 ops. *)
let single_class ~p50_ms ~tail_ms =
  [
    m "read_p50_ms" "ms" p50_ms; m "read_p99_ms" "ms" tail_ms;
    m "write_p50_ms" "ms" p50_ms; m "write_p99_ms" "ms" tail_ms;
    m "bulk_p50_ms" "ms" p50_ms; m "resolve_p50_ms" "ms" p50_ms;
  ]

(* End-to-end metrics of a solve workload: op latencies (a failed op's
   is infinite) and the quality ratios of the row solves that passed,
   one list per Table-1 row the workload runs. [centers_ratio] is the
   mean mu1 over all of them. [cost_ratio] is the mean over rows of each
   row's median mu3: RCTO at 100 iterations keeps junk on a few percent
   of its ops (mu3 near 40), and the count of those varies by seed, so a
   plain mean would measure that count rather than the typical cost. *)
let solve_metrics ~lat ~(rows : (float list * float list) list) =
  let mu1s = List.concat_map fst rows in
  let row_medians =
    List.filter_map (fun (_, mu3s) -> if mu3s = [] then None else Some (Stats.median mu3s)) rows
  in
  let p50 = Stats.percentile ~what:"op latency" lat 50.0 in
  let p90 = Stats.percentile ~what:"op latency" lat 90.0 in
  let passed = List.filter Float.is_finite lat in
  [
    m "ops_per_s" "1/s" (float_of_int (List.length passed) /. Stats.sum passed);
    m "op_p50_ms" "ms" (p50 *. 1e3);
    m "op_p90_ms" "ms" (p90 *. 1e3);
    m "centers_ratio" "ratio" (Stats.mean mu1s);
    m "cost_ratio" "ratio" (Stats.mean row_medians);
  ]
  @ single_class ~p50_ms:(p50 *. 1e3) ~tail_ms:(p90 *. 1e3)

(* The metrics every run prints, in order, with their units: the
   end-to-end ones untraced, the per-layer ones traced. BENCHMARK.json
   declares the same lists. *)
let end_to_end =
  [
    ("setup_s", "s"); ("peak_rss_mb", "MiB"); ("ops_per_s", "1/s");
    ("op_p50_ms", "ms"); ("op_p90_ms", "ms"); ("centers_ratio", "ratio");
    ("cost_ratio", "ratio"); ("read_p50_ms", "ms"); ("read_p99_ms", "ms");
    ("write_p50_ms", "ms"); ("write_p99_ms", "ms"); ("bulk_p50_ms", "ms");
    ("resolve_p50_ms", "ms");
  ]

let per_layer =
  [
    ("cso.gcso_solve_ms", "ms"); ("cso.gcso_prepare_ms", "ms");
    ("geom.wspd_lattice_ms", "ms"); ("lp.mwu_ms", "ms");
    ("cso.gcso_other_ms", "ms"); ("cso.gcso_guesses", "count/op");
    ("lp.mwu_rounds", "count/op"); ("geom.wspd_pairs", "count/op");
    ("geom.bbd_nodes_per_query", "count");
    ("geom.rtree_nodes_visited", "count/op");
    ("metric.dist_evals", "count/op"); ("cso.lp_row_ms", "ms");
    ("cso.coreset_row_ms", "ms"); ("cso.gcso_coreset_row_ms", "ms");
    ("cso.rcto1_row_ms", "ms"); ("cso.rcto_row_ms", "ms");
    ("cso.rcro_row_ms", "ms"); ("lp.simplex_ms", "ms");
    ("lp.simplex_pivots", "count/op"); ("relational.oracle_calls", "count/op");
    ("cso.rcto_success_ratio", "ratio"); ("cso.rcto_junk_share", "ratio");
    ("kcenter.gonzalez_rounds", "count/op");
    ("metric.space_probes", "count/op"); ("serve.queue_ms_p50", "ms");
    ("serve.exec_ms_read_p50", "ms"); ("serve.codec_us_read_p50", "us");
    ("serve.queue_ms_p99", "ms"); ("serve.flush_ms_p99", "ms");
    ("serve.exec_ms_write_p99", "ms");
    ("geom.dynamic_points_rebuilt_per_write", "count");
    ("serve.gen_late_ms_p99", "ms"); ("serve.exec_ms_bulk_p50", "ms");
    ("serve.encode_ms_bulk_p50", "ms"); ("serve.bytes_out_per_reply", "B");
    ("serve.exec_ms_resolve_p50", "ms"); ("cso.inc_re_solves", "count");
    ("cso.inc_guesses_per_resolve", "count");
    ("cso.inc_cache_hit_ratio", "ratio"); ("serve.refused", "count");
    ("gc.minor_mwords", "Mword/op"); ("gc.major_collections", "count");
    ("trace.overhead_pct", "%"); ("trace.unattributed_pct", "%");
  ]

let workloads = [ "gcso_solve"; "table1_sweep"; "serve_mixed" ]
