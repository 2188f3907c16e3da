(* Entry point of the repository benchmark:

     main --workload <name> --seed <n> --seconds <s> --trace <0|1>

   Prints one JSON result line last on stdout. With --trace 0 it carries
   every end-to-end metric, with --trace 1 every per-layer metric. Exits
   non-zero without a result line when a run cannot be measured. *)

module Pool = Cso_parallel.Pool
module Obs = Cso_obs.Obs
open Perfbench

(* Ops per run: a fixed count for a given --seconds, never a time box.
   Each solve workload replays at least 100 ops, so that op_p90_ms has
   ten samples beyond it (92 ops is the least that does). *)
let min_ops = 100

let ops_for ~per_s ~seconds =
  max min_ops (int_of_float (Float.ceil (per_s *. float_of_int seconds)))

let program_spans =
  [ "gcso.solve"; "mwu.run"; "simplex.solve"; "cso.solve"; "rcto1.solve";
    "rcto.solve"; "rcro.solve" ]

(* Traced runs write their spans here, relative to the checkout root. *)
let out_dir = "perfbench/out"

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0
  and trace = ref (-1) in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat "|" Outcome.workloads);
      ("--seed", Arg.Set_int seed, " input seed (>= 0)");
      ("--seconds", Arg.Set_int seconds, " nominal measured seconds (>= 1)");
      ("--trace", Arg.Set_int trace, " 0 = end-to-end metrics, 1 = per-layer");
    ]
    (fun a -> fail "unexpected argument %S" a)
    "main --workload W --seed N --seconds S --trace 0|1";
  if not (List.mem !workload Outcome.workloads) then fail "unknown workload %S" !workload;
  if !seed < 0 then fail "--seed must be >= 0";
  if !seconds < 1 then fail "--seconds must be >= 1";
  if !trace <> 0 && !trace <> 1 then fail "--trace must be 0 or 1";
  let traced = !trace = 1 in
  let nproc = Domain.recommended_domain_count () in
  (* One pool domain for every workload. At two, serve_mixed keeps both
     vCPUs of a 2-vCPU host busy at once and its latencies followed the
     hypervisor's steal (README.md, "Noise"). *)
  let domains = 1 in
  Pool.set_default (Pool.create ~num_domains:domains ());
  Obs.set_enabled true;
  Obs.set_clock Clock.now;
  Obs.Trace.set_capacity (1 lsl 18);
  Spans.reset ~enabled:traced;
  let held_out_seed = !seed + 7919 in
  let events = ref [] in
  let steal0, total0 = Outcome.cpu_ticks () in
  let tally, setup_s, metrics, ops =
    try
      match !workload with
      | "gcso_solve" ->
          let ops = ops_for ~per_s:3.2 ~seconds:!seconds in
          let t, s, m = Gcso_wl.run ~seed:!seed ~ops ~trace:traced ~events_out:events in
          (t, s, m, ops)
      | "table1_sweep" ->
          let ops = ops_for ~per_s:2.5 ~seconds:!seconds in
          let t, s, m = Table1_wl.run ~seed:!seed ~ops ~trace:traced ~events_out:events in
          (t, s, m, ops)
      | _ ->
          let t, s, m = Serve_wl.run ~seed:!seed ~seconds:!seconds ~trace:traced ~events_out:events in
          (t, s, m, t.Outcome.attempted)
    with Stats.Too_few_samples msg -> fail "%s" msg
  in
  let steal1, total1 = Outcome.cpu_ticks () in
  Printf.eprintf
    "perfbench: workload=%s seed=%d held_out_seed=%d seconds=%d trace=%d \
     nproc=%d domains=%d ops=%d attempted=%d failed=%d steal_pct=%.2f\n%!"
    !workload !seed held_out_seed !seconds !trace nproc domains ops
    tally.Outcome.attempted tally.Outcome.failed
    (100.0 *. float_of_int (steal1 - steal0) /. float_of_int (max 1 (total1 - total0)));
  let metrics =
    if traced then metrics
    else
      Outcome.m "setup_s" "s" setup_s
      :: Outcome.m "peak_rss_mb" "MiB" (Outcome.peak_rss_mb ())
      :: metrics
  in
  let declared = if traced then Outcome.per_layer else Outcome.end_to_end in
  let find (name, unit_) =
    match List.find_opt (fun m -> m.Outcome.name = name) metrics with
    | Some m ->
        if m.Outcome.unit_ <> unit_ then fail "metric %s has unit %s, declared %s" name m.Outcome.unit_ unit_;
        m
    | None when traced -> Outcome.m name unit_ 0.0
    | None -> fail "workload %s did not measure %s" !workload name
  in
  let out = List.map find declared in
  if traced then begin
    (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
    let path = Filename.concat out_dir (Printf.sprintf "trace-%s-seed%d.jsonl" !workload !seed) in
    let oc = open_out path in
    Printf.fprintf oc
      "{\"workload\": \"%s\", \"seed\": %d, \"held_out_seed\": %d, \"nproc\": %d, \"domains\": %d, \"ops\": %d}\n"
      !workload !seed held_out_seed nproc domains ops;
    output_string oc (Spans.to_jsonl (Spans.all ()));
    (* The program's coarse spans only: the relational oracle spans
       number in the hundreds of thousands per run. *)
    let kept (e : Obs.Trace.event) = List.mem e.Obs.Trace.ev_name program_spans in
    output_string oc (Obs.Trace.to_jsonl (List.filter kept (List.rev !events)));
    output_string oc (Obs.Flight.to_jsonl (Obs.Flight.records ()));
    close_out oc;
    Printf.eprintf "perfbench: wrote %s\n%!" path
  end;
  let correct = tally.Outcome.failed = 0 in
  print_endline
    (Outcome.result_line ~correct ~attempted:tally.Outcome.attempted
       ~failed:tally.Outcome.failed out)
