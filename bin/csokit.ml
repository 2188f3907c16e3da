(* csokit: command-line front end for the clustering-with-set-outliers
   library.

     csokit gcso --points pts.csv --rects rects.csv -k 3 -z 2
     csokit cso  --points pts.csv --sets sets.txt   -k 3 -z 2 --algo lp
     csokit gen  --kind sensors --out /tmp/demo     -n 200

   CSV formats:
   - points: one point per line, comma-separated coordinates;
   - rects:  one rectangle per line, lo1,hi1,lo2,hi2,... ("-inf"/"inf"
     allowed);
   - sets:   one set per line, whitespace-separated 0-based point ids. *)

module Rect = Cso_geom.Rect
module Instance = Cso_core.Instance
module Geo_instance = Cso_core.Geo_instance
module Formats = Cso_io.Formats

let print_solution ?(json = false) ?(set_name = "set")
    (sol : Instance.solution) ~cost =
  if json then begin
    let ints l = String.concat "," (List.map string_of_int l) in
    Fmt.pr "{\"centers\":[%s],\"outliers\":[%s],\"cost\":%g}@."
      (ints sol.Instance.centers)
      (ints sol.Instance.outliers)
      cost
  end
  else begin
    Fmt.pr "centers: %a@." Fmt.(list ~sep:(any ", ") int) sol.Instance.centers;
    Fmt.pr "outlier %ss: %a@." set_name
      Fmt.(list ~sep:(any ", ") int)
      sol.Instance.outliers;
    Fmt.pr "clustering cost: %g@." cost
  end

(* --- gcso command --- *)

let guard f =
  try f () with
  | Invalid_argument msg | Failure msg -> `Error (false, msg)

let run_gcso json points_file rects_file k z algo eps rounds =
 guard @@ fun () ->
  let g = Formats.load_geo_instance ~points:points_file ~rects:rects_file ~k ~z in
  if not json then
    Fmt.pr "GCSO: n = %d points, m = %d rectangles, f = %d@."
      (Array.length g.Geo_instance.points)
      (Array.length g.Geo_instance.rects)
      (Geo_instance.frequency g);
  let sol =
    match algo with
    | `Mwu ->
        (Cso_core.Gcso_general.solve ~eps ?rounds g).Cso_core.Gcso_general.solution
    | `Coreset ->
        (Cso_core.Gcso_disjoint.solve ~eps ?rounds g).Cso_core.Gcso_disjoint.solution
    | `Lp ->
        (Cso_core.Cso_general.solve (Geo_instance.to_cso g))
          .Cso_core.Cso_general.solution
  in
  print_solution ~json ~set_name:"rectangle" sol ~cost:(Geo_instance.cost g sol);
  `Ok ()

(* --- cso command --- *)

let run_cso json points_file sets_file k z algo =
 guard @@ fun () ->
  let t = Formats.load_cso_instance ~points:points_file ~sets:sets_file ~k ~z in
  if not json then
    Fmt.pr "CSO: n = %d points, m = %d sets, f = %d@." (Instance.n_elements t)
      (Instance.n_sets t) (Instance.frequency t);
  let sol =
    match algo with
    | `Lp -> (Cso_core.Cso_general.solve t).Cso_core.Cso_general.solution
    | `Coreset -> (Cso_core.Cso_disjoint.solve t).Cso_core.Cso_disjoint.solution
    | `Exact -> (
        match Cso_core.Exact.solve t with
        | Some (sol, _) -> sol
        | None -> failwith "instance too large for --algo exact")
    | `Kmedian -> Cso_core.Kmedian.local_search t
    | `Kmeans -> Cso_core.Kmedian.local_search ~objective:Cso_core.Kmedian.Means t
  in
  print_solution ~json sol ~cost:(Instance.cost t sol);
  (match algo with
  | `Kmedian when not json ->
      Fmt.pr "k-median objective: %g@." (Cso_core.Kmedian.cost t sol)
  | `Kmeans when not json ->
      Fmt.pr "k-means objective: %g@."
        (Cso_core.Kmedian.cost ~objective:Cso_core.Kmedian.Means t sol)
  | `Kmedian | `Kmeans | `Lp | `Coreset | `Exact -> ());
  `Ok ()

(* --- relational command --- *)

let print_points label pts =
  Fmt.pr "%s:@." label;
  List.iter (fun p -> Fmt.pr "  %s@." (Cso_metric.Point.to_string p)) pts

let print_tuples label tups =
  Fmt.pr "%s:@." label;
  List.iter
    (fun (rel, tup) ->
      Fmt.pr "  relation %d: (%s)@." rel
        (String.concat ", "
           (Array.to_list (Array.map Formats.float_to_string tup))))
    tups

let json_relational centers tuples =
  let pt p =
    "[" ^ String.concat "," (Array.to_list (Array.map Formats.float_to_string p)) ^ "]"
  in
  Fmt.pr "{\"centers\":[%s],\"outlier_tuples\":[%s]}@."
    (String.concat "," (List.map pt centers))
    (String.concat ","
       (List.map
          (fun (rel, tup) -> Printf.sprintf "{\"rel\":%d,\"tuple\":%s}" rel (pt tup))
          tuples))

let run_relational json schema files k z algo dirty iters =
 guard @@ fun () ->
  let inst, tree = Cso_io.Relational_io.load ~schema ~files in
  if not json then
    Fmt.pr "relational: %s, N = %d, |Q(I)| = %d@." schema
      (Cso_relational.Instance.size inst)
      (Cso_relational.Yannakakis.count inst tree);
  (match algo with
  | `Rcto1 ->
      let r = Cso_core.Rcto1.solve ~dirty_rel:dirty inst tree ~k ~z in
      let tuples = List.map (fun t -> (dirty, t)) r.Cso_core.Rcto1.outlier_tuples in
      if json then json_relational r.Cso_core.Rcto1.centers tuples
      else begin
        print_points "centers (join results)" r.Cso_core.Rcto1.centers;
        print_tuples "outlier tuples" tuples;
        Fmt.pr "certified cost upper bound: %g@." r.Cso_core.Rcto1.cost_upper
      end
  | `Rcto -> (
      match Cso_core.Rcto.solve ?iters inst tree ~k ~z with
      | None -> failwith "rcto: no valid random partition found; raise --iters"
      | Some r ->
          if json then
            json_relational r.Cso_core.Rcto.centers r.Cso_core.Rcto.outlier_tuples
          else begin
            print_points "centers (join results)" r.Cso_core.Rcto.centers;
            print_tuples "outlier tuples" r.Cso_core.Rcto.outlier_tuples;
            Fmt.pr "valid iterations: %d / %d@." r.Cso_core.Rcto.successes
              r.Cso_core.Rcto.iterations
          end)
  | `Rcro ->
      let r = Cso_core.Rcro.solve inst tree ~k ~z in
      if json then json_relational r.Cso_core.Rcro.centers []
      else begin
        print_points "centers (join results)" r.Cso_core.Rcro.centers;
        Fmt.pr
          "join results farther than %g from every center are the outliers \
           (|Q(I)| = %d, sampled %d)@."
          r.Cso_core.Rcro.threshold r.Cso_core.Rcro.join_size
          r.Cso_core.Rcro.sample_size
      end);
  `Ok ()

(* --- gen command --- *)

let wrote path = Fmt.pr "wrote %s@." path

let run_gen kind out n k z seed =
  let rng = Random.State.make [| seed |] in
  (match kind with
  | `Sensors ->
      let w = Cso_workload.Planted.gcso_disjoint rng ~n ~m:(4 * z) ~k ~z in
      let g = w.Cso_workload.Planted.geo in
      Formats.write_points (out ^ ".points.csv") g.Geo_instance.points;
      wrote (out ^ ".points.csv");
      Formats.write_rects (out ^ ".rects.csv") g.Geo_instance.rects;
      wrote (out ^ ".rects.csv");
      Fmt.pr "planted optimum <= %g; faulty sensors: %a@."
        w.Cso_workload.Planted.g_opt_upper
        Fmt.(list ~sep:(any ", ") int)
        w.Cso_workload.Planted.g_bad_sets
  | `Fraud ->
      let w = Cso_workload.Planted.gcso_overlapping rng ~n ~k ~z in
      let g = w.Cso_workload.Planted.geo in
      Formats.write_points (out ^ ".points.csv") g.Geo_instance.points;
      wrote (out ^ ".points.csv");
      Formats.write_rects (out ^ ".rects.csv") g.Geo_instance.rects;
      wrote (out ^ ".rects.csv");
      Fmt.pr "planted optimum <= %g@." w.Cso_workload.Planted.g_opt_upper
  | `Relational ->
      let w =
        Cso_workload.Relational_gen.rcto1 rng ~n1:n ~n2:(max 4 (n / 3)) ~k ~z
      in
      let files = [ out ^ ".r1.csv"; out ^ ".r2.csv" ] in
      Cso_io.Relational_io.save w.Cso_workload.Relational_gen.instance ~files;
      List.iter wrote files;
      Fmt.pr "schema: %s@."
        (Cso_io.Relational_io.schema_to_spec
           w.Cso_workload.Relational_gen.instance.Cso_relational.Instance.schema);
      Fmt.pr "planted optimum <= %g; %d bad tuples in R1@."
        w.Cso_workload.Relational_gen.opt_upper
        (List.length w.Cso_workload.Relational_gen.bad_tuples)
  | `Cso ->
      let w = Cso_workload.Planted.cso rng ~n ~m:(4 * max 1 z) ~k ~z in
      let t = w.Cso_workload.Planted.instance in
      Formats.write_points (out ^ ".points.csv")
        w.Cso_workload.Planted.points;
      wrote (out ^ ".points.csv");
      Formats.write_sets (out ^ ".sets.txt")
        (Array.to_list t.Instance.sets);
      wrote (out ^ ".sets.txt");
      Fmt.pr "planted optimum <= %g; bad sets: %a@."
        w.Cso_workload.Planted.opt_upper
        Fmt.(list ~sep:(any ", ") int)
        w.Cso_workload.Planted.bad_sets);
  `Ok ()

(* --- trace command --- *)

module Obs = Cso_obs.Obs

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

let trace_workload kind n k z seed =
  let rng = Random.State.make [| seed |] in
  match kind with
  | `Gcso ->
      let w = Cso_workload.Planted.gcso_overlapping rng ~n ~k ~z in
      (* Capped rounds: the trace is about phase structure, not LP
         accuracy, and the honest default (post eps-split) is ~25x. *)
      ignore (Cso_core.Gcso_general.solve ~rounds:60 w.Cso_workload.Planted.geo)
  | `Cso ->
      let w = Cso_workload.Planted.cso rng ~n ~m:(4 * max 1 z) ~k ~z in
      ignore (Cso_core.Cso_general.solve w.Cso_workload.Planted.instance)
  | `Coreset ->
      (* Both coreset rows, on disjoint sets and disjoint rectangles. *)
      let m = 4 * max 1 z in
      let w = Cso_workload.Planted.cso rng ~n ~m ~k ~z in
      ignore (Cso_core.Cso_disjoint.solve w.Cso_workload.Planted.instance);
      let w = Cso_workload.Planted.gcso_disjoint rng ~n ~m ~k ~z in
      ignore (Cso_core.Gcso_disjoint.solve ~rounds:60 w.Cso_workload.Planted.geo)
  | `Relational ->
      let w =
        Cso_workload.Relational_gen.rcto1 rng ~n1:n ~n2:(max 4 (n / 3)) ~k ~z
      in
      let inst = w.Cso_workload.Relational_gen.instance in
      let tree =
        Cso_relational.Join_tree.build_exn inst.Cso_relational.Instance.schema
      in
      ignore (Cso_core.Rcto1.solve inst tree ~k ~z)

let print_phase_table events =
  let phases = Obs.Trace.phases events in
  let top_deltas deltas =
    let sorted =
      List.sort (fun (_, a) (_, b) -> Int.compare b a) deltas
    in
    let rec take k = function
      | x :: tl when k > 0 -> x :: take (k - 1) tl
      | _ -> []
    in
    String.concat " "
      (List.map (fun (n, v) -> Printf.sprintf "%s=+%d" n v) (take 3 sorted))
  in
  Fmt.pr "%-40s %8s %12s %12s  %s@." "phase" "calls" "total(s)" "self(s)"
    "top counter deltas";
  List.iter
    (fun p ->
      Fmt.pr "%-40s %8d %12.6f %12.6f  %s@." p.Obs.Trace.ph_path
        p.Obs.Trace.ph_calls p.Obs.Trace.ph_total p.Obs.Trace.ph_self
        (top_deltas p.Obs.Trace.ph_deltas))
    phases

let run_trace in_file kind n k z seed jsonl_out chrome_out required =
 guard @@ fun () ->
  let events =
    match in_file with
    | Some f -> Obs.Trace.parse_jsonl (read_file f)
    | None ->
        Obs.set_enabled true;
        Obs.Trace.clear ();
        Obs.Trace.set_enabled true;
        Fun.protect
          ~finally:(fun () -> Obs.Trace.set_enabled false)
          (fun () -> trace_workload kind n k z seed);
        Obs.Trace.events ()
  in
  Fmt.pr "%d trace events (%d dropped)@." (List.length events)
    (Obs.Trace.dropped ());
  print_phase_table events;
  (match jsonl_out with
  | None -> ()
  | Some path ->
      write_file path (Obs.Trace.to_jsonl events);
      Fmt.pr "wrote %s (%d events)@." path (List.length events));
  (match chrome_out with
  | None -> ()
  | Some path ->
      let chrome = Obs.Trace.to_chrome events in
      (* Round-trip through the parser so a malformed export fails here
         instead of inside Perfetto. *)
      (match Obs.Json.member "traceEvents" (Obs.Json.parse chrome) with
      | Some (Obs.Json.Arr evs) when List.length evs = List.length events -> ()
      | _ -> failwith "chrome export: traceEvents array mismatch");
      write_file path chrome;
      Fmt.pr "wrote %s (well-formed Chrome trace JSON)@." path);
  (match
     List.filter
       (fun name ->
         not (List.exists (fun e -> e.Obs.Trace.ev_name = name) events))
       required
   with
  | [] -> ()
  | missing ->
      failwith ("trace has no span named " ^ String.concat ", " missing));
  `Ok ()

(* --- budgets command --- *)

let all_budgets () =
  Cso_geom.Bbd_tree.budgets @ Cso_kcenter.Gonzalez.budgets
  @ Cso_lp.Mwu.budgets

let run_budgets series_file =
 guard @@ fun () ->
  let module J = Obs.Json in
  let req key row =
    match J.member key row with
    | Some v -> v
    | None -> failwith (series_file ^ ": budget row missing \"" ^ key ^ "\"")
  in
  let doc = J.parse (read_file series_file) in
  let rows =
    match J.member "budgets" doc with
    | Some (J.Arr rows) -> rows
    | _ -> failwith (series_file ^ ": no \"budgets\" array")
  in
  let declared = all_budgets () in
  let failures = ref 0 and checked = ref 0 in
  List.iter
    (fun row ->
      let name = J.str (req "name" row) in
      let points =
        List.map
          (fun p ->
            match J.arr p with
            | [ x; y ] -> (J.num x, J.num y)
            | _ -> failwith (series_file ^ ": bad point in " ^ name))
          (J.arr (req "points" row))
      in
      match
        List.find_opt (fun b -> b.Obs.Budget.b_name = name) declared
      with
      | None -> Fmt.pr "%-36s SKIP no declared budget@." name
      | Some b -> (
          incr checked;
          match Obs.Budget.check b points with
          | Ok fitted ->
              Fmt.pr "%-36s OK   fitted %.3f within %.2f +/- %.2f@." name
                fitted b.Obs.Budget.b_expected b.Obs.Budget.b_tolerance
          | Error msg ->
              incr failures;
              Fmt.pr "%-36s FAIL %s@." name msg))
    rows;
  if !checked = 0 then failwith (series_file ^ ": no checkable budget series");
  if !failures > 0 then
    failwith (Printf.sprintf "%d budget(s) violated" !failures)
  else begin
    Fmt.pr "all %d checked budgets within tolerance@." !checked;
    `Ok ()
  end

(* --- cmdliner wiring --- *)

let setup_logs verbose =
  Logs.set_reporter (Logs_fmt.reporter ());
  if verbose then Logs.Src.set_level Cso_core.Log.src (Some Logs.Debug)

open Cmdliner

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print solver progress.")

let json_arg =
  Arg.(value & flag & info [ "json" ] ~doc:"Machine-readable output.")

let points_arg =
  Arg.(
    required
    & opt (some non_dir_file) None
    & info [ "points" ] ~docv:"FILE" ~doc:"CSV of points, one per line.")

let k_arg =
  Arg.(required & opt (some int) None & info [ "k" ] ~docv:"K" ~doc:"Centers.")

let z_arg =
  Arg.(
    required & opt (some int) None & info [ "z" ] ~docv:"Z" ~doc:"Outlier sets.")

let eps_arg =
  Arg.(value & opt float 0.3 & info [ "eps" ] ~doc:"MWU approximation slack.")

let rounds_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "rounds" ] ~doc:"Cap on MWU iterations per radius guess.")

let gcso_cmd =
  let rects_arg =
    Arg.(
      required
      & opt (some non_dir_file) None
      & info [ "rects" ] ~docv:"FILE" ~doc:"CSV of rectangles.")
  in
  let algo_arg =
    Arg.(
      value
      & opt (enum [ ("mwu", `Mwu); ("coreset", `Coreset); ("lp", `Lp) ]) `Mwu
      & info [ "algo" ] ~doc:"mwu (Sec 3.2), coreset (Sec 3.3, f=1), lp (Sec 2.2).")
  in
  Cmd.v
    (Cmd.info "gcso" ~doc:"Geometric clustering with rectangle outliers")
    Term.(
      ret
        (const (fun v j a b c d e f g ->
             setup_logs v;
             run_gcso j a b c d e f g)
        $ verbose_arg $ json_arg $ points_arg $ rects_arg $ k_arg $ z_arg
        $ algo_arg $ eps_arg $ rounds_arg))

let cso_cmd =
  let sets_arg =
    Arg.(
      required
      & opt (some non_dir_file) None
      & info [ "sets" ] ~docv:"FILE" ~doc:"Outlier sets, point ids per line.")
  in
  let algo_arg =
    Arg.(
      value
      & opt
          (enum
             [ ("lp", `Lp); ("coreset", `Coreset); ("exact", `Exact);
               ("kmedian", `Kmedian); ("kmeans", `Kmeans) ])
          `Lp
      & info [ "algo" ]
          ~doc:
            "lp (Sec 2.2), coreset (Sec 2.3, f=1), exact, or the kmedian / \
             kmeans extension heuristics.")
  in
  Cmd.v
    (Cmd.info "cso" ~doc:"General-metric clustering with set outliers")
    Term.(
      ret
        (const (fun v j a b c d e ->
             setup_logs v;
             run_cso j a b c d e)
        $ verbose_arg $ json_arg $ points_arg $ sets_arg $ k_arg $ z_arg
        $ algo_arg))

let gen_cmd =
  let kind_arg =
    Arg.(
      value
      & opt
          (enum
             [ ("sensors", `Sensors); ("fraud", `Fraud); ("cso", `Cso);
               ("relational", `Relational) ])
          `Sensors
      & info [ "kind" ] ~doc:"Workload family.")
  in
  let out_arg =
    Arg.(
      value & opt string "cso-demo" & info [ "out" ] ~docv:"PREFIX" ~doc:"Output prefix.")
  in
  let n_arg = Arg.(value & opt int 200 & info [ "n" ] ~doc:"Points.") in
  let k_arg = Arg.(value & opt int 3 & info [ "k" ] ~doc:"Clusters.") in
  let z_arg = Arg.(value & opt int 2 & info [ "z" ] ~doc:"Outlier sets.") in
  let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"RNG seed.") in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate planted demo workloads as CSV")
    Term.(
      ret (const run_gen $ kind_arg $ out_arg $ n_arg $ k_arg $ z_arg $ seed_arg))

let relational_cmd =
  let schema_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "schema" ] ~docv:"SPEC"
          ~doc:"Schema spec, e.g. 'R1(A,B);R2(B,C)'.")
  in
  let rel_arg =
    Arg.(
      non_empty & opt_all non_dir_file []
      & info [ "rel" ] ~docv:"FILE"
          ~doc:"Relation CSV, one per relation, in schema order.")
  in
  let algo_arg =
    Arg.(
      value
      & opt (enum [ ("rcto1", `Rcto1); ("rcto", `Rcto); ("rcro", `Rcro) ]) `Rcto1
      & info [ "algo" ]
          ~doc:
            "rcto1 (tuple outliers from one relation, Sec 4.1.1), rcto (any \
             relation, Sec 4.1.2), rcro (result outliers, App E).")
  in
  let dirty_arg =
    Arg.(
      value & opt int 0
      & info [ "dirty" ] ~doc:"Dirty relation index for rcto1 (default 0).")
  in
  let iters_arg =
    Arg.(
      value & opt (some int) None
      & info [ "iters" ] ~doc:"Random partitions for rcto.")
  in
  Cmd.v
    (Cmd.info "relational"
       ~doc:"Relational k-center clustering with tuple/result outliers")
    Term.(
      ret
        (const (fun v j a b c d e f g ->
             setup_logs v;
             run_relational j a b c d e f g)
        $ verbose_arg $ json_arg $ schema_arg $ rel_arg $ k_arg $ z_arg
        $ algo_arg $ dirty_arg $ iters_arg))

let trace_cmd =
  let in_arg =
    Arg.(
      value
      & opt (some non_dir_file) None
      & info [ "in" ] ~docv:"FILE"
          ~doc:"Read an existing JSONL trace instead of running a workload.")
  in
  let run_arg =
    Arg.(
      value
      & opt
          (enum
             [
               ("gcso", `Gcso);
               ("cso", `Cso);
               ("coreset", `Coreset);
               ("relational", `Relational);
             ])
          `Gcso
      & info [ "run" ] ~doc:"Planted workload to run with tracing enabled.")
  in
  let n_arg = Arg.(value & opt int 80 & info [ "n" ] ~doc:"Points.") in
  let k_arg = Arg.(value & opt int 3 & info [ "k" ] ~doc:"Centers.") in
  let z_arg = Arg.(value & opt int 2 & info [ "z" ] ~doc:"Outlier sets.") in
  let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"RNG seed.") in
  let jsonl_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "jsonl" ] ~docv:"FILE" ~doc:"Write the trace as JSONL.")
  in
  let chrome_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "chrome" ] ~docv:"FILE"
          ~doc:
            "Write a Chrome trace-event JSON file (load in chrome://tracing \
             or Perfetto).")
  in
  let require_arg =
    Arg.(
      value & opt_all string []
      & info [ "require-span" ] ~docv:"NAME"
          ~doc:
            "Fail unless the trace holds a span with this leaf name \
             (repeatable).")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run a workload with structured tracing (or read a JSONL trace) and \
          print a phase table")
    Term.(
      ret
        (const (fun v i r n k z s jl ch req ->
             setup_logs v;
             run_trace i r n k z s jl ch req)
        $ verbose_arg $ in_arg $ run_arg $ n_arg $ k_arg $ z_arg $ seed_arg
        $ jsonl_arg $ chrome_arg $ require_arg))

(* --- fuzz command --- *)

module Fuzz = Cso_refcheck.Fuzz

let run_fuzz list_only seed cases filter =
 guard @@ fun () ->
  if list_only then begin
    List.iter (fun n -> Fmt.pr "%s@." n) Cso_refcheck.Checks.names;
    `Ok ()
  end
  else begin
    let t0 = Unix.gettimeofday () in
    let reports = Fuzz.run ?filter ~seed ~cases Cso_refcheck.Checks.all in
    if reports = [] then
      `Error
        ( false,
          Printf.sprintf "no check matches filter %S (try: csokit fuzz --list)"
            (Option.value filter ~default:"") )
    else begin
      List.iter (fun r -> Fmt.pr "@[<v>%a@]@." Fuzz.pp_report r) reports;
      let failures =
        List.fold_left
          (fun acc r -> acc + List.length r.Fuzz.r_failures)
          0 reports
      in
      Fmt.pr "fuzz: %d checks x %d cases, %d failure(s), seed %d, %.1f s@."
        (List.length reports) cases failures seed
        (Unix.gettimeofday () -. t0);
      if Fuzz.failed reports then exit 1;
      `Ok ()
    end
  end

let fuzz_cmd =
  let list_arg =
    Arg.(
      value & flag
      & info [ "list" ] ~doc:"List the registered check names and exit.")
  in
  let seed_arg =
    Arg.(
      value & opt int 20250807
      & info [ "seed" ] ~docv:"N"
          ~doc:
            "Master RNG seed. Case $(i,i) of a check always runs on the state \
             derived from (seed, i, check name), so a reported failure \
             replays with the same seed regardless of which other checks \
             run.")
  in
  let cases_arg =
    Arg.(
      value & opt int 200
      & info [ "cases" ] ~docv:"N" ~doc:"Random instances per check.")
  in
  let check_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "check" ] ~docv:"SUBSTR"
          ~doc:"Only run checks whose name contains $(docv).")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differentially fuzz the optimized substrates against naive \
          reference oracles and metamorphic invariants (lib/refcheck); \
          exits 1 and prints minimized counterexamples on divergence")
    Term.(
      ret (const run_fuzz $ list_arg $ seed_arg $ cases_arg $ check_arg))

let budgets_cmd =
  let series_arg =
    Arg.(
      value
      & opt non_dir_file "BENCH_budgets_baseline.json"
      & info [ "series" ] ~docv:"FILE"
          ~doc:
            "Budget series file (BENCH_budgets.json format) to check against \
             the declared complexity budgets.")
  in
  Cmd.v
    (Cmd.info "budgets"
       ~doc:"Check a counter-vs-n series file against declared complexity \
             budgets")
    Term.(ret (const run_budgets $ series_arg))

let main =
  Cmd.group
    (Cmd.info "csokit" ~version:"1.0.0"
       ~doc:"Clustering with set outliers (PODS 2025) toolkit")
    [ gcso_cmd; cso_cmd; relational_cmd; gen_cmd; trace_cmd; budgets_cmd; fuzz_cmd ]

let () = exit (Cmd.eval main)
