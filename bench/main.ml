(* Benchmark harness driver.

   Usage:
     dune exec bench/main.exe               # run everything
     dune exec bench/main.exe -- table1     # only the Table-1 rows
     dune exec bench/main.exe -- scaling fig ablation micro
     dune exec bench/main.exe -- table1_rcro fig_epsilon_sweep  # by name
*)

let matches filters name =
  filters = []
  || List.exists
       (fun f -> f = name || String.length f < String.length name
                 && String.sub name 0 (String.length f) = f)
       filters

let () =
  let filters = List.tl (Array.to_list Sys.argv) in
  let with_micro = matches filters "micro" in
  Printf.printf
    "Clustering with Set Outliers (PODS 2025) -- benchmark harness\n";
  Printf.printf
    "Each experiment regenerates one artifact of the paper; see DESIGN.md \
     section 3 and EXPERIMENTS.md.\n";
  List.iter
    (fun (name, fn) ->
      if matches filters name then begin
        let (), t = Util.time fn in
        Printf.printf "[%s finished in %s]\n" name (Util.fmt_time t)
      end)
    Experiments.all;
  if with_micro || filters = [] then Micro.run ();
  if Util.(!t1_rows) <> [] then begin
    Util.print_t1_summary ();
    (* A violated Table 1 row fails the run. *)
    if List.exists (fun r -> not r.Util.ok) !Util.t1_rows then exit 1
  end
