(* Shared helpers for the benchmark harness: wall-clock timing and plain
   fixed-width table rendering. *)

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let fmt_time s =
  if s < 1e-3 then Printf.sprintf "%.0fus" (s *. 1e6)
  else if s < 1.0 then Printf.sprintf "%.1fms" (s *. 1e3)
  else Printf.sprintf "%.2fs" s

(* Nearest-rank percentile over an already-sorted sample array — the
   same rank convention as [Obs.Hist.quantile] ([rank = q * (n-1)]), so
   exact-sample and histogram-estimated quantiles are comparable. *)
let percentile_sorted sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(int_of_float (p /. 100.0 *. float_of_int (n - 1)))

let print_table ~title headers rows =
  let headers = Array.of_list headers in
  let rows = List.map Array.of_list rows in
  let ncols = Array.length headers in
  let width = Array.map String.length headers in
  List.iter
    (fun row ->
      Array.iteri
        (fun i cell -> if i < ncols then width.(i) <- max width.(i) (String.length cell))
        row)
    rows;
  let pad i s = s ^ String.make (width.(i) - String.length s) ' ' in
  let line c =
    String.concat "-+-" (Array.to_list (Array.mapi (fun i _ -> String.make width.(i) c) headers))
  in
  Printf.printf "\n== %s ==\n" title;
  Printf.printf "%s\n" (String.concat " | " (Array.to_list (Array.mapi pad headers)));
  Printf.printf "%s\n" (line '-');
  List.iter
    (fun row ->
      Printf.printf "%s\n"
        (String.concat " | " (Array.to_list (Array.mapi pad row))))
    rows;
  flush stdout

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc;
  Printf.printf "[wrote %s]\n" path

(* Accumulated Table-1 reproduction: one row per paper row, printed at
   the end of the run. *)
type t1_row = {
  problem : string;
  guarantee : string; (* the paper's (mu1, mu2, mu3) *)
  measured : string; (* our measured (mu1, mu2, mu3) *)
  time : string;
  ok : bool; (* every run passed the row's verdict *)
}

let t1_rows : t1_row list ref = ref []

let record_t1 ~problem ~guarantee ~measured ~time ~ok =
  t1_rows := { problem; guarantee; measured; time; ok } :: !t1_rows

let print_t1_summary () =
  print_table ~title:"TABLE 1 (paper) -- empirical reproduction"
    [ "Problem"; "Guarantee (mu1,mu2,mu3)"; "Measured"; "Time"; "Verdict" ]
    (List.rev_map
       (fun r ->
         [
           r.problem;
           r.guarantee;
           r.measured;
           r.time;
           (if r.ok then "within bounds" else "VIOLATED");
         ])
       !t1_rows)
