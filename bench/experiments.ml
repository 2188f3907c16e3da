(* The experiment harness: the Table-1 rows of the paper plus the
   derived scaling / convergence / ablation series (DESIGN.md, Section
   3). Each function prints a detailed table; the Table-1 rows also
   record a summary line for the final Table-1 reproduction. *)

open Cso_core
module Planted = Cso_workload.Planted
module Rgen = Cso_workload.Relational_gen
module Rel = Cso_relational
module Point = Cso_metric.Point
module Points = Cso_metric.Points
module Gonzalez = Cso_kcenter.Gonzalez
module Space = Cso_metric.Space
module Mwu = Cso_lp.Mwu
module Pool = Cso_parallel.Pool
module Obs = Cso_obs.Obs
module Set_cover = Cso_setcover.Set_cover
module Table1 = Cso_refcheck.Table1

let rng seed = Random.State.make [| seed; 77 |]
let seeds = [ 1; 2; 3 ]

let f2 x = Printf.sprintf "%.2f" x

(* ------------------------------------------------------------------ *)
(* Table 1. Each row's bound and verdict live in [Table1]; a row here  *)
(* keeps only its instance family, seeds, extra columns and the        *)
(* family's own sanity test.                                           *)
(* ------------------------------------------------------------------ *)

(* One solve of a row's family. [measured] is [None] when the solver
   returned nothing; its float is what the mu3 column divides the cost
   by: the exact optimum when the measurement holds one, else the
   family's planted upper bound. *)
type t1_run = {
  key : string list; (* the columns before mu1 *)
  measured : (Table1.params * Table1.measurement * float) option;
  extra : string list; (* the columns after mu3 *)
  sane : bool;
  time : float; (* the solve alone *)
}

let t1_mus ((p : Table1.params), (m : Table1.measurement), reference) =
  ( float_of_int m.centers /. float_of_int p.k,
    float_of_int m.outliers /. float_of_int (max 1 p.z),
    if reference > 0.0 then m.cost /. reference
    else if m.cost = 0.0 then 1.0
    else infinity )

(* Prints the row's table and records its summary line. The row holds
   when every run is sane and passes [Table1.verdict]. *)
let table1_row (row : Table1.row) ~note ~key ~extra runs () =
  let bounded = row.bound <> None in
  let runs = runs () in
  let cells r =
    let mus =
      match r.measured with
      | _ when not bounded -> []
      | None -> [ "-"; "-"; "-" ]
      | Some x ->
          let mu1, mu2, mu3 = t1_mus x in
          [ f2 mu1; f2 mu2; Printf.sprintf "%.3f" mu3 ]
    in
    r.key @ mus @ r.extra @ [ Util.fmt_time r.time ]
  in
  Util.print_table
    ~title:
      (Printf.sprintf "%s  %s (%s): guarantee %s; %s" row.id row.problem
         row.theorem row.guarantee note)
    (key @ (if bounded then [ "mu1"; "mu2"; "mu3" ] else []) @ extra @ [ "time" ])
    (List.map cells runs);
  let measured = List.filter_map (fun r -> r.measured) runs in
  let w1, w2, w3 =
    List.fold_left
      (fun (w1, w2, w3) x ->
        let mu1, mu2, mu3 = t1_mus x in
        (max w1 mu1, max w2 mu2, max w3 mu3))
      (0.0, 0.0, 0.0) measured
  in
  let planted = List.for_all (fun (_, m, _) -> m.Table1.opt = None) measured in
  let holds r =
    r.sane
    &&
    match r.measured with
    | None -> false
    | Some (p, m, _) -> Result.is_ok (Table1.verdict row p m)
  in
  Util.record_t1 ~problem:row.problem ~guarantee:row.guarantee
    ~measured:
      (if bounded then
         Printf.sprintf "worst (%.2f, %.2f, %.2f%s)" w1 w2 w3
           (if planted then "*" else "")
       else Printf.sprintf "reduction solves SC (see %s)" row.id)
    ~time:(Util.fmt_time (List.fold_left (fun s r -> s +. r.time) 0.0 runs))
    ~ok:(List.for_all holds runs)

let opt_ref opt = if opt = None then "planted-bound" else "exact"

(* T1.R1: scanning z = 1, 2, ... with the (2, 2f, 2) LP solver turns its
   first zero-cost answer into a set cover. The measurement is that
   answer; the row fails when no cover comes back. *)
let table1_hardness =
  table1_row Table1.hardness
    ~note:
      "SC -> CSO reduction: a (2,2f,2) CSO solver yields set covers, and \
       its 2f blow-up shows as ratio <= 2f"
    ~key:[ "instance"; "n'"; "m'"; "f"; "opt" ]
    ~extra:[ "z'"; "|cover|"; "ratio" ]
  @@ fun () ->
  List.map
    (fun (name, sc) ->
      let opt =
        match Set_cover.exact sc with Some o -> List.length o | None -> -1
      in
      let last = ref None in
      let solver inst =
        let sol = (Cso_general.solve inst).Cso_general.solution in
        last := Some (inst, sol);
        sol
      in
      let result, time =
        Util.time (fun () -> Hardness.solve_set_cover ~solver sc ~k:2)
      in
      let key =
        [
          name;
          string_of_int sc.Set_cover.n_elements;
          string_of_int (Array.length sc.Set_cover.sets);
          string_of_int (Set_cover.frequency sc);
          string_of_int opt;
        ]
      in
      match (result, !last) with
      | Some (z', cover), Some (inst, sol) ->
          let p, m = Table1.of_cso inst sol in
          {
            key;
            measured =
              Some
                (p, { m with valid = m.valid && Set_cover.is_cover sc cover }, 0.0);
            extra =
              [
                string_of_int z';
                string_of_int (List.length cover);
                f2 (float_of_int (List.length cover) /. float_of_int opt);
              ];
            sane = true;
            time;
          }
      | _ -> { key; measured = None; extra = [ "-"; "-"; "-" ]; sane = true; time })
    [
      ( "2-partition",
        Set_cover.make ~n_elements:6
          [ [ 0; 1; 2 ]; [ 3; 4; 5 ]; [ 0; 3 ]; [ 1; 4 ]; [ 2; 5 ] ] );
      ( "pairs-6",
        Set_cover.make ~n_elements:6
          [ [ 0; 1 ]; [ 2; 3 ]; [ 4; 5 ]; [ 1; 2 ]; [ 3; 4 ]; [ 0; 5 ] ] );
      ( "stars-8",
        Set_cover.make ~n_elements:8
          [ [ 0; 1; 2; 3 ]; [ 4; 5; 6; 7 ]; [ 0; 4 ]; [ 1; 5 ]; [ 2; 6 ]; [ 3; 7 ] ]
      );
    ]

(* T1.R2 on instances small enough for the exact optimum. The set count
   grows with f so that no 2fz sets can cover everything (otherwise
   cost-0 "discard the data" solutions dominate). *)
let table1_cso_general =
  table1_row Table1.cso_general ~note:"LP-based" ~key:[ "f"; "seed" ]
    ~extra:[ "opt-ref"; "cost" ]
  @@ fun () ->
  List.concat_map
    (fun f ->
      List.map
        (fun seed ->
          let sets = match f with 1 -> 8 | 2 -> 16 | _ -> 20 in
          let w = Planted.cso ~f (rng seed) ~n:36 ~m:sets ~k:2 ~z:2 in
          let t = w.Planted.instance in
          let opt = Exact.opt_cost t in
          let sol, time =
            Util.time (fun () -> (Cso_general.solve t).Cso_general.solution)
          in
          let p, m = Table1.of_cso ?opt t sol in
          {
            key = [ string_of_int f; string_of_int seed ];
            measured = Some (p, m, Option.value opt ~default:w.Planted.opt_upper);
            extra = [ opt_ref opt; f2 m.Table1.cost ];
            sane = true;
            time;
          })
        seeds)
    [ 1; 2; 3 ]

let table1_cso_disjoint =
  table1_row Table1.cso_disjoint
    ~note:"coreset + LP; coreset size <= beta1 = min(n, km)"
    ~key:[ "n"; "seed" ] ~extra:[ "opt-ref"; "|coreset|"; "beta1" ]
  @@ fun () ->
  List.concat_map
    (fun seed ->
      List.map
        (fun (n, use_exact) ->
          let w = Planted.cso (rng seed) ~n ~m:8 ~k:2 ~z:2 in
          let t = w.Planted.instance in
          let opt = if use_exact then Exact.opt_cost t else None in
          let r, time = Util.time (fun () -> Cso_disjoint.solve t) in
          let p, m = Table1.of_cso ?opt t r.Cso_disjoint.solution in
          {
            key = [ string_of_int n; string_of_int seed ];
            measured = Some (p, m, Option.value opt ~default:w.Planted.opt_upper);
            extra =
              [
                opt_ref opt;
                string_of_int r.Cso_disjoint.coreset_elements;
                string_of_int (min n (2 * 8)) (* beta_1 = min(n, km) *);
              ];
            sane = true;
            time;
          })
        [ (36, true); (150, false) ])
    seeds

(* The GCSO rows measure mu3 against the planted bound. Their sanity
   test: the cost stays below the planted junk's contamination scale,
   so the junk was removed. *)
let mwu_rounds = 150

let table1_gcso_general =
  table1_row Table1.gcso_general
    ~note:"MWU + BBD tree; mu3 vs planted bound" ~key:[ "seed"; "f" ]
    ~extra:[ "rounds"; "guesses" ]
  @@ fun () ->
  List.map
    (fun seed ->
      let w = Planted.gcso_overlapping (rng seed) ~n:120 ~k:3 ~z:2 in
      let g = w.Planted.geo and eps = 0.3 in
      let r, time =
        Util.time (fun () -> Gcso_general.solve ~eps ~rounds:mwu_rounds g)
      in
      let p, m = Table1.of_gcso ~eps g r.Gcso_general.solution in
      {
        key = [ string_of_int seed; string_of_int p.Table1.f ];
        measured = Some (p, m, w.Planted.g_opt_upper);
        extra =
          [
            string_of_int r.Gcso_general.rounds_per_guess;
            string_of_int r.Gcso_general.guesses;
          ];
        sane = m.Table1.cost < w.Planted.g_contaminated_lower;
        time;
      })
    seeds

let table1_gcso_disjoint =
  table1_row Table1.gcso_disjoint
    ~note:"coreset + MWU; mu3 vs planted bound" ~key:[ "seed" ]
    ~extra:[ "|coreset|"; "|H0|" ]
  @@ fun () ->
  List.map
    (fun seed ->
      let w = Planted.gcso_disjoint (rng seed) ~n:200 ~m:12 ~k:3 ~z:3 in
      let g = w.Planted.geo and eps = 0.3 in
      let r, time =
        Util.time (fun () -> Gcso_disjoint.solve ~eps ~rounds:mwu_rounds g)
      in
      let p, m = Table1.of_gcso ~eps g r.Gcso_disjoint.solution in
      {
        key = [ string_of_int seed ];
        measured = Some (p, m, w.Planted.g_opt_upper);
        extra =
          [
            string_of_int r.Gcso_disjoint.coreset_points;
            string_of_int r.Gcso_disjoint.forced_outliers;
          ];
        sane = m.Table1.cost < w.Planted.g_contaminated_lower;
        time;
      })
    seeds

(* ------------------------------------------------------------------ *)
(* Relational rows: mu3 against the planted bound. Their sanity test:  *)
(* the cost stays below the planted junk's scale (100).                *)
(* ------------------------------------------------------------------ *)

let cover_cost centers results =
  Array.fold_left
    (fun acc q ->
      max acc
        (List.fold_left (fun m c -> min m (Point.l2 c q)) infinity centers))
    0.0 results

(* A relational row's run. [kept] are the join results its outliers
   leave: a valid solution picks its centers among them. *)
let rel_run w params ~key ~extra ~time centers ~outliers kept =
  let cost = cover_cost centers kept in
  let valid = List.for_all (fun c -> Array.mem c kept) centers in
  {
    key;
    measured =
      Some
        ( params,
          { Table1.valid; centers = List.length centers; outliers; cost; opt = None },
          w.Rgen.opt_upper );
    extra;
    sane = cost < 100.0;
    time;
  }

let relations w = Rel.Schema.n_relations w.Rgen.instance.Rel.Instance.schema

let table1_rcto1 =
  table1_row Table1.rcto1
    ~note:"outliers from the dirty relation only; mu3 vs planted bound"
    ~key:[ "seed"; "N" ] ~extra:[ "|coreset|" ]
  @@ fun () ->
  List.map
    (fun seed ->
      let k = 2 and z = 2 and eps = 0.3 in
      let w = Rgen.rcto1 (rng seed) ~n1:26 ~n2:10 ~k ~z in
      let r, time =
        Util.time (fun () ->
            Rcto1.solve ~eps ~rounds:120 w.Rgen.instance w.Rgen.tree ~k ~z)
      in
      let reduced =
        Rel.Instance.remove w.Rgen.instance
          (List.map (fun t -> (0, t)) r.Rcto1.outlier_tuples)
      in
      rel_run w
        { Table1.k; z; f = 1; g = relations w; eps }
        ~key:
          [ string_of_int seed; string_of_int (Rel.Instance.size w.Rgen.instance) ]
        ~extra:[ string_of_int r.Rcto1.coreset_size ]
        ~time r.Rcto1.centers
        ~outliers:(List.length r.Rcto1.outlier_tuples)
        (Rel.Yannakakis.enumerate reduced w.Rgen.tree))
    seeds

(* The path join (g = 2) and the star join (g = 3) show the g-factor in
   the outlier budget. *)
let table1_rcto =
  table1_row Table1.rcto
    ~note:
      "FPT; g = 2 relations on the path join, g = 3 on the star; mu3 vs \
       planted bound"
    ~key:[ "seed"; "g" ] ~extra:[ "valid-iters"; "|T|" ]
  @@ fun () ->
  List.map
    (fun (seed, z, shape) ->
      let k = 2 in
      let w =
        match shape with
        | `Path -> Rgen.rcto (rng seed) ~n1:14 ~n2:8 ~k ~z
        | `Star -> Rgen.star (rng seed) ~n_leaf:10 ~k ~z
      in
      let g = relations w in
      let result, time =
        Util.time (fun () ->
            Rcto.solve ~rng:(rng (seed + 100)) ~iters:300 w.Rgen.instance
              w.Rgen.tree ~k ~z)
      in
      let key = [ string_of_int seed; string_of_int g ] in
      match result with
      | None -> { key; measured = None; extra = [ "-"; "0" ]; sane = true; time }
      | Some r ->
          let reduced = Rel.Instance.remove w.Rgen.instance r.Rcto.outlier_tuples in
          rel_run w
            { Table1.k; z; f = g; g; eps = 0.0 }
            ~key
            ~extra:
              [
                Printf.sprintf "%d/%d" r.Rcto.successes r.Rcto.iterations;
                string_of_int (List.length r.Rcto.outlier_tuples);
              ]
            ~time r.Rcto.centers
            ~outliers:(List.length r.Rcto.outlier_tuples)
            (Rel.Yannakakis.enumerate reduced w.Rgen.tree))
    (List.map (fun seed -> (seed, 2, `Path)) seeds @ [ (1, 1, `Star) ])

let table1_rcro =
  table1_row Table1.rcro ~note:"sampling; mu3 vs planted bound"
    ~key:[ "seed"; "|Q(I)|"; "tau" ] ~extra:[]
  @@ fun () ->
  List.map
    (fun seed ->
      let k = 2 and z = 4 and eps = 0.25 in
      let w = Rgen.rcro (rng seed) ~n1:120 ~n2:30 ~k ~z in
      let r, time =
        Util.time (fun () ->
            Rcro.solve ~rng:(rng (seed + 7)) ~eps w.Rgen.instance w.Rgen.tree
              ~k ~z)
      in
      let results = Rel.Yannakakis.enumerate w.Rgen.instance w.Rgen.tree in
      let out = Rcro.outliers_of r results in
      let kept =
        Array.of_list
          (List.filteri (fun i _ -> not (List.mem i out)) (Array.to_list results))
      in
      rel_run w
        { Table1.k; z; f = 1; g = relations w; eps }
        ~key:
          [
            string_of_int seed;
            string_of_int r.Rcro.join_size;
            string_of_int r.Rcro.sample_size;
          ]
        ~extra:[] ~time r.Rcro.centers ~outliers:(List.length out) kept)
    seeds

(* ------------------------------------------------------------------ *)
(* F1 -- runtime scaling series.                                       *)
(* ------------------------------------------------------------------ *)

let scaling_cso_lp () =
  let rows =
    List.map
      (fun n ->
        let w = Planted.cso (rng 5) ~n ~m:8 ~k:2 ~z:2 in
        let _, t = Util.time (fun () -> Cso_general.solve w.Planted.instance) in
        (n, t))
      [ 30; 60; 120; 240 ]
  in
  Util.print_table
    ~title:
      "F1.a  CSO LP scaling (complexity column: superlinear in n; LP solves \
       dominate)"
    [ "n"; "time"; "time/n (ms)" ]
    (List.map
       (fun (n, t) ->
         [
           string_of_int n;
           Util.fmt_time t;
           Printf.sprintf "%.2f" (t *. 1e3 /. float_of_int n);
         ])
       rows)

let scaling_gcso_mwu () =
  let rows =
    List.map
      (fun n ->
        let w = Planted.gcso_disjoint (rng 5) ~n ~m:12 ~k:3 ~z:3 in
        let _, t =
          Util.time (fun () ->
              Gcso_general.solve ~eps:0.3 ~rounds:60 w.Planted.geo)
        in
        (n, t))
      [ 100; 200; 400; 800 ]
  in
  Util.print_table
    ~title:
      "F1.b  GCSO MWU scaling (complexity column: near-linear (k+z)(n+m) \
       polylog)"
    [ "n"; "time"; "time/n (ms)" ]
    (List.map
       (fun (n, t) ->
         [
           string_of_int n;
           Util.fmt_time t;
           Printf.sprintf "%.3f" (t *. 1e3 /. float_of_int n);
         ])
       rows)

let scaling_coreset_size () =
  let rows =
    List.map
      (fun n ->
        let w = Planted.gcso_disjoint (rng 5) ~n ~m:12 ~k:3 ~z:3 in
        let r = Gcso_disjoint.solve ~eps:0.3 ~rounds:60 w.Planted.geo in
        (n, r.Gcso_disjoint.coreset_points))
      [ 100; 200; 400; 800 ]
  in
  Util.print_table
    ~title:
      "F1.c  Coreset size vs n (Lemma 2.5 / D.1: |P'| = O(min(n, kz)) -- flat \
       in n)"
    [ "n"; "|coreset|"; "bound km" ]
    (List.map
       (fun (n, c) ->
         [ string_of_int n; string_of_int c; string_of_int (3 * 12) ])
       rows)

let scaling_gcso_d3 () =
  (* Dimension dependence: the same workload in 2 and 3 feature
     dimensions (the polylog^d factors of Theorem 3.2/3.3). *)
  let rows =
    List.concat_map
      (fun d_features ->
        List.map
          (fun n ->
            let w =
              Planted.gcso_disjoint ~d_features (rng 5) ~n ~m:12 ~k:3 ~z:3
            in
            let _, t =
              Util.time (fun () ->
                  Gcso_disjoint.solve ~eps:0.3 ~rounds:60 w.Planted.geo)
            in
            [
              string_of_int (1 + d_features);
              string_of_int n;
              Util.fmt_time t;
            ])
          [ 200; 800 ])
      [ 2; 3 ]
  in
  Util.print_table
    ~title:
      "F1.e  GCSO coreset scaling vs dimension (log^d factors; d counts the \
       id coordinate)"
    [ "d"; "n"; "time" ]
    rows

let scaling_rcto1 () =
  let rows =
    List.map
      (fun n1 ->
        let w = Rgen.rcto1 (rng 5) ~n1 ~n2:10 ~k:2 ~z:2 in
        let _, t =
          Util.time (fun () ->
              Rcto1.solve ~eps:0.3 ~rounds:80 w.Rgen.instance w.Rgen.tree ~k:2
                ~z:2)
        in
        (Rel.Instance.size w.Rgen.instance, t))
      [ 10; 20; 40; 80 ]
  in
  Util.print_table
    ~title:"F1.d  RCTO1 scaling in N (complexity column: O(k^2 N^2 log N))"
    [ "N"; "time"; "time/N^2 (us)" ]
    (List.map
       (fun (n, t) ->
         [
           string_of_int n;
           Util.fmt_time t;
           Printf.sprintf "%.2f" (t *. 1e6 /. float_of_int (n * n));
         ])
       rows)

(* ------------------------------------------------------------------ *)
(* F2 -- MWU convergence (Theorem 3.1).                                *)
(* ------------------------------------------------------------------ *)

let fig_mwu_convergence () =
  (* Theorem 3.1 asserts that the *averaged* oracle solutions satisfy
     every constraint up to an additive eps after O(xi log n / eps^2)
     rounds. We re-run the MWU loop on (LP3) with explicit constraint
     rows (brute-force S_i and L_i, affordable at this size) at the
     critical radius found by the full solver, and report the worst
     slack min_i (A_i psi_hat / t - 1) of the running average. *)
  let w = Planted.gcso_disjoint (rng 9) ~n:100 ~m:10 ~k:3 ~z:2 in
  let g = w.Planted.geo in
  let full = Gcso_general.solve ~eps:0.2 ~rounds:200 g in
  let r = full.Gcso_general.radius in
  let pts = g.Cso_core.Geo_instance.points in
  let rects = g.Cso_core.Geo_instance.rects in
  let n = Array.length pts and m = Array.length rects in
  let k = 3 and z = 2 in
  let s_i =
    Array.init n (fun i ->
        List.filter (fun l -> Point.l2 pts.(i) pts.(l) <= r) (List.init n Fun.id))
  in
  let l_i = g.Cso_core.Geo_instance.membership in
  let sigma = Array.make n (1.0 /. float_of_int n) in
  let x_acc = Array.make n 0.0 and y_acc = Array.make m 0.0 in
  let width = float_of_int (k + z) in
  let eps = 0.2 in
  let checkpoints = [ 1; 2; 5; 10; 20; 40; 80; 160; 320 ] in
  let rows = ref [] in
  let top_k weights kk =
    let idx = Array.init (Array.length weights) Fun.id in
    Array.sort (fun a b -> Float.compare weights.(b) weights.(a)) idx;
    Array.to_list (Array.sub idx 0 (min kk (Array.length idx)))
  in
  for t = 1 to 320 do
    (* Explicit oracle: coefficient of x_l is sigma-mass of constraints
       watching l; of y_j the sigma-mass of points in rect j. *)
    let wx = Array.make n 0.0 and wy = Array.make m 0.0 in
    Array.iteri
      (fun i s ->
        List.iter (fun l -> wx.(l) <- wx.(l) +. sigma.(i)) s;
        List.iter (fun j -> wy.(j) <- wy.(j) +. sigma.(i)) l_i.(i))
      s_i;
    let cx = top_k wx k and cy = top_k wy z in
    List.iter (fun l -> x_acc.(l) <- x_acc.(l) +. 1.0) cx;
    List.iter (fun j -> y_acc.(j) <- y_acc.(j) +. 1.0) cy;
    (* Update sigma from the round solution's violations. *)
    let total = ref 0.0 in
    Array.iteri
      (fun i s ->
        let ai =
          float_of_int (List.length (List.filter (fun l -> List.mem l cx) s))
          +. float_of_int
               (List.length (List.filter (fun j -> List.mem j cy) l_i.(i)))
        in
        let delta = (ai -. 1.0) /. width in
        sigma.(i) <- max 0.0 (sigma.(i) *. (1.0 -. (eps /. 4.0 *. delta)));
        total := !total +. sigma.(i))
      s_i;
    if !total > 0.0 then
      Array.iteri (fun i v -> sigma.(i) <- v /. !total) sigma;
    if List.mem t checkpoints then begin
      (* Worst slack of the running average. *)
      let worst = ref infinity in
      Array.iteri
        (fun i s ->
          let ai =
            List.fold_left (fun acc l -> acc +. (x_acc.(l) /. float_of_int t)) 0.0 s
            +. List.fold_left
                 (fun acc j -> acc +. (y_acc.(j) /. float_of_int t))
                 0.0 l_i.(i)
          in
          if ai -. 1.0 < !worst then worst := ai -. 1.0)
        s_i;
      rows := [ string_of_int t; Printf.sprintf "%+.4f" !worst ] :: !rows
    end
  done;
  Util.print_table
    ~title:
      (Printf.sprintf
         "F2  MWU convergence at the critical radius r = %.3f (Thm 3.1: \
          worst slack of the averaged solution -> >= -eps = -%.1f)"
         r eps)
    [ "round"; "worst slack min_i (A_i psi_hat - 1)" ]
    (List.rev !rows)

(* ------------------------------------------------------------------ *)
(* F3 -- eps sweep for GCSO.                                           *)
(* ------------------------------------------------------------------ *)

let fig_epsilon_sweep () =
  let w = Planted.gcso_disjoint (rng 11) ~n:150 ~m:10 ~k:3 ~z:2 in
  let g = w.Planted.geo in
  let rows =
    List.map
      (fun eps ->
        (* eps drives the theoretical round count O(xi log n / eps^2);
           cap it so the sweep stays affordable. *)
        let rounds =
          min 2000
            (Cso_lp.Mwu.default_rounds ~m:150 ~width:(float_of_int (3 + 2))
               ~eps)
        in
        let r, t = Util.time (fun () -> Gcso_general.solve ~eps ~rounds g) in
        let cost = Geo_instance.cost g r.Gcso_general.solution in
        [
          f2 eps;
          string_of_int rounds;
          Printf.sprintf "%.3f" (cost /. w.Planted.g_opt_upper);
          string_of_int (List.length r.Gcso_general.solution.Instance.centers);
          Util.fmt_time t;
        ])
      [ 0.15; 0.2; 0.3; 0.5; 0.8 ]
  in
  Util.print_table
    ~title:
      "F3  GCSO MWU quality/time vs eps (rounds follow the Thm 3.1 budget, \
       capped at 2000)"
    [ "eps"; "rounds"; "cost / planted bound"; "|C|"; "time" ]
    rows

(* ------------------------------------------------------------------ *)
(* F4 -- ablations.                                                    *)
(* ------------------------------------------------------------------ *)

let ablation_coreset () =
  (* Same disjoint instance, with and without the coreset stage. *)
  let w = Planted.gcso_disjoint (rng 13) ~n:600 ~m:12 ~k:3 ~z:3 in
  let g = w.Planted.geo in
  let direct, t_direct =
    Util.time (fun () -> (Gcso_general.solve ~eps:0.3 ~rounds:60 g).Gcso_general.solution)
  in
  let coreset, t_coreset =
    Util.time (fun () -> (Gcso_disjoint.solve ~eps:0.3 ~rounds:60 g).Gcso_disjoint.solution)
  in
  Util.print_table
    ~title:
      "F4.a  Ablation: MWU direct (Sec 3.2) vs coreset + MWU (Sec 3.3) on \
       the same disjoint instance (n=600)"
    [ "variant"; "cost / planted bound"; "|C|"; "|H|"; "time" ]
    [
      [
        "MWU on full input";
        Printf.sprintf "%.3f" (Geo_instance.cost g direct /. w.Planted.g_opt_upper);
        string_of_int (List.length direct.Instance.centers);
        string_of_int (List.length direct.Instance.outliers);
        Util.fmt_time t_direct;
      ];
      [
        "coreset + MWU";
        Printf.sprintf "%.3f" (Geo_instance.cost g coreset /. w.Planted.g_opt_upper);
        string_of_int (List.length coreset.Instance.centers);
        string_of_int (List.length coreset.Instance.outliers);
        Util.fmt_time t_coreset;
      ];
    ]

let ablation_cso_coreset () =
  let w = Planted.cso (rng 17) ~n:150 ~m:8 ~k:2 ~z:2 in
  let t = w.Planted.instance in
  let lp, t_lp =
    Util.time (fun () -> (Cso_general.solve t).Cso_general.solution)
  in
  let core, t_core =
    Util.time (fun () -> (Cso_disjoint.solve t).Cso_disjoint.solution)
  in
  Util.print_table
    ~title:
      "F4.b  Ablation: general LP (Sec 2.2) vs coreset LP (Sec 2.3) on the \
       same f=1 instance (n=150)"
    [ "variant"; "cost / planted bound"; "|C|"; "|H|"; "time" ]
    [
      [
        "LP on full input";
        Printf.sprintf "%.3f" (Instance.cost t lp /. w.Planted.opt_upper);
        string_of_int (List.length lp.Instance.centers);
        string_of_int (List.length lp.Instance.outliers);
        Util.fmt_time t_lp;
      ];
      [
        "coreset + LP";
        Printf.sprintf "%.3f" (Instance.cost t core /. w.Planted.opt_upper);
        string_of_int (List.length core.Instance.centers);
        string_of_int (List.length core.Instance.outliers);
        Util.fmt_time t_core;
      ];
    ]

let ablation_bbd_eps () =
  let rngs = rng 19 in
  let pts =
    Array.init 4000 (fun _ ->
        [| Random.State.float rngs 100.0; Random.State.float rngs 100.0 |])
  in
  let tree = Cso_geom.Bbd_tree.build_packed (Points.of_array pts) in
  let rows =
    List.map
      (fun eps ->
        let total_nodes = ref 0 in
        let (), t =
          Util.time (fun () ->
              for i = 0 to 199 do
                let nodes =
                  Cso_geom.Bbd_tree.ball_query tree ~center:pts.(i)
                    ~radius:10.0 ~eps
                in
                total_nodes := !total_nodes + List.length nodes
              done)
        in
        [
          f2 eps;
          Printf.sprintf "%.1f" (float_of_int !total_nodes /. 200.0);
          Printf.sprintf "%.1fus" (t *. 1e6 /. 200.0);
        ])
      [ 0.05; 0.1; 0.3; 1.0 ]
  in
  Util.print_table
    ~title:
      "F4.c  Ablation: BBD approximate ball queries -- canonical nodes and \
       query time vs eps (n=4000)"
    [ "eps"; "avg canonical nodes"; "avg query time" ]
    rows

let ablation_wspd_granularity () =
  let rngs = rng 23 in
  let rows =
    List.map
      (fun n ->
        let pts =
          Array.init n (fun _ ->
              [| Random.State.float rngs 100.0; Random.State.float rngs 100.0 |])
        in
        let cand = Cso_geom.Wspd.candidate_distances ~eps:0.25 pts in
        let grid =
          Cso_metric.Guess.radius_grid ~ratio:1.25 (Points.of_array pts)
        in
        [
          string_of_int n;
          string_of_int (n * (n - 1) / 2);
          string_of_int (Array.length cand);
          Printf.sprintf "%.1f%%"
            (100.0
            *. float_of_int (Array.length cand)
            /. float_of_int (max 1 (n * (n - 1) / 2)));
          string_of_int (Array.length grid);
        ])
      [ 100; 400; 1600 ]
  in
  Util.print_table
    ~title:
      "F4.d  Ablation: WSPD candidate distances and the radius grid vs all \
       pairwise distances (binary-search lattice size, eps = 0.25)"
    [ "n"; "all pairs"; "WSPD candidates"; "fraction"; "grid (1+eps)" ]
    rows;
  (* Quality impact: solve the same instance over three searches — the
     default radius grid, the inflated WSPD lattice the solver searched
     before the grid (the same (1+eps/5) guarantee), and every exact
     pairwise distance. *)
  let w = Planted.gcso_disjoint (rng 27) ~n:150 ~m:10 ~k:3 ~z:2 in
  let g = w.Planted.geo in
  let eps = 0.3 in
  let eps_c = eps /. 5.0 in
  let wspd_lattice () =
    let eps_w = eps_c /. (2.0 +. eps_c) in
    Array.map
      (fun d -> d /. (1.0 -. eps_w))
      (Cso_geom.Wspd.candidate_distances_packed ~eps:eps_w
         g.Geo_instance.coords)
  in
  let exact_lattice () =
    let pts = g.Geo_instance.points in
    let acc = ref [ 0.0 ] in
    Array.iteri
      (fun i p ->
        Array.iteri
          (fun j q -> if i < j then acc := Point.l2 p q :: !acc)
          pts)
      pts;
    Array.of_list (List.sort_uniq compare !acc)
  in
  (* Each row's time includes building what it searches: inside the
     solve for the grid, before it for the other two. *)
  let row name ?lattice () =
    let (candidates, rep), t =
      Util.time (fun () ->
          let candidates = Option.map (fun f -> f ()) lattice in
          (candidates, Gcso_general.solve ~eps ~rounds:80 ?candidates g))
    in
    let values =
      match candidates with
      | Some c -> c
      | None ->
          Cso_metric.Guess.radius_grid ~ratio:(1.0 +. eps_c)
            g.Geo_instance.coords
    in
    [
      name;
      string_of_int (Array.length values);
      Printf.sprintf "%.4f" rep.Gcso_general.radius;
      Printf.sprintf "%.3f"
        (Geo_instance.cost g rep.Gcso_general.solution
        /. w.Planted.g_opt_upper);
      string_of_int rep.Gcso_general.guesses;
      Util.fmt_time t;
    ]
  in
  Util.print_table
    ~title:
      "F4.d' Lattice quality: same instance (n=150), radius grid vs \
       inflated WSPD lattice vs exact distances"
    [ "search"; "values"; "final radius"; "cost / planted bound"; "guesses";
      "time" ]
    [
      row "grid (1+eps/5), default" ();
      row "WSPD, inflated" ~lattice:wspd_lattice ();
      row "exact pairwise" ~lattice:exact_lattice ();
    ]

(* ------------------------------------------------------------------ *)
(* Certified ratios: no ground truth needed. The LP binary search's
   final radius lower-bounds the optimum (Lemma 2.3 i), so cost/radius
   is a certified per-instance approximation factor.                    *)
(* ------------------------------------------------------------------ *)

let certified_ratios () =
  let rows =
    List.concat_map
      (fun n ->
        List.map
          (fun seed ->
            let w = Planted.cso (rng seed) ~n ~m:10 ~k:3 ~z:2 in
            let t = w.Planted.instance in
            let r, time = Util.time (fun () -> Cso_general.solve t) in
            let cost = Instance.cost t r.Cso_general.solution in
            [
              string_of_int n;
              string_of_int seed;
              Printf.sprintf "%.3f" cost;
              Printf.sprintf "%.3f" r.Cso_general.radius;
              Printf.sprintf "%.3f" (cost /. r.Cso_general.radius);
              Util.fmt_time time;
            ])
          seeds)
      [ 100; 200 ]
  in
  Util.print_table
    ~title:
      "Certified ratios: cost / LP-lower-bound <= 2 on every instance \
       (Lemma 2.3 i), no exact solver required"
    [ "n"; "seed"; "cost"; "LP lower bound"; "certified ratio"; "time" ]
    rows

let ablation_gonzalez_fast () =
  let rngs = rng 43 in
  let rows =
    List.map
      (fun (n, k) ->
        (* Clustered input: the triangle-inequality skip fires often. *)
        let pts =
          Array.init n (fun i ->
              let a = float_of_int (i mod k) *. 100.0 in
              [|
                a +. Cso_workload.Gen.uniform rngs ~lo:0.0 ~hi:1.0;
                Cso_workload.Gen.uniform rngs ~lo:0.0 ~hi:1.0;
              |])
        in
        let (_, r_plain), t_plain =
          Util.time (fun () -> Gonzalez.run_points pts ~k)
        in
        let (_, r_fast), t_fast =
          Util.time (fun () -> Gonzalez.run_packed (Points.of_array pts) ~k)
        in
        assert (r_plain = r_fast);
        [
          string_of_int n;
          string_of_int k;
          Util.fmt_time t_plain;
          Util.fmt_time t_fast;
          Printf.sprintf "%.1fx" (t_plain /. max 1e-9 t_fast);
        ])
      [ (5000, 20); (20000, 40); (50000, 60) ]
  in
  Util.print_table
    ~title:
      "F4.e  Ablation: Gonzalez vs triangle-inequality-pruned Gonzalez \
       (identical output, verified)"
    [ "n"; "k"; "plain"; "pruned"; "speedup" ]
    rows

let ablation_streaming () =
  let rngs = rng 47 in
  let rows =
    List.map
      (fun n ->
        let k = 5 in
        let pts =
          Array.init n (fun i ->
              let a = float_of_int (i mod k) *. 80.0 in
              [|
                a +. Cso_workload.Gen.uniform rngs ~lo:0.0 ~hi:2.0;
                Cso_workload.Gen.uniform rngs ~lo:0.0 ~hi:2.0;
              |])
        in
        let t = Cso_kcenter.Streaming.create ~k in
        let (), t_stream =
          Util.time (fun () -> Array.iter (Cso_kcenter.Streaming.insert t) pts)
        in
        let centers = Cso_kcenter.Streaming.centers t in
        let true_cover =
          Array.fold_left
            (fun acc p ->
              max acc
                (List.fold_left
                   (fun m c -> min m (Point.l2 c p))
                   infinity centers))
            0.0 pts
        in
        let (_, gonz), t_gonz =
          Util.time (fun () -> Gonzalez.run_packed (Points.of_array pts) ~k)
        in
        [
          string_of_int n;
          Printf.sprintf "%.3f" true_cover;
          Printf.sprintf "%.3f" (Cso_kcenter.Streaming.radius_bound t);
          Printf.sprintf "%.3f" gonz;
          Printf.sprintf "%.2fx" (true_cover /. gonz);
          Util.fmt_time t_stream;
          Util.fmt_time t_gonz;
        ])
      [ 2000; 20000 ]
  in
  Util.print_table
    ~title:
      "F4.f  Streaming (doubling) k-center vs offline Gonzalez: O(k) memory \
       single pass, certified coverage bound"
    [ "n"; "stream cover"; "certified bound"; "gonzalez"; "ratio"; "t(stream)";
      "t(gonzalez)" ]
    rows

(* ------------------------------------------------------------------ *)
(* Baseline comparison: LP algorithm vs the natural greedy heuristic.  *)
(* ------------------------------------------------------------------ *)

let baseline_comparison () =
  let run name w =
    let t = w.Planted.instance in
    let greedy_sol, t_g = Util.time (fun () -> Baseline.solve t) in
    let lp_sol, t_lp =
      Util.time (fun () -> (Cso_general.solve t).Cso_general.solution)
    in
    let ratio sol = Instance.cost t sol /. w.Planted.opt_upper in
    [
      [
        name ^ " / greedy";
        Printf.sprintf "%.2f" (ratio greedy_sol);
        string_of_int (List.length greedy_sol.Instance.outliers);
        Util.fmt_time t_g;
      ];
      [
        name ^ " / LP (Thm 2.4)";
        Printf.sprintf "%.2f" (ratio lp_sol);
        string_of_int (List.length lp_sol.Instance.outliers);
        Util.fmt_time t_lp;
      ];
    ]
  in
  let easy = Planted.cso (rng 29) ~n:60 ~m:8 ~k:2 ~z:2 in
  let hard = Planted.cso_coordinated (rng 31) ~n:60 ~k:2 ~z:2 in
  Util.print_table
    ~title:
      "Baseline: greedy farthest-point set removal vs the LP algorithm. On \
       independent junk both match; on coordinated outliers (one set covers \
       several scattered junk points) greedy strands half the junk."
    [ "workload / algorithm"; "cost / planted opt bound"; "|H|"; "time" ]
    (run "independent-junk" easy @ run "coordinated-junk" hard)

(* ------------------------------------------------------------------ *)
(* Cyclic queries (Section 4.2): decompose, then run RCRO unchanged.   *)
(* ------------------------------------------------------------------ *)

let cyclic_rcro () =
  let rngs = rng 37 in
  (* Triangle query R(A,B) |><| S(B,C) |><| T(A,C): cyclic. Keys carry
     tiny values; C holds the clustered feature with z planted far
     results. *)
  let schema =
    Rel.Schema.make ~attr_names:[ "A"; "B"; "C" ]
      [ ("R", [ 0; 1 ]); ("S", [ 1; 2 ]); ("T", [ 0; 2 ]) ]
  in
  let nkeys = 14 and z = 2 in
  let key i = float_of_int i *. 1e-6 in
  let feature i =
    if i < nkeys - z then
      (float_of_int (i mod 3) *. 40.0) +. Cso_workload.Gen.uniform rngs ~lo:0.0 ~hi:1.0
    else 1.0e4 +. (300.0 *. float_of_int i)
  in
  let c_of = Array.init nkeys feature in
  let r = List.init nkeys (fun i -> [| key i; key i |]) in
  let s = List.init nkeys (fun i -> [| key i; c_of.(i) |]) in
  let t = List.init nkeys (fun i -> [| key i; c_of.(i) |]) in
  let inst = Rel.Instance.make schema [ r; s; t ] in
  let d, t_dec = Util.time (fun () -> Rel.Hypertree.decompose_exn inst) in
  let report, t_solve =
    Util.time (fun () ->
        Rcro.solve ~rng:(rng 41) d.Rel.Hypertree.instance d.Rel.Hypertree.tree
          ~k:3 ~z)
  in
  let results =
    Rel.Yannakakis.enumerate d.Rel.Hypertree.instance d.Rel.Hypertree.tree
  in
  let out = Rcro.outliers_of report results in
  Util.print_table
    ~title:
      "Cyclic extension (Sec 4.2): triangle query decomposed into bags, \
       then RCRO runs unchanged"
    [ "metric"; "value" ]
    [
      [ "original relations (cyclic)"; "3" ];
      [ "bags after decomposition"; string_of_int (Array.length d.Rel.Hypertree.cover) ];
      [ "decomposition width"; string_of_int d.Rel.Hypertree.width ];
      [ "|Q(I)|"; string_of_int (Array.length results) ];
      [ "result outliers flagged"; string_of_int (List.length out) ];
      [ "planted far results"; string_of_int z ];
      [ "decompose time"; Util.fmt_time t_dec ];
      [ "solve time"; Util.fmt_time t_solve ];
    ]

(* ------------------------------------------------------------------ *)
(* Extension (paper Sec. 5 future work): k-median with set outliers.   *)
(* ------------------------------------------------------------------ *)

let extension_kmedian () =
  let rows =
    List.map
      (fun seed ->
        let w = Planted.cso (rng seed) ~n:25 ~m:6 ~k:2 ~z:2 in
        let t = w.Planted.instance in
        let sol, t_ls = Util.time (fun () -> Kmedian.local_search t) in
        let ls_cost = Kmedian.cost t sol in
        let lb, t_lp = Util.time (fun () -> Kmedian.lp_lower_bound t) in
        let exact_cost =
          match Kmedian.exact t with Some (_, c) -> c | None -> nan
        in
        let lb_str, ratio_str =
          match lb with
          | Some lb ->
              ( Printf.sprintf "%.2f" lb,
                Printf.sprintf "%.3f" (ls_cost /. lb) )
          | None -> ("n/a", "n/a")
        in
        [
          string_of_int seed;
          Printf.sprintf "%.2f" ls_cost;
          Printf.sprintf "%.2f" exact_cost;
          lb_str;
          ratio_str;
          Util.fmt_time t_ls;
          Util.fmt_time t_lp;
        ])
      seeds
  in
  Util.print_table
    ~title:
      "EXT  k-median with set outliers (paper Sec. 5 future work): local \
       search vs exact optimum vs LP lower bound (certified per-instance \
       ratio = LS / LP)"
    [ "seed"; "local search"; "exact"; "LP bound"; "LS/LP"; "t(LS)"; "t(LP)" ]
    rows

(* ------------------------------------------------------------------ *)
(* PAR -- domain-parallel kernels: sequential vs parallel wall-clock    *)
(* for the hot paths wired onto lib/parallel (Gonzalez farthest-point,  *)
(* the MWU violation/update sweep, pairwise-distance construction).     *)
(* Every domain count must produce bit-identical results; divergence    *)
(* is a hard failure, and the timings land in BENCH_*.json so speedup   *)
(* curves survive the run.                                              *)
(* ------------------------------------------------------------------ *)

let with_domains nd f =
  let old = Pool.get_default () in
  let p = Pool.create ~num_domains:nd () in
  Pool.set_default p;
  Fun.protect
    ~finally:(fun () ->
      Pool.set_default old;
      Pool.shutdown p)
    f

let mwu_kernel m =
  (* Oracle: concentrate on the heaviest constraint; violation: one full
     per-constraint sweep per round, fanned out on the default pool the
     same way Gcso_general's sweep is. *)
  let oracle sigma =
    let best = ref 0 in
    Array.iteri (fun i w -> if w > sigma.(!best) then best := i) sigma;
    Some !best
  in
  let violation c =
    Pool.tabulate (Pool.get_default ()) m (fun i ->
        if i = c then 1.0
        else -1.0 +. (float_of_int ((i * 131) mod 97) /. 97.0))
  in
  match Mwu.run ~m ~width:1.0 ~eps:0.3 ~rounds:40 ~oracle ~violation () with
  | Mwu.Feasible sols -> sols
  | Mwu.Infeasible -> []

(* Wall-clock artifacts record the host's available parallelism next to
   each row's domain count: a speedup number is meaningless without
   knowing how many cores backed it. Deterministic counter artifacts
   (BENCH_counters / BENCH_budgets) deliberately do NOT get this field
   -- they are documented as byte-reproducible across machines. *)
let nproc () = Domain.recommended_domain_count ()

(* Fastest wall time of each thunk over [reps] rounds, the rounds
   interleaved across the thunks (a b a b ...). A slow phase of the
   host can last seconds (perfbench/README.md, "Noise"); timing each
   side's best-of-[reps] in a block of its own lets such a phase land on
   one side of a comparison only, and a not-slower gate then fails on
   unchanged code. *)
let interleaved_best reps thunks =
  let thunks = Array.of_list thunks in
  let best = Array.make (Array.length thunks) infinity in
  for _ = 1 to reps do
    Array.iteri
      (fun i f ->
        let (), t = Util.time f in
        if t < best.(i) then best.(i) <- t)
      thunks
  done;
  best

let timed_best reps f = (interleaved_best reps [ f ]).(0)

let read_whole_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* --- committed baselines --- *)

(* One record-or-compare gate for every smoke baseline. With no file at
   [path], [record] is written there (commit it to arm the gate), and
   the result is [None]. Otherwise [rows] reads the committed rows out
   of the parsed file, and every row of [current] must have a committed
   twin that [check name committed now] accepts (it raises [Failure] on
   drift). A committed row this run no longer produces fails too, so a
   removed feature cannot leave a stale row behind. The result is then
   [Some] of the committed rows. *)
let gate_baseline ~tag ~path ~record ~rows ~check current =
  if not (Sys.file_exists path) then begin
    Util.write_file path record;
    Printf.printf
      "%s: no baseline found; recorded %s (commit it to arm the gate).\n" tag
      path;
    None
  end
  else begin
    let committed = rows (Obs.Json.parse (read_whole_file path)) in
    List.iter
      (fun (name, v) ->
        match List.assoc_opt name committed with
        | None -> failwith (Printf.sprintf "%s: %s missing from %s" tag name path)
        | Some b -> check name b v)
      current;
    List.iter
      (fun (name, _) ->
        if not (List.mem_assoc name current) then
          failwith
            (Printf.sprintf
               "%s: %s holds %s, which this run no longer produces; re-record \
                the baseline"
               tag path name))
      committed;
    Some committed
  end

(* The file format of the counter baselines: [head] fields between
   "workload" and "counters", [tail] fields after "counters" (values
   already rendered as JSON). *)
let counters_baseline ~bench ?(head = []) ?(tail = []) counts =
  let field (k, v) = Printf.sprintf "  \"%s\": %s" k v in
  "{\n"
  ^ String.concat ",\n"
      (List.map field
         ((("bench", Printf.sprintf "\"%s\"" bench) :: ("workload", "\"smoke\"")
           :: head)
         @ (("counters", Obs.counters_json counts) :: tail)))
  ^ "\n}\n"

(* The "counters" object of a parsed counter baseline. *)
let counter_rows doc =
  match Obs.Json.member "counters" doc with
  | Some c ->
      List.map (fun (k, v) -> (k, int_of_float (Obs.Json.num v))) (Obs.Json.obj c)
  | None -> failwith "baseline: no \"counters\" object"

(* Exact gate for deterministic counts. *)
let exact_counts ~tag ~why name b v =
  if v <> b then
    failwith
      (Printf.sprintf "%s: %s drifted (baseline %d, now %d; %s)" tag name b v
         why)

let parallel_kernels ~label ~n_gonzalez ~m_mwu ~n_matrix ~domain_counts
    ~json_path () =
  (* Each reading is the fastest of [time_reps] interleaved runs. The
     smoke kernels take 2-3 ms, and on a 2-core host the best of 5 left
     the 2-domain MWU reading anywhere from 0.46x to 1.07x. *)
  let reps = 3 and time_reps = 15 in
  let max_domains = List.fold_left max 1 domain_counts in
  (* Fan the workload repetitions out over the pool: one independent
     generator state per repetition. *)
  let workloads =
    with_domains max_domains (fun () ->
        Pool.map_array (Pool.get_default ()) ~chunk:1
          (fun seed ->
            let st = Random.State.make [| seed; 271 |] in
            Array.init n_gonzalez (fun _ ->
                [|
                  Random.State.float st 1000.0; Random.State.float st 1000.0;
                |]))
          (Array.init reps Fun.id))
  in
  let mat_pts = Array.sub workloads.(0) 0 (min n_matrix n_gonzalez) in
  let kernels =
    [
      ( "gonzalez",
        n_gonzalez,
        fun () ->
          Marshal.to_string
            (Array.map
               (fun pts -> Gonzalez.run_packed (Points.of_array pts) ~k:8)
               workloads)
            [] );
      ("mwu", m_mwu, fun () -> Marshal.to_string (mwu_kernel m_mwu) []);
      ( "distmatrix",
        Array.length mat_pts,
        fun () ->
          Marshal.to_string
            (Space.pairwise_distances (Space.of_points mat_pts))
            [] );
    ]
  in
  let rows = ref [] and json_rows = ref [] and measured = ref [] in
  List.iter
    (fun (kernel, size, f) ->
      (* The repetitions alternate between the domain counts, as in
         [interleaved_best], with only the timed count's pool alive: its
         worker domains alone join every stop-the-world pause. Each
         count keeps its first run's fingerprint and its fastest time;
         pool start and shutdown stay outside the timed region. *)
      let fps = Array.make (List.length domain_counts) ""
      and times = Array.make (List.length domain_counts) infinity in
      for rep = 1 to time_reps do
        List.iteri
          (fun s nd ->
            let fp, t = with_domains nd (fun () -> Util.time f) in
            if rep = 1 then fps.(s) <- fp;
            if t < times.(s) then times.(s) <- t)
          domain_counts
      done;
      let baseline_fp = fps.(0) and baseline_t = times.(0) in
      List.iteri
        (fun s nd ->
          let fp = fps.(s) and t = times.(s) in
          let identical = s = 0 || fp = baseline_fp in
          if not identical then
            failwith
              (Printf.sprintf
                 "parallel kernel %s diverged at %d domains (results are \
                  not bit-identical to the sequential path)"
                 kernel nd);
          let speedup = if t > 0.0 then baseline_t /. t else 1.0 in
          measured := (kernel, nd, t, speedup) :: !measured;
          rows :=
            [
              kernel;
              string_of_int size;
              string_of_int nd;
              Util.fmt_time t;
              Printf.sprintf "%.2fx" speedup;
              "yes";
            ]
            :: !rows;
          json_rows :=
            Printf.sprintf
              "    {\"kernel\": \"%s\", \"size\": %d, \"domains\": %d, \
               \"seconds\": %.6f, \"speedup_vs_seq\": %.3f, \"identical\": \
               true}"
              kernel size nd t speedup
            :: !json_rows)
        domain_counts)
    kernels;
  Util.print_table
    ~title:
      (Printf.sprintf
         "PAR (%s)  sequential vs parallel kernels (bit-identical outputs \
          enforced)"
         label)
    [ "kernel"; "size"; "domains"; "wall-clock"; "speedup"; "identical" ]
    (List.rev !rows);
  Printf.printf
    "(Speedups are relative to the %d-domain run of the same kernel; on a \
     single-core host they hover around 1x.)\n"
    (List.hd domain_counts);
  Util.write_file json_path
    (Printf.sprintf
       "{\n  \"bench\": \"parallel_kernels\",\n  \"variant\": \"%s\",\n  \
        \"nproc\": %d,\n  \"domain_counts\": [%s],\n  \"rows\": \
        [\n%s\n  ]\n}\n"
       label (nproc ())
       (String.concat ", " (List.map string_of_int domain_counts))
       (String.concat ",\n" (List.rev !json_rows)));
  List.rev !measured

let fig_parallel_scaling () =
  ignore
    (parallel_kernels ~label:"scaling" ~n_gonzalez:50_000 ~m_mwu:50_000
       ~n_matrix:1_500 ~domain_counts:[ 1; 2; 4 ]
       ~json_path:"BENCH_parallel.json" ())

(* Divergence + regression gate for CI (`make bench-smoke`): any
   nondeterminism between the sequential and parallel paths fails the
   run, and at >= 2 domains no kernel may fall below the committed
   speedup baseline. Speedups are stored as integer permille so the
   baseline file has the same format as the counter baselines. The
   absolute floor (0.65x) encodes the gate "parallel not slower than
   sequential at smoke sizes" with
   a noise band for best-of-15 timings of millisecond workloads: at
   these sizes the [seq_below] cutoffs keep the work inline, so an
   honest run sits at ~1.0x regardless of core count, while a genuine
   regression (losing the cutoff, or re-oversubscribing a small host)
   measured 0.22-0.47x. *)
let parallel_baseline_path = "BENCH_parallel_baseline.json"

let smoke_parallel () =
  let measured =
    parallel_kernels ~label:"smoke" ~n_gonzalez:2_000 ~m_mwu:2_000
      ~n_matrix:200 ~domain_counts:[ 1; 2 ]
      ~json_path:"BENCH_parallel_smoke.json" ()
  in
  let entries =
    List.filter_map
      (fun (kernel, nd, _t, speedup) ->
        if nd < 2 then None
        else
          Some
            ( Printf.sprintf "par.smoke.%s.d%d.speedup_permille" kernel nd,
              int_of_float (speedup *. 1000.0) ))
      measured
  in
  if entries = [] then failwith "parallel smoke: no multi-domain rows measured";
  let checked =
    gate_baseline ~tag:"parallel smoke" ~path:parallel_baseline_path
      ~record:
        (counters_baseline ~bench:"parallel_baseline"
           ~head:[ ("nproc", string_of_int (nproc ())) ]
           entries)
      ~rows:counter_rows
      ~check:(fun name b v ->
        let floor = max 650 (b * 6 / 10) in
        if v < floor then
          failwith
            (Printf.sprintf
               "parallel smoke: %s regressed to %d permille (baseline %d, \
                floor %d) -- a wired kernel is slower than its sequential run"
               name v b floor))
      entries
  in
  if checked <> None then
    Printf.printf
      "parallel smoke: parallel paths bit-identical and within the speedup \
       baseline (%d gated kernels).\n"
      (List.length entries)

(* ------------------------------------------------------------------ *)
(* OBS -- deterministic work-counter series (lib/obs).                  *)
(* Counter-vs-n scaling for the instrumented substrates. Counters are   *)
(* machine-independent, so unlike the wall-clock series these numbers   *)
(* must be IDENTICAL across repetitions and across domain counts; any   *)
(* divergence is a hard failure. Only counters go into the JSON         *)
(* artifact (timings would make it non-reproducible byte for byte).     *)
(* ------------------------------------------------------------------ *)

let with_obs_enabled f =
  let was = Obs.enabled () in
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled was) f

(* One named workload per instrumented stack, sized by [n]. Inputs are
   regenerated from a fixed seed each call so every repetition observes
   the same work. *)
let counter_kernels =
  let pts_of n =
    let st = Random.State.make [| n; 314159 |] in
    Array.init n (fun _ ->
        [| Random.State.float st 1000.0; Random.State.float st 1000.0 |])
  in
  [
    ( "gonzalez",
      [ 1_000; 2_000; 4_000; 8_000 ],
      fun n -> ignore (Gonzalez.run_packed (Points.of_array (pts_of n)) ~k:16) );
    ( "mwu",
      [ 2_000; 8_000; 32_000 ],
      fun n -> ignore (mwu_kernel n) );
    ( "gcso",
      [ 60; 120; 240 ],
      fun n ->
        let w = Planted.gcso_overlapping (rng 9) ~n ~k:3 ~z:2 in
        ignore (Gcso_general.solve ~eps:0.3 ~rounds:15 w.Planted.geo) );
  ]

let fig_counters () =
  with_obs_enabled @@ fun () ->
  let domain_counts = [ 1; 2 ] and reps = 2 in
  let rows = ref [] and json_rows = ref [] in
  List.iter
    (fun (kernel, sizes, run) ->
      List.iter
        (fun n ->
          (* Every (domain count, repetition) must observe the same
             counter deltas: atomic adds commute and the kernels are
             bit-identical across pool sizes, so the totals depend only
             on the work done. *)
          let deltas_runs =
            List.concat_map
              (fun nd ->
                List.init reps (fun _ ->
                    with_domains nd (fun () ->
                        snd (Obs.with_delta (fun () -> run n)))))
              domain_counts
          in
          let deltas = List.hd deltas_runs in
          List.iter
            (fun d ->
              if d <> deltas then
                failwith
                  (Printf.sprintf
                     "counter series for %s (n=%d) not reproducible across \
                      runs/domain counts"
                     kernel n))
            (List.tl deltas_runs);
          let pick name = Option.value ~default:0 (List.assoc_opt name deltas) in
          rows :=
            [
              kernel;
              string_of_int n;
              string_of_int (pick "metric.dist_evals");
              string_of_int (pick "geom.bbd.ball_queries");
              string_of_int (pick "geom.bbd.nodes_visited");
              string_of_int (pick "lp.mwu.rounds");
              string_of_int (pick "cso.gcso.oracle_calls");
            ]
            :: !rows;
          json_rows :=
            Printf.sprintf "    {\"kernel\": \"%s\", \"n\": %d, \"counters\": %s}"
              kernel n (Obs.counters_json deltas)
            :: !json_rows)
        sizes)
    counter_kernels;
  Util.print_table
    ~title:
      "OBS  work-counter scaling series (identical across 2 runs x domain \
       counts {1,2}; full per-counter data in BENCH_counters.json)"
    [ "kernel"; "n"; "dist evals"; "ball queries"; "bbd visits"; "mwu rounds";
      "oracle calls" ]
    (List.rev !rows);
  Util.write_file "BENCH_counters.json"
    (Printf.sprintf
       "{\n  \"bench\": \"counters\",\n  \"domain_counts\": [%s],\n  \
        \"series\": [\n%s\n  ]\n}\n"
       (String.concat ", " (List.map string_of_int domain_counts))
       (String.concat ",\n" (List.rev !json_rows)));
  (* Spans are wall-clock and therefore stdout-only. *)
  match Obs.span_stats () with
  | [] -> ()
  | stats ->
      Util.print_table ~title:"OBS  timed spans (this process, cumulative)"
        [ "span"; "calls"; "seconds" ]
        (List.map
           (fun (p, calls, secs) ->
             [ p; string_of_int calls; Printf.sprintf "%.4f" secs ])
           stats)

(* --- counter-regression gate for `make bench-smoke` --- *)

let smoke_baseline_path = "BENCH_counters_baseline.json"

(* The counters gated against the recorded baseline. Drift beyond 5%
   means an algorithmic change altered how much work the pinned workload
   does; rerecord the baseline deliberately if the change is intended. *)
let smoke_gated =
  [ "metric.dist_evals"; "kcenter.gonzalez.rounds"; "lp.mwu.rounds" ]

let smoke_counter_workload () =
  let st = Random.State.make [| 271828; 7 |] in
  let pts =
    Array.init 2_000 (fun _ ->
        [| Random.State.float st 1000.0; Random.State.float st 1000.0 |])
  in
  ignore (Gonzalez.run_packed (Points.of_array pts) ~k:8);
  ignore (mwu_kernel 2_000)

let smoke_counters () =
  with_obs_enabled @@ fun () ->
  let deltas =
    with_domains 1 (fun () -> snd (Obs.with_delta smoke_counter_workload))
  in
  let current = List.filter (fun (n, _) -> List.mem n smoke_gated) deltas in
  if List.length current <> List.length smoke_gated then
    failwith "counter smoke: pinned workload did not touch a gated counter";
  let drift b v =
    if b = 0 then if v = 0 then 0.0 else infinity
    else abs_float (float_of_int v -. float_of_int b) /. float_of_int b
  in
  match
    gate_baseline ~tag:"counter smoke" ~path:smoke_baseline_path
      ~record:(counters_baseline ~bench:"counters_baseline" current)
      ~rows:counter_rows
      ~check:(fun name b v ->
        if drift b v > 0.05 then
          failwith
            (Printf.sprintf
               "counter smoke: %s drifted %.1f%% (baseline %d, now %d; >5%% \
                gate)"
               name (100.0 *. drift b v) b v))
      current
  with
  | None -> ()
  | Some committed ->
      Util.print_table
        ~title:"SMOKE  counter-regression gate (pinned workload, 5% tolerance)"
        [ "counter"; "baseline"; "current"; "drift" ]
        (List.map
           (fun (name, v) ->
             let b = List.assoc name committed in
             [ name; string_of_int b; string_of_int v;
               Printf.sprintf "%.2f%%" (100.0 *. drift b v) ])
           current);
      Printf.printf "counter smoke: all gated counters within 5%% of baseline.\n"

(* ------------------------------------------------------------------ *)
(* BUDGETS -- machine-checked complexity budgets (Obs.Budget).          *)
(* Each instrumented kernel declares the log-log exponent its           *)
(* counter-vs-n series must fit (Table 1 shapes); the fit runs on       *)
(* deterministic counter deltas, so the emitted JSON is byte-           *)
(* reproducible and any asymptotic regression is a hard failure.        *)
(* ------------------------------------------------------------------ *)

module Bbd = Cso_geom.Bbd_tree
module Rect = Cso_geom.Rect

let declared_budgets =
  Bbd.budgets @ Gonzalez.budgets @ Mwu.budgets

let budget_pts_of n =
  let st = Random.State.make [| n; 314159 |] in
  Array.init n (fun _ ->
      [| Random.State.float st 1000.0; Random.State.float st 1000.0 |])

(* 64 query centers from a size-independent seed so per-query
   means are comparable across n. *)
let budget_n_queries = 64

let budget_queries () =
  let st = Random.State.make [| 8191; 13 |] in
  Array.init budget_n_queries (fun _ ->
      [| Random.State.float st 1000.0; Random.State.float st 1000.0 |])

let counter_delta name f =
  let (), deltas = Obs.with_delta f in
  float_of_int (Option.value ~default:0 (List.assoc_opt name deltas))

(* One series per declared budget: sizes and a measurement returning the
   per-size y value (total work, or mean per-query work). *)
let budget_series =
  [
    ( "metric.dist_evals",
      [ 1_000; 2_000; 4_000; 8_000 ],
      fun n ->
        counter_delta "metric.dist_evals" (fun () ->
            ignore
              (Gonzalez.run_packed (Points.of_array (budget_pts_of n)) ~k:16))
    );
    ( "geom.bbd.nodes_per_query",
      [ 1_000; 2_000; 4_000; 8_000 ],
      fun n ->
        let t = Bbd.build_packed (Points.of_array (budget_pts_of n)) in
        let queries = budget_queries () in
        counter_delta "geom.bbd.nodes_visited" (fun () ->
            Array.iter
              (fun c ->
                ignore (Bbd.ball_query t ~center:c ~radius:120.0 ~eps:0.3))
              queries)
        /. float_of_int budget_n_queries );
    ( "lp.mwu.rounds",
      [ 2_000; 8_000; 32_000 ],
      fun n -> counter_delta "lp.mwu.rounds" (fun () -> ignore (mwu_kernel n))
    );
  ]

let budget_of name =
  match
    List.find_opt (fun b -> b.Obs.Budget.b_name = name) declared_budgets
  with
  | Some b -> b
  | None -> failwith ("no declared budget for series " ^ name)

(* Runs every budget series (optionally scaled down), hard-fails on
   cross-domain-count divergence and on any budget violation, and writes
   the rows to [json_path]. Returns the rendered row strings. *)
let run_budget_checks ~label ~scale ~domain_counts ~json_path () =
  with_obs_enabled @@ fun () ->
  let rows = ref [] and json_rows = ref [] in
  List.iter
    (fun (name, sizes, measure) ->
      let sizes =
        if scale = 1 then sizes else List.map (fun n -> n / scale) sizes
      in
      let points_runs =
        List.map
          (fun nd ->
            with_domains nd (fun () ->
                List.map (fun n -> (float_of_int n, measure n)) sizes))
          domain_counts
      in
      let points = List.hd points_runs in
      List.iter
        (fun p ->
          if p <> points then
            failwith
              (Printf.sprintf
                 "budget series %s not reproducible across domain counts"
                 name))
        (List.tl points_runs);
      let b = budget_of name in
      let fitted =
        match Obs.Budget.check b points with
        | Ok fitted -> fitted
        | Error msg -> failwith msg
      in
      rows :=
        [
          name;
          Printf.sprintf "%.2f" b.Obs.Budget.b_expected;
          Printf.sprintf "%.2f" b.Obs.Budget.b_tolerance;
          Printf.sprintf "%.3f" fitted;
          "ok";
        ]
        :: !rows;
      json_rows :=
        ("    " ^ Obs.Budget.row_json b ~fitted ~points) :: !json_rows)
    budget_series;
  Util.print_table
    ~title:
      (Printf.sprintf
         "BUDGETS (%s)  fitted log-log exponents vs declared Table-1 shapes \
          (identical across domain counts {%s})"
         label
         (String.concat "," (List.map string_of_int domain_counts)))
    [ "series"; "expected"; "tolerance"; "fitted"; "verdict" ]
    (List.rev !rows);
  Util.write_file json_path
    (Printf.sprintf
       "{\n  \"bench\": \"budgets\",\n  \"variant\": \"%s\",\n  \
        \"domain_counts\": [%s],\n  \"budgets\": [\n%s\n  ]\n}\n"
       label
       (String.concat ", " (List.map string_of_int domain_counts))
       (String.concat ",\n" (List.rev !json_rows)));
  List.rev !json_rows

let fig_budgets () =
  ignore
    (run_budget_checks ~label:"full" ~scale:1 ~domain_counts:[ 1; 2 ]
       ~json_path:"BENCH_budgets.json" ())

let budgets_baseline_path = "BENCH_budgets_baseline.json"

(* Budget gate for `make bench-smoke`: check the declared exponents and
   gate the fitted values against the committed baseline (0.1 absolute
   drift — fits are deterministic, so any drift means the workload or
   the algorithm changed). Runs at full series sizes: the whole sweep is
   sub-second, and small-n prefixes inflate polylog slopes. *)
let smoke_budgets () =
  let json_rows =
    run_budget_checks ~label:"smoke" ~scale:1 ~domain_counts:[ 1; 2 ]
      ~json_path:"BENCH_budgets_smoke.json" ()
  in
  let body =
    Printf.sprintf
      "{\n  \"bench\": \"budgets\",\n  \"variant\": \"baseline\",\n  \
       \"budgets\": [\n%s\n  ]\n}\n"
      (String.concat ",\n" json_rows)
  in
  let fitted_rows doc =
    match Obs.Json.member "budgets" doc with
    | Some (Obs.Json.Arr rows) ->
        List.map
          (fun row ->
            match (Obs.Json.member "name" row, Obs.Json.member "fitted" row) with
            | Some (Obs.Json.Str n), Some (Obs.Json.Num f) -> (n, f)
            | _ -> failwith "budget smoke: a budget row without name/fitted")
          rows
    | _ -> failwith "budget smoke: no \"budgets\" array"
  in
  let checked =
    gate_baseline ~tag:"budget smoke" ~path:budgets_baseline_path ~record:body
      ~rows:fitted_rows
      ~check:(fun name b c ->
        if abs_float (c -. b) > 0.1 then
          failwith
            (Printf.sprintf
               "budget smoke: %s fitted exponent drifted (baseline %.3f, now \
                %.3f; >0.1 gate)"
               name b c))
      (fitted_rows (Obs.Json.parse body))
  in
  if checked <> None then
    Printf.printf
      "budget smoke: all fitted exponents within 0.1 of baseline and inside \
       declared tolerances.\n"

(* ------------------------------------------------------------------ *)
(* KERNELS -- cache-resident compute core (DESIGN.md, section 3e).      *)
(* Boxed Point kernels vs the packed SoA store, the batched BBD ball    *)
(* sweep under domain counts {1,2}, and the flat simplex tableau vs     *)
(* the row-of-rows reference. Checksums, counter deltas and histogram   *)
(* deltas must be bit-identical between the paired variants; wall-clock *)
(* lands in BENCH_kernels.json, and the deterministic work counts are   *)
(* gated exactly against a committed baseline in `make bench-smoke`.    *)
(* ------------------------------------------------------------------ *)

module Simplex = Cso_lp.Simplex

(* Timing sections run with counters off: an atomic add per call would
   dominate a four-flop distance kernel and mask the layout effect the
   bench exists to measure. Identity sections re-run with counters on. *)
let with_obs_disabled f =
  let was = Obs.enabled () in
  Obs.set_enabled false;
  Fun.protect ~finally:(fun () -> Obs.set_enabled was) f

let kernel_pts_of n d =
  let st = Random.State.make [| n; d; 424243 |] in
  Array.init n (fun _ -> Array.init d (fun _ -> Random.State.float st 1000.0))

(* Fixed total eval budget per row so wall-clock is comparable across
   sizes. Each pass sweeps the whole store against a shifted copy of
   itself -- the access pattern of the Gonzalez and violation sweeps. *)
let kernel_eval_target = 1 lsl 22
let kernel_passes n = max 1 (kernel_eval_target / n)

(* Scattered partner index: a Weyl-style multiplicative hash, masked to
   [0, n) (sizes are powers of two). Sequential partners would let the
   hardware prefetcher hide the boxed layout's pointer chase entirely;
   scattered access is what the BBD / ball-query sweeps actually do, so
   that is the pattern the bench measures. Cheap (one multiply + mask,
   no division) and identical for both variants. *)
let kernel_partner n i p = (((i + p) * 0x9E3779B1) land max_int) land (n - 1)

let boxed_sweep pts passes =
  let n = Array.length pts in
  let acc = ref 0.0 in
  for p = 1 to passes do
    for i = 0 to n - 1 do
      acc := !acc +. Point.l2_sq pts.(i) pts.(kernel_partner n i p)
    done
  done;
  !acc

let packed_sweep c passes =
  let n = Points.length c in
  let acc = ref 0.0 in
  for p = 1 to passes do
    for i = 0 to n - 1 do
      acc := !acc +. Points.l2_sq_idx c i (kernel_partner n i p)
    done
  done;
  !acc

(* Row sweeps: all n distances from one (rotating) center per pass. The
   boxed API can only express this as n kernel calls; the packed store
   has the batch [l2_sq_to] row kernel. The checksum folds one rotating
   element per pass so the full result feeds the bit-identity check. *)
let boxed_row_sweep pts dst passes =
  let n = Array.length pts in
  let acc = ref 0.0 in
  for p = 0 to passes - 1 do
    let i = (p * 131) land (n - 1) in
    let pi = pts.(i) in
    for j = 0 to n - 1 do
      dst.(j) <- Point.l2_sq pi pts.(j)
    done;
    acc := !acc +. dst.((p * 17) land (n - 1))
  done;
  !acc

let packed_row_sweep c dst passes =
  let n = Points.length c in
  let acc = ref 0.0 in
  for p = 0 to passes - 1 do
    Points.l2_sq_to c ((p * 131) land (n - 1)) dst;
    acc := !acc +. dst.((p * 17) land (n - 1))
  done;
  !acc

(* Random instances with the exact shape of the bounded (LP1) that
   Cso_general solved before it moved to the packing dual
   ([Reference.cso_lp1]): a center-capacity row (Le k), an
   outlier-capacity row (Le z) and one Ge-1 coverage row per element,
   over [0,1] box variables. Kept as the kernel gate's simplex workload,
   so its pivot count stays comparable across changes. *)
let coverage_lp ~n ~m ~k ~z seed =
  let st = Random.State.make [| n; m; seed; 31337 |] in
  let nv = n + m in
  let centers_cap =
    let a = Array.make nv 0.0 in
    for i = 0 to n - 1 do
      a.(i) <- 1.0
    done;
    (a, Simplex.Le, float_of_int k)
  in
  let outliers_cap =
    let a = Array.make nv 0.0 in
    for j = 0 to m - 1 do
      a.(n + j) <- 1.0
    done;
    (a, Simplex.Le, float_of_int z)
  in
  let coverage =
    List.init n (fun i ->
        let a = Array.make nv 0.0 in
        a.(i) <- 1.0;
        for _ = 1 to 1 + Random.State.int st 3 do
          a.(Random.State.int st n) <- 1.0
        done;
        for _ = 1 to 1 + Random.State.int st 2 do
          a.(n + Random.State.int st m) <- 1.0
        done;
        (a, Simplex.Ge, 1.0))
  in
  {
    Simplex.num_vars = nv;
    objective = Array.make nv 0.0;
    constraints = centers_cap :: outliers_cap :: coverage;
    bounds = Simplex.box nv;
  }

let kernel_lps () =
  List.concat_map
    (fun (n, m, k, z, count) ->
      List.init count (fun s -> coverage_lp ~n ~m ~k ~z s))
    [ (24, 10, 4, 3, 6); (40, 14, 5, 4, 4); (56, 18, 6, 4, 2) ]

(* Shared by [fig_kernels] and [smoke_kernels]: runs every paired
   variant, hard-fails on any identity violation (and, at n >= 4096, on
   the packed kernel being slower than the boxed one), writes
   [json_path] and returns the deterministic work counts. *)
let run_kernel_checks ~label ~sizes ~balls_n ~reps ~json_path () =
  let rows = ref [] and json_rows = ref [] and counts = ref [] in
  let record kernel size variant secs speedup =
    rows :=
      [ kernel; size; variant; Util.fmt_time secs;
        Printf.sprintf "%.2fx" speedup ]
      :: !rows;
    json_rows :=
      Printf.sprintf
        "    {\"kernel\": \"%s\", \"size\": \"%s\", \"variant\": \"%s\", \
         \"seconds\": %.6f, \"speedup\": %.3f}"
        kernel size variant secs speedup
      :: !json_rows
  in
  let pick deltas name =
    Option.value ~default:0 (List.assoc_opt name deltas)
  in
  (* --- distance kernels: boxed Point vs packed SoA --- *)
  List.iter
    (fun (n, d) ->
      if n land (n - 1) <> 0 then
        invalid_arg "run_kernel_checks: sizes must be powers of two";
      let pts = kernel_pts_of n d in
      let c = Points.of_array pts in
      let passes = kernel_passes n in
      let rb, db =
        with_obs_enabled (fun () ->
            Obs.with_delta (fun () -> boxed_sweep pts passes))
      in
      let rp, dp =
        with_obs_enabled (fun () ->
            Obs.with_delta (fun () -> packed_sweep c passes))
      in
      if Int64.bits_of_float rb <> Int64.bits_of_float rp then
        failwith
          (Printf.sprintf
             "kernel check: packed l2_sq checksum diverged from boxed at \
              n=%d d=%d"
             n d);
      if db <> dp then
        failwith
          (Printf.sprintf
             "kernel check: packed counter deltas diverged from boxed at \
              n=%d d=%d"
             n d);
      let evals = pick dp "metric.dist_evals" in
      if evals <> passes * n then
        failwith
          (Printf.sprintf
             "kernel check: expected %d dist evals at n=%d d=%d, counted %d"
             (passes * n) n d evals);
      counts := (Printf.sprintf "kernels.dist_evals.n%d_d%d" n d, evals)
                :: !counts;
      let t =
        with_obs_disabled (fun () ->
            interleaved_best reps
              [
                (fun () -> ignore (boxed_sweep pts passes));
                (fun () -> ignore (packed_sweep c passes));
              ])
      in
      let tb = t.(0) and tp = t.(1) in
      if n >= 4096 && tp > tb then
        failwith
          (Printf.sprintf
             "kernel check: packed l2_sq SLOWER than boxed at n=%d d=%d \
              (%.6fs vs %.6fs); the SoA layout must never lose at this size"
             n d tp tb);
      let size = Printf.sprintf "n=%d d=%d" n d in
      record "l2_sq" size "boxed" tb 1.0;
      record "l2_sq" size "packed" tp (if tp > 0.0 then tb /. tp else 1.0);
      (* Row sweeps: boxed per-call loop vs the batch row kernel. *)
      let db_dst = Array.make n 0.0 and dp_dst = Array.make n 0.0 in
      let rrb, rdb =
        with_obs_enabled (fun () ->
            Obs.with_delta (fun () -> boxed_row_sweep pts db_dst passes))
      in
      let rrp, rdp =
        with_obs_enabled (fun () ->
            Obs.with_delta (fun () -> packed_row_sweep c dp_dst passes))
      in
      if
        Int64.bits_of_float rrb <> Int64.bits_of_float rrp
        || not
             (Array.for_all2
                (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y)
                db_dst dp_dst)
      then
        failwith
          (Printf.sprintf
             "kernel check: l2_sq_to row kernel diverged from per-call \
              sweep at n=%d d=%d"
             n d);
      if rdb <> rdp then
        failwith
          (Printf.sprintf
             "kernel check: row-kernel counter deltas diverged at n=%d d=%d"
             n d);
      let row_evals = pick rdp "metric.dist_evals" in
      if row_evals <> passes * n then
        failwith
          (Printf.sprintf
             "kernel check: expected %d row dist evals at n=%d d=%d, \
              counted %d"
             (passes * n) n d row_evals);
      counts := (Printf.sprintf "kernels.row_evals.n%d_d%d" n d, row_evals)
                :: !counts;
      let t =
        with_obs_disabled (fun () ->
            interleaved_best reps
              [
                (fun () -> ignore (boxed_row_sweep pts db_dst passes));
                (fun () -> ignore (packed_row_sweep c dp_dst passes));
              ])
      in
      let trb = t.(0) and trp = t.(1) in
      if n >= 4096 && trp > trb then
        failwith
          (Printf.sprintf
             "kernel check: packed row kernel SLOWER than boxed at n=%d \
              d=%d (%.6fs vs %.6fs)"
             n d trp trb);
      record "l2_sq_row" size "boxed" trb 1.0;
      record "l2_sq_row" size "packed" trp
        (if trp > 0.0 then trb /. trp else 1.0))
    sizes;
  (* --- batched BBD ball sweep: the one pooled kernel here, so results,
     counters and histograms must agree across domain counts {1,2} --- *)
  let bpts = kernel_pts_of balls_n 2 in
  let bt = Bbd.build_packed (Points.of_array bpts) in
  let radius = 120.0 and eps = 0.3 in
  let ball_run nd =
    with_domains nd (fun () ->
        with_obs_enabled (fun () ->
            Obs.Hist.with_delta (fun () ->
                Obs.with_delta (fun () ->
                    Marshal.to_string (Bbd.balls_all bt ~radius ~eps) []))))
  in
  let run1 = ball_run 1 in
  if ball_run 2 <> run1 then
    failwith
      "kernel check: balls_all diverged across domain counts {1,2} \
       (results, counters and histograms must be bit-identical)";
  let (_, bd), _ = run1 in
  counts :=
    ("kernels.balls_all.nodes_visited", pick bd "geom.bbd.nodes_visited")
    :: ("kernels.balls_all.queries", pick bd "geom.bbd.ball_queries")
    :: !counts;
  let ball_t1 = ref 0.0 in
  List.iter
    (fun nd ->
      let t =
        with_domains nd (fun () ->
            with_obs_disabled (fun () ->
                timed_best reps (fun () ->
                    ignore (Bbd.balls_all bt ~radius ~eps))))
      in
      if nd = 1 then ball_t1 := t;
      record "balls_all"
        (Printf.sprintf "n=%d d=2" balls_n)
        (Printf.sprintf "%d domains" nd)
        t
        (if t > 0.0 then !ball_t1 /. t else 1.0))
    [ 1; 2 ];
  (* --- flat simplex tableau vs row-of-rows reference --- *)
  let lps = kernel_lps () in
  let lp_run solver =
    with_obs_enabled (fun () ->
        Obs.Hist.with_delta (fun () ->
            Obs.with_delta (fun () ->
                List.map (fun lp -> Marshal.to_string (solver lp) []) lps)))
  in
  let ((out_f, cd_f), hd_f) = lp_run Simplex.solve in
  let ((out_r, cd_r), hd_r) = lp_run Cso_refcheck.Reference.simplex_solve in
  if out_f <> out_r then
    failwith "kernel check: flat simplex outcomes diverged from reference";
  if cd_f <> cd_r || hd_f <> hd_r then
    failwith
      "kernel check: flat simplex counters/histograms diverged from \
       reference (lp.simplex.pivots_per_solve must be unchanged)";
  counts :=
    ("kernels.simplex.pivots", pick cd_f "lp.simplex.pivots")
    :: ("kernels.simplex.solves", pick cd_f "lp.simplex.solves")
    :: !counts;
  let t =
    with_obs_disabled (fun () ->
        interleaved_best reps
          [
            (fun () ->
              List.iter
                (fun lp -> ignore (Cso_refcheck.Reference.simplex_solve lp))
                lps);
            (fun () -> List.iter (fun lp -> ignore (Simplex.solve lp)) lps);
          ])
  in
  let tr = t.(0) and tf = t.(1) in
  let lp_size = Printf.sprintf "%d coverage LPs" (List.length lps) in
  record "simplex" lp_size "reference" tr 1.0;
  record "simplex" lp_size "flat" tf (if tf > 0.0 then tr /. tf else 1.0);
  let counts =
    List.sort (fun (a, _) (b, _) -> String.compare a b) !counts
  in
  Util.print_table
    ~title:
      (Printf.sprintf
         "KERNELS (%s)  boxed vs packed compute core (bit-identical \
          outputs/counters enforced; speedups vs the paired baseline)"
         label)
    [ "kernel"; "size"; "variant"; "wall-clock"; "speedup" ]
    (List.rev !rows);
  Util.write_file json_path
    (Printf.sprintf
       "{\n  \"bench\": \"kernels\",\n  \"variant\": \"%s\",\n  \"nproc\": \
        %d,\n  \"domains\": %d,\n  \"rows\": [\n%s\n  ],\n  \"counters\": \
        %s\n}\n"
       label (nproc ())
       (Pool.default_size ())
       (String.concat ",\n" (List.rev !json_rows))
       (Obs.counters_json counts));
  counts

let fig_kernels () =
  ignore
    (run_kernel_checks ~label:"full"
       ~sizes:[ (1024, 4); (4096, 4); (16384, 4); (16384, 2) ]
       ~balls_n:4_000 ~reps:3 ~json_path:"BENCH_kernels.json" ())

let kernels_baseline_path = "BENCH_kernels_baseline.json"

(* Kernel gate for `make bench-smoke`: beyond the identity and
   packed-not-slower checks inside [run_kernel_checks], the
   deterministic work counts (dist evals, BBD sweep work, simplex
   pivots) must match the committed baseline exactly -- they depend
   only on the pinned workload, so any drift is an algorithmic change
   that must be recorded deliberately. *)
let smoke_kernels () =
  let counts =
    run_kernel_checks ~label:"smoke" ~sizes:[ (4096, 4) ] ~balls_n:2_000
      ~reps:3 ~json_path:"BENCH_kernels_smoke.json" ()
  in
  let tag = "kernel smoke" in
  let checked =
    gate_baseline ~tag ~path:kernels_baseline_path
      ~record:(counters_baseline ~bench:"kernels_baseline" counts)
      ~rows:counter_rows
      ~check:
        (exact_counts ~tag ~why:"counts are deterministic, so the gate is exact")
      counts
  in
  if checked <> None then
    Printf.printf
      "kernel smoke: packed/boxed and flat/reference paths bit-identical; \
       all work counts match baseline exactly.\n"

(* ------------------------------------------------------------------ *)
(* Dynamic trees: amortized update cost vs rebuild-per-insert          *)
(* ------------------------------------------------------------------ *)

module Dyn = Cso_geom.Dynamic
module Drift = Cso_workload.Drift

(* Fixed-seed drift workload per size, so both the replayed work and
   the logarithmic-method rebuild counters are deterministic. *)
let dynamic_workload n =
  let rng = Random.State.make [| n; 9090 |] in
  Drift.drifting rng ~n_ops:n ~k:4 ~z:0 ~churn:0.25

(* Fixed-seed delete-heavy churn workload: the tombstone adversary the
   per-level partial rebuilds are gated against. *)
let churn_workload n =
  let rng = Random.State.make [| n; 7171 |] in
  Drift.churn_heavy rng ~n_ops:n ~k:4 ~z:0

let replay_ball w =
  let t = Dyn.Ball.create ~dim:w.Drift.dim () in
  Array.iter
    (function
      | Drift.Insert p -> ignore (Dyn.Ball.insert t p)
      | Drift.Delete id -> Dyn.Ball.delete t id)
    w.Drift.ops;
  t

(* Shared by [fig_dynamic] and [smoke_dynamic]: replays a drifting
   insert/delete workload through the dynamic ball tree, hard-fails if a
   final query differs from a static rebuild over the survivors, gates
   amortized insert cost against rebuild-per-insert at n >= 4096, then
   replays a delete-heavy churn workload and hard-fails any level whose
   stored/live ratio reaches 1 + alpha (and requires the partial-rebuild
   policy to actually fire). Writes [json_path] and returns the
   deterministic rebuild-work counts. *)
let run_dynamic_checks ~label ~sizes ~reps ~json_path () =
  let rows = ref [] and json_rows = ref [] and counts = ref [] in
  let record structure n variant secs per_op =
    rows :=
      [ structure; string_of_int n; variant; Util.fmt_time secs;
        Util.fmt_time per_op ]
      :: !rows;
    json_rows :=
      Printf.sprintf
        "    {\"structure\": \"%s\", \"n_ops\": %d, \"variant\": \"%s\", \
         \"seconds\": %.6f, \"per_op\": %.9f}"
        structure n variant secs per_op
      :: !json_rows
  in
  List.iter
    (fun n ->
      if n land (n - 1) <> 0 then
        invalid_arg "run_dynamic_checks: sizes must be powers of two";
      let w = dynamic_workload n in
      (* --- correctness: final answers = static rebuild of survivors --- *)
      let ball = replay_ball w in
      let live = Dyn.Ball.live_points ball in
      let ids = Array.of_list (List.map fst live) in
      let pts = Array.of_list (List.map snd live) in
      let center = Array.make w.Drift.dim 0.0 in
      let radius = 1000.0 in
      let dyn_hits = Dyn.Ball.ball_report ball ~center ~radius in
      let static_hits =
        if pts = [||] then []
        else
          let st = Bbd.build_packed (Points.of_array pts) in
          Bbd.ball_query st ~center ~radius ~eps:0.0
          |> List.concat_map (Bbd.points_of_node st)
          |> List.map (fun l -> ids.(l))
          |> List.sort compare
      in
      if dyn_hits <> static_hits then
        failwith
          (Printf.sprintf
             "dynamic check: ball answers diverged from static rebuild at \
              n=%d"
             n);
      (* --- deterministic rebuild-work counts --- *)
      let s = Dyn.Ball.stats ball in
      counts :=
        (Printf.sprintf "dynamic.ball.points_rebuilt.n%d" n,
         s.Dyn.points_rebuilt)
        :: (Printf.sprintf "dynamic.ball.level_rebuilds.n%d" n,
            s.Dyn.level_rebuilds)
        :: (Printf.sprintf "dynamic.ball.partial_rebuilds.n%d" n,
            s.Dyn.partial_rebuilds)
        :: (Printf.sprintf "dynamic.live.n%d" n, Dyn.Ball.live_count ball)
        :: (Printf.sprintf "dynamic.ball.query_hits.n%d" n,
            List.length dyn_hits)
        :: !counts;
      (* --- amortized update cost of the full insert/delete replay --- *)
      let tb =
        with_obs_disabled (fun () ->
            timed_best reps (fun () -> ignore (replay_ball w)))
      in
      record "ball" n "dynamic replay" tb (tb /. float_of_int n);
      (* --- insert-only amortized cost vs rebuild-per-insert ---
         The static baseline rebuilds the BBD tree after each insert;
         its cost is sampled every [stride] inserts and scaled (build
         time is smooth in the prefix length, so the stride introduces
         only sampling noise, and it keeps the smoke run fast). *)
      let ins =
        Array.of_seq
          (Seq.filter_map
             (function Drift.Insert p -> Some p | Drift.Delete _ -> None)
             (Array.to_seq w.Drift.ops))
      in
      let n_ins = Array.length ins in
      let stride = 64 in
      let t =
        with_obs_disabled (fun () ->
            interleaved_best reps
              [
                (fun () ->
                  let t = Dyn.Ball.create ~dim:w.Drift.dim () in
                  Array.iter (fun p -> ignore (Dyn.Ball.insert t p)) ins);
                (fun () ->
                  for i = 1 to n_ins / stride do
                    ignore
                      (Bbd.build_packed
                         (Points.of_array (Array.sub ins 0 (i * stride))))
                  done);
              ])
      in
      let t_dyn = t.(0) and t_sampled = t.(1) in
      let t_rebuild = t_sampled *. float_of_int stride in
      record "ball" n "insert-only dynamic" t_dyn
        (t_dyn /. float_of_int (max 1 n_ins));
      record "ball" n
        (Printf.sprintf "rebuild-per-insert (stride %d)" stride)
        t_rebuild
        (t_rebuild /. float_of_int (max 1 n_ins));
      if n >= 4096 && t_dyn > t_rebuild then
        failwith
          (Printf.sprintf
             "dynamic check: amortized insert SLOWER than rebuild-per-insert \
              at n=%d (%.6fs vs %.6fs); the logarithmic method must never \
              lose at this size"
             n t_dyn t_rebuild);
      (* --- delete-heavy churn: per-level stored/live stays bounded ---
         The churn adversary sustains 3:1 deletes over inserts; the
         weight-balanced partial rebuilds must keep every level at
         [stored < (1 + alpha) * live] anyway, and the final answers
         must still equal the live set. *)
      let cw = churn_workload n in
      let cball = replay_ball cw in
      let alpha = Dyn.Ball.alpha cball in
      List.iteri
        (fun i (stored, lvl_live) ->
          if
            not
              (float_of_int (stored - lvl_live) < alpha *. float_of_int lvl_live)
          then
            failwith
              (Printf.sprintf
                 "dynamic check: churn ball level %d holds %d stored for %d \
                  live at n=%d — stored/live ratio exceeds 1 + alpha (%.2f); \
                  the partial-rebuild policy is broken"
                 i stored lvl_live n (1.0 +. alpha)))
        (Dyn.Ball.level_stats cball);
      let cs = Dyn.Ball.stats cball in
      if cs.Dyn.partial_rebuilds = 0 then
        failwith
          (Printf.sprintf
             "dynamic check: churn workload fired no partial rebuild at \
              n=%d — the adversary is not exercising the policy"
             n);
      counts :=
        (Printf.sprintf "dynamic.churn.ball.partial_rebuilds.n%d" n,
         cs.Dyn.partial_rebuilds)
        :: (Printf.sprintf "dynamic.churn.ball.points_rebuilt.n%d" n,
            cs.Dyn.points_rebuilt)
        :: (Printf.sprintf "dynamic.churn.stored.n%d" n,
            Dyn.Ball.stored_count cball)
        :: (Printf.sprintf "dynamic.churn.live.n%d" n,
            Dyn.Ball.live_count cball)
        :: !counts;
      let tc =
        with_obs_disabled (fun () ->
            timed_best reps (fun () -> ignore (replay_ball cw)))
      in
      record "ball" n "churn replay (3:1 deletes)" tc
        (tc /. float_of_int n))
    sizes;
  let counts =
    List.sort (fun (a, _) (b, _) -> String.compare a b) !counts
  in
  Util.print_table
    ~title:
      (Printf.sprintf
         "DYNAMIC (%s)  logarithmic-method ball tree under drift churn \
          (static-rebuild answers enforced; per-op = wall-clock / ops)"
         label)
    [ "structure"; "n_ops"; "variant"; "wall-clock"; "per-op" ]
    (List.rev !rows);
  Util.write_file json_path
    (Printf.sprintf
       "{\n  \"bench\": \"dynamic\",\n  \"variant\": \"%s\",\n  \"nproc\": \
        %d,\n  \"domains\": %d,\n  \"rows\": [\n%s\n  ],\n  \"counters\": \
        %s\n}\n"
       label (nproc ())
       (Pool.default_size ())
       (String.concat ",\n" (List.rev !json_rows))
       (Obs.counters_json counts));
  counts

let fig_dynamic () =
  ignore
    (run_dynamic_checks ~label:"full" ~sizes:[ 1024; 4096; 16384 ] ~reps:3
       ~json_path:"BENCH_dynamic.json" ())

let dynamic_baseline_path = "BENCH_dynamic_baseline.json"

(* Dynamic gate for `make bench-smoke`: beyond the static-rebuild
   identity and the amortized-insert gate inside [run_dynamic_checks],
   the logarithmic-method rebuild work (points fed through static
   builds, level merges, half-dead rebuilds) on the pinned drift
   workload must match the committed baseline exactly. *)
let smoke_dynamic () =
  let counts =
    run_dynamic_checks ~label:"smoke" ~sizes:[ 4096 ] ~reps:3
      ~json_path:"BENCH_dynamic_smoke.json" ()
  in
  let tag = "dynamic smoke" in
  let checked =
    gate_baseline ~tag ~path:dynamic_baseline_path
      ~record:(counters_baseline ~bench:"dynamic_baseline" counts)
      ~rows:counter_rows
      ~check:
        (exact_counts ~tag
           ~why:"rebuild work is deterministic, so the gate is exact")
      counts
  in
  if checked <> None then
    Printf.printf
      "dynamic smoke: answers match static rebuilds; amortized insert beats \
       rebuild-per-insert; churn keeps every level below (1 + alpha) * \
       live; all rebuild-work counts match baseline exactly.\n"

(* ------------------------------------------------------------------ *)
(* SERVE -- the csokitd session loop benched end-to-end in process     *)
(* ------------------------------------------------------------------ *)

module Sproto = Cso_serve.Protocol
module Sserver = Cso_serve.Server
module Sregistry = Cso_serve.Registry

(* Replay client over a socketpair: one outstanding request at a time,
   raw reply payloads kept (newest first) so the transcript can be
   digested for the deterministic smoke gate. *)
type sclient = {
  sc_fd : Unix.file_descr;
  sc_rd : Sproto.reader;
  mutable sc_script : Sproto.request list;
  mutable sc_outstanding : bool;
  mutable sc_frames : string list;
}

let sc_write c s =
  let n = String.length s in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write_substring c.sc_fd s !off (n - !off)
  done

let sc_try_read c =
  match Unix.select [ c.sc_fd ] [] [] 0.0 with
  | [], _, _ -> ()
  | _ ->
      let buf = Bytes.create 65536 in
      let n = Unix.read c.sc_fd buf 0 (Bytes.length buf) in
      if n > 0 then
        List.iter
          (function
            | `Frame payload ->
                c.sc_outstanding <- false;
                c.sc_frames <- payload :: c.sc_frames
            | `Oversized _ -> failwith "serve bench: oversized reply")
          (Sproto.feed c.sc_rd buf n)

let serve_points n =
  let st = Random.State.make [| n; 271828 |] in
  Array.init n (fun _ ->
      [| Random.State.float st 100.0; Random.State.float st 100.0 |])

(* Read-only request mix per client (everything after setup is a query,
   so the resident instance never mutates and the reply transcript is a
   pure function of the scripts). *)
let serve_script ~points ~n_requests ci =
  let n = Array.length points in
  List.init n_requests (fun j ->
      let p = points.(((ci * 37) + (j * 13)) mod n) in
      match j mod 10 with
      | 0 -> Sproto.Solve "bench"
      | 1 | 2 -> Sproto.Balls_all { name = "bench"; radius = 8.0; eps = 0.1 }
      | 3 -> Sproto.Assign "bench"
      | _ ->
          Sproto.Query_ball
            { name = "bench"; center = p; radius = 10.0; eps = 0.1 })

(* Drives [n_clients] replay clients through an in-process server
   (socketpair transport, binary codec, pooled batched execution),
   hard-fails on any error / overload reply, and returns the
   deterministic transcript fingerprint: request and response counts
   plus an MD5 of every reply payload in client order. *)
let serve_replay ~n_points ~n_clients ~n_requests =
  let points = serve_points n_points in
  (* The rects are the candidate outlier sets and must cover every
     point; a 4x4 tiling keeps any single discarded set from emptying
     the population, so the warm solve always has centers for
     [Assign]. *)
  let rects =
    Array.init 16 (fun i ->
        let x = float_of_int (i mod 4) *. 25.0
        and y = float_of_int (i / 4) *. 25.0 in
        Rect.make ~lo:[| x; y |] ~hi:[| x +. 25.0; y +. 25.0 |])
  in
  let registry = Sregistry.create () in
  let srv =
    Sserver.create
      ~config:
        { Sserver.mode = Sproto.Binary;
          max_inflight = 4 * (n_clients + 1);
          batch = 32 }
      registry
  in
  let mk_client () =
    let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Sserver.add_connection srv a;
    {
      sc_fd = b;
      sc_rd = Sproto.reader Sproto.Binary;
      sc_script = [];
      sc_outstanding = false;
      sc_frames = [];
    }
  in
  let drive clients =
    let live () =
      List.exists (fun c -> c.sc_script <> [] || c.sc_outstanding) clients
    in
    while live () do
      List.iter
        (fun c ->
          if (not c.sc_outstanding) && c.sc_script <> [] then begin
            let r = List.hd c.sc_script in
            c.sc_script <- List.tl c.sc_script;
            c.sc_outstanding <- true;
            sc_write c (Sproto.encode_request Sproto.Binary r)
          end)
        clients;
      ignore (Sserver.step ~timeout:0.0005 srv);
      List.iter sc_try_read clients
    done
  in
  let assert_clean who c =
    (* Oldest first: the first bad reply is the root cause (later ones
       are usually knock-on "no instance" errors). *)
    List.iteri
      (fun i p ->
        match Sproto.decode_response Sproto.Binary p with
        | Ok (Sproto.Error (_, m)) ->
            failwith
              (Printf.sprintf "serve bench: %s reply %d is an error: %s" who i
                 m)
        | Ok Sproto.Overloaded ->
            failwith
              (Printf.sprintf
                 "serve bench: %s reply %d overloaded under closed-loop load"
                 who i)
        | Ok _ -> ()
        | Error m -> failwith ("serve bench: undecodable reply: " ^ m))
      (List.rev c.sc_frames)
  in
  (* Setup session: resident instance, warm solve, static tree. *)
  let setup = mk_client () in
  setup.sc_script <-
    [
      Sproto.Load
        { name = "bench"; points; rects; k = 4; z = 1; eps = 0.5;
          rounds = Some 40; drift = 2.0 };
      Sproto.Solve "bench";
      Sproto.Prepare "bench";
    ];
  drive [ setup ];
  assert_clean "setup" setup;
  (* Concurrent query replay. *)
  let clients = List.init n_clients (fun _ -> mk_client ()) in
  List.iteri
    (fun i c -> c.sc_script <- serve_script ~points ~n_requests i)
    clients;
  drive clients;
  List.iter (assert_clean "client") clients;
  Sserver.close srv;
  List.iter (fun c -> try Unix.close c.sc_fd with Unix.Unix_error _ -> ())
    (setup :: clients);
  let replies =
    List.fold_left (fun a c -> a + List.length c.sc_frames) 0 clients
  in
  let digest =
    Digest.to_hex
      (Digest.string
         (String.concat ""
            (List.concat_map (fun c -> List.rev c.sc_frames) clients)))
  in
  ( [ ("serve.replayed_requests", n_clients * n_requests);
      ("serve.replayed_responses", replies) ],
    digest )

let serve_baseline_path = "BENCH_serve_baseline.json"

(* Serve gate for `make serve-smoke`: on the pinned replay the
   request/response counts and the MD5 of the concatenated reply
   payloads (client order) must match the committed baseline exactly —
   the server path may never change an answer. *)
let smoke_serve () =
  let counts, digest =
    serve_replay ~n_points:512 ~n_clients:4 ~n_requests:60
  in
  let rows doc =
    ("digest", Obs.Json.str (Option.get (Obs.Json.member "digest" doc)))
    :: List.map (fun (k, v) -> (k, string_of_int v)) (counter_rows doc)
  in
  let checked =
    gate_baseline ~tag:"serve smoke" ~path:serve_baseline_path
      ~record:
        (counters_baseline ~bench:"serve_baseline"
           ~tail:[ ("digest", Printf.sprintf "\"%s\"" digest) ]
           counts)
      ~rows
      ~check:(fun name b v ->
        if v <> b then
          failwith
            (Printf.sprintf
               "serve smoke: %s drifted (baseline %s, now %s; the server path \
                changed an answer)"
               name b v))
      (("digest", digest)
      :: List.map (fun (k, v) -> (k, string_of_int v)) counts)
  in
  if checked <> None then
    Printf.printf
      "serve smoke: %d replies match the committed transcript digest \
       exactly (%s).\n"
      (List.assoc "serve.replayed_responses" counts)
      digest

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

let all =
  [
    ("table1_hardness", table1_hardness);
    ("table1_cso_general", table1_cso_general);
    ("table1_cso_disjoint", table1_cso_disjoint);
    ("table1_gcso_general", table1_gcso_general);
    ("table1_gcso_disjoint", table1_gcso_disjoint);
    ("table1_rcto1", table1_rcto1);
    ("table1_rcto", table1_rcto);
    ("table1_rcro", table1_rcro);
    ("scaling_cso_lp", scaling_cso_lp);
    ("scaling_gcso_mwu", scaling_gcso_mwu);
    ("scaling_coreset_size", scaling_coreset_size);
    ("scaling_rcto1", scaling_rcto1);
    ("scaling_gcso_d3", scaling_gcso_d3);
    ("fig_mwu_convergence", fig_mwu_convergence);
    ("fig_epsilon_sweep", fig_epsilon_sweep);
    ("ablation_coreset", ablation_coreset);
    ("ablation_cso_coreset", ablation_cso_coreset);
    ("ablation_bbd_eps", ablation_bbd_eps);
    ("ablation_wspd_granularity", ablation_wspd_granularity);
    ("certified_ratios", certified_ratios);
    ("ablation_streaming", ablation_streaming);
    ("ablation_gonzalez_fast", ablation_gonzalez_fast);
    ("baseline_comparison", baseline_comparison);
    ("cyclic_rcro", cyclic_rcro);
    ("extension_kmedian", extension_kmedian);
    ("fig_parallel_scaling", fig_parallel_scaling);
    ("fig_counters", fig_counters);
    ("fig_budgets", fig_budgets);
    ("fig_kernels", fig_kernels);
    ("fig_dynamic", fig_dynamic);
    ("smoke_parallel", smoke_parallel);
    ("smoke_counters", smoke_counters);
    ("smoke_budgets", smoke_budgets);
    ("smoke_kernels", smoke_kernels);
    ("smoke_dynamic", smoke_dynamic);
    ("smoke_serve", smoke_serve);
  ]
