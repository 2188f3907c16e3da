(* The benchmark's own tests: seeded op sequences replay byte for byte,
   the serve plan is valid by construction, percentiles follow the
   repository's nearest-rank convention and refuse thin tails, and a
   failed op counts exactly once. *)

open Perfbench
module P = Cso_serve.Protocol
module Rect = Cso_geom.Rect
module Obs = Cso_obs.Obs
module G = Serve_gen

let plan seed = G.plan ~seed ~duration:44.0

let schedule p =
  String.concat "" (Array.to_list p.G.encoded)
  ^ String.concat "," (Array.to_list (Array.map (fun f -> Printf.sprintf "%h/%d" f.G.due f.G.session) p.G.frames))

let test_serve_replay () =
  let a = plan 5 and b = plan 5 and c = plan 6 in
  Alcotest.(check string) "same seed, same frames and schedule" (schedule a) (schedule b);
  Alcotest.(check bool) "another seed differs" true (schedule a <> schedule c);
  Alcotest.(check bool) "same points" true (a.G.big_points = b.G.big_points)

let test_solve_inputs_replay () =
  let pts seed i = (Gcso_wl.instance ~seed i).Cso_workload.Planted.geo.Cso_core.Geo_instance.points in
  Alcotest.(check bool) "gcso: same seed, same instance" true (pts 5 3 = pts 5 3);
  Alcotest.(check bool) "gcso: another seed differs" true (pts 5 3 <> pts 6 3);
  (* Table-1 rows: the cheap ones, replayed end to end. *)
  let answers seed =
    let rows = Table1_wl.sweep ~seed 0 in
    List.map
      (fun j ->
        let v = rows.(j).Table1_wl.solve () () in
        (v.Table1_wl.mu1, v.Table1_wl.mu3))
      [ 1; 5 ]
  in
  Alcotest.(check bool) "table1: same seed, same answers" true (answers 5 = answers 5);
  Alcotest.(check bool) "table1: another seed differs" true (answers 5 <> answers 6)

(* Walks the schedule with a model of [big]'s live ids and of the small
   instances' rect ids, checking every invariant the plan promises. *)
let test_serve_model () =
  List.iter
    (fun seed ->
      let p = plan seed in
      let live = Hashtbl.create 4096 in
      for id = 0 to G.big_n - 1 do
        Hashtbl.replace live id ()
      done;
      let next = ref G.big_n and prev = ref None and rects = ref [] in
      Array.iter
        (fun (f : G.frame) ->
          (match f.G.req with
          | P.Insert { name; _ } | P.Delete { name; _ } | P.Prepare name | P.Balls_all { name; _ } ->
              Alcotest.(check string) "only big is written" G.big name;
              Alcotest.(check int) "only session A writes big" 0 f.G.session
          | P.Insert_rect { name; _ } | P.Delete_rect { name; _ } ->
              Alcotest.(check bool) "rect updates go to a small instance" true
                (List.exists (fun i -> G.small i = name)
                   (List.init (Array.length p.G.small_points) Fun.id))
          | _ -> ());
          (match (f.G.req, f.G.expect) with
          | P.Insert _, G.Inserted id ->
              Alcotest.(check int) "inserted id is the next dense id" !next id;
              incr next;
              Hashtbl.replace live id ()
          | P.Delete { id; _ }, _ ->
              Alcotest.(check bool) "delete targets a live id" true (Hashtbl.mem live id);
              Hashtbl.remove live id;
              Alcotest.(check bool) "churn is balanced" true (Hashtbl.length live >= G.big_n)
          | P.Balls_all _, G.Balls n ->
              Alcotest.(check int) "balls rows = live count" (Hashtbl.length live) n;
              Alcotest.(check bool) "prepare right before balls_all" true
                (match !prev with Some (P.Prepare _) -> true | _ -> false)
          | P.Insert_rect { name; rect }, G.Inserted rid ->
              Alcotest.(check bool) "nested in a tile" true
                (Array.exists (fun t -> Rect.contains_rect t rect) G.tiles);
              Alcotest.(check bool) "fresh rect id" false (List.mem (name, rid) !rects);
              rects := (name, rid) :: !rects
          | P.Delete_rect { name; id }, _ ->
              Alcotest.(check bool) "deletes only a live nested rect" true
                (List.mem (name, id) !rects && id >= Array.length G.tiles);
              rects := List.filter (( <> ) (name, id)) !rects
          | _ -> ());
          if f.G.session = 0 then prev := Some f.G.req)
        p.G.frames;
      Alcotest.(check int) "final live count" (Hashtbl.length live) p.G.final_big_live;
      Alcotest.(check int) "one fresh small instance per resolve"
        (Array.length p.G.small_points) (List.length !rects);
      Alcotest.(check bool) "frames in due order" true
        (let ok = ref true in
         Array.iteri (fun i f -> if i > 0 && f.G.due < p.G.frames.(i - 1).G.due then ok := false) p.G.frames;
         !ok))
    [ 1; 2; 3 ]

let test_percentile () =
  let ten = List.init 10 (fun i -> float_of_int (i + 1)) in
  let a = Stats.sorted ten in
  Alcotest.(check (float 0.0)) "p50 of 1..10 is rank 4" 5.0 (Stats.percentile_sorted a 50.0);
  Alcotest.(check (float 0.0)) "p90 of 1..10 is rank 8" 9.0 (Stats.percentile_sorted a 90.0);
  Alcotest.(check (float 0.0)) "p99 of 1..10 is rank 8" 9.0 (Stats.percentile_sorted a 99.0);
  (* Powers of two sit on histogram bucket bounds, where Obs.Hist's
     estimate is exact. *)
  let pows = List.init 12 (fun i -> 1 lsl i) in
  let buckets =
    List.map (fun v -> (Obs.Hist.bucket_of_int v, 1)) pows |> List.sort compare
  in
  let s = Stats.sorted (List.map float_of_int pows) in
  List.iter
    (fun q ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "q=%g matches Obs.Hist" q)
        (Obs.Hist.quantile_of_buckets buckets q)
        (Stats.percentile_sorted s (q *. 100.0)))
    [ 0.0; 0.25; 0.5; 0.9; 0.99; 1.0 ]

let test_refuses_thin_tail () =
  let n k = List.init k float_of_int in
  let refuses l p =
    match Stats.percentile ~what:"t" l p with
    | _ -> false
    | exception Stats.Too_few_samples _ -> true
  in
  Alcotest.(check bool) "p50 of 19 refused" true (refuses (n 19) 50.0);
  Alcotest.(check bool) "p50 of 20 printed" false (refuses (n 20) 50.0);
  Alcotest.(check bool) "p90 of 91 refused" true (refuses (n 91) 90.0);
  Alcotest.(check bool) "p90 of 92 printed" false (refuses (n 92) 90.0);
  Alcotest.(check bool) "p99 of 901 refused" true (refuses (n 901) 99.0);
  Alcotest.(check bool) "p99 of 902 printed" false (refuses (n 902) 99.0)

let good_reply = function
  | G.Ball -> P.Ball []
  | G.Assigned -> P.Assigned []
  | G.Solved_any | G.Solved_fresh ->
      P.Solved
        { centers = []; outliers = []; radius = 0.0; rounds_per_guess = 0;
          guesses = 0; re_solves = 0; cached = false }
  | G.Inserted id -> P.Inserted id
  | G.Ok_reply -> P.Ok_reply
  | G.Balls n -> P.Balls (Array.make n [])
  | G.Metrics -> P.Metrics_reply ""

let test_failures_count_once () =
  let p = plan 1 in
  let replies = Array.map (fun f -> Some (good_reply f.G.expect)) p.G.frames in
  Alcotest.(check int) "all good" 0 (Hashtbl.length (Serve_wl.failed_ops p replies));
  (* Break both frames of one bulk op: still one failed op. *)
  let bulk = (Array.to_list p.G.frames |> List.find (fun f -> f.G.cls = G.Bulk)).G.op in
  Array.iteri
    (fun i f -> if f.G.op = bulk then replies.(i) <- Some (P.Error (P.Not_prepared, "synthetic")))
    p.G.frames;
  Alcotest.(check int) "a bad bulk op fails once" 1 (Hashtbl.length (Serve_wl.failed_ops p replies));
  (* A served re-solve that discards a rect the instance does not have:
     the right constructor, but not valid. *)
  let replies = Array.map (fun f -> Some (good_reply f.G.expect)) p.G.frames in
  let i = ref 0 in
  while p.G.frames.(!i).G.expect <> G.Solved_fresh do incr i done;
  replies.(!i) <-
    Some
      (P.Solved
         { centers = [ 0 ]; outliers = [ 99 ]; radius = 0.0; rounds_per_guess = 0;
           guesses = 0; re_solves = 0; cached = false });
  Alcotest.(check int) "an invalid re-solve fails its op once" 1
    (Hashtbl.length (Serve_wl.failed_ops p replies));
  (* An invalid GCSO solution (no centers: every point uncovered). *)
  let w = Gcso_wl.instance ~seed:1 0 in
  let report =
    { Cso_core.Gcso_general.solution = { Cso_core.Instance.centers = []; outliers = [] };
      radius = 0.0; rounds_per_guess = 0; guesses = 0 }
  in
  let tally = Outcome.tally () in
  Outcome.record tally (Gcso_wl.check w (Ok report)).Gcso_wl.ok;
  Outcome.record tally (Gcso_wl.check w (Error Exit)).Gcso_wl.ok;
  Alcotest.(check (pair int int)) "each invalid op counts once" (2, 2)
    (tally.Outcome.attempted, tally.Outcome.failed)

let test_result_line () =
  let line =
    Outcome.result_line ~correct:true ~attempted:3 ~failed:0
      [ Outcome.m "op_p50_ms" "ms" 1.25; Outcome.m "x" "count" infinity ]
  in
  match Obs.Json.parse line with
  | Obs.Json.Obj kv ->
      Alcotest.(check (list string)) "keys" [ "correct"; "attempted"; "failed"; "metrics" ]
        (List.map fst kv)
  | _ -> Alcotest.fail "not an object"

(* The host probe allocates nothing, so it neither triggers nor waits
   for a collection, whatever the program left in the heap. *)
let test_probe_allocates_nothing () =
  ignore (Sys.opaque_identity (Host.probe_work ()));
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (Host.probe_work ()));
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) (Printf.sprintf "%g words" words) true (words < 64.0)

(* BENCHMARK.json declares exactly the metrics, units and workloads the
   runs print. *)
let test_declaration () =
  let ic = open_in_bin "../BENCHMARK.json" in
  let j = Obs.Json.parse (really_input_string ic (in_channel_length ic)) in
  close_in ic;
  let field k v = Obs.Json.(str (Option.get (member k v))) in
  let list k = Obs.Json.arr (Option.get (Obs.Json.member k j)) in
  let pairs k = List.map (fun v -> (field "name" v, field "unit" v)) (list k) in
  let show = List.map (fun (a, b) -> a ^ " " ^ b) in
  Alcotest.(check (list string)) "end_to_end" (show Outcome.end_to_end) (show (pairs "end_to_end"));
  Alcotest.(check (list string)) "per_layer" (show Outcome.per_layer) (show (pairs "per_layer"));
  Alcotest.(check (list string)) "workloads" Outcome.workloads
    (List.map (field "name") (list "workloads"))

let () =
  Alcotest.run "perfbench"
    [
      ( "perfbench",
        [
          Alcotest.test_case "serve plan replays from its seed" `Quick test_serve_replay;
          Alcotest.test_case "solve inputs replay from their seed" `Quick test_solve_inputs_replay;
          Alcotest.test_case "serve plan is valid by construction" `Quick test_serve_model;
          Alcotest.test_case "nearest-rank percentile" `Quick test_percentile;
          Alcotest.test_case "thin tails are refused" `Quick test_refuses_thin_tail;
          Alcotest.test_case "a failed op counts once" `Quick test_failures_count_once;
          Alcotest.test_case "result line is one JSON object" `Quick test_result_line;
          Alcotest.test_case "the host probe allocates nothing" `Quick
            test_probe_allocates_nothing;
          Alcotest.test_case "BENCHMARK.json matches the runs" `Quick test_declaration;
        ] );
    ]
