(* The csokitd service path. The contract under test: every byte a
   client reads off the socket is identical to what the library produces
   when called directly — solve reports, ball reports (canonical order
   preserved), drift insert/delete/query scripts — for every pool size,
   both wire codecs, and with observability off. On top of that:
   concurrent clients observe the same bytes as a serial client
   (registry locking), overload produces the typed reply in FIFO
   position without wedging the connection, and framed reads survive
   byte-at-a-time delivery and EINTR. *)

module Pool = Cso_parallel.Pool
module Point = Cso_metric.Point
module Points = Cso_metric.Points
module Rect = Cso_geom.Rect
module Bbd = Cso_geom.Bbd_tree
module Obs = Cso_obs.Obs
module Gcso = Cso_core.Gcso_general
module Instance = Cso_core.Instance
module Drift = Cso_workload.Drift
module P = Cso_serve.Protocol
module Registry = Cso_serve.Registry
module Server = Cso_serve.Server
module Client = Cso_serve.Client

let domain_counts = [ 1; 2; 4 ]

let with_domains nd f =
  let old = Pool.get_default () in
  Pool.with_pool ~num_domains:nd (fun p ->
      Pool.set_default p;
      Fun.protect ~finally:(fun () -> Pool.set_default old) f)

let without_obs f =
  let old = Obs.enabled () in
  Obs.set_enabled false;
  Fun.protect ~finally:(fun () -> Obs.set_enabled old) f

let rec drop n l = if n = 0 then l else drop (n - 1) (List.tl l)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* Frame payload of an encoded message: what a reader hands back. *)
let strip mode s =
  match mode with
  | P.Binary -> String.sub s 4 (String.length s - 4)
  | P.Jsonl -> String.sub s 0 (String.length s - 1)

let dec mode payload =
  match P.decode_response mode payload with
  | Ok r -> r
  | Error m -> Alcotest.failf "undecodable response payload: %s" m

(* ------------------------------------------------------------------ *)
(* In-process harness: socketpair connections driven by Server.step    *)
(* ------------------------------------------------------------------ *)

(* A harness client keeps raw payload bytes (the byte-identity subject)
   and never blocks: reads are select-guarded, so the single-threaded
   test can interleave client reads with server steps. *)
type hc = {
  fd : Unix.file_descr;
  rd : P.reader;
  mutable got : string list; (* newest first *)
  mutable eof : bool;
}

let frames c = List.rev c.got
let newest c = List.hd c.got

let readable fd =
  match Unix.select [ fd ] [] [] 0.0 with
  | r, _, _ -> r <> []
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> false

let try_read c =
  if (not c.eof) && readable c.fd then
    let buf = Bytes.create 4096 in
    match Unix.read c.fd buf 0 (Bytes.length buf) with
    | 0 -> c.eof <- true
    | n ->
        List.iter
          (function
            | `Frame p -> c.got <- p :: c.got
            | `Oversized _ -> Alcotest.fail "server sent an oversized frame")
          (P.feed c.rd buf n)
    | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _) -> ()
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> c.eof <- true

let send_raw c s =
  let len = String.length s in
  let pos = ref 0 in
  while !pos < len do
    match Unix.write_substring c.fd s !pos (len - !pos) with
    | n -> pos := !pos + n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

let h_send mode c req = send_raw c (P.encode_request mode req)

(* Step the server until every client holds its expected reply count. *)
let pump srv cs ~want =
  let short = List.exists2 (fun c k -> List.length c.got < k) cs in
  let rounds = ref 0 in
  while short want && !rounds < 20_000 do
    incr rounds;
    ignore (Server.step ~timeout:0.002 srv);
    List.iter try_read cs
  done;
  if short want then
    Alcotest.failf "pump: got %s of %s expected replies"
      (String.concat "," (List.map (fun c -> string_of_int (List.length c.got)) cs))
      (String.concat "," (List.map string_of_int want))

let with_server ?(config = Server.default_config) ~n f =
  let reg = Registry.create () in
  let srv = Server.create ~config reg in
  let cs =
    List.init n (fun _ ->
        let sa, sb = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Server.add_connection srv sa;
        { fd = sb; rd = P.reader config.Server.mode; got = []; eof = false })
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ())
        cs;
      Server.close srv)
    (fun () -> f srv cs)

(* ------------------------------------------------------------------ *)
(* Byte identity: server replies = direct library calls, bit for bit   *)
(* ------------------------------------------------------------------ *)

let name = "w"

let load_req w =
  P.Load
    {
      name;
      points = [||];
      rects = w.Drift.rects;
      k = w.Drift.k;
      z = w.Drift.z;
      eps = 0.5;
      rounds = Some 40;
      drift = 2.0;
    }

(* Interleave solves, ball queries, assignments and batched ball
   sweeps into a drifting insert/delete stream. Stats is excluded
   (wall-clock histograms are not deterministic); one request against a
   missing instance pins the typed error bytes. *)
let script_of_workload w =
  let reqs = ref [ P.Solve "missing"; load_req w ] in
  let push r = reqs := r :: !reqs in
  let last_point = ref None in
  let solved = ref false in
  Array.iteri
    (fun i op ->
      (match op with
      | Drift.Insert p ->
          last_point := Some p;
          push (P.Insert { name; point = p })
      | Drift.Delete id -> push (P.Delete { name; id }));
      let n = i + 1 in
      if n mod 15 = 0 then begin
        push (P.Solve name);
        solved := true
      end;
      if n mod 10 = 0 then begin
        (match !last_point with
        | Some c -> push (P.Query_ball { name; center = c; radius = 1.5; eps = 0.3 })
        | None -> ());
        push
          (P.Query_ball
             {
               name;
               center = Array.make w.Drift.dim 0.0;
               radius = 4.0;
               eps = 0.0;
             })
      end;
      if !solved && n mod 25 = 0 then push (P.Assign name);
      if n mod 30 = 0 then begin
        push (P.Prepare name);
        push (P.Balls_all { name; radius = 1.0; eps = 0.25 })
      end)
    w.Drift.ops;
  push (P.Solve name);
  push (P.Assign name);
  List.rev !reqs

(* Reference execution: the same requests answered by direct library
   calls. Deliberately takes different code paths where one exists —
   [Balls_all] is answered by sequential per-point [Bbd.ball_query]
   instead of the pooled [Bbd.balls_all] the registry batches through,
   so the pooled path's bit-identity is part of what's pinned. *)
let mirror reqs =
  let inc = ref None in
  let static = ref None in
  let centers = ref None in
  let the_inc () = Option.get !inc in
  List.map
    (fun req ->
      match req with
      | P.Load { points; rects; k; z; eps; rounds; drift; name = n } ->
          if n <> name then P.Error (P.Unknown_instance, Printf.sprintf "no instance %S" n)
          else begin
            let i = Gcso.Incremental.create ~eps ?rounds ~drift ~rects ~k ~z () in
            Array.iter (fun p -> ignore (Gcso.Incremental.insert i p)) points;
            inc := Some i;
            P.Ok_reply
          end
      | P.Insert { point; _ } ->
          static := None;
          P.Inserted (Gcso.Incremental.insert (the_inc ()) point)
      | P.Delete { id; _ } ->
          static := None;
          Gcso.Incremental.delete (the_inc ()) id;
          P.Ok_reply
      | P.Insert_rect { name = n; _ } when n <> name ->
          P.Error (P.Unknown_instance, Printf.sprintf "no instance %S" n)
      | P.Insert_rect { rect; _ } ->
          (* Point set untouched: the prepared static tree stays valid,
             matching the registry. *)
          P.Inserted (Gcso.Incremental.insert_rect (the_inc ()) rect)
      | P.Delete_rect { id; _ } -> (
          match Gcso.Incremental.delete_rect (the_inc ()) id with
          | Ok () -> P.Ok_reply
          | Error o ->
              P.Error
                ( P.Orphaned,
                  Printf.sprintf
                    "deleting rect %d would orphan live point %d (covered \
                     by no other rectangle)"
                    o.Gcso.Incremental.rect_id o.Gcso.Incremental.witness )
          | exception Invalid_argument m -> P.Error (P.Bad_request, m))
      | P.Prepare _ ->
          let live = Gcso.Incremental.live_points (the_inc ()) in
          static :=
            Some
              ( Array.of_list (List.map fst live),
                Array.of_list (List.map snd live) );
          P.Ok_reply
      | P.Solve n when n <> name ->
          P.Error (P.Unknown_instance, Printf.sprintf "no instance %S" n)
      | P.Solve _ ->
          let i = the_inc () in
          let before = Gcso.Incremental.re_solves i in
          let rep, ids, rect_ids = Gcso.Incremental.query i in
          let after = Gcso.Incremental.re_solves i in
          let cs =
            match !centers with
            | Some prev when after = before -> prev
            | _ ->
                List.map
                  (fun ix -> (ids.(ix), Gcso.Incremental.point i ids.(ix)))
                  rep.Gcso.solution.Instance.centers
          in
          centers := Some cs;
          P.Solved
            {
              centers = List.map fst cs;
              outliers =
                List.map
                  (fun j -> rect_ids.(j))
                  rep.Gcso.solution.Instance.outliers;
              radius = rep.Gcso.radius;
              rounds_per_guess = rep.Gcso.rounds_per_guess;
              guesses = rep.Gcso.guesses;
              re_solves = after;
              cached = after = before;
            }
      | P.Query_ball { center; radius; eps; _ } ->
          P.Ball (Gcso.Incremental.ball_points (the_inc ()) ~center ~radius ~eps)
      | P.Balls_all { radius; eps; _ } -> (
          match !static with
          | None -> Alcotest.fail "script sent balls_all before prepare"
          | Some (ids, pts) ->
              let tree = Bbd.build_packed (Points.of_array pts) in
              P.Balls
                (Array.map
                   (fun p ->
                     Bbd.ball_query tree ~center:p ~radius ~eps
                     |> List.concat_map (Bbd.points_of_node tree)
                     |> List.map (fun l -> ids.(l)))
                   pts))
      | P.Assign _ -> (
          match !centers with
          | None | Some [] ->
              (* A solve can legitimately produce zero centers (the
                 whole population inside outlier rectangles); assign
                 then has nothing to assign to, same as never solving. *)
              P.Error
                ( P.No_solution,
                  Printf.sprintf
                    "instance %S has no solved centers to assign to (send \
                     solve first)" name )
          | Some cs ->
              P.Assigned
                (List.map
                   (fun (id, p) ->
                     let best = ref (-1) and bd = ref infinity in
                     List.iter
                       (fun (cid, c) ->
                         let d = Point.l2 p c in
                         if d < !bd then begin
                           best := cid;
                           bd := d
                         end)
                       cs;
                     (id, !best))
                   (Gcso.Incremental.live_points (the_inc ()))))
      | P.Stats | P.Metrics | P.Flight | P.Shutdown ->
          Alcotest.fail
            "stats/metrics/flight/shutdown do not belong in byte-identity \
             scripts")
    reqs

let serve_payloads mode reqs =
  let config = { Server.default_config with Server.mode } in
  with_server ~config ~n:1 (fun srv cs ->
      let c = List.hd cs in
      List.iter (h_send mode c) reqs;
      pump srv cs ~want:[ List.length reqs ];
      frames c)

let drift_script () =
  let rng = Random.State.make [| 2025 |] in
  script_of_workload (Drift.drifting rng ~n_ops:120 ~k:2 ~z:1)

(* On mismatch, pin down the first divergent reply and render it (and
   its request) as JSONL — far more readable than two raw byte dumps. *)
let check_payloads label mode reqs expected got =
  if expected <> got then begin
    let show_payload p =
      match P.decode_response mode p with
      | Ok r -> String.trim (P.encode_response P.Jsonl r)
      | Error _ -> Printf.sprintf "<undecodable %S>" p
    in
    let rec first i = function
      | e :: es, g :: gs -> if e <> g then Some (i, e, g) else first (i + 1) (es, gs)
      | _ -> None
    in
    match first 0 (expected, got) with
    | Some (i, e, g) ->
        Alcotest.failf
          "%s: first divergence at reply %d of %d\n  request:  %s\n  \
           library:  %s\n  server:   %s"
          label i (List.length expected)
          (String.trim (P.encode_request P.Jsonl (List.nth reqs i)))
          (show_payload e) (show_payload g)
    | None ->
        Alcotest.failf "%s: reply count differs (library %d, server %d)" label
          (List.length expected) (List.length got)
  end

let test_byte_identity mode () =
  let reqs = drift_script () in
  let expected =
    List.map (fun r -> strip mode (P.encode_response mode r)) (mirror reqs)
  in
  List.iter
    (fun nd ->
      let got = with_domains nd (fun () -> serve_payloads mode reqs) in
      check_payloads
        (Printf.sprintf "server bytes = library bytes (%d domains)" nd)
        mode reqs expected got)
    domain_counts;
  let got = without_obs (fun () -> serve_payloads mode reqs) in
  check_payloads "server bytes = library bytes (CSO_OBS=0)" mode reqs expected
    got

(* Set updates over the wire: rect insert/delete interleaved with
   solves, including an Orphaned refusal, an unknown-rect-id error, an
   unknown-instance error, and solves whose outlier indices must be
   translated to stable external rect ids (position 1 of the shrunken
   instance is external rect 2 by the end). *)
let rect_script () =
  let ra = Rect.of_intervals [ (-1.0, 3.0); (-1.0, 3.0) ] in
  let rb = Rect.of_intervals [ (2.0, 6.0); (-1.0, 3.0) ] in
  let far = Rect.of_intervals [ (50.0, 52.0); (50.0, 52.0) ] in
  [
    P.Load
      {
        name;
        points = [||];
        rects = [| ra; rb |];
        k = 1;
        z = 1;
        eps = 0.5;
        rounds = Some 40;
        drift = 2.0;
      };
    P.Insert { name; point = [| 0.0; 0.0 |] } (* id 0: ra only *);
    P.Insert { name; point = [| 2.5; 0.5 |] } (* id 1: ra and rb *);
    P.Insert { name; point = [| 5.0; 0.0 |] } (* id 2: rb only *);
    P.Solve name;
    P.Delete_rect { name; id = 0 } (* refused: orphans point 0 *);
    P.Insert_rect { name; rect = far } (* external rect id 2 *);
    P.Insert { name; point = [| 51.0; 51.0 |] } (* id 3: far only *);
    P.Solve name (* rect insert forced this re-solve *);
    P.Delete { name; id = 0 };
    P.Delete_rect { name; id = 0 } (* now succeeds *);
    P.Solve name (* outliers in external rect ids: {1, 2} positions {0, 1} *);
    P.Delete_rect { name; id = 0 } (* already deleted: Bad_request *);
    P.Delete_rect { name; id = 7 } (* never existed: Bad_request *);
    P.Insert_rect { name = "missing"; rect = far } (* Unknown_instance *);
    P.Prepare name;
    P.Balls_all { name; radius = 1.5; eps = 0.25 };
    P.Assign name;
  ]

let test_rect_byte_identity mode () =
  let reqs = rect_script () in
  let expected =
    List.map (fun r -> strip mode (P.encode_response mode r)) (mirror reqs)
  in
  List.iter
    (fun nd ->
      let got = with_domains nd (fun () -> serve_payloads mode reqs) in
      check_payloads
        (Printf.sprintf "rect updates: server = library (%d domains)" nd)
        mode reqs expected got)
    domain_counts;
  let got = without_obs (fun () -> serve_payloads mode reqs) in
  check_payloads "rect updates: server = library (CSO_OBS=0)" mode reqs
    expected got

(* ------------------------------------------------------------------ *)
(* Concurrency: N interleaved clients see the bytes of a serial client *)
(* ------------------------------------------------------------------ *)

let ro_requests dim =
  [
    P.Solve name;
    P.Query_ball { name; center = Array.make dim 0.0; radius = 2.0; eps = 0.0 };
    P.Query_ball { name; center = Array.make dim 1.0; radius = 1.0; eps = 0.5 };
    P.Balls_all { name; radius = 1.5; eps = 0.25 };
    P.Assign name;
    P.Query_ball { name; center = Array.make dim 0.5; radius = 3.0; eps = 0.1 };
  ]

(* This is the test that pins the registry's locking discipline: with
   the per-entry mutex removed, concurrent solve/query/assign races on
   the entry's cached state and the answers (or their order) diverge
   from the serial run. *)
let test_concurrent_matches_serial () =
  let mode = P.Binary in
  let rng = Random.State.make [| 77 |] in
  let w = Drift.drifting rng ~n_ops:60 ~k:2 ~z:1 in
  let pts =
    Array.of_list
      (List.filter_map
         (function Drift.Insert p -> Some p | Drift.Delete _ -> None)
         (Array.to_list w.Drift.ops))
  in
  let load =
    P.Load
      {
        name;
        points = pts;
        rects = w.Drift.rects;
        k = w.Drift.k;
        z = w.Drift.z;
        eps = 0.5;
        rounds = Some 40;
        drift = 2.0;
      }
  in
  let setup = [ load; P.Solve name; P.Prepare name ] in
  let queries =
    List.concat (List.init 4 (fun _ -> ro_requests w.Drift.dim))
  in
  let nq = List.length queries in
  let config = { Server.default_config with Server.mode } in
  let serial =
    with_server ~config ~n:1 (fun srv cs ->
        let c = List.hd cs in
        List.iter (h_send mode c) (setup @ queries);
        pump srv cs ~want:[ 3 + nq ];
        drop 3 (frames c))
  in
  List.iter
    (fun nd ->
      with_domains nd (fun () ->
          with_server ~config ~n:4 (fun srv cs ->
              let c0 = List.hd cs in
              List.iter (h_send mode c0) setup;
              pump srv cs ~want:[ 3; 0; 0; 0 ];
              List.iter (fun c -> List.iter (h_send mode c) queries) cs;
              pump srv cs ~want:[ 3 + nq; nq; nq; nq ];
              List.iteri
                (fun j c ->
                  let got = if j = 0 then drop 3 (frames c) else frames c in
                  Alcotest.(check (list string))
                    (Printf.sprintf
                       "client %d of 4 = serial bytes (%d domains)" j nd)
                    serial got)
                cs)))
    domain_counts

(* Interleaved mutations from many clients must linearize: every
   insert gets a distinct fresh id, every delete of one's own insert
   succeeds, every concurrent solve/query sees a coherent structure,
   and the live set ends exactly where it started. Half the clients
   mutate while the other half solve — the tiny population doubles
   every round, so each round's solves re-run MWU concurrently with the
   tree merges. This is the test that depends on the registry's
   per-entry lock: without it, a solve reading the Bentley-Saxe levels
   mid-merge answers over a torn population, inserts lose id
   allocations, or replies turn into typed errors. Caveat from the
   lock-removal drill (delete the [with_lock] in [Registry.with_entry]
   and rerun): on a single-core host the whole storm fits in one
   scheduler quantum, so the race does not manifest there (0 failures
   in 100 unlocked runs on a 1-cpu container) — it needs real
   parallelism to bite, which is exactly what multi-core CI provides. *)
let test_concurrent_mutation_storm () =
  let mode = P.Binary in
  let n0 = 4 in
  let pts = Array.init n0 (fun i -> [| float_of_int i; 0.0 |]) in
  let rects = [| Rect.of_intervals [ (-1.0, 120.0); (-1.0, 120.0) ] |] in
  let load =
    P.Load
      { name; points = pts; rects; k = 2; z = 0; eps = 0.5; rounds = Some 40;
        drift = 2.0 }
  in
  let rounds = 60 in
  with_domains 8 (fun () ->
      with_server ~n:8 (fun srv cs ->
          let c0 = List.hd cs in
          h_send mode c0 load;
          pump srv cs ~want:[ 1; 0; 0; 0; 0; 0; 0; 0 ];
          let want = Array.of_list (List.map (fun c -> List.length c.got) cs) in
          let bump () = Array.iteri (fun j k -> want.(j) <- k + 1) want in
          (* Clients 0-3 mutate; clients 4-7 solve and query. *)
          let mutators = List.filteri (fun j _ -> j < 4) cs in
          let all_ids = ref [] in
          for round = 0 to rounds - 1 do
            List.iteri
              (fun j c ->
                if j < 4 then
                  h_send mode c
                    (P.Insert
                       {
                         name;
                         point =
                           [| 10.0 +. float_of_int j; float_of_int round |];
                       })
                else h_send mode c (P.Solve name))
              cs;
            bump ();
            pump srv cs ~want:(Array.to_list want);
            let round_ids =
              List.map
                (fun c ->
                  match dec mode (newest c) with
                  | P.Inserted id -> id
                  | _ -> Alcotest.fail "expected an Inserted reply")
                mutators
            in
            List.iteri
              (fun j c ->
                if j >= 4 then
                  match dec mode (newest c) with
                  | P.Solved _ -> ()
                  | _ -> Alcotest.fail "expected a Solved reply")
              cs;
            all_ids := round_ids @ !all_ids;
            List.iteri
              (fun j c ->
                if j < 4 then
                  h_send mode c
                    (P.Delete { name; id = List.nth round_ids j })
                else
                  h_send mode c
                    (P.Query_ball
                       {
                         name;
                         center = [| 0.0; 0.0 |];
                         radius = 500.0;
                         eps = 0.0;
                       }))
              cs;
            bump ();
            pump srv cs ~want:(Array.to_list want);
            List.iteri
              (fun j c ->
                match (j < 4, dec mode (newest c)) with
                | true, P.Ok_reply -> ()
                | true, _ -> Alcotest.fail "expected delete acknowledgement"
                | false, P.Ball l ->
                    (* A coherent snapshot: the initial points are
                       always live, and nothing reported twice. *)
                    Alcotest.(check bool) "ball reply is a coherent snapshot"
                      true
                      (List.length (List.sort_uniq compare l) = List.length l
                      && List.for_all (fun i -> List.mem i l)
                           (List.init n0 Fun.id))
                | false, _ -> Alcotest.fail "expected a Ball reply")
              cs
          done;
          let distinct = List.sort_uniq compare !all_ids in
          Alcotest.(check int) "distinct fresh ids" (4 * rounds)
            (List.length distinct);
          Alcotest.(check bool) "ids allocated after the initial load" true
            (List.for_all (fun i -> i >= n0) distinct);
          h_send mode c0
            (P.Query_ball
               { name; center = [| 0.0; 0.0 |]; radius = 1000.0; eps = 0.0 });
          pump srv cs
            ~want:
              (Array.to_list
                 (Array.mapi (fun j k -> if j = 0 then k + 1 else k) want));
          match dec mode (newest c0) with
          | P.Ball live ->
              Alcotest.(check (list int)) "live set restored"
                (List.init n0 Fun.id) live
          | _ -> Alcotest.fail "expected a Ball reply"))

(* ------------------------------------------------------------------ *)
(* Overload: typed replies in FIFO position, connection stays usable   *)
(* ------------------------------------------------------------------ *)

let fd_count () = Array.length (Sys.readdir "/proc/self/fd")

let test_overload () =
  let before = fd_count () in
  let mode = P.Binary in
  let config = { Server.mode; max_inflight = 2; batch = 1 } in
  let load =
    P.Load
      {
        name;
        points = Array.init 6 (fun i -> [| float_of_int i; 0.0 |]);
        rects = [| Rect.of_intervals [ (-1.0, 9.0); (-1.0, 9.0) ] |];
        k = 1;
        z = 0;
        eps = 0.5;
        rounds = Some 40;
        drift = 2.0;
      }
  in
  let q =
    P.Query_ball { name; center = [| 0.0; 0.0 |]; radius = 10.0; eps = 0.0 }
  in
  with_server ~config ~n:1 (fun srv cs ->
      let c = List.hd cs in
      h_send mode c load;
      pump srv cs ~want:[ 1 ];
      (* Eight frames land before the server steps: two fit the
         admission bound, six are answered Overloaded — in arrival
         position, since responses carry no correlation ids. *)
      for _ = 1 to 8 do
        h_send mode c q
      done;
      pump srv cs ~want:[ 9 ];
      let replies = List.map (dec mode) (drop 1 (frames c)) in
      let balls, overloads =
        List.partition (function P.Ball _ -> true | _ -> false) replies
      in
      Alcotest.(check int) "two admitted" 2 (List.length balls);
      Alcotest.(check bool) "six typed overload replies" true
        (List.for_all (fun r -> r = P.Overloaded) overloads
        && List.length overloads = 6);
      (match replies with
      | P.Ball _ :: P.Ball _ :: rest ->
          Alcotest.(check bool) "overloads after the admitted replies" true
            (List.for_all (fun r -> r = P.Overloaded) rest)
      | _ -> Alcotest.fail "admitted replies must come first (FIFO)");
      (* The connection is still usable once the queue drains. *)
      h_send mode c q;
      pump srv cs ~want:[ 10 ];
      Alcotest.(check bool) "same ball bytes after the storm" true
        (newest c = List.nth (frames c) 1));
  Alcotest.(check int) "no leaked descriptors" before (fd_count ())

(* ------------------------------------------------------------------ *)
(* Partial reads and EINTR                                             *)
(* ------------------------------------------------------------------ *)

(* Server side: a request trickling in one byte per step must produce
   no reply until its last byte, then exactly one. *)
let test_server_partial_frame () =
  with_server ~n:1 (fun srv cs ->
      let c = List.hd cs in
      let s = P.encode_request P.Binary P.Stats in
      String.iteri
        (fun i ch ->
          send_raw c (String.make 1 ch);
          ignore (Server.step srv);
          try_read c;
          if i < String.length s - 1 then
            Alcotest.(check int) "no reply before the frame completes" 0
              (List.length c.got))
        s;
      pump srv cs ~want:[ 1 ];
      match dec P.Binary (newest c) with
      | P.Stats_reply _ -> ()
      | _ -> Alcotest.fail "expected a stats reply")

(* Client side: a writer thread dribbles a response frame one byte at a
   time down a pipe while an interval timer peppers the process with
   SIGALRM, so every read can come back short or EINTR — the blocking
   client must still reassemble the frame and see a clean EOF after.
   (A thread, not a fork: [Unix.fork] is unavailable once the domain
   pool has ever spun up.) *)
let test_client_dribbled_frame_with_eintr () =
  let expect = P.Balls [| [ 1; 2 ]; []; [ 3; 40; 500 ] |] in
  let frame = P.encode_response P.Binary expect in
  let r, w = Unix.pipe () in
  let writer =
    Thread.create
      (fun () ->
        String.iter
          (fun ch ->
            let rec put () =
              try ignore (Unix.write_substring w (String.make 1 ch) 0 1)
              with Unix.Unix_error (Unix.EINTR, _, _) -> put ()
            in
            put ();
            Thread.delay 0.0005)
          frame;
        Unix.close w)
      ()
  in
  let old = Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> ())) in
  let stop_timer () =
    ignore
      (Unix.setitimer Unix.ITIMER_REAL
         { Unix.it_interval = 0.0; it_value = 0.0 });
    Sys.set_signal Sys.sigalrm old
  in
  Fun.protect ~finally:stop_timer (fun () ->
      ignore
        (Unix.setitimer Unix.ITIMER_REAL
           { Unix.it_interval = 0.0003; it_value = 0.0003 });
      let c = Client.of_fd r ~mode:P.Binary in
      let got = Client.recv c in
      Alcotest.(check bool) "frame reassembled bit-identically" true
        (got = expect);
      Alcotest.(check bool) "clean EOF at the frame boundary" true
        (Client.recv_frame c = None);
      Client.close c);
  Thread.join writer

(* ------------------------------------------------------------------ *)
(* Protocol units: totality, truncation, oversize, shutdown, stats     *)
(* ------------------------------------------------------------------ *)

let sample_requests =
  [
    load_req
      {
        Drift.ops = [||];
        rects =
          [|
            Rect.of_intervals [ (neg_infinity, 3.5); (0.0, infinity) ];
            Rect.of_intervals [ (-1.0, 1.0); (-2.0, 2.0) ];
          |];
        k = 2;
        z = 1;
        dim = 2;
        final_live = 0;
      };
    P.Prepare "a b\"c";
    P.Solve "";
    P.Query_ball
      { name = "x"; center = [| -0.1; 1e-300; infinity |]; radius = 0.25;
        eps = 0.125 };
    P.Balls_all { name = "x"; radius = 1e9; eps = 0.0 };
    P.Assign "x";
    P.Insert { name = "x"; point = [| 1.5; -2.25 |] };
    (* 2^53 - 1: the largest magnitude the JSONL number path carries
       exactly (binary takes the full 63 bits, checked separately). *)
    P.Delete { name = "x"; id = (1 lsl 53) - 1 };
    P.Insert_rect
      {
        name = "x";
        rect = Rect.of_intervals [ (neg_infinity, 0.125); (-3.5, infinity) ];
      };
    P.Delete_rect { name = "a b\"c"; id = (1 lsl 53) - 1 };
    P.Stats;
    P.Metrics;
    P.Flight;
    P.Shutdown;
  ]

let sample_responses =
  [
    P.Ok_reply;
    P.Inserted 0;
    P.Solved
      {
        centers = [ 3; 1 ];
        outliers = [ 0 ];
        radius = 0.7071067811865476;
        rounds_per_guess = 40;
        guesses = 3;
        re_solves = 2;
        cached = true;
      };
    P.Ball [];
    P.Ball [ 0; 2; 5 ];
    P.Balls [| [ 1 ]; []; [ 2; 0 ] |];
    P.Assigned [ (0, 3); (1, 3); (2, 1) ];
    P.Stats_reply "{\"label\":\"csokitd\"}";
    P.Metrics_reply
      "# HELP cso_counter_total x\n# TYPE cso_counter_total counter\n# EOF\n";
    P.Flight_reply
      "{\"id\": 0, \"kind\": \"solve\", \"conn\": 1, \"queue_us\": 2, \
       \"exec_us\": 3, \"flush_us\": 4, \"outcome\": \"ok\"}\n";
    P.Error (P.Not_prepared, "instance \"x\" has no prepared static tree");
    P.Error
      (P.Orphaned, "deleting rect 1 would orphan live point 0 (covered by \
                    no other rectangle)");
    P.Overloaded;
    P.Bye;
  ]

let test_roundtrip () =
  List.iter
    (fun mode ->
      List.iter
        (fun req ->
          match P.decode_request mode (strip mode (P.encode_request mode req)) with
          | Ok r -> Alcotest.(check bool) "request round-trips" true (r = req)
          | Error m -> Alcotest.failf "request failed to decode: %s" m)
        sample_requests;
      List.iter
        (fun resp ->
          match
            P.decode_response mode (strip mode (P.encode_response mode resp))
          with
          | Ok r -> Alcotest.(check bool) "response round-trips" true (r = resp)
          | Error m -> Alcotest.failf "response failed to decode: %s" m)
        sample_responses)
    [ P.Binary; P.Jsonl ];
  (* Binary carries the full int range. *)
  let big = P.Delete { name = "x"; id = max_int } in
  match P.decode_request P.Binary (strip P.Binary (P.encode_request P.Binary big)) with
  | Ok r -> Alcotest.(check bool) "max_int round-trips in binary" true (r = big)
  | Error m -> Alcotest.failf "binary max_int failed: %s" m

(* Every strict prefix of a valid payload must decode to Error — never
   raise, never hang, never succeed. (Each direction is only checked
   against its own decoder: a prefix of a request payload may by
   coincidence be a complete valid *response*, e.g. the one-byte
   [Ok_reply] tag.) *)
let test_truncation_total () =
  let check_prefixes what decode p =
    for i = 0 to String.length p - 1 do
      match decode (String.sub p 0 i) with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "truncated %s decoded at %d" what i
    done
  in
  List.iter
    (fun mode ->
      List.iter
        (fun r ->
          check_prefixes "request" (P.decode_request mode)
            (strip mode (P.encode_request mode r)))
        sample_requests;
      List.iter
        (fun r ->
          check_prefixes "response" (P.decode_response mode)
            (strip mode (P.encode_response mode r)))
        sample_responses)
    [ P.Binary; P.Jsonl ]

let test_bad_tag_total () =
  let p = strip P.Binary (P.encode_request P.Binary P.Stats) in
  let mangled = "\xff" ^ String.sub p 1 (String.length p - 1) in
  (match P.decode_request P.Binary mangled with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad tag decoded");
  match P.decode_response P.Jsonl "{\"resp\":\"nope\"}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown jsonl response decoded"

let test_reader_byte_at_a_time () =
  List.iter
    (fun mode ->
      let frames_in =
        List.map (fun r -> P.encode_request mode r) sample_requests
      in
      let stream = String.concat "" frames_in in
      let rd = P.reader mode in
      let got = ref [] in
      String.iter
        (fun ch ->
          let b = Bytes.make 1 ch in
          List.iter
            (function
              | `Frame p -> got := p :: !got
              | `Oversized _ -> Alcotest.fail "spurious oversize")
            (P.feed rd b 1))
        stream;
      Alcotest.(check (list string)) "byte-at-a-time = whole frames"
        (List.map (strip mode) frames_in)
        (List.rev !got);
      Alcotest.(check int) "no bytes pending" 0 (P.reader_pending rd))
    [ P.Binary; P.Jsonl ]

let test_reader_oversize_poisons () =
  let rd = P.reader P.Binary in
  let len = P.max_frame + 1 in
  let hdr = Bytes.create 4 in
  Bytes.set_uint8 hdr 0 (len lsr 24 land 0xff);
  Bytes.set_uint8 hdr 1 (len lsr 16 land 0xff);
  Bytes.set_uint8 hdr 2 (len lsr 8 land 0xff);
  Bytes.set_uint8 hdr 3 (len land 0xff);
  (match P.feed rd hdr 4 with
  | [ `Oversized l ] -> Alcotest.(check int) "reported length" len l
  | _ -> Alcotest.fail "expected a single oversize event");
  Alcotest.(check bool) "poisoned" true (P.reader_poisoned rd);
  let valid = P.encode_request P.Binary P.Stats in
  let b = Bytes.of_string valid in
  Alcotest.(check bool) "poisoned reader yields nothing" true
    (P.feed rd b (Bytes.length b) = [])

(* Oversized frame over the wire: typed Too_large reply, then the
   server closes that connection — and only that connection. *)
let test_oversize_closes_connection () =
  with_server ~n:2 (fun srv cs ->
      let bad = List.nth cs 0 and good = List.nth cs 1 in
      let len = P.max_frame + 1 in
      let hdr = Bytes.create 4 in
      Bytes.set_uint8 hdr 0 (len lsr 24 land 0xff);
      Bytes.set_uint8 hdr 1 (len lsr 16 land 0xff);
      Bytes.set_uint8 hdr 2 (len lsr 8 land 0xff);
      Bytes.set_uint8 hdr 3 (len land 0xff);
      send_raw bad (Bytes.to_string hdr);
      pump srv cs ~want:[ 1; 0 ];
      (match dec P.Binary (newest bad) with
      | P.Error (P.Too_large, _) -> ()
      | _ -> Alcotest.fail "expected a Too_large error");
      let deadline = ref 0 in
      while (not bad.eof) && !deadline < 1000 do
        incr deadline;
        ignore (Server.step ~timeout:0.002 srv);
        try_read bad
      done;
      Alcotest.(check bool) "offending connection closed" true bad.eof;
      h_send P.Binary good P.Stats;
      pump srv cs ~want:[ 1; 1 ];
      match dec P.Binary (newest good) with
      | P.Stats_reply _ -> ()
      | _ -> Alcotest.fail "other connection must stay usable")

(* An instance of [n] points in the unit square whose [Balls_all] at
   radius 10 lists every point in every row: a reply of about 8 n^2
   bytes. *)
let big_load n =
  let rng = Random.State.make [| n; 4141 |] in
  P.Load
    {
      name;
      points =
        Array.init n (fun _ ->
            [| Random.State.float rng 1.0; Random.State.float rng 1.0 |]);
      rects = [| Rect.of_intervals [ (0.0, 1.0); (0.0, 1.0) ] |];
      k = 2;
      z = 0;
      eps = 0.5;
      rounds = Some 40;
      drift = 2.0;
    }

let balls_all_everything = P.Balls_all { name; radius = 10.0; eps = 0.3 }

let step_until srv cond =
  let rounds = ref 0 in
  while (not (cond ())) && !rounds < 20_000 do
    incr rounds;
    ignore (Server.step ~timeout:0.002 srv)
  done

(* A client that hangs up in the middle of a large reply costs only its
   own connection: the server's next write fails with EPIPE instead of
   killing the process with SIGPIPE, the connection is reaped, and
   another connection is still answered. *)
let test_peer_gone_mid_reply () =
  with_server ~n:1 (fun srv cs ->
      let good = List.hd cs in
      let sa, sb = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Server.add_connection srv sa;
      let gone = { fd = sb; rd = P.reader P.Binary; got = []; eof = false } in
      h_send P.Binary gone (big_load 1000);
      h_send P.Binary gone (P.Prepare name);
      pump srv [ gone ] ~want:[ 2 ];
      h_send P.Binary gone balls_all_everything;
      step_until srv (fun () -> readable gone.fd);
      let buf = Bytes.create 4096 in
      ignore (Unix.read gone.fd buf 0 (Bytes.length buf));
      Unix.close gone.fd;
      step_until srv (fun () -> Server.connections srv = 1);
      Alcotest.(check int) "closed peer reaped" 1 (Server.connections srv);
      h_send P.Binary good P.Stats;
      pump srv cs ~want:[ 1 ];
      match dec P.Binary (newest good) with
      | P.Stats_reply _ -> ()
      | _ -> Alcotest.fail "the other connection must still be answered")

(* A reply above [max_frame] would poison the client's reader; the
   server refuses it with [Too_large] instead and keeps answering the
   same connection. *)
let test_oversized_reply_refused () =
  with_server ~n:1 (fun srv cs ->
      let c = List.hd cs in
      h_send P.Binary c (big_load 1500);
      h_send P.Binary c (P.Prepare name);
      h_send P.Binary c balls_all_everything;
      pump srv cs ~want:[ 3 ];
      (match dec P.Binary (newest c) with
      | P.Error (P.Too_large, msg) ->
          Alcotest.(check bool) "message names the limit" true
            (contains msg (string_of_int P.max_frame))
      | _ -> Alcotest.fail "expected a Too_large error");
      h_send P.Binary c P.Stats;
      pump srv cs ~want:[ 4 ];
      match dec P.Binary (newest c) with
      | P.Stats_reply _ -> ()
      | _ -> Alcotest.fail "the connection must stay usable")

(* A Load that names zero MWU rounds is refused with a typed
   [Bad_request] and registers nothing; a run of no rounds would accept
   every radius guess and answer each Solve with one center per point.
   The connection keeps answering. *)
let test_load_zero_rounds_refused () =
  with_server ~n:1 (fun srv cs ->
      let c = List.hd cs in
      h_send P.Binary c
        (P.Load
           {
             name;
             points = [| [| 0.0; 0.0 |]; [| 1.0; 1.0 |] |];
             rects = [| Rect.unbounded 2 |];
             k = 1;
             z = 0;
             eps = 0.3;
             rounds = Some 0;
             drift = 2.0;
           });
      h_send P.Binary c (P.Solve name);
      pump srv cs ~want:[ 2 ];
      (match List.map (dec P.Binary) (frames c) with
      | [ P.Error (P.Bad_request, _); P.Error (P.Unknown_instance, _) ] -> ()
      | _ -> Alcotest.fail "expected bad_request, then unknown_instance");
      h_send P.Binary c P.Stats;
      pump srv cs ~want:[ 3 ];
      match dec P.Binary (newest c) with
      | P.Stats_reply _ -> ()
      | _ -> Alcotest.fail "the connection must stay usable")

let test_stats_and_shutdown () =
  with_server ~n:1 (fun srv cs ->
      let c = List.hd cs in
      h_send P.Binary c P.Stats;
      pump srv cs ~want:[ 1 ];
      (match dec P.Binary (newest c) with
      | P.Stats_reply s ->
          Alcotest.(check bool) "stats blob names the serve counters" true
            (contains s "serve.requests")
      | _ -> Alcotest.fail "expected a stats reply");
      h_send P.Binary c P.Shutdown;
      pump srv cs ~want:[ 2 ];
      Alcotest.(check bool) "shutdown acknowledged" true
        (dec P.Binary (newest c) = P.Bye);
      let alive = ref true and n = ref 0 in
      while !alive && !n < 1000 do
        incr n;
        alive := Server.step srv
      done;
      Alcotest.(check bool) "server stopped after shutdown" false !alive;
      try_read c;
      Alcotest.(check bool) "connection closed by the server" true c.eof)

(* ------------------------------------------------------------------ *)
(* Observability: byte counters, stats content, metrics/flight         *)
(* ------------------------------------------------------------------ *)

let small_load =
  P.Load
    {
      name;
      points = Array.init 6 (fun i -> [| float_of_int i; 0.0 |]);
      rects = [| Rect.of_intervals [ (-1.0, 9.0); (-1.0, 9.0) ] |];
      k = 2;
      z = 0;
      eps = 0.5;
      rounds = Some 40;
      drift = 2.0;
    }

(* Constant clocks make every phase timing exactly 0µs — a *counting*
   fake clock would not be deterministic, because pool domains race on
   the call order. Restores the library defaults on the way out. *)
let with_fake_clocks srv f =
  Obs.set_clock (fun () -> 0.0);
  Server.set_clock srv (fun () -> 0.0);
  Fun.protect ~finally:(fun () -> Obs.set_clock Obs.monotonic) f

(* The default span clock is monotonic wall time: a span around a 20 ms
   sleep records the sleep, where CPU time would read about zero. *)
let test_default_clock_counts_sleep () =
  let was = Obs.enabled () in
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled was) @@ fun () ->
  let slept () =
    List.fold_left
      (fun acc (path, _, secs) ->
        if path = "serve_test.sleep" then acc +. secs else acc)
      0.0 (Obs.span_stats ())
  in
  let before = slept () in
  Obs.with_span "serve_test.sleep" (fun () -> Unix.sleepf 0.02);
  let got = slept () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "span around a 20 ms sleep records %.4f s" got)
    true (got >= 0.015)

(* [serve.bytes_in]/[serve.bytes_out] must equal the summed encoded
   frame sizes — per codec, since the two codecs frame differently. *)
let test_bytes_counters () =
  List.iter
    (fun mode ->
      Obs.reset ();
      let reqs =
        [
          small_load;
          P.Solve name;
          P.Query_ball
            { name; center = [| 0.0; 0.0 |]; radius = 10.0; eps = 0.0 };
        ]
      in
      let config = { Server.default_config with Server.mode } in
      let payloads =
        with_server ~config ~n:1 (fun srv cs ->
            let c = List.hd cs in
            List.iter (h_send mode c) reqs;
            pump srv cs ~want:[ List.length reqs ];
            frames c)
      in
      (* Reply payloads come back stripped; add the framing overhead
         back (4-byte length prefix / trailing newline). *)
      let overhead = match mode with P.Binary -> 4 | P.Jsonl -> 1 in
      let expected_in =
        List.fold_left
          (fun a r -> a + String.length (P.encode_request mode r))
          0 reqs
      in
      let expected_out =
        List.fold_left (fun a p -> a + String.length p + overhead) 0 payloads
      in
      let label s = Printf.sprintf "%s (%s)" s (P.mode_to_string mode) in
      Alcotest.(check bool) (label "bytes flowed") true
        (expected_in > 0 && expected_out > 0);
      Alcotest.(check int) (label "serve.bytes_in") expected_in
        (Obs.value_of "serve.bytes_in");
      Alcotest.(check int) (label "serve.bytes_out") expected_out
        (Obs.value_of "serve.bytes_out"))
    [ P.Binary; P.Jsonl ]

(* The Stats blob must parse and carry the serve counters, the per-kind
   latency histograms and the per-instance registry section. *)
let test_stats_content () =
  Obs.reset ();
  with_server ~n:1 (fun srv cs ->
      let c = List.hd cs in
      let reqs =
        [
          small_load;
          P.Solve name;
          P.Insert { name; point = [| 7.0; 1.0 |] };
          P.Stats;
        ]
      in
      List.iter (h_send P.Binary c) reqs;
      pump srv cs ~want:[ List.length reqs ];
      match dec P.Binary (newest c) with
      | P.Stats_reply blob ->
          let j = Obs.Json.parse blob in
          let counters = Option.get (Obs.Json.member "counters" j) in
          let cnt k =
            match Obs.Json.member k counters with
            | Some v -> int_of_float (Obs.Json.num v)
            | None -> Alcotest.failf "stats blob lacks counter %s" k
          in
          Alcotest.(check int) "serve.requests" 4 (cnt "serve.requests");
          Alcotest.(check bool) "bytes counters present and nonzero" true
            (cnt "serve.bytes_in" > 0 && cnt "serve.bytes_out" > 0);
          let hists = Option.get (Obs.Json.member "hists" j) in
          List.iter
            (fun kind ->
              let hname = "serve.request_us." ^ kind in
              match Obs.Json.member hname hists with
              | Some v ->
                  let total =
                    List.fold_left
                      (fun a pair ->
                        match Obs.Json.arr pair with
                        | [ _; c ] -> a + int_of_float (Obs.Json.num c)
                        | _ -> Alcotest.fail "malformed histogram pair")
                      0 (Obs.Json.arr v)
                  in
                  Alcotest.(check int)
                    (Printf.sprintf "%s holds one observation" hname)
                    1 total
              | None -> Alcotest.failf "stats blob lacks histogram %s" hname)
            [ "load"; "solve"; "insert" ];
          let instances = Option.get (Obs.Json.member "instances" j) in
          let w = Option.get (Obs.Json.member name instances) in
          let field k = int_of_float (Obs.Json.num (Option.get (Obs.Json.member k w))) in
          Alcotest.(check int) "instance live count" 7 (field "live");
          Alcotest.(check int) "instance inserts" 7 (field "inserts");
          Alcotest.(check int) "instance deletes" 0 (field "deletes");
          Alcotest.(check int) "centers age since last solve" 1
            (field "centers_age");
          Alcotest.(check bool) "solved flag" true
            (Obs.Json.member "solved" w = Some (Obs.Json.Bool true))
      | _ -> Alcotest.fail "expected a stats reply")

(* Metrics text, Flight JSONL and the Stats blob must come out
   bit-identical for every pool size under the constant fake clock, and
   pass their own exact re-parse gates. *)
let test_metrics_flight_identity () =
  let script = drift_script () @ [ P.Metrics; P.Flight; P.Stats ] in
  let run nd =
    with_domains nd (fun () ->
        Obs.reset ();
        with_server ~n:1 (fun srv cs ->
            with_fake_clocks srv (fun () ->
                let c = List.hd cs in
                List.iter (h_send P.Binary c) script;
                pump srv cs ~want:[ List.length script ];
                let fr = frames c in
                let n = List.length fr in
                let at i =
                  match dec P.Binary (List.nth fr i) with
                  | P.Metrics_reply s | P.Flight_reply s | P.Stats_reply s -> s
                  | _ -> Alcotest.fail "expected an observability reply"
                in
                (at (n - 3), at (n - 2), at (n - 1)))))
  in
  let metrics, flight, stats = run (List.hd domain_counts) in
  (match Obs.Metrics.check metrics with
  | Ok () -> ()
  | Error m -> Alcotest.failf "metrics self-check failed: %s" m);
  let records = Obs.Flight.parse_jsonl flight in
  Alcotest.(check string) "flight JSONL re-renders exactly" flight
    (Obs.Flight.to_jsonl records);
  (* One record per request answered before the Flight dump (all
     timings zero under the fake clock; outcomes typed). *)
  Alcotest.(check int) "one flight record per earlier request"
    (List.length script - 2)
    (List.length records);
  List.iter
    (fun r ->
      Alcotest.(check bool) "fake-clock phases are zero" true
        Obs.Flight.(r.fl_queue_us = 0 && r.fl_exec_us = 0 && r.fl_flush_us = 0))
    records;
  Alcotest.(check bool) "an error outcome is typed" true
    (List.exists
       (fun r -> r.Obs.Flight.fl_outcome = "error:unknown_instance")
       records);
  List.iter
    (fun nd ->
      let m, f, s = run nd in
      let lbl what = Printf.sprintf "%s identical (%d domains)" what nd in
      Alcotest.(check string) (lbl "metrics") metrics m;
      Alcotest.(check string) (lbl "flight") flight f;
      Alcotest.(check string) (lbl "stats") stats s)
    (List.tl domain_counts)

(* With the kill switch off, Metrics still renders valid (frozen) text
   and the flight ring stays empty — and neither touches the clock. *)
let test_obs_off_metrics_flight () =
  without_obs (fun () ->
      Obs.Flight.clear ();
      with_server ~n:1 (fun srv cs ->
          let c = List.hd cs in
          List.iter (h_send P.Binary c) [ small_load; P.Metrics; P.Flight ];
          pump srv cs ~want:[ 3 ];
          match List.map (dec P.Binary) (frames c) with
          | [ P.Ok_reply; P.Metrics_reply m; P.Flight_reply f ] ->
              (match Obs.Metrics.check m with
              | Ok () -> ()
              | Error e ->
                  Alcotest.failf "obs-off metrics must stay valid: %s" e);
              Alcotest.(check string) "obs-off flight ring is empty" "" f
          | _ -> Alcotest.fail "unexpected replies"))

let suite =
  [
    Alcotest.test_case "default clock counts a sleep" `Quick
      test_default_clock_counts_sleep;
    Alcotest.test_case "byte identity: binary, drift script, all pools" `Slow
      (test_byte_identity P.Binary);
    Alcotest.test_case "byte identity: jsonl, drift script, all pools" `Slow
      (test_byte_identity P.Jsonl);
    Alcotest.test_case "byte identity: binary, rect updates, all pools" `Quick
      (test_rect_byte_identity P.Binary);
    Alcotest.test_case "byte identity: jsonl, rect updates, all pools" `Quick
      (test_rect_byte_identity P.Jsonl);
    Alcotest.test_case "concurrent clients = serial bytes" `Slow
      test_concurrent_matches_serial;
    Alcotest.test_case "concurrent mutation storm linearizes" `Quick
      test_concurrent_mutation_storm;
    Alcotest.test_case "overload: typed replies, FIFO, no leaks" `Quick
      test_overload;
    Alcotest.test_case "server reassembles byte-at-a-time frames" `Quick
      test_server_partial_frame;
    Alcotest.test_case "client survives dribbled frames + EINTR" `Quick
      test_client_dribbled_frame_with_eintr;
    Alcotest.test_case "codec round-trips (both modes)" `Quick test_roundtrip;
    Alcotest.test_case "truncated payloads decode to Error" `Quick
      test_truncation_total;
    Alcotest.test_case "bad tags decode to Error" `Quick test_bad_tag_total;
    Alcotest.test_case "reader: byte-at-a-time framing" `Quick
      test_reader_byte_at_a_time;
    Alcotest.test_case "reader: oversize poisons" `Quick
      test_reader_oversize_poisons;
    Alcotest.test_case "oversize closes only the offending connection" `Quick
      test_oversize_closes_connection;
    Alcotest.test_case "peer gone mid-reply costs only its connection"
      `Quick test_peer_gone_mid_reply;
    Alcotest.test_case "load with zero rounds refused" `Quick
      test_load_zero_rounds_refused;
    Alcotest.test_case "oversized reply refused, connection kept" `Quick
      test_oversized_reply_refused;
    Alcotest.test_case "stats and shutdown" `Quick test_stats_and_shutdown;
    Alcotest.test_case "bytes counters match encoded frames" `Quick
      test_bytes_counters;
    Alcotest.test_case "stats blob: counters, per-kind hists, instances"
      `Quick test_stats_content;
    Alcotest.test_case "metrics/flight/stats identical across pools" `Slow
      test_metrics_flight_identity;
    Alcotest.test_case "CSO_OBS=0: metrics valid, flight empty" `Quick
      test_obs_off_metrics_flight;
  ]
