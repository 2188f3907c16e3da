(* Workload [serve_mixed]: the csokitd request path (codec, event loop,
   registry, dynamic trees) under open-loop Poisson traffic from two
   socketpair sessions to an in-process [Server], with writes beside
   reads and warm re-solves that stall every session. Latency runs from
   each request's due time, so a stall also counts against the requests
   queued behind it. *)

module P = Cso_serve.Protocol
module Registry = Cso_serve.Registry
module Server = Cso_serve.Server
module Obs = Cso_obs.Obs
module Gcso = Cso_core.Gcso_general
module Geo_instance = Cso_core.Geo_instance
module G = Serve_gen

type client = { fd : Unix.file_descr; rd : P.reader; buf : Bytes.t }

let connect srv =
  let ours, theirs = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Server.add_connection srv ours;
  { fd = theirs; rd = P.reader P.Binary; buf = Bytes.create 65536 }

let rec write_all fd s off =
  if off < String.length s then
    write_all fd s (off + Unix.write_substring fd s off (String.length s - off))

(* Closed-loop request on the control session, stepping the server on
   this domain until the reply arrives. *)
let call srv c req =
  write_all c.fd (P.encode_request P.Binary req) 0;
  let rec wait () =
    ignore (Server.step ~timeout:0.001 srv);
    match Unix.select [ c.fd ] [] [] 0.0 with
    | [], _, _ -> wait ()
    | _ -> (
        let n = Unix.read c.fd c.buf 0 (Bytes.length c.buf) in
        if n = 0 then failwith "serve_mixed: control session closed";
        match P.feed c.rd c.buf n with
        | [] -> wait ()
        | [ `Frame p ] -> (
            match P.decode_response P.Binary p with
            | Ok r -> r
            | Error m -> failwith ("serve_mixed: undecodable reply: " ^ m))
        | _ -> failwith "serve_mixed: unexpected frames on the control session")
  in
  wait ()

let checked_call srv c req expect =
  let r = call srv c req in
  if not (G.reply_ok expect r) then
    failwith
      (Printf.sprintf "serve_mixed: set-up %s got an unexpected %s reply"
         (P.request_kind req)
         (match r with P.Error (_, m) -> "error (" ^ m ^ ")" | _ -> "non-error"))

type world = { plan : G.plan; srv : Server.t; ctl : client; a : client; b : client }

(* Set-up: the traffic plan, [big] with its cold solve and Prepare, and
   one small instance per resolve op with its first solve. *)
let setup ~seed ~duration =
  let plan = G.plan ~seed ~duration in
  let srv = Server.create (Registry.create ()) in
  Server.set_clock srv Clock.now;
  let ctl = connect srv in
  checked_call srv ctl (G.load_big plan) G.Ok_reply;
  checked_call srv ctl (P.Solve G.big) G.Solved_fresh;
  checked_call srv ctl (P.Prepare G.big) G.Ok_reply;
  for i = 0 to Array.length plan.G.small_points - 1 do
    checked_call srv ctl (G.load_small plan i) G.Ok_reply;
    checked_call srv ctl (P.Solve (G.small i)) G.Solved_fresh
  done;
  (* Connection ids are handed out in order: ctl 0, A 1, B 2. *)
  let a = connect srv in
  let b = connect srv in
  { plan; srv; ctl; a; b }

let teardown w =
  Server.close w.srv;
  List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) [ w.ctl; w.a; w.b ]

type traffic = {
  t0 : float;
  sent : float array;
  recv : float array;
  payload : string array;
  probes : (float * float) list;  (** (time, {!Host.probe} seconds) *)
}

(* Host probes during the traffic run only while the server is idle:
   every frame sent has its reply, and the next one falls due in more
   than [probe_gap_s], about three times a quarter probe. So a probe
   delays no frame. At most one runs per [probe_every_s]. *)
let probe_steps = Host.probe_steps / 4
let probe_gap_s = 0.008
let probe_every_s = 0.1

(* The traffic and the server share this domain. Each turn sends every
   frame now due, steps the server once, waiting at most until the next
   frame falls due, and timestamps the replies that have come back. A
   frame that falls due while the server executes a batch is sent when
   the batch ends. Its latency runs from its due time, so that wait
   counts as it would if the frame had sat in the socket. One vCPU
   carries the whole run, so it does not depend on how the hypervisor
   schedules two (README.md, "Noise"). Replies on a session come back in
   its send order. *)
let run_traffic w =
  let frames = w.plan.G.frames and enc = w.plan.G.encoded in
  let n = Array.length frames in
  let sent = Array.make n 0.0 and recv = Array.make n 0.0 in
  let payload = Array.make n "" in
  let clients = [| w.a; w.b |] in
  let waiting = [| Queue.create (); Queue.create () |] in
  (* Bytes not yet written, per session: a blocking write into a full
     socket would stall the only domain that can drain it. *)
  let pending = [| Buffer.create 4096; Buffer.create 4096 |] in
  let again = function
    | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> true
    | _ -> false
  in
  let flush s =
    let b = pending.(s) in
    if Buffer.length b > 0 then begin
      let str = Buffer.contents b in
      let k =
        try Unix.write_substring clients.(s).fd str 0 (String.length str)
        with e when again e -> 0
      in
      Buffer.clear b;
      Buffer.add_substring b str k (String.length str - k)
    end
  in
  let got = ref 0 in
  let rec receive s =
    let c = clients.(s) in
    match Unix.read c.fd c.buf 0 (Bytes.length c.buf) with
    | 0 -> failwith "serve_mixed: server closed a session"
    | k ->
        let at = Clock.now () in
        List.iter
          (function
            | `Frame p ->
                let i = Queue.pop waiting.(s) in
                recv.(i) <- at;
                payload.(i) <- p;
                incr got
            | `Oversized _ -> failwith "serve_mixed: oversized reply")
          (P.feed c.rd c.buf k);
        receive s
    | exception e when again e -> ()
  in
  Array.iter (fun c -> Unix.set_nonblock c.fd) clients;
  let t0 = Clock.now () +. 0.05 in
  let deadline = t0 +. frames.(n - 1).G.due +. 60.0 in
  let next = ref 0 and probes = ref [] and last_probe = ref neg_infinity in
  while !got < n do
    while !next < n && Clock.now () >= t0 +. frames.(!next).G.due do
      let s = frames.(!next).G.session in
      Buffer.add_string pending.(s) enc.(!next);
      sent.(!next) <- Clock.now ();
      Queue.add !next waiting.(s);
      incr next
    done;
    flush 0;
    flush 1;
    let now = Clock.now () in
    if now > deadline then failwith "serve_mixed: replies stopped arriving";
    let timeout =
      if !next < n then Float.max 0.0 (t0 +. frames.(!next).G.due -. now) else 0.002
    in
    ignore (Server.step ~timeout w.srv);
    receive 0;
    receive 1;
    let now = Clock.now () in
    if
      !got = !next && !next < n
      && t0 +. frames.(!next).G.due -. now > probe_gap_s
      && now -. !last_probe > probe_every_s
    then begin
      probes := (now, Host.probe ~steps:probe_steps ()) :: !probes;
      last_probe := now
    end
  done;
  { t0; sent; recv; payload; probes = !probes }

(* The probe-scale factor of a frame by the second of traffic it fell
   due in: [Host.nominal_s] over the median probe of that second, or of
   the whole traffic in a second without one. Host phases last seconds,
   so the factor follows them as the solve workloads' per-op factor
   does. *)
let host_scale tr =
  if tr.probes = [] then failwith "serve_mixed: no idle gap for a host probe";
  let by_second = Hashtbl.create 64 in
  List.iter
    (fun (t, p) ->
      let k = int_of_float (t -. tr.t0) in
      Hashtbl.replace by_second k
        (p :: Option.value ~default:[] (Hashtbl.find_opt by_second k)))
    tr.probes;
  let all = Stats.median (List.map snd tr.probes) in
  Printf.eprintf "perfbench: traffic probes=%d probe_ms_p50=%.3f\n%!"
    (List.length tr.probes) (Clock.ms all);
  fun due ->
    let p =
      match Hashtbl.find_opt by_second (int_of_float due) with
      | Some l -> Stats.median l
      | None -> all
    in
    Host.nominal_s /. p

let decode p =
  match P.decode_response P.Binary p with Ok r -> Some r | Error _ -> None

(* Each served re-solve, checked on the small instance as the server
   holds it after the op's update: its points, and its tiles plus the
   nested rect, whose ids are their indices. Gives the op, whether the
   solution is valid there, its center count over k, and (when valid)
   its covering cost over the Gonzalez k-center radius of all of the
   instance's points, an upper bound on the optimum with outliers, like
   the planted bounds of the solve workloads. *)
let served_resolves plan replies =
  List.filter_map
    (fun (i, (f : G.frame)) ->
      match (replies.(i), List.assoc_opt f.G.op plan.G.nested) with
      | Some (P.Solved { centers; outliers; _ }), Some (inst, nested) ->
          let points = plan.G.small_points.(inst) in
          let g =
            Geo_instance.make ~points ~rects:(Array.append G.tiles [| nested |])
              ~k:G.small_k ~z:G.small_z
          in
          let sol = { Cso_core.Instance.centers; outliers } in
          let reference = snd (Cso_kcenter.Gonzalez.run_points points ~k:G.small_k) in
          (* [is_valid] raises on an id the instance does not have. *)
          let valid = try Geo_instance.is_valid g sol with Invalid_argument _ -> false in
          Some
            ( f.G.op,
              valid,
              float_of_int (List.length centers) /. float_of_int G.small_k,
              if valid then Geo_instance.cost g sol /. reference else nan )
      | _ -> None)
    (List.mapi (fun i f -> (i, f)) (Array.to_list plan.G.frames))

(* Ops with a frame whose reply is not the one the plan expects, or
   whose served re-solve is not valid; each failed op counts once. *)
let failed_ops plan replies =
  let bad = Hashtbl.create 16 in
  Array.iteri
    (fun i (f : G.frame) ->
      match replies.(i) with
      | Some r when G.reply_ok f.G.expect r -> ()
      | _ -> Hashtbl.replace bad f.G.op ())
    plan.G.frames;
  List.iter
    (fun (op, valid, _, _) -> if not valid then Hashtbl.replace bad op ())
    (served_resolves plan replies);
  bad

(* Final state against the model: [big]'s live count after the churn,
   and each small instance's points and its tiles plus one nested
   rectangle. *)
let model_ok w =
  match call w.srv w.ctl P.Stats with
  | P.Stats_reply json -> (
      let open Obs.Json in
      try
        let inst = Option.get (member "instances" (parse json)) in
        let field name key =
          int_of_float (num (Option.get (member key (Option.get (member name inst)))))
        in
        field G.big "live" = w.plan.G.final_big_live
        && List.for_all
             (fun i ->
               field (G.small i) "live" = G.small_n
               && field (G.small i) "rects" = Array.length G.tiles + 1)
             (List.init (Array.length w.plan.G.small_points) Fun.id)
      with _ -> false)
  | _ -> false

(* Per-op latency from due time (shared by an op's frames) to the reply
   of its last frame, scaled by [scale] of the due time. *)
let op_latencies plan tr bad ~scale =
  let last = Hashtbl.create 1024 in
  Array.iteri
    (fun i (f : G.frame) -> Hashtbl.replace last f.G.op (f, tr.recv.(i)))
    plan.G.frames;
  Hashtbl.fold
    (fun op ((f : G.frame), at) acc ->
      ( f.G.cls,
        Outcome.latency_or_miss (not (Hashtbl.mem bad op))
          ((at -. (tr.t0 +. f.G.due)) *. scale f.G.due) )
      :: acc)
    last []

(* Latencies are probe-scaled by the probes taken during the traffic
   ({!host_scale}). *)
let e2e plan tr resolves bad =
  let lat = op_latencies plan tr bad ~scale:(host_scale tr) in
  let of_cls c = List.filter_map (fun (c', l) -> if c = c' then Some l else None) lat in
  let p what l q = Clock.ms (Stats.percentile ~what l q) in
  let quality =
    List.filter_map
      (fun (op, _, mu1, mu3) -> if Hashtbl.mem bad op then None else Some (mu1, mu3))
      resolves
  in
  (* ops_per_s counts every op answered over the traffic's span. Under
     open-loop traffic that is the offered load, about 500/s, until the
     server saturates. The op latency percentiles cover the
     once-a-second ops (bulk, resolve, scrape), the workload's
     multi-millisecond operations: over all requests, p90 would sit
     where the share of requests stalled behind those ops ends, near
     10%, and swing with it from seed to seed. *)
  let heavy = List.filter_map (fun (c, l) -> if c = G.Read || c = G.Write then None else Some l) lat in
  let span = Array.fold_left Float.max 0.0 tr.recv -. tr.t0 in
  let m = Outcome.m in
  [
    m "ops_per_s" "1/s" (float_of_int (List.length lat) /. span);
    m "op_p50_ms" "ms" (p "once-a-second op latency" heavy 50.0);
    m "op_p90_ms" "ms" (p "once-a-second op latency" heavy 90.0);
    m "centers_ratio" "ratio" (Stats.mean (List.map fst quality));
    m "cost_ratio" "ratio" (Stats.mean (List.map snd quality));
    m "read_p50_ms" "ms" (p "read latency" (of_cls G.Read) 50.0);
    m "read_p99_ms" "ms" (p "read latency" (of_cls G.Read) 99.0);
    m "write_p50_ms" "ms" (p "write latency" (of_cls G.Write) 50.0);
    m "write_p99_ms" "ms" (p "write latency" (of_cls G.Write) 99.0);
    m "bulk_p50_ms" "ms" (p "bulk latency" (of_cls G.Bulk) 50.0);
    m "resolve_p50_ms" "ms" (p "resolve latency" (of_cls G.Resolve) 50.0);
  ]

(* Set-ups per untraced run; [setup_s] is their median. Two, fewer than
   for the solve workloads: each holds a cold solve of [big] of several
   seconds. *)
let setups = 2

(* Flight phases (queue, exec, flush; microseconds) of every traffic
   frame: each session's records in request-id order are its frames in
   send order. *)
let flight_phases plan =
  let recs = Obs.Flight.records () in
  let n = Array.length plan.G.frames in
  let phases = Array.make n (0, 0, 0) in
  List.iter
    (fun s ->
      let mine =
        List.filter (fun r -> r.Obs.Flight.fl_conn = s + 1) recs
        |> List.sort (fun a b -> compare a.Obs.Flight.fl_id b.Obs.Flight.fl_id)
      in
      let idx =
        List.filter (fun i -> plan.G.frames.(i).G.session = s) (List.init n Fun.id)
      in
      if List.length mine <> List.length idx then
        failwith "serve_mixed: flight records do not match the frames sent";
      List.iter2
        (fun i r -> phases.(i) <- Obs.Flight.(r.fl_queue_us, r.fl_exec_us, r.fl_flush_us))
        idx mine)
    [ 0; 1 ];
  phases

(* Dynamic-tree rebuild work per write: session A's write stream
   replayed on a standalone incremental instance of [big]. *)
let rebuilt_per_write plan =
  let inc =
    Gcso.Incremental.create ~eps:0.5 ~rounds:40 ~drift:2.0 ~rects:G.tiles ~k:4
      ~z:1 ()
  in
  Array.iter (fun p -> ignore (Gcso.Incremental.insert inc p)) plan.G.big_points;
  let rebuilt () = (Gcso.Incremental.ball_stats inc).Cso_geom.Dynamic.points_rebuilt in
  let before = rebuilt () in
  List.iter
    (function
      | G.Ins p -> ignore (Gcso.Incremental.insert inc p)
      | G.Del id -> Gcso.Incremental.delete inc id)
    plan.G.big_writes;
  float_of_int (rebuilt () - before)
  /. float_of_int (max 1 (List.length plan.G.big_writes))

let calibration_resolves = 8

(* trace.overhead_pct for serve: closed-loop resolves on a small
   instance through the control session, alternating untraced and
   traced. Resolves are where the request path meets the program's
   spans. *)
let trace_overhead w =
  let st = Random.State.make [| 0xca1 |] in
  let resolve () =
    let name = G.small 0 in
    match call w.srv w.ctl (P.Insert_rect { name; rect = G.nested_rect st }) with
    | P.Inserted id ->
        ignore (call w.srv w.ctl (P.Solve name));
        ignore (call w.srv w.ctl (P.Delete_rect { name; id }))
    | _ -> failwith "serve_mixed: calibration insert_rect refused"
  in
  let timed traced =
    Obs.Trace.set_enabled traced;
    let _, t0, t1 = Spans.time resolve in
    t1 -. t0
  in
  let pairs = List.init calibration_resolves (fun _ -> (timed false, timed true)) in
  Obs.Trace.set_enabled false;
  Outcome.overhead_pct ~untraced:(List.map fst pairs) ~traced:(List.map snd pairs)

let layers w tr replies ~before ~after ~gc =
  let plan = w.plan in
  let n = Array.length plan.G.frames in
  let phases = flight_phases plan in
  let frames = List.init n Fun.id in
  let of_cls c = List.filter (fun i -> plan.G.frames.(i).G.cls = c) frames in
  let ms_of us = float_of_int us /. 1e3 in
  let q i = let a, _, _ = phases.(i) in ms_of a in
  let e i = let _, b, _ = phases.(i) in ms_of b in
  let fl i = let _, _, c = phases.(i) in ms_of c in
  let due i = tr.t0 +. plan.G.frames.(i).G.due in
  let late i = Clock.ms (tr.sent.(i) -. due i) in
  (* The exec time of a two-frame op is the sum over its frames. *)
  let exec_per_op idx =
    let tbl = Hashtbl.create 64 in
    List.iter
      (fun i ->
        let op = plan.G.frames.(i).G.op in
        Hashtbl.replace tbl op (e i +. Option.value ~default:0.0 (Hashtbl.find_opt tbl op)))
      idx;
    Hashtbl.fold (fun _ v acc -> v :: acc) tbl []
  in
  let pct what l p = Stats.percentile ~what l p in
  let reads = of_cls G.Read in
  (* Standalone codec calls on the run's recorded frames. *)
  let codec_us =
    List.filter_map
      (fun i ->
        Option.map
          (fun r ->
            let enc = plan.G.encoded.(i) in
            let req = String.sub enc 4 (String.length enc - 4) in
            let _, t0, t1 =
              Spans.time (fun () ->
                  ignore (P.decode_request P.Binary req);
                  ignore (P.encode_response P.Binary r))
            in
            (t1 -. t0) *. 1e6)
          replies.(i))
      reads
  in
  let encode_bulk =
    List.filter_map
      (fun i ->
        match replies.(i) with
        | Some (P.Balls _ as r) ->
            let _, t0, t1 = Spans.time (fun () -> P.encode_response P.Binary r) in
            Some (Clock.ms (t1 -. t0))
        | _ -> None)
      (of_cls G.Bulk)
  in
  let solved expect =
    List.filter_map
      (fun i ->
        match (plan.G.frames.(i).G.expect, replies.(i)) with
        | x, Some (P.Solved { cached; guesses; _ }) when x = expect -> Some (cached, guesses)
        | _ -> None)
      frames
  in
  let big_solves = solved G.Solved_any in
  let delta = Outcome.counter_delta before after in
  let unattributed =
    let total = ref 0.0 and free = ref 0.0 in
    List.iter
      (fun i ->
        let wall = Clock.ms (tr.recv.(i) -. due i) in
        total := !total +. wall;
        free := !free +. Float.max 0.0 (wall -. late i -. q i -. e i -. fl i))
      frames;
    100.0 *. !free /. !total
  in
  (* Spans: one per op, from its due time to its last reply, with the
     generator's lateness as its child; the server's phases of each
     frame are in the flight records written beside them. *)
  let last = Hashtbl.create 1024 in
  List.iter (fun i -> Hashtbl.replace last plan.G.frames.(i).G.op i) frames;
  List.iter
    (fun i ->
      let f = plan.G.frames.(i) in
      if i = 0 || plan.G.frames.(i - 1).G.op <> f.G.op then begin
        let id =
          Spans.add ~op:f.G.op ~parent:0 (G.cls_name f.G.cls) (due i)
            tr.recv.(Hashtbl.find last f.G.op)
        in
        ignore (Spans.add ~op:f.G.op ~parent:id "serve.gen_late" (due i) tr.sent.(i))
      end)
    frames;
  let replay, r0, r1 = Spans.time (fun () -> rebuilt_per_write plan) in
  ignore (Spans.add ~op:plan.G.ops ~parent:0 "geom.dynamic_replay" r0 r1);
  let m = Outcome.m in
  [
    m "serve.queue_ms_p50" "ms" (pct "queue" (List.map q frames) 50.0);
    m "serve.queue_ms_p99" "ms" (pct "queue" (List.map q frames) 99.0);
    m "serve.flush_ms_p99" "ms" (pct "flush" (List.map fl frames) 99.0);
    m "serve.exec_ms_read_p50" "ms" (pct "read exec" (List.map e reads) 50.0);
    m "serve.exec_ms_write_p99" "ms"
      (pct "write exec" (List.map e (of_cls G.Write)) 99.0);
    m "serve.exec_ms_bulk_p50" "ms" (pct "bulk exec" (exec_per_op (of_cls G.Bulk)) 50.0);
    m "serve.exec_ms_resolve_p50" "ms"
      (pct "resolve exec" (exec_per_op (of_cls G.Resolve)) 50.0);
    m "serve.gen_late_ms_p99" "ms" (pct "generator lateness" (List.map late frames) 99.0);
    m "serve.codec_us_read_p50" "us" (pct "read codec" codec_us 50.0);
    m "serve.encode_ms_bulk_p50" "ms" (pct "bulk encode" encode_bulk 50.0);
    m "serve.bytes_out_per_reply" "B"
      (float_of_int (delta "serve.bytes_out")
      /. float_of_int (max 1 (delta "serve.responses")));
    m "serve.refused" "count"
      (float_of_int (delta "serve.overloads" + delta "serve.frame_errors"));
    m "cso.inc_re_solves" "count" (float_of_int (delta "cso.gcso.inc.re_solves"));
    m "cso.inc_guesses_per_resolve" "count"
      (Stats.mean (List.map (fun (_, g) -> float_of_int g) (solved G.Solved_fresh)));
    m "cso.inc_cache_hit_ratio" "ratio"
      (float_of_int (List.length (List.filter fst big_solves))
      /. float_of_int (max 1 (List.length big_solves)));
    m "geom.dynamic_points_rebuilt_per_write" "count" replay;
    m "trace.unattributed_pct" "%" unattributed;
  ]
  @ gc
  @ Outcome.counter_layers ~ops:n
      (List.map (fun (k, _) -> (k, delta k)) after)

let run ~seed ~seconds ~trace ~events_out =
  (* A traced run prints no setup_s: it sets up once. *)
  let setup_s, w =
    Outcome.repeat_setup ~discard:teardown (if trace then 1 else setups) (fun () ->
        setup ~seed ~duration:(float_of_int seconds))
  in
  let plan = w.plan in
  let n = Array.length plan.G.frames in
  if trace then begin
    Obs.Flight.set_capacity (n + 64);
    Obs.Trace.clear ();
    Obs.Trace.set_enabled true
  end;
  let before = Obs.snapshot () and gc = Outcome.gc_acc () in
  let tr = Outcome.gc_track gc (fun () -> run_traffic w) in
  let after = Obs.snapshot () in
  let gc = Outcome.gc_metrics ~ops:n gc in
  Obs.Trace.set_enabled false;
  let replies = Array.map decode tr.payload in
  let bad = failed_ops plan replies in
  let tally = Outcome.tally () in
  for op = 0 to plan.G.ops - 1 do
    Outcome.record tally (not (Hashtbl.mem bad op))
  done;
  Hashtbl.iter (fun op () -> Printf.eprintf "perfbench: serve_mixed op %d failed\n%!" op) bad;
  (* The final state check counts as one more op. *)
  Outcome.record tally (model_ok w);
  let metrics =
    if not trace then e2e plan tr (served_resolves plan replies) bad
    else begin
      if Obs.Trace.dropped () > 0 then failwith "serve_mixed: trace ring dropped events";
      events_out := List.rev_append (Obs.Trace.events ()) !events_out;
      let l = layers w tr replies ~before ~after ~gc in
      Outcome.m "trace.overhead_pct" "%" (trace_overhead w) :: l
    end
  in
  teardown w;
  (tally, setup_s, metrics)
