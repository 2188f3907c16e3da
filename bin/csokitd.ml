(* csokitd: the resident clustering service.

     csokitd serve   --socket /tmp/cso.sock [--tcp 7070] [--mode binary]
                     [--max-inflight 256] [--batch 32] [--domains N]
                     [--fake-clock]
     csokitd client  --socket /tmp/cso.sock --script session.jsonl
     csokitd metrics --socket /tmp/cso.sock      # OpenMetrics text
     csokitd flight  --socket /tmp/cso.sock      # flight ring as JSONL
     csokitd top     --socket /tmp/cso.sock [--once] [--interval 2]
     csokitd check   --socket /tmp/cso.sock      # exporter self-check

   The daemon keeps prepared instances resident (incremental GCSO
   drivers, dynamic and static trees) behind [lib/serve]'s registry and
   serves load / prepare / solve / query-ball / balls-all / assign /
   insert / delete / stats / metrics / flight / shutdown requests over
   Unix and TCP sockets, in either the binary or the JSONL codec.

   The client reads one JSONL request per line from --script ("-" for
   stdin), sends each over the chosen transport/codec, and prints each
   reply as one JSONL line — a session transcript is therefore
   independent of the wire codec, so one golden transcript diff pins
   both codecs (see `make serve-smoke`). [top] polls Stats and renders
   a plain-text table (qps, per-kind p50/p99 from the log2 histograms,
   per-instance registry rows); [--once] prints a single sample for
   scripts. [check] fetches Metrics and Flight and runs the exact
   re-parse gates ([Obs.Metrics.check], [Obs.Flight.parse_jsonl]). *)

module P = Cso_serve.Protocol
module Registry = Cso_serve.Registry
module Server = Cso_serve.Server
module Client = Cso_serve.Client
module Pool = Cso_parallel.Pool
module Obs = Cso_obs.Obs

let guard f =
  try f () with Invalid_argument msg | Failure msg -> `Error (false, msg)

let parse_mode s =
  match P.mode_of_string s with Ok m -> m | Error e -> failwith e

let setup_domains = function
  | None -> ()
  | Some n -> Pool.set_default (Pool.create ~num_domains:n ())

(* --- serve command --- *)

let run_serve socket tcp mode max_inflight batch domains fake_clock =
  guard @@ fun () ->
  let mode = parse_mode mode in
  if socket = None && tcp = None then
    failwith "serve: need --socket PATH and/or --tcp PORT";
  setup_domains domains;
  let config = { Server.mode; max_inflight; batch } in
  let srv = Server.create ~config (Registry.create ()) in
  if fake_clock then begin
    (* Constant clock: every phase timing is exactly 0µs, making the
       Stats / Metrics / Flight artifacts deterministic for the golden
       transcript (a counting clock would not be — pool domains race on
       the call order). *)
    Server.set_clock srv (fun () -> 0.0);
    Obs.set_clock (fun () -> 0.0)
  end;
  Option.iter (Server.listen_unix srv) socket;
  Option.iter (fun port -> Server.listen_tcp srv ~port) tcp;
  Option.iter (fun p -> Fmt.epr "csokitd: listening on %s@." p) socket;
  Option.iter (fun p -> Fmt.epr "csokitd: listening on 127.0.0.1:%d@." p) tcp;
  Server.run srv;
  Fmt.epr "csokitd: shutdown@.";
  `Ok ()

(* --- client command --- *)

let run_client socket tcp mode script =
  guard @@ fun () ->
  let mode = parse_mode mode in
  let c =
    match (socket, tcp) with
    | Some path, _ -> Client.connect_unix ~mode path
    | None, Some port -> Client.connect_tcp ~mode port
    | None, None -> failwith "client: need --socket PATH or --tcp PORT"
  in
  let ic = if script = "-" then stdin else open_in script in
  Fun.protect
    ~finally:(fun () ->
      if script <> "-" then close_in_noerr ic;
      Client.close c)
    (fun () ->
      (try
         while true do
           let line = String.trim (input_line ic) in
           if line <> "" && line.[0] <> '#' then
             match P.decode_request P.Jsonl line with
             | Error m -> failwith (Printf.sprintf "bad request line: %s" m)
             | Ok req ->
                 let resp = Client.rpc c req in
                 print_string (P.encode_response P.Jsonl resp)
         done
       with End_of_file -> ());
      `Ok ())

(* --- observability client commands --- *)

let with_client socket tcp mode f =
  let mode = parse_mode mode in
  let c =
    match (socket, tcp) with
    | Some path, _ -> Client.connect_unix ~mode path
    | None, Some port -> Client.connect_tcp ~mode port
    | None, None -> failwith "need --socket PATH or --tcp PORT"
  in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

let fetch_metrics c =
  match Client.rpc c P.Metrics with
  | P.Metrics_reply text -> text
  | r -> failwith ("unexpected reply to metrics: " ^ P.encode_response P.Jsonl r)

let fetch_flight c =
  match Client.rpc c P.Flight with
  | P.Flight_reply text -> text
  | r -> failwith ("unexpected reply to flight: " ^ P.encode_response P.Jsonl r)

let fetch_stats c =
  match Client.rpc c P.Stats with
  | P.Stats_reply blob -> Obs.Json.parse blob
  | r -> failwith ("unexpected reply to stats: " ^ P.encode_response P.Jsonl r)

let run_metrics socket tcp mode =
  guard @@ fun () ->
  with_client socket tcp mode (fun c ->
      print_string (fetch_metrics c);
      `Ok ())

let run_flight socket tcp mode =
  guard @@ fun () ->
  with_client socket tcp mode (fun c ->
      print_string (fetch_flight c);
      `Ok ())

let run_check socket tcp mode =
  guard @@ fun () ->
  with_client socket tcp mode (fun c ->
      let metrics = fetch_metrics c in
      (match Obs.Metrics.check metrics with
      | Ok () ->
          Printf.printf "metrics: ok (%d bytes)\n" (String.length metrics)
      | Error m -> failwith ("metrics: " ^ m));
      let flight = fetch_flight c in
      let records =
        try Obs.Flight.parse_jsonl flight
        with Obs.Json.Parse_error m -> failwith ("flight: " ^ m)
      in
      if Obs.Flight.to_jsonl records <> flight then
        failwith "flight: re-rendering parsed records does not round-trip";
      Printf.printf "flight: ok (%d records)\n" (List.length records);
      `Ok ())

(* --- top --- *)

let jint j = int_of_float (Obs.Json.num j)

let counter_value stats name =
  match Obs.Json.member "counters" stats with
  | None -> 0
  | Some cs -> (
      match Obs.Json.member name cs with Some v -> jint v | None -> 0)

(* Per-kind latency histograms of the Stats blob, as (kind, sparse
   log2 buckets) rows sorted by kind. *)
let kind_hists stats =
  let prefix = "serve.request_us." in
  match Obs.Json.member "hists" stats with
  | None -> []
  | Some hs ->
      List.filter_map
        (fun (name, v) ->
          if String.starts_with ~prefix name then
            let kind =
              String.sub name (String.length prefix)
                (String.length name - String.length prefix)
            in
            let sparse =
              List.map
                (fun pair ->
                  match Obs.Json.arr pair with
                  | [ b; c ] -> (jint b, jint c)
                  | _ -> failwith "top: malformed histogram pair")
                (Obs.Json.arr v)
            in
            Some (kind, sparse)
          else None)
        (Obs.Json.obj hs)
      |> List.sort compare

let instance_rows stats =
  match Obs.Json.member "instances" stats with
  | None -> []
  | Some is ->
      List.map
        (fun (name, v) ->
          let f k = match Obs.Json.member k v with Some x -> x | None -> Obs.Json.Num 0.0 in
          let b k = match f k with Obs.Json.Bool b -> b | _ -> false in
          ( name,
            jint (f "live"),
            jint (f "inserts"),
            jint (f "deletes"),
            jint (f "re_solves"),
            jint (f "centers_age"),
            b "solved",
            b "prepared" ))
        (Obs.Json.obj is)
      |> List.sort compare

(* Format a log2-bucket quantile estimate: bucket lower bounds are
   powers of two, so %g prints them exactly and compactly. *)
let fmt_us v = Printf.sprintf "%g" v

let print_sample ~prev_responses ~interval stats =
  let cnt = counter_value stats in
  let responses = cnt "serve.responses" in
  (match prev_responses with
  | Some prev when interval > 0.0 ->
      Printf.printf
        "csokitd top — requests %d  responses %d  overloads %d  qps %.1f\n"
        (cnt "serve.requests") responses (cnt "serve.overloads")
        (float_of_int (responses - prev) /. interval)
  | _ ->
      Printf.printf
        "csokitd top — requests %d  responses %d  overloads %d  qps -\n"
        (cnt "serve.requests") responses (cnt "serve.overloads"));
  Printf.printf "bytes in %d  out %d  connections %d  frame errors %d\n\n"
    (cnt "serve.bytes_in") (cnt "serve.bytes_out")
    (cnt "serve.connections")
    (cnt "serve.frame_errors");
  Printf.printf "%-12s %10s %12s %12s\n" "kind" "count" "p50us" "p99us";
  List.iter
    (fun (kind, sparse) ->
      let count = List.fold_left (fun a (_, c) -> a + c) 0 sparse in
      Printf.printf "%-12s %10d %12s %12s\n" kind count
        (fmt_us (Obs.Hist.quantile_of_buckets sparse 0.50))
        (fmt_us (Obs.Hist.quantile_of_buckets sparse 0.99)))
    (kind_hists stats);
  Printf.printf "\n%-12s %6s %8s %8s %10s %5s %7s %9s\n" "instance" "live"
    "inserts" "deletes" "re_solves" "age" "solved" "prepared";
  List.iter
    (fun (name, live, ins, del, rs, age, solved, prepared) ->
      Printf.printf "%-12s %6d %8d %8d %10d %5d %7s %9s\n" name live ins del
        rs age
        (if solved then "yes" else "no")
        (if prepared then "yes" else "no"))
    (instance_rows stats);
  responses

let run_top socket tcp mode once interval =
  guard @@ fun () ->
  if interval <= 0.0 then failwith "top: --interval must be positive";
  with_client socket tcp mode (fun c ->
      if once then begin
        ignore (print_sample ~prev_responses:None ~interval (fetch_stats c));
        `Ok ()
      end
      else begin
        let clear = Unix.isatty Unix.stdout in
        let prev = ref None in
        while true do
          let stats = fetch_stats c in
          if clear then print_string "\027[H\027[2J";
          prev := Some (print_sample ~prev_responses:!prev ~interval stats);
          flush stdout;
          Unix.sleepf interval
        done;
        `Ok ()
      end)

(* --- command line --- *)

open Cmdliner

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")

let tcp_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "tcp" ] ~docv:"PORT" ~doc:"TCP port on 127.0.0.1.")

let mode_arg =
  Arg.(
    value & opt string "binary"
    & info [ "mode" ] ~docv:"MODE"
        ~doc:"Wire codec: $(b,binary) or $(b,jsonl).")

let serve_cmd =
  let max_inflight =
    Arg.(
      value & opt int 256
      & info [ "max-inflight" ] ~docv:"N"
          ~doc:"Admission bound on queued requests across all connections.")
  in
  let batch =
    Arg.(
      value & opt int 32
      & info [ "batch" ] ~docv:"N"
          ~doc:"Max requests executed per multiplexer round.")
  in
  let domains =
    Arg.(
      value
      & opt (some int) None
      & info [ "domains" ] ~docv:"N"
          ~doc:
            "Domain-pool size for batched execution (default: \
             CSO_NUM_DOMAINS or the machine's cores).")
  in
  let fake_clock =
    Arg.(
      value & flag
      & info [ "fake-clock" ]
          ~doc:
            "Use a constant zero clock for all request-phase timing, \
             making Stats / Metrics / Flight output deterministic (the \
             golden-transcript smoke tests run with this).")
  in
  Cmd.v
    (Cmd.info "serve" ~doc:"Run the resident clustering daemon")
    Term.(
      ret
        (const run_serve $ socket_arg $ tcp_arg $ mode_arg $ max_inflight
       $ batch $ domains $ fake_clock))

let client_cmd =
  let script =
    Arg.(
      value & opt string "-"
      & info [ "script" ] ~docv:"FILE"
          ~doc:
            "JSONL request script, one request per line ($(b,-) for \
             stdin; blank lines and $(b,#) comments skipped).")
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"Replay a JSONL request script against a running daemon")
    Term.(ret (const run_client $ socket_arg $ tcp_arg $ mode_arg $ script))

let metrics_cmd =
  Cmd.v
    (Cmd.info "metrics"
       ~doc:"Print the daemon's OpenMetrics (Prometheus text) export")
    Term.(ret (const run_metrics $ socket_arg $ tcp_arg $ mode_arg))

let flight_cmd =
  Cmd.v
    (Cmd.info "flight"
       ~doc:"Dump the daemon's per-request flight-recorder ring as JSONL")
    Term.(ret (const run_flight $ socket_arg $ tcp_arg $ mode_arg))

let top_cmd =
  let once =
    Arg.(
      value & flag
      & info [ "once" ]
          ~doc:"Print a single sample and exit (for scripts; no screen \
                clearing).")
  in
  let interval =
    Arg.(
      value & opt float 2.0
      & info [ "interval" ] ~docv:"SECONDS"
          ~doc:"Polling period between Stats samples.")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live plain-text view of the daemon: qps, per-kind latency \
          quantiles, per-instance registry rows")
    Term.(
      ret (const run_top $ socket_arg $ tcp_arg $ mode_arg $ once $ interval))

let check_cmd =
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Fetch Metrics and Flight from a running daemon and run the \
          exact re-parse well-formedness gates")
    Term.(ret (const run_check $ socket_arg $ tcp_arg $ mode_arg))

let main =
  Cmd.group
    (Cmd.info "csokitd" ~version:"1.0.0"
       ~doc:"Resident clustering-with-set-outliers service")
    [ serve_cmd; client_cmd; metrics_cmd; flight_cmd; top_cmd; check_cmd ]

let () = exit (Cmd.eval main)
