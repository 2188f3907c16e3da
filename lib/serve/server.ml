(* The csokitd session loop. See server.mli for the execution model.
   All descriptors are non-blocking; every syscall loops on EINTR and
   treats EAGAIN as "not now". *)

module Pool = Cso_parallel.Pool
module Obs = Cso_obs.Obs
module P = Protocol

let c_requests = Obs.counter "serve.requests"
let c_responses = Obs.counter "serve.responses"
let c_overloads = Obs.counter "serve.overloads"
let c_frame_errors = Obs.counter "serve.frame_errors"
let c_connections = Obs.counter "serve.connections"
let c_bytes_in = Obs.counter "serve.bytes_in"
let c_bytes_out = Obs.counter "serve.bytes_out"
let h_latency = Obs.Hist.hist "serve.request_us"

(* Per-kind execute-latency histogram, interned on first use of the
   kind. Interning is mutex-protected and idempotent, so calling it from
   pool domains is safe; only reached while obs is enabled. *)
let kind_hist kind = Obs.Hist.hist ("serve.request_us." ^ kind)

(* Microseconds from a clock interval, clamped non-negative. *)
let us dt = int_of_float (Float.max 0.0 dt *. 1e6)

type config = { mode : P.mode; max_inflight : int; batch : int }

let default_config = { mode = P.Binary; max_inflight = 256; batch = 32 }

(* A queued item is either an admitted request awaiting execution or a
   pre-made reply (overload, frame error) that must still leave in
   arrival position — responses carry no correlation ids, so the i-th
   reply on a connection answers its i-th frame, always. *)
type item = Req of P.request | Now of P.response

(* A queued frame with its flight-record context: the request id
   (monotone per server, assigned at enqueue in arrival order), the
   decoded kind ("-" for frames that never decoded), and the enqueue
   timestamp (0. while obs is off — the kill switch keeps the request
   path clock-free). *)
type pending = {
  pd_item : item;
  pd_id : int;
  pd_kind : string;
  pd_enq : float;
}

(* The flight record of an executed request, finished when the last
   byte of its response leaves the socket. *)
type flight_pending = {
  fp_id : int;
  fp_kind : string;
  fp_conn : int;
  fp_queue_us : int;
  fp_exec_us : int;
  fp_outcome : string;
  fp_ready : float; (* clock at response enqueue: flush starts here *)
}

(* Per-connection output: a FIFO of response chunks with a consumed
   offset on the head, so a partial write just advances the offset. *)
type chunk = { ch_data : string; ch_flight : flight_pending option }
type outbuf = { mutable chunks : chunk list; mutable head_off : int }

let out_empty o = o.chunks = []

let out_append o ch =
  if String.length ch.ch_data > 0 then o.chunks <- o.chunks @ [ ch ]

type conn = {
  fd : Unix.file_descr;
  conn_id : int;
  reader : P.reader;
  pending : pending Queue.t;
  out : outbuf;
  mutable close_after_flush : bool;
  mutable eof : bool;
}

type t = {
  config : config;
  registry : Registry.t;
  mutable listeners : Unix.file_descr list;
  mutable conns : conn list;
  mutable stopping : bool; (* Shutdown seen: flush, then stop *)
  mutable stopped : bool;
  mutable unix_paths : string list; (* sockets to unlink on close *)
  mutable clock : unit -> float;
  mutable next_req_id : int;
  mutable next_conn_id : int;
  read_buf : bytes;
}

let create ?(config = default_config) registry =
  if config.max_inflight < 1 then invalid_arg "Server.create: max_inflight < 1";
  if config.batch < 1 then invalid_arg "Server.create: batch < 1";
  (* A write to a peer that has closed would otherwise kill the process
     with SIGPIPE before [write] could return the EPIPE [flush_conn]
     handles. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  {
    config;
    registry;
    listeners = [];
    conns = [];
    stopping = false;
    stopped = false;
    unix_paths = [];
    clock = Cso_obs.Obs.monotonic;
    next_req_id = 0;
    next_conn_id = 0;
    read_buf = Bytes.create 65536;
  }

let set_clock t f = t.clock <- f
let connections t = List.length t.conns

let rec no_eintr f = try f () with Unix.Unix_error (Unix.EINTR, _, _) -> no_eintr f

let listen_any t addr =
  let domain = Unix.domain_of_sockaddr addr in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  (try
     if domain = Unix.PF_INET then Unix.setsockopt fd Unix.SO_REUSEADDR true;
     Unix.bind fd addr;
     Unix.listen fd 64;
     Unix.set_nonblock fd
   with e ->
     Unix.close fd;
     raise e);
  t.listeners <- t.listeners @ [ fd ]

let listen_unix t path =
  if Sys.file_exists path then Sys.remove path;
  listen_any t (Unix.ADDR_UNIX path);
  t.unix_paths <- path :: t.unix_paths

let listen_tcp t ~port =
  listen_any t (Unix.ADDR_INET (Unix.inet_addr_loopback, port))

let add_connection t fd =
  Unix.set_nonblock fd;
  Obs.incr c_connections;
  let conn_id = t.next_conn_id in
  t.next_conn_id <- conn_id + 1;
  t.conns <-
    t.conns
    @ [
        {
          fd;
          conn_id;
          reader = P.reader t.config.mode;
          pending = Queue.create ();
          out = { chunks = []; head_off = 0 };
          close_after_flush = false;
          eof = false;
        };
      ]

let stop t = t.stopping <- true

let close t =
  if not t.stopped then begin
    List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) t.listeners;
    List.iter
      (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ())
      t.conns;
    List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) t.unix_paths;
    t.listeners <- [];
    t.conns <- [];
    t.stopped <- true
  end

(* --- accepting --- *)

let accept_ready t fd =
  let rec go () =
    match no_eintr (fun () -> Unix.accept fd) with
    | conn_fd, _ ->
        add_connection t conn_fd;
        go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  in
  go ()

(* --- reading --- *)

(* Only admitted requests count toward the admission bound; [Now]
   placeholders are free replies already paid for. *)
let total_queued t =
  List.fold_left
    (fun a c ->
      Queue.fold
        (fun a pd -> match pd.pd_item with Req _ -> a + 1 | Now _ -> a)
        a c.pending)
    0 t.conns

(* Every arriving frame — admitted or not — consumes one request id, so
   flight records stay in arrival order across outcomes. *)
let enqueue_item t c kind item =
  let id = t.next_req_id in
  t.next_req_id <- id + 1;
  let enq =
    if Obs.enabled () then begin
      (* Intern the per-kind histogram now, on the driver thread: a
         Metrics render later in this round must already see every kind
         enqueued before it, independent of pool execution order. *)
      if kind <> "-" then ignore (kind_hist kind);
      t.clock ()
    end
    else 0.0
  in
  Queue.add { pd_item = item; pd_id = id; pd_kind = kind; pd_enq = enq }
    c.pending

let enqueue_frame t c payload =
  if total_queued t >= t.config.max_inflight then begin
    (* Typed overload reply: the request is not decoded and does not
       occupy an admission slot — but the reply is queued in arrival
       position so the connection's FIFO correlation stays intact. *)
    Obs.incr c_overloads;
    enqueue_item t c "-" (Now P.Overloaded)
  end
  else
    match P.decode_request t.config.mode payload with
    | Ok req ->
        Obs.incr c_requests;
        enqueue_item t c (P.request_kind req) (Req req)
    | Error msg ->
        Obs.incr c_frame_errors;
        enqueue_item t c "-" (Now (P.Error (P.Bad_frame, msg)))

let read_ready t c =
  let rec go () =
    match no_eintr (fun () -> Unix.read c.fd t.read_buf 0 (Bytes.length t.read_buf)) with
    | 0 -> c.eof <- true
    | n ->
        Obs.add c_bytes_in n;
        List.iter
          (function
            | `Frame payload -> enqueue_frame t c payload
            | `Oversized len ->
                Obs.incr c_frame_errors;
                enqueue_item t c "-"
                  (Now
                     (P.Error
                        ( P.Too_large,
                          Printf.sprintf
                            "frame of %d bytes exceeds the %d-byte limit; \
                             closing"
                            len P.max_frame )));
                c.close_after_flush <- true)
          (P.feed c.reader t.read_buf n);
        if n = Bytes.length t.read_buf then go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
        c.eof <- true
  in
  go ()

(* --- executing --- *)

(* The wire frame of [resp], unless its payload would exceed
   [Protocol.max_frame]: the peer's reader would refuse that frame and
   poison its connection, so a typed [Too_large] reply goes out in its
   place. Unlike an oversized request, a refused reply leaves the framing
   intact, and the connection stays open. *)
let encode_reply mode resp =
  let frame = P.encode_response mode resp in
  let payload = P.payload_length mode frame in
  if payload <= P.max_frame then (resp, frame)
  else
    let resp =
      P.Error
        ( P.Too_large,
          Printf.sprintf "reply of %d bytes exceeds the %d-byte limit" payload
            P.max_frame )
    in
    (resp, P.encode_response mode resp)

let execute t =
  (* Gather at most ONE request per connection (and at most [batch]
     total): requests of a single connection are a session and must
     execute in order, so same-connection parallelism is never allowed —
     concurrency comes from distinct connections. *)
  let gathered = ref [] and n = ref 0 in
  List.iter
    (fun c ->
      if !n < t.config.batch && not (Queue.is_empty c.pending) then begin
        gathered := (c, Queue.pop c.pending) :: !gathered;
        incr n
      end)
    t.conns;
  let jobs = Array.of_list (List.rev !gathered) in
  if Array.length jobs > 0 then begin
    let obs_on = Obs.enabled () in
    (* Each job yields its response plus the queue-wait and execute
       phases in microseconds (zeros while obs is off: the kill switch
       keeps the hot path clock-free). Per-kind histograms are observed
       here, inside the pool body — interning is mutex-protected. *)
    let handle (_, pd) =
      match pd.pd_item with
      | Now resp ->
          (* Pre-made reply: nothing executed, queue time still real. *)
          if obs_on then (resp, us (t.clock () -. pd.pd_enq), 0)
          else (resp, 0, 0)
      | Req req ->
          if obs_on then begin
            let t0 = t.clock () in
            let resp = Registry.handle t.registry req in
            let e = us (t.clock () -. t0) in
            Obs.Hist.observe h_latency e;
            Obs.Hist.observe (kind_hist pd.pd_kind) e;
            (resp, us (t0 -. pd.pd_enq), e)
          end
          else (Registry.handle t.registry req, 0, 0)
    in
    let all_now =
      Array.for_all (function _, { pd_item = Now _; _ } -> true | _ -> false)
        jobs
    in
    let responses =
      if Array.length jobs = 1 || all_now then Array.map handle jobs
      else Pool.map_array (Pool.get_default ()) handle jobs
    in
    let outcome_of = function
      | P.Error (k, _) -> "error:" ^ P.err_kind_to_string k
      | P.Overloaded -> "overloaded"
      | _ -> "ok"
    in
    Array.iteri
      (fun i (c, pd) ->
        Obs.incr c_responses;
        let resp, queue_us, exec_us = responses.(i) in
        let resp, ch_data = encode_reply t.config.mode resp in
        let ch_flight =
          if obs_on then
            Some
              {
                fp_id = pd.pd_id;
                fp_kind = pd.pd_kind;
                fp_conn = c.conn_id;
                fp_queue_us = queue_us;
                fp_exec_us = exec_us;
                fp_outcome = outcome_of resp;
                fp_ready = t.clock ();
              }
          else None
        in
        out_append c.out { ch_data; ch_flight };
        match pd.pd_item with
        | Req P.Shutdown -> t.stopping <- true
        | _ -> ())
      jobs
  end

(* --- writing --- *)

let flush_conn t c =
  let rec go () =
    match c.out.chunks with
    | [] -> ()
    | ch :: rest -> (
        let off = c.out.head_off in
        let len = String.length ch.ch_data - off in
        match
          no_eintr (fun () ->
              Unix.write_substring c.fd ch.ch_data off len)
        with
        | written ->
            Obs.add c_bytes_out written;
            if written = len then begin
              c.out.chunks <- rest;
              c.out.head_off <- 0;
              (* Last byte of this response is on the wire: its flight
                 record is complete. Pushed from the driver thread, so
                 ring order is deterministic under a fixed schedule. *)
              (match ch.ch_flight with
              | Some fp ->
                  Obs.Flight.push
                    {
                      Obs.Flight.fl_id = fp.fp_id;
                      fl_kind = fp.fp_kind;
                      fl_conn = fp.fp_conn;
                      fl_queue_us = fp.fp_queue_us;
                      fl_exec_us = fp.fp_exec_us;
                      fl_flush_us = us (t.clock () -. fp.fp_ready);
                      fl_outcome = fp.fp_outcome;
                    }
              | None -> ());
              go ()
            end
            else c.out.head_off <- off + written
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
            ()
        | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
            (* Peer gone: drop the rest (their flight records are lost
               with them) and let the reaper close us. *)
            c.out.chunks <- [];
            c.out.head_off <- 0;
            c.eof <- true)
  in
  go ()

(* --- the multiplexer round --- *)

let step ?(timeout = 0.0) t =
  if t.stopped then false
  else begin
    let work_pending =
      t.stopping
      || List.exists
           (fun c -> not (Queue.is_empty c.pending) || not (out_empty c.out))
           t.conns
    in
    let timeout = if work_pending then 0.0 else timeout in
    let read_fds =
      t.listeners
      @ List.filter_map
          (fun c -> if c.eof then None else Some c.fd)
          t.conns
    in
    let write_fds =
      List.filter_map
        (fun c -> if out_empty c.out then None else Some c.fd)
        t.conns
    in
    let readable, writable, _ =
      try no_eintr (fun () -> Unix.select read_fds write_fds [] timeout)
      with Unix.Unix_error (Unix.EBADF, _, _) -> (read_fds, write_fds, [])
    in
    List.iter
      (fun fd -> if List.memq fd t.listeners then accept_ready t fd)
      readable;
    List.iter
      (fun c -> if List.memq c.fd readable && not c.eof then read_ready t c)
      t.conns;
    execute t;
    (* Flush everything with fresh output, not only what select said:
       responses generated this round postdate the select call. *)
    List.iter
      (fun c ->
        if (not (out_empty c.out)) || List.memq c.fd writable then
          flush_conn t c)
      t.conns;
    (* Reap connections that hit EOF or asked to close once drained. *)
    let reap, keep =
      List.partition
        (fun c ->
          Queue.is_empty c.pending && out_empty c.out
          && (c.eof || c.close_after_flush))
        t.conns
    in
    List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) reap;
    t.conns <- keep;
    if
      t.stopping
      && List.for_all
           (fun c -> Queue.is_empty c.pending && out_empty c.out)
           t.conns
    then begin
      close t;
      false
    end
    else true
  end

let run t =
  let continue = ref true in
  while !continue do
    continue := step ~timeout:(-1.0) t
  done
