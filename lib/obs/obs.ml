(* One global registry guarded by one mutex. The mutex is only taken on
   the cold paths (interning a name, snapshot/reset, closing a span,
   pushing a trace event); the hot path — [incr] / [Hist.observe] from
   possibly many domains — is a single atomic load of the switch plus an
   atomic fetch-and-add, which is what lets instrumented kernels keep
   their bit-identical-across-domain-counts guarantee: adds commute, so
   the final value depends only on how many events happened, never on
   which domain saw them. *)

(* --- sharded, padded atomic cells -------------------------------------
   A counter (and each histogram) keeps one atomic cell per shard;
   a domain increments the shard indexed by its domain id, and readers
   sum the shards. Increments are commutative integer adds and the
   shard sum is exact, so totals stay bit-identical across domain
   counts — but two domains hammering the same counter no longer
   contend on (or false-share) a single cache line. Shard cells are
   allocated with one cache line of padding between them ([pad_words]
   dummy words, kept alive in [pads]) so that cells interned back to
   back do not land on one line either. OCaml gives no placement
   guarantees, so the padding is best-effort: allocation order is
   preserved by the copying minor collector and the major heap does not
   compact unless asked. *)

let n_shards = 8 (* power of two; covers CSO_NUM_DOMAINS up to 8 exactly *)
let shard_mask = n_shards - 1

(* One cache line (64 bytes) is 8 words; an [Atomic.make] block is
   header + 1 value word, so 6 padding words + header fill the line. *)
let pad_words = 6
let pads : int array list ref = ref []

let padded_cells () =
  Array.init n_shards (fun _ ->
      let c = Atomic.make 0 in
      pads := Array.make pad_words 0 :: !pads;
      c)

let shard_id () = (Domain.self () :> int) land shard_mask

type counter = {
  c_name : string;
  cells : int Atomic.t array; (* one per shard *)
}

let parse_env () =
  match Sys.getenv_opt "CSO_OBS" with
  | None -> true
  | Some v -> (
      match String.lowercase_ascii (String.trim v) with
      | "0" | "false" | "off" | "no" -> false
      | _ -> true)

let switch = Atomic.make (parse_env ())
let enabled () = Atomic.get switch
let set_enabled b = Atomic.set switch b

let mu = Mutex.create ()
let counters : (string, counter) Hashtbl.t = Hashtbl.create 64

let counter name =
  Mutex.lock mu;
  let c =
    match Hashtbl.find_opt counters name with
    | Some c -> c
    | None ->
        let c = { c_name = name; cells = padded_cells () } in
        Hashtbl.add counters name c;
        c
  in
  Mutex.unlock mu;
  c

let name c = c.c_name

let incr c =
  if Atomic.get switch then
    Atomic.incr (Array.unsafe_get c.cells (shard_id ()))

let add c n =
  if n < 0 then invalid_arg "Obs.add: negative increment";
  if n <> 0 && Atomic.get switch then
    ignore (Atomic.fetch_and_add (Array.unsafe_get c.cells (shard_id ())) n)

(* Exact: integer shard sums commute, so the total is independent of
   which domain performed each increment. *)
let sum_cells cells =
  let acc = ref 0 in
  for s = 0 to n_shards - 1 do
    acc := !acc + Atomic.get cells.(s)
  done;
  !acc

let value c = sum_cells c.cells

let value_of n =
  Mutex.lock mu;
  let v =
    match Hashtbl.find_opt counters n with
    | Some c -> sum_cells c.cells
    | None -> 0
  in
  Mutex.unlock mu;
  v

let by_name l = List.sort (fun (a, _) (b, _) -> compare a b) l

(* Snapshot with the registry mutex held by the caller. *)
let snapshot_locked () =
  by_name
    (Hashtbl.fold (fun n c acc -> (n, sum_cells c.cells) :: acc) counters [])

let snapshot () =
  Mutex.lock mu;
  let l = snapshot_locked () in
  Mutex.unlock mu;
  l

(* Nonzero per-counter differences between two snapshots. Counters
   present only in [after] count from 0. *)
let deltas_between before after =
  let base = Hashtbl.create (List.length before) in
  List.iter (fun (n, v) -> Hashtbl.replace base n v) before;
  List.filter_map
    (fun (n, v) ->
      let d = v - Option.value ~default:0 (Hashtbl.find_opt base n) in
      if d <> 0 then Some (n, d) else None)
    after

let with_delta f =
  (* Both snapshots are taken under the registry mutex, so each one is a
     consistent view of the counter table even while other domains
     intern new counters. What the mutex cannot (and need not) rule out:
     increments performed by concurrent *unrelated* work on other
     domains land inside the measured window and are attributed to [f].
     That interleaving is benign for every current caller — the
     determinism suites and benches measure one kernel at a time — and
     is documented in the .mli. *)
  let before = snapshot () in
  let r = f () in
  let after = snapshot () in
  (r, deltas_between before after)

(* --- JSON escaping + a minimal parser ---------------------------------
   The reporters below hand-roll their JSON for byte-stable output; the
   parser exists so the trace/budget round-trip tooling (csokit trace,
   csokit budgets, the trace-smoke gate) stays dependency-free. *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  exception Parse_error of string

  let escape s =
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  let fail msg = raise (Parse_error msg)

  let parse s =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = Stdlib.incr pos in
    let skip_ws () =
      while
        !pos < n
        && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
      do
        advance ()
      done
    in
    let expect c =
      if !pos < n && s.[!pos] = c then advance ()
      else fail (Printf.sprintf "expected '%c' at offset %d" c !pos)
    in
    let literal lit v =
      let l = String.length lit in
      if !pos + l <= n && String.sub s !pos l = lit then begin
        pos := !pos + l;
        v
      end
      else fail (Printf.sprintf "bad literal at offset %d" !pos)
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string"
        else
          match s.[!pos] with
          | '"' -> advance ()
          | '\\' ->
              advance ();
              (if !pos >= n then fail "unterminated escape"
               else
                 match s.[!pos] with
                 | '"' -> Buffer.add_char buf '"'; advance ()
                 | '\\' -> Buffer.add_char buf '\\'; advance ()
                 | '/' -> Buffer.add_char buf '/'; advance ()
                 | 'b' -> Buffer.add_char buf '\b'; advance ()
                 | 'f' -> Buffer.add_char buf '\012'; advance ()
                 | 'n' -> Buffer.add_char buf '\n'; advance ()
                 | 'r' -> Buffer.add_char buf '\r'; advance ()
                 | 't' -> Buffer.add_char buf '\t'; advance ()
                 | 'u' ->
                     advance ();
                     if !pos + 4 > n then fail "truncated \\u escape";
                     let hex = String.sub s !pos 4 in
                     pos := !pos + 4;
                     let code =
                       try int_of_string ("0x" ^ hex)
                       with _ -> fail "bad \\u escape"
                     in
                     (* Only ASCII escapes are emitted by this module;
                        anything above is replaced, not decoded. *)
                     if code < 0x80 then Buffer.add_char buf (Char.chr code)
                     else Buffer.add_char buf '?'
                 | c -> fail (Printf.sprintf "bad escape '\\%c'" c));
              go ()
          | c -> Buffer.add_char buf c; advance (); go ()
      in
      go ();
      Buffer.contents buf
    in
    let parse_number () =
      let start = !pos in
      let num_char c =
        match c with
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while !pos < n && num_char s.[!pos] do
        advance ()
      done;
      if !pos = start then fail (Printf.sprintf "bad number at %d" start)
      else
        match float_of_string_opt (String.sub s start (!pos - start)) with
        | Some f -> f
        | None -> fail (Printf.sprintf "bad number at %d" start)
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '{' ->
          advance ();
          skip_ws ();
          if peek () = Some '}' then begin
            advance ();
            Obj []
          end
          else begin
            let rec members acc =
              skip_ws ();
              let k = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' -> advance (); members ((k, v) :: acc)
              | Some '}' -> advance (); List.rev ((k, v) :: acc)
              | _ -> fail "expected ',' or '}' in object"
            in
            Obj (members [])
          end
      | Some '[' ->
          advance ();
          skip_ws ();
          if peek () = Some ']' then begin
            advance ();
            Arr []
          end
          else begin
            let rec items acc =
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' -> advance (); items (v :: acc)
              | Some ']' -> advance (); List.rev (v :: acc)
              | _ -> fail "expected ',' or ']' in array"
            in
            Arr (items [])
          end
      | Some '"' -> Str (parse_string ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some _ -> Num (parse_number ())
    in
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail (Printf.sprintf "trailing garbage at offset %d" !pos);
    v

  let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None
  let str = function Str s -> s | _ -> fail "expected string"
  let num = function Num f -> f | _ -> fail "expected number"
  let arr = function Arr l -> l | _ -> fail "expected array"
  let obj = function Obj l -> l | _ -> fail "expected object"
end

(* --- log2-bucketed histograms ----------------------------------------- *)

module Hist = struct
  (* Bucket 0 holds non-positive (and NaN) observations; bucket b >= 1
     holds magnitudes in [2^(b-65), 2^(b-64)), so integers >= 1 land in
     buckets 65.. and sub-unit float magnitudes (WSPD ratios below 1,
     never produced in practice) still have somewhere deterministic to
     go. 128 buckets cover every finite double. *)
  let n_buckets = 128

  type t = {
    h_name : string;
    (* [shards.(s).(b)]: shard [s]'s count for bucket [b]. A domain
       writes only its own shard's bucket row (one contiguous
       allocation per shard), so concurrent observers never share a
       cache line; bucket values are the exact integer sums over
       shards, identical for every domain count. *)
    shards : int Atomic.t array array;
  }

  let hists : (string, t) Hashtbl.t = Hashtbl.create 16

  let hist name =
    Mutex.lock mu;
    let h =
      match Hashtbl.find_opt hists name with
      | Some h -> h
      | None ->
          let h =
            { h_name = name;
              shards =
                Array.init n_shards (fun _ ->
                    let row =
                      Array.init n_buckets (fun _ -> Atomic.make 0)
                    in
                    pads := Array.make pad_words 0 :: !pads;
                    row) }
          in
          Hashtbl.add hists name h;
          h
    in
    Mutex.unlock mu;
    h

  let name h = h.h_name

  let bucket_of_int v =
    if v <= 0 then 0
    else begin
      (* 64 + (floor(log2 v) + 1): exact, no float detour. *)
      let b = ref 0 and x = ref v in
      while !x > 0 do
        Stdlib.incr b;
        x := !x lsr 1
      done;
      min (n_buckets - 1) (64 + !b)
    end

  let bucket_of_float v =
    if Float.is_nan v || v <= 0.0 then 0
    else if not (Float.is_finite v) then n_buckets - 1
    else
      (* frexp: v = m * 2^e, m in [0.5, 1), so e = floor(log2 v) + 1 —
         the same bucket an equal-valued integer gets. Float exponents
         are exact, so bucketing is deterministic. *)
      let _, e = Float.frexp v in
      max 1 (min (n_buckets - 1) (64 + e))

  let bucket_lo b = if b <= 0 then 0.0 else Float.ldexp 1.0 (b - 65)

  let observe h v =
    if Atomic.get switch then
      Atomic.incr
        (Array.unsafe_get (Array.unsafe_get h.shards (shard_id ()))
           (bucket_of_int v))

  let observe_float h v =
    if Atomic.get switch then
      Atomic.incr
        (Array.unsafe_get (Array.unsafe_get h.shards (shard_id ()))
           (bucket_of_float v))

  let bucket_value shards b =
    let acc = ref 0 in
    for s = 0 to n_shards - 1 do
      acc := !acc + Atomic.get shards.(s).(b)
    done;
    !acc

  let sparse_of_cells shards =
    let acc = ref [] in
    for b = n_buckets - 1 downto 0 do
      let c = bucket_value shards b in
      if c > 0 then acc := (b, c) :: !acc
    done;
    !acc

  let buckets h = sparse_of_cells h.shards
  let total h = List.fold_left (fun acc (_, c) -> acc + c) 0 (buckets h)

  (* Quantile estimate from log2 buckets: locate the bucket holding the
     rank-q observation — the same nearest-rank convention as the exact
     sorted-array percentile in bench/util.ml, index floor(q * (n-1)) —
     and return that bucket's inclusive lower bound. The estimate agrees
     with the exact percentile up to the bucket's factor-of-two width
     and is deterministic because bucket vectors are. *)
  let quantile_of_buckets sparse q =
    let total = List.fold_left (fun acc (_, c) -> acc + c) 0 sparse in
    if total = 0 then 0.0
    else begin
      let q = Float.max 0.0 (Float.min 1.0 q) in
      let rank = int_of_float (q *. float_of_int (total - 1)) in
      let rec go seen = function
        | [] -> 0.0
        | (b, c) :: rest ->
            if rank < seen + c then bucket_lo b else go (seen + c) rest
      in
      go 0 (List.sort compare sparse)
    end

  let quantile h q = quantile_of_buckets (buckets h) q

  let snapshot_arrays_locked () =
    by_name
      (Hashtbl.fold
         (fun n h acc ->
           (n, Array.init n_buckets (fun b -> bucket_value h.shards b)) :: acc)
         hists [])

  let snapshot () =
    Mutex.lock mu;
    let l =
      by_name
        (Hashtbl.fold
           (fun n h acc -> (n, sparse_of_cells h.shards) :: acc)
           hists [])
    in
    Mutex.unlock mu;
    l

  let with_delta f =
    let full () =
      Mutex.lock mu;
      let l = snapshot_arrays_locked () in
      Mutex.unlock mu;
      l
    in
    let before = full () in
    let r = f () in
    let after = full () in
    let base = Hashtbl.create (List.length before) in
    List.iter (fun (n, a) -> Hashtbl.replace base n a) before;
    let deltas =
      List.filter_map
        (fun (n, a) ->
          let b0 = Hashtbl.find_opt base n in
          let sparse = ref [] in
          for b = n_buckets - 1 downto 0 do
            let prev = match b0 with Some arr -> arr.(b) | None -> 0 in
            let d = a.(b) - prev in
            if d > 0 then sparse := (b, d) :: !sparse
          done;
          if !sparse = [] then None else Some (n, !sparse))
        after
    in
    (r, deltas)

  let reset_locked () =
    Hashtbl.iter
      (fun _ h ->
        Array.iter (fun row -> Array.iter (fun c -> Atomic.set c 0) row)
          h.shards)
      hists
end

(* --- spans --- *)

type span = {
  mutable calls : int;
  mutable seconds : float;
}

let spans : (string, span) Hashtbl.t = Hashtbl.create 16
external monotonic : unit -> (float[@unboxed])
  = "cso_obs_monotonic" "cso_obs_monotonic_unboxed"
[@@noalloc]

let clock : (unit -> float) ref = ref monotonic
let set_clock f = clock := f

(* Per-domain stack of open span names, innermost first. *)
let stack_key : string list Domain.DLS.key = Domain.DLS.new_key (fun () -> [])

let record_span path dt =
  Mutex.lock mu;
  let s =
    match Hashtbl.find_opt spans path with
    | Some s -> s
    | None ->
        let s = { calls = 0; seconds = 0.0 } in
        Hashtbl.add spans path s;
        s
  in
  s.calls <- s.calls + 1;
  s.seconds <- s.seconds +. dt;
  Mutex.unlock mu

(* --- bounded rings: the trace buffer and the flight recorder --- *)

(* A FIFO of at most [cap] elements, read and written only under [mu]:
   a push into a full ring overwrites the oldest element and counts one
   drop. The buffer is allocated at the first push after a clear, which
   supplies the filler element. *)
type 'a ring = {
  mutable cap : int;
  mutable buf : 'a array;
  mutable len : int;
  mutable next : int; (* slot of the next push *)
  mutable dropped : int;
}

let ring cap = { cap; buf = [||]; len = 0; next = 0; dropped = 0 }

let ring_clear_locked r =
  r.buf <- [||];
  r.len <- 0;
  r.next <- 0;
  r.dropped <- 0

(* [f] must not raise: ring operations only index arrays they size. *)
let locked f =
  Mutex.lock mu;
  let v = f () in
  Mutex.unlock mu;
  v

let ring_push r x =
  locked @@ fun () ->
  if Array.length r.buf <> r.cap then begin
    r.buf <- Array.make r.cap x;
    r.len <- 0;
    r.next <- 0
  end;
  r.buf.(r.next) <- x;
  r.next <- (r.next + 1) mod r.cap;
  if r.len < r.cap then r.len <- r.len + 1 else r.dropped <- r.dropped + 1

let ring_set_capacity ~what r n =
  if n < 1 then invalid_arg (what ^ ".set_capacity: capacity < 1");
  locked @@ fun () ->
  r.cap <- n;
  ring_clear_locked r

let ring_clear r = locked @@ fun () -> ring_clear_locked r
let ring_dropped r = locked @@ fun () -> r.dropped

(* Buffered elements, oldest first. *)
let ring_items r =
  locked @@ fun () ->
  let cap = Array.length r.buf in
  List.init r.len (fun i ->
      r.buf.((r.next - r.len + i + (2 * cap)) mod max 1 cap))

(* One JSON object per non-blank line, decoded by [of_json]. *)
let parse_jsonl of_json s =
  String.split_on_char '\n' s
  |> List.filter (fun line -> String.trim line <> "")
  |> List.map (fun line -> of_json (Json.parse line))

(* The member [k] of a parsed JSONL object, which must be present. *)
let required what j k =
  match Json.member k j with
  | Some v -> v
  | None -> raise (Json.Parse_error (what ^ ": missing field " ^ k))

type trace_event = {
  ev_path : string;
  ev_name : string;
  ev_depth : int;
  ev_domain : int;
  ev_t0 : float;
  ev_t1 : float;
  ev_deltas : (string * int) list;
}

let trace_switch = Atomic.make false
let trace_ring : trace_event ring = ring 4096

(* The flight recorder's payload: a per-request record pushed by
   lib/serve rather than a span. *)
type flight_record = {
  fl_id : int;
  fl_kind : string;
  fl_conn : int;
  fl_queue_us : int;
  fl_exec_us : int;
  fl_flush_us : int;
  fl_outcome : string;
}

let flight_ring : flight_record ring = ring 1024

let with_span name f =
  if not (Atomic.get switch) then f ()
  else begin
    let stack = Domain.DLS.get stack_key in
    let depth = List.length stack in
    let path = String.concat "/" (List.rev (name :: stack)) in
    Domain.DLS.set stack_key (name :: stack);
    let tracing = Atomic.get trace_switch in
    let snap0 = if tracing then snapshot () else [] in
    let t0 = !clock () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = !clock () in
        Domain.DLS.set stack_key stack;
        record_span path (t1 -. t0);
        if tracing then
          ring_push trace_ring
            {
              ev_path = path;
              ev_name = name;
              ev_depth = depth;
              ev_domain = (Domain.self () :> int);
              ev_t0 = t0;
              ev_t1 = t1;
              ev_deltas = deltas_between snap0 (snapshot ());
            })
      f
  end

let span_stats () =
  Mutex.lock mu;
  let l = Hashtbl.fold (fun p s acc -> (p, s.calls, s.seconds) :: acc) spans [] in
  Mutex.unlock mu;
  List.sort (fun (a, _, _) (b, _, _) -> compare a b) l

let reset () =
  Mutex.lock mu;
  Hashtbl.iter
    (fun _ c -> Array.iter (fun cell -> Atomic.set cell 0) c.cells)
    counters;
  Hashtbl.reset spans;
  Hist.reset_locked ();
  ring_clear_locked trace_ring;
  ring_clear_locked flight_ring;
  Mutex.unlock mu

(* --- JSON reporters --- *)

let counters_json snap =
  let cells =
    List.map
      (fun (n, v) -> Printf.sprintf "\"%s\": %d" (Json.escape n) v)
      (by_name snap)
  in
  "{" ^ String.concat ", " cells ^ "}"

let hists_json snap =
  let cells =
    List.map
      (fun (n, sparse) ->
        Printf.sprintf "\"%s\": [%s]" (Json.escape n)
          (String.concat ", "
             (List.map (fun (b, c) -> Printf.sprintf "[%d, %d]" b c) sparse)))
      (List.sort (fun (a, _) (b, _) -> compare a b) snap)
  in
  "{" ^ String.concat ", " cells ^ "}"

let to_json ?(label = "") ?(extra = []) () =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "{\n  \"bench\": \"obs\",\n";
  if label <> "" then
    Buffer.add_string buf
      (Printf.sprintf "  \"label\": \"%s\",\n" (Json.escape label));
  Buffer.add_string buf
    (Printf.sprintf "  \"counters\": %s" (counters_json (snapshot ())));
  (match List.filter (fun (_, sparse) -> sparse <> []) (Hist.snapshot ()) with
  | [] -> ()
  | hists ->
      Buffer.add_string buf
        (Printf.sprintf ",\n  \"hists\": %s" (hists_json hists)));
  (match span_stats () with
  | [] -> ()
  | stats ->
      Buffer.add_string buf ",\n  \"spans\": [\n";
      Buffer.add_string buf
        (String.concat ",\n"
           (List.map
              (fun (p, calls, secs) ->
                Printf.sprintf
                  "    {\"span\": \"%s\", \"calls\": %d, \"seconds\": %.6f}"
                  (Json.escape p) calls secs)
              stats));
      Buffer.add_string buf "\n  ]");
  List.iter
    (fun (k, raw) ->
      Buffer.add_string buf
        (Printf.sprintf ",\n  \"%s\": %s" (Json.escape k) raw))
    extra;
  Buffer.add_string buf "\n}\n";
  Buffer.contents buf

(* --- trace: public surface --- *)

module Trace = struct
  type event = trace_event = {
    ev_path : string;
    ev_name : string;
    ev_depth : int;
    ev_domain : int;
    ev_t0 : float;
    ev_t1 : float;
    ev_deltas : (string * int) list;
  }

  let enabled () = Atomic.get trace_switch
  let set_enabled b = Atomic.set trace_switch b

  let set_capacity = ring_set_capacity ~what:"Obs.Trace" trace_ring
  let clear () = ring_clear trace_ring
  let dropped () = ring_dropped trace_ring
  let events () = ring_items trace_ring

  let event_jsonl ev =
    Printf.sprintf
      "{\"path\": \"%s\", \"name\": \"%s\", \"depth\": %d, \"domain\": %d, \
       \"t0\": %.9f, \"t1\": %.9f, \"deltas\": %s}"
      (Json.escape ev.ev_path) (Json.escape ev.ev_name) ev.ev_depth
      ev.ev_domain ev.ev_t0 ev.ev_t1
      (counters_json ev.ev_deltas)

  let to_jsonl evs = String.concat "\n" (List.map event_jsonl evs) ^ "\n"

  let of_json j =
    let field = required "trace event" j in
    {
      ev_path = Json.str (field "path");
      ev_name = Json.str (field "name");
      ev_depth = int_of_float (Json.num (field "depth"));
      ev_domain = int_of_float (Json.num (field "domain"));
      ev_t0 = Json.num (field "t0");
      ev_t1 = Json.num (field "t1");
      ev_deltas =
        List.map
          (fun (k, v) -> (k, int_of_float (Json.num v)))
          (Json.obj (field "deltas"));
    }

  let parse_jsonl = parse_jsonl of_json

  let to_chrome evs =
    (* Chrome trace-event JSON ("X" complete events, microsecond
       timestamps): loadable in chrome://tracing and Perfetto. Counter
       deltas ride along as event args. *)
    let buf = Buffer.create 1024 in
    Buffer.add_string buf "{\"traceEvents\": [\n";
    Buffer.add_string buf
      (String.concat ",\n"
         (List.map
            (fun ev ->
              let deltas =
                String.concat ", "
                  (List.map
                     (fun (n, v) ->
                       Printf.sprintf "\"%s\": %d" (Json.escape n) v)
                     ev.ev_deltas)
              in
              Printf.sprintf
                "  {\"name\": \"%s\", \"cat\": \"cso\", \"ph\": \"X\", \
                 \"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %d, \
                 \"args\": {\"path\": \"%s\"%s%s}}"
                (Json.escape ev.ev_name)
                (ev.ev_t0 *. 1e6)
                ((ev.ev_t1 -. ev.ev_t0) *. 1e6)
                ev.ev_domain (Json.escape ev.ev_path)
                (if deltas = "" then "" else ", ")
                deltas)
            evs));
    Buffer.add_string buf "\n], \"displayTimeUnit\": \"ms\"}\n";
    Buffer.contents buf

  type phase = {
    ph_path : string;
    ph_calls : int;
    ph_total : float;
    ph_self : float;
    ph_deltas : (string * int) list;
  }

  let merge_deltas a b =
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun (n, v) ->
        Hashtbl.replace tbl n (v + Option.value ~default:0 (Hashtbl.find_opt tbl n)))
      (a @ b);
    by_name (Hashtbl.fold (fun n v acc -> (n, v) :: acc) tbl [])

  let phases evs =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun ev ->
        let calls, total, deltas =
          Option.value ~default:(0, 0.0, []) (Hashtbl.find_opt tbl ev.ev_path)
        in
        Hashtbl.replace tbl ev.ev_path
          ( calls + 1,
            total +. (ev.ev_t1 -. ev.ev_t0),
            merge_deltas deltas ev.ev_deltas ))
      evs;
    let parent p =
      match String.rindex_opt p '/' with
      | Some i -> Some (String.sub p 0 i)
      | None -> None
    in
    let child_total = Hashtbl.create 16 in
    Hashtbl.iter
      (fun p (_, total, _) ->
        match parent p with
        | Some pp ->
            Hashtbl.replace child_total pp
              (total
              +. Option.value ~default:0.0 (Hashtbl.find_opt child_total pp))
        | None -> ())
      tbl;
    Hashtbl.fold
      (fun p (calls, total, deltas) acc ->
        let children =
          Option.value ~default:0.0 (Hashtbl.find_opt child_total p)
        in
        (* Coarse clocks can observe a child "longer" than its parent;
           self-time is clamped at 0 rather than reported negative. *)
        {
          ph_path = p;
          ph_calls = calls;
          ph_total = total;
          ph_self = Float.max 0.0 (total -. children);
          ph_deltas = deltas;
        }
        :: acc)
      tbl []
    |> List.sort (fun a b -> compare a.ph_path b.ph_path)
end

(* --- flight recorder: public surface --- *)

module Flight = struct
  type record = flight_record = {
    fl_id : int;
    fl_kind : string;
    fl_conn : int;
    fl_queue_us : int;
    fl_exec_us : int;
    fl_flush_us : int;
    fl_outcome : string;
  }

  let set_capacity = ring_set_capacity ~what:"Obs.Flight" flight_ring
  let clear () = ring_clear flight_ring
  let dropped () = ring_dropped flight_ring
  let push r = if Atomic.get switch then ring_push flight_ring r
  let records () = ring_items flight_ring

  let record_jsonl r =
    Printf.sprintf
      "{\"id\": %d, \"kind\": \"%s\", \"conn\": %d, \"queue_us\": %d, \
       \"exec_us\": %d, \"flush_us\": %d, \"outcome\": \"%s\"}"
      r.fl_id (Json.escape r.fl_kind) r.fl_conn r.fl_queue_us r.fl_exec_us
      r.fl_flush_us (Json.escape r.fl_outcome)

  let to_jsonl = function
    | [] -> ""
    | rs -> String.concat "\n" (List.map record_jsonl rs) ^ "\n"

  let of_json j =
    let field = required "flight record" j in
    let int k = int_of_float (Json.num (field k)) in
    {
      fl_id = int "id";
      fl_kind = Json.str (field "kind");
      fl_conn = int "conn";
      fl_queue_us = int "queue_us";
      fl_exec_us = int "exec_us";
      fl_flush_us = int "flush_us";
      fl_outcome = Json.str (field "outcome");
    }

  let parse_jsonl = parse_jsonl of_json
end

(* --- OpenMetrics / Prometheus text exporter --- *)

module Metrics = struct
  (* Two fixed metric families — one counter family, one histogram
     family — with the dot-separated lib/obs name carried as an escaped
     [name] label, so every registered counter and histogram is exported
     without a name-mangling scheme. Sample values are integers and the
     histogram [le] bounds are the exact power-of-two bucket boundaries
     from [Hist.bucket_lo], so the rendering is byte-stable wherever the
     counter values are — in particular bit-identical across
     CSO_NUM_DOMAINS for the deterministic kernels. *)

  let counter_help = "# HELP cso_counter_total Monotonic lib/obs event counter."
  let counter_type = "# TYPE cso_counter_total counter"

  let hist_help =
    "# HELP cso_hist Log2-bucketed lib/obs per-event magnitude histogram."

  let hist_type = "# TYPE cso_hist histogram"

  (* Prometheus label-value escaping: backslash, double quote, newline. *)
  let escape_label s =
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '\\' -> Buffer.add_string buf "\\\\"
        | '"' -> Buffer.add_string buf "\\\""
        | '\n' -> Buffer.add_string buf "\\n"
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  (* Exact, parseable-back float rendering for [le] bounds: integral
     bucket boundaries print without an exponent, everything else as 17
     significant digits (round-trip safe for every double). *)
  let float_repr v =
    if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
    else Printf.sprintf "%.17g" v

  let render_of ~counters ~hists =
    let buf = Buffer.create 4096 in
    Buffer.add_string buf counter_help;
    Buffer.add_char buf '\n';
    Buffer.add_string buf counter_type;
    Buffer.add_char buf '\n';
    List.iter
      (fun (n, v) ->
        Buffer.add_string buf
          (Printf.sprintf "cso_counter_total{name=\"%s\"} %d\n"
             (escape_label n) v))
      (by_name counters);
    Buffer.add_string buf hist_help;
    Buffer.add_char buf '\n';
    Buffer.add_string buf hist_type;
    Buffer.add_char buf '\n';
    List.iter
      (fun (n, sparse) ->
        let n_esc = escape_label n in
        let cum = ref 0 in
        List.iter
          (fun (b, c) ->
            cum := !cum + c;
            (* The last bucket is the clamp bucket: its upper bound is
               +Inf, which the mandatory +Inf sample below provides. *)
            if b + 1 < Hist.n_buckets then
              Buffer.add_string buf
                (Printf.sprintf "cso_hist_bucket{name=\"%s\",le=\"%s\"} %d\n"
                   n_esc
                   (float_repr (Hist.bucket_lo (b + 1)))
                   !cum))
          (List.sort compare sparse);
        Buffer.add_string buf
          (Printf.sprintf "cso_hist_bucket{name=\"%s\",le=\"+Inf\"} %d\n" n_esc
             !cum);
        Buffer.add_string buf
          (Printf.sprintf "cso_hist_count{name=\"%s\"} %d\n" n_esc !cum))
      (List.sort (fun (a, _) (b, _) -> compare a b) hists);
    Buffer.add_string buf "# EOF\n";
    Buffer.contents buf

  let render () = render_of ~counters:(snapshot ()) ~hists:(Hist.snapshot ())

  (* --- well-formedness checker -------------------------------------
     Stdlib-only: parses the exporter's output back into structure,
     validates the OpenMetrics invariants (HELP/TYPE lines present,
     cumulative bucket counts monotone over ascending [le], the +Inf
     bucket equal to the count sample), and re-renders the parsed
     structure — the result must equal the input byte-for-byte, which
     pins formatting, ordering and label escaping all at once. *)

  exception Check_failed of string

  let checkf fmt = Printf.ksprintf (fun m -> raise (Check_failed m)) fmt

  (* One parsed sample: metric name, labels in order, integer value. *)
  type sample = { sm_metric : string; sm_labels : (string * string) list;
                  sm_value : int }

  let parse_sample line =
    let n = String.length line in
    let pos = ref 0 in
    let take_while p =
      let start = !pos in
      while !pos < n && p line.[!pos] do Stdlib.incr pos done;
      String.sub line start (!pos - start)
    in
    let expect c =
      if !pos < n && line.[!pos] = c then Stdlib.incr pos
      else checkf "sample %S: expected '%c' at offset %d" line c !pos
    in
    let ident_char c =
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true
      | _ -> false
    in
    let metric = take_while ident_char in
    if metric = "" then checkf "sample %S: missing metric name" line;
    expect '{';
    let labels = ref [] in
    let rec labels_loop () =
      let k = take_while ident_char in
      if k = "" then checkf "sample %S: missing label name" line;
      expect '=';
      expect '"';
      let buf = Buffer.create 16 in
      let rec value_loop () =
        if !pos >= n then checkf "sample %S: unterminated label value" line
        else
          match line.[!pos] with
          | '"' -> Stdlib.incr pos
          | '\\' ->
              Stdlib.incr pos;
              (if !pos >= n then checkf "sample %S: dangling escape" line
               else
                 match line.[!pos] with
                 | '\\' -> Buffer.add_char buf '\\'; Stdlib.incr pos
                 | '"' -> Buffer.add_char buf '"'; Stdlib.incr pos
                 | 'n' -> Buffer.add_char buf '\n'; Stdlib.incr pos
                 | c -> checkf "sample %S: bad escape '\\%c'" line c);
              value_loop ()
          | c -> Buffer.add_char buf c; Stdlib.incr pos; value_loop ()
      in
      value_loop ();
      labels := (k, Buffer.contents buf) :: !labels;
      if !pos < n && line.[!pos] = ',' then begin
        Stdlib.incr pos;
        labels_loop ()
      end
      else expect '}'
    in
    labels_loop ();
    expect ' ';
    let value_s = String.sub line !pos (n - !pos) in
    let value =
      match int_of_string_opt value_s with
      | Some v -> v
      | None -> checkf "sample %S: bad integer value %S" line value_s
    in
    { sm_metric = metric; sm_labels = List.rev !labels; sm_value = value }

  let render_sample s =
    Printf.sprintf "%s{%s} %d" s.sm_metric
      (String.concat ","
         (List.map
            (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label v))
            s.sm_labels))
      s.sm_value

  let label k s =
    match List.assoc_opt k s.sm_labels with
    | Some v -> v
    | None -> checkf "sample %s: missing label %S" (render_sample s) k

  let check text =
    try
      let lines =
        match String.split_on_char '\n' text |> List.rev with
        | "" :: rest -> List.rev rest
        | _ -> checkf "text does not end with a newline"
      in
      (* Split into header/sample phases with a small state machine. *)
      let expect_line expected rest =
        match rest with
        | l :: rest when l = expected -> rest
        | l :: _ -> checkf "expected %S, found %S" expected l
        | [] -> checkf "expected %S, found end of text" expected
      in
      let rest = expect_line counter_help lines in
      let rest = expect_line counter_type rest in
      let is_sample prefix l =
        String.length l > String.length prefix
        && String.sub l 0 (String.length prefix) = prefix
      in
      let rec take_samples prefix acc rest =
        match rest with
        | l :: tl when is_sample prefix l ->
            take_samples prefix (parse_sample l :: acc) tl
        | _ -> (List.rev acc, rest)
      in
      let counter_samples, rest = take_samples "cso_counter_total{" [] rest in
      List.iter
        (fun s ->
          ignore (label "name" s);
          if List.length s.sm_labels <> 1 then
            checkf "counter sample %s: expected exactly the name label"
              (render_sample s);
          if s.sm_value < 0 then
            checkf "counter sample %s: negative value" (render_sample s))
        counter_samples;
      let rest = expect_line hist_help rest in
      let rest = expect_line hist_type rest in
      let hist_samples, rest =
        take_samples "cso_hist" [] rest (* buckets and counts interleaved *)
      in
      (match rest with
      | [ "# EOF" ] -> ()
      | l :: _ -> checkf "trailing line %S (expected \"# EOF\")" l
      | [] -> checkf "missing \"# EOF\" terminator");
      (* Group the histogram samples per name, in order of appearance:
         a run of cso_hist_bucket lines closed by one cso_hist_count. *)
      let rec group rest =
        match rest with
        | [] -> ()
        | s :: _ when s.sm_metric <> "cso_hist_bucket" ->
            checkf "histogram %s: count sample without buckets"
              (render_sample s)
        | s :: _ ->
            let name = label "name" s in
            let rec buckets prev_le prev_cum rest =
              match rest with
              | b :: tl when b.sm_metric = "cso_hist_bucket" ->
                  if label "name" b <> name then
                    checkf "histogram %S: interleaved bucket for %S" name
                      (label "name" b);
                  let le_s = label "le" b in
                  let le =
                    if le_s = "+Inf" then infinity
                    else
                      match float_of_string_opt le_s with
                      | Some f -> f
                      | None -> checkf "histogram %S: bad le %S" name le_s
                  in
                  if le <= prev_le then
                    checkf "histogram %S: le %S not ascending" name le_s;
                  if b.sm_value < prev_cum then
                    checkf "histogram %S: cumulative count decreases at le %S"
                      name le_s;
                  if le = infinity then (b.sm_value, tl)
                  else buckets le b.sm_value tl
              | _ -> checkf "histogram %S: missing +Inf bucket" name
            in
            let inf_cum, rest = buckets neg_infinity 0 rest in
            (match rest with
            | c :: tl
              when c.sm_metric = "cso_hist_count" && label "name" c = name ->
                if c.sm_value <> inf_cum then
                  checkf "histogram %S: +Inf bucket %d <> count %d" name
                    inf_cum c.sm_value;
                group tl
            | _ -> checkf "histogram %S: missing count sample" name)
      in
      group hist_samples;
      (* Exact re-render: parsed structure back to text must reproduce
         the input byte-for-byte. *)
      let rendered =
        String.concat "\n"
          (List.concat
             [
               [ counter_help; counter_type ];
               List.map render_sample counter_samples;
               [ hist_help; hist_type ];
               List.map render_sample hist_samples;
               [ "# EOF"; "" ];
             ])
      in
      if rendered <> text then
        checkf "re-rendered text differs from input (formatting drift)";
      Ok ()
    with Check_failed m -> Error m
end

(* --- complexity budgets --- *)

module Budget = struct
  type t = {
    b_name : string;
    b_expected : float;
    b_tolerance : float;
    b_doc : string;
  }

  let fit pts =
    let pts = List.filter (fun (x, y) -> x > 0.0 && y > 0.0) pts in
    let n = List.length pts in
    if n < 2 then invalid_arg "Obs.Budget.fit: need at least two positive points";
    let lx = List.map (fun (x, _) -> log x) pts in
    let ly = List.map (fun (_, y) -> log y) pts in
    let nf = float_of_int n in
    let mean l = List.fold_left ( +. ) 0.0 l /. nf in
    let mx = mean lx and my = mean ly in
    let cov =
      List.fold_left2 (fun a x y -> a +. ((x -. mx) *. (y -. my))) 0.0 lx ly
    in
    let var = List.fold_left (fun a x -> a +. ((x -. mx) *. (x -. mx))) 0.0 lx in
    if var <= 0.0 then invalid_arg "Obs.Budget.fit: degenerate size range";
    cov /. var

  let check b pts =
    let s = fit pts in
    if abs_float (s -. b.b_expected) <= b.b_tolerance then Ok s
    else
      Error
        (Printf.sprintf
           "budget %s VIOLATED: fitted log-log exponent %.3f outside %.2f ± \
            %.2f — %s"
           b.b_name s b.b_expected b.b_tolerance b.b_doc)

  let row_json b ~fitted ~points =
    Printf.sprintf
      "{\"name\": \"%s\", \"expected\": %.2f, \"tolerance\": %.2f, \
       \"fitted\": %.6f, \"points\": [%s], \"doc\": \"%s\"}"
      (Json.escape b.b_name) b.b_expected b.b_tolerance fitted
      (String.concat ", "
         (List.map (fun (x, y) -> Printf.sprintf "[%.6f, %.6f]" x y) points))
      (Json.escape b.b_doc)
end
