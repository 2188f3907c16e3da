(* Wire protocol of csokitd. Two codecs over the same message types:
   length-prefixed tagged binary, and JSONL in the hand-rolled style of
   the BENCH_*.json artifacts. Both are bit-exact round-trips (floats
   travel as IEEE bit patterns in binary and as the 17-digit
   round-trip-safe rendering of Cso_io.Formats in JSONL), and both
   decoders are total: hostile input becomes [Error _], never an
   exception or a runaway allocation. *)

module Point = Cso_metric.Point
module Rect = Cso_geom.Rect
module Json = Cso_obs.Obs.Json
module Formats = Cso_io.Formats

type mode = Binary | Jsonl

let mode_to_string = function Binary -> "binary" | Jsonl -> "jsonl"

let mode_of_string = function
  | "binary" -> Ok Binary
  | "jsonl" -> Ok Jsonl
  | s -> Error (Printf.sprintf "unknown mode %S (binary|jsonl)" s)

type request =
  | Load of {
      name : string;
      points : Point.t array;
      rects : Rect.t array;
      k : int;
      z : int;
      eps : float;
      rounds : int option;
      drift : float;
    }
  | Prepare of string
  | Solve of string
  | Query_ball of {
      name : string;
      center : Point.t;
      radius : float;
      eps : float;
    }
  | Balls_all of { name : string; radius : float; eps : float }
  | Assign of string
  | Insert of { name : string; point : Point.t }
  | Delete of { name : string; id : int }
  | Insert_rect of { name : string; rect : Rect.t }
  | Delete_rect of { name : string; id : int }
  | Stats
  | Metrics
  | Flight
  | Shutdown

(* The per-kind histogram / JSONL tag of a request; also the [kind]
   field of flight-recorder records. *)
let request_kind = function
  | Load _ -> "load"
  | Prepare _ -> "prepare"
  | Solve _ -> "solve"
  | Query_ball _ -> "ball"
  | Balls_all _ -> "balls_all"
  | Assign _ -> "assign"
  | Insert _ -> "insert"
  | Delete _ -> "delete"
  | Insert_rect _ -> "insert_rect"
  | Delete_rect _ -> "delete_rect"
  | Stats -> "stats"
  | Metrics -> "metrics"
  | Flight -> "flight"
  | Shutdown -> "shutdown"

type err_kind =
  | Bad_request
  | Unknown_instance
  | Already_loaded
  | Not_prepared
  | No_solution
  | Bad_frame
  | Too_large
  | Orphaned

let err_kind_to_string = function
  | Bad_request -> "bad_request"
  | Unknown_instance -> "unknown_instance"
  | Already_loaded -> "already_loaded"
  | Not_prepared -> "not_prepared"
  | No_solution -> "no_solution"
  | Bad_frame -> "bad_frame"
  | Too_large -> "too_large"
  | Orphaned -> "orphaned"

let err_kind_of_string = function
  | "bad_request" -> Some Bad_request
  | "unknown_instance" -> Some Unknown_instance
  | "already_loaded" -> Some Already_loaded
  | "not_prepared" -> Some Not_prepared
  | "no_solution" -> Some No_solution
  | "bad_frame" -> Some Bad_frame
  | "too_large" -> Some Too_large
  | "orphaned" -> Some Orphaned
  | _ -> None

type response =
  | Ok_reply
  | Inserted of int
  | Solved of {
      centers : int list;
      outliers : int list;
      radius : float;
      rounds_per_guess : int;
      guesses : int;
      re_solves : int;
      cached : bool;
    }
  | Ball of int list
  | Balls of int list array
  | Assigned of (int * int) list
  | Stats_reply of string
  | Metrics_reply of string
  | Flight_reply of string
  | Error of err_kind * string
  | Overloaded
  | Bye

let max_frame = 1 lsl 24

(* ------------------------------------------------------------------ *)
(* Binary payloads                                                     *)
(* ------------------------------------------------------------------ *)

let put_int b v = Buffer.add_int64_be b (Int64.of_int v)
let put_float b v = Buffer.add_int64_be b (Int64.bits_of_float v)
let put_bool b v = Buffer.add_uint8 b (if v then 1 else 0)

let put_string b s =
  put_int b (String.length s);
  Buffer.add_string b s

let put_point b p =
  put_int b (Array.length p);
  Array.iter (put_float b) p

let put_points b pts =
  put_int b (Array.length pts);
  Array.iter (put_point b) pts

let put_rect b (r : Rect.t) =
  put_point b r.Rect.lo;
  put_point b r.Rect.hi

let put_rects b rs =
  put_int b (Array.length rs);
  Array.iter (put_rect b) rs

let put_int_list b l =
  put_int b (List.length l);
  List.iter (put_int b) l

(* Decoder: a cursor over the payload with bounds-checked primitive
   reads. Every length is validated against the bytes actually left, so
   a hostile length cannot trigger a large allocation. *)

exception Fail of string

let fail fmt = Printf.ksprintf (fun m -> raise (Fail m)) fmt

type cursor = { s : string; mutable pos : int }

let remaining c = String.length c.s - c.pos

let get_u8 c =
  if remaining c < 1 then fail "truncated payload (u8)";
  let v = Char.code c.s.[c.pos] in
  c.pos <- c.pos + 1;
  v

let get_int c =
  if remaining c < 8 then fail "truncated payload (int)";
  let v = Int64.to_int (String.get_int64_be c.s c.pos) in
  c.pos <- c.pos + 8;
  v

let get_float c =
  if remaining c < 8 then fail "truncated payload (float)";
  let v = Int64.float_of_bits (String.get_int64_be c.s c.pos) in
  c.pos <- c.pos + 8;
  v

let get_bool c =
  match get_u8 c with
  | 0 -> false
  | 1 -> true
  | v -> fail "bad bool byte %d" v

(* [bytes_per] bounds the count by the payload bytes one element needs
   at minimum, so [count] can never exceed what the frame could hold. *)
let get_count c ~bytes_per ~what =
  let n = get_int c in
  if n < 0 then fail "negative %s count %d" what n;
  if n * bytes_per > remaining c then
    fail "%s count %d exceeds payload (%d bytes left)" what n (remaining c);
  n

let get_string c =
  let n = get_count c ~bytes_per:1 ~what:"string" in
  let v = String.sub c.s c.pos n in
  c.pos <- c.pos + n;
  v

let get_point c =
  let d = get_count c ~bytes_per:8 ~what:"coordinate" in
  Array.init d (fun _ -> get_float c)

let get_points c =
  let n = get_count c ~bytes_per:8 ~what:"point" in
  Array.init n (fun _ -> get_point c)

let get_rect c =
  let lo = get_point c in
  let hi = get_point c in
  Rect.make ~lo ~hi

let get_rects c =
  let n = get_count c ~bytes_per:16 ~what:"rect" in
  Array.init n (fun _ -> get_rect c)

let get_int_list c =
  let n = get_count c ~bytes_per:8 ~what:"int list" in
  List.init n (fun _ -> get_int c)

let get_eof c = if remaining c <> 0 then fail "%d trailing bytes" (remaining c)

let request_to_binary r =
  let b = Buffer.create 64 in
  (match r with
  | Load { name; points; rects; k; z; eps; rounds; drift } ->
      Buffer.add_uint8 b 1;
      put_string b name;
      put_points b points;
      put_rects b rects;
      put_int b k;
      put_int b z;
      put_float b eps;
      (match rounds with
      | None -> put_bool b false
      | Some r ->
          put_bool b true;
          put_int b r);
      put_float b drift
  | Prepare name ->
      Buffer.add_uint8 b 2;
      put_string b name
  | Solve name ->
      Buffer.add_uint8 b 3;
      put_string b name
  | Query_ball { name; center; radius; eps } ->
      Buffer.add_uint8 b 4;
      put_string b name;
      put_point b center;
      put_float b radius;
      put_float b eps
  | Balls_all { name; radius; eps } ->
      Buffer.add_uint8 b 5;
      put_string b name;
      put_float b radius;
      put_float b eps
  | Assign name ->
      Buffer.add_uint8 b 6;
      put_string b name
  | Insert { name; point } ->
      Buffer.add_uint8 b 7;
      put_string b name;
      put_point b point
  | Delete { name; id } ->
      Buffer.add_uint8 b 8;
      put_string b name;
      put_int b id
  | Stats -> Buffer.add_uint8 b 9
  | Shutdown -> Buffer.add_uint8 b 10
  | Metrics -> Buffer.add_uint8 b 11
  | Flight -> Buffer.add_uint8 b 12
  | Insert_rect { name; rect } ->
      Buffer.add_uint8 b 13;
      put_string b name;
      put_rect b rect
  | Delete_rect { name; id } ->
      Buffer.add_uint8 b 14;
      put_string b name;
      put_int b id);
  Buffer.contents b

let request_of_binary s =
  let c = { s; pos = 0 } in
  let r =
    match get_u8 c with
    | 1 ->
        let name = get_string c in
        let points = get_points c in
        let rects = get_rects c in
        let k = get_int c in
        let z = get_int c in
        let eps = get_float c in
        let rounds = if get_bool c then Some (get_int c) else None in
        let drift = get_float c in
        Load { name; points; rects; k; z; eps; rounds; drift }
    | 2 -> Prepare (get_string c)
    | 3 -> Solve (get_string c)
    | 4 ->
        let name = get_string c in
        let center = get_point c in
        let radius = get_float c in
        let eps = get_float c in
        Query_ball { name; center; radius; eps }
    | 5 ->
        let name = get_string c in
        let radius = get_float c in
        let eps = get_float c in
        Balls_all { name; radius; eps }
    | 6 -> Assign (get_string c)
    | 7 ->
        let name = get_string c in
        let point = get_point c in
        Insert { name; point }
    | 8 ->
        let name = get_string c in
        let id = get_int c in
        Delete { name; id }
    | 9 -> Stats
    | 10 -> Shutdown
    | 11 -> Metrics
    | 12 -> Flight
    | 13 ->
        let name = get_string c in
        let rect = get_rect c in
        Insert_rect { name; rect }
    | 14 ->
        let name = get_string c in
        let id = get_int c in
        Delete_rect { name; id }
    | t -> fail "unknown request tag %d" t
  in
  get_eof c;
  r

let err_tag = function
  | Bad_request -> 0
  | Unknown_instance -> 1
  | Already_loaded -> 2
  | Not_prepared -> 3
  | No_solution -> 4
  | Bad_frame -> 5
  | Too_large -> 6
  | Orphaned -> 7

let err_of_tag = function
  | 0 -> Bad_request
  | 1 -> Unknown_instance
  | 2 -> Already_loaded
  | 3 -> Not_prepared
  | 4 -> No_solution
  | 5 -> Bad_frame
  | 6 -> Too_large
  | 7 -> Orphaned
  | t -> fail "unknown error kind tag %d" t

let response_to_binary r =
  let b = Buffer.create 64 in
  (match r with
  | Ok_reply -> Buffer.add_uint8 b 1
  | Inserted id ->
      Buffer.add_uint8 b 2;
      put_int b id
  | Solved { centers; outliers; radius; rounds_per_guess; guesses;
             re_solves; cached } ->
      Buffer.add_uint8 b 3;
      put_int_list b centers;
      put_int_list b outliers;
      put_float b radius;
      put_int b rounds_per_guess;
      put_int b guesses;
      put_int b re_solves;
      put_bool b cached
  | Ball ids ->
      Buffer.add_uint8 b 4;
      put_int_list b ids
  | Balls rows ->
      Buffer.add_uint8 b 5;
      put_int b (Array.length rows);
      Array.iter (put_int_list b) rows
  | Assigned pairs ->
      Buffer.add_uint8 b 6;
      put_int b (List.length pairs);
      List.iter
        (fun (i, cid) ->
          put_int b i;
          put_int b cid)
        pairs
  | Stats_reply s ->
      Buffer.add_uint8 b 7;
      put_string b s
  | Metrics_reply s ->
      Buffer.add_uint8 b 11;
      put_string b s
  | Flight_reply s ->
      Buffer.add_uint8 b 12;
      put_string b s
  | Error (kind, msg) ->
      Buffer.add_uint8 b 8;
      Buffer.add_uint8 b (err_tag kind);
      put_string b msg
  | Overloaded -> Buffer.add_uint8 b 9
  | Bye -> Buffer.add_uint8 b 10);
  Buffer.contents b

let response_of_binary s =
  let c = { s; pos = 0 } in
  let r =
    match get_u8 c with
    | 1 -> Ok_reply
    | 2 -> Inserted (get_int c)
    | 3 ->
        let centers = get_int_list c in
        let outliers = get_int_list c in
        let radius = get_float c in
        let rounds_per_guess = get_int c in
        let guesses = get_int c in
        let re_solves = get_int c in
        let cached = get_bool c in
        Solved { centers; outliers; radius; rounds_per_guess; guesses;
                 re_solves; cached }
    | 4 -> Ball (get_int_list c)
    | 5 ->
        let n = get_count c ~bytes_per:8 ~what:"ball row" in
        Balls (Array.init n (fun _ -> get_int_list c))
    | 6 ->
        let n = get_count c ~bytes_per:16 ~what:"assignment" in
        Assigned
          (List.init n (fun _ ->
               let i = get_int c in
               let cid = get_int c in
               (i, cid)))
    | 7 -> Stats_reply (get_string c)
    | 8 ->
        let kind = err_of_tag (get_u8 c) in
        let msg = get_string c in
        Error (kind, msg)
    | 9 -> Overloaded
    | 10 -> Bye
    | 11 -> Metrics_reply (get_string c)
    | 12 -> Flight_reply (get_string c)
    | t -> fail "unknown response tag %d" t
  in
  get_eof c;
  r

(* ------------------------------------------------------------------ *)
(* JSONL payloads                                                      *)
(* ------------------------------------------------------------------ *)

(* Floats travel as strings through the 17-digit round-trip-safe
   rendering, so JSONL is as bit-exact as binary and infinite rectangle
   bounds survive (plain JSON has no literal for them). *)
let jfloat v = Printf.sprintf "\"%s\"" (Json.escape (Formats.float_to_string v))
let jstr s = Printf.sprintf "\"%s\"" (Json.escape s)
let jpoint p = "[" ^ String.concat "," (List.map jfloat (Array.to_list p)) ^ "]"

let jints l = "[" ^ String.concat "," (List.map string_of_int l) ^ "]"

let jrect (r : Rect.t) =
  Printf.sprintf "{\"lo\":%s,\"hi\":%s}" (jpoint r.Rect.lo) (jpoint r.Rect.hi)

let request_to_json r =
  match r with
  | Load { name; points; rects; k; z; eps; rounds; drift } ->
      Printf.sprintf
        "{\"req\":\"load\",\"name\":%s,\"k\":%d,\"z\":%d,\"eps\":%s,\
         \"rounds\":%s,\"drift\":%s,\"points\":[%s],\"rects\":[%s]}"
        (jstr name) k z (jfloat eps)
        (match rounds with None -> "null" | Some r -> string_of_int r)
        (jfloat drift)
        (String.concat "," (List.map jpoint (Array.to_list points)))
        (String.concat "," (List.map jrect (Array.to_list rects)))
  | Prepare name -> Printf.sprintf "{\"req\":\"prepare\",\"name\":%s}" (jstr name)
  | Solve name -> Printf.sprintf "{\"req\":\"solve\",\"name\":%s}" (jstr name)
  | Query_ball { name; center; radius; eps } ->
      Printf.sprintf
        "{\"req\":\"ball\",\"name\":%s,\"center\":%s,\"radius\":%s,\"eps\":%s}"
        (jstr name) (jpoint center) (jfloat radius) (jfloat eps)
  | Balls_all { name; radius; eps } ->
      Printf.sprintf
        "{\"req\":\"balls_all\",\"name\":%s,\"radius\":%s,\"eps\":%s}"
        (jstr name) (jfloat radius) (jfloat eps)
  | Assign name -> Printf.sprintf "{\"req\":\"assign\",\"name\":%s}" (jstr name)
  | Insert { name; point } ->
      Printf.sprintf "{\"req\":\"insert\",\"name\":%s,\"point\":%s}" (jstr name)
        (jpoint point)
  | Delete { name; id } ->
      Printf.sprintf "{\"req\":\"delete\",\"name\":%s,\"id\":%d}" (jstr name) id
  | Insert_rect { name; rect } ->
      Printf.sprintf "{\"req\":\"insert_rect\",\"name\":%s,\"rect\":%s}"
        (jstr name) (jrect rect)
  | Delete_rect { name; id } ->
      Printf.sprintf "{\"req\":\"delete_rect\",\"name\":%s,\"id\":%d}"
        (jstr name) id
  | Stats -> "{\"req\":\"stats\"}"
  | Metrics -> "{\"req\":\"metrics\"}"
  | Flight -> "{\"req\":\"flight\"}"
  | Shutdown -> "{\"req\":\"shutdown\"}"

let response_to_json r =
  match r with
  | Ok_reply -> "{\"resp\":\"ok\"}"
  | Inserted id -> Printf.sprintf "{\"resp\":\"inserted\",\"id\":%d}" id
  | Solved { centers; outliers; radius; rounds_per_guess; guesses;
             re_solves; cached } ->
      Printf.sprintf
        "{\"resp\":\"solved\",\"centers\":%s,\"outliers\":%s,\"radius\":%s,\
         \"rounds_per_guess\":%d,\"guesses\":%d,\"re_solves\":%d,\
         \"cached\":%b}"
        (jints centers) (jints outliers) (jfloat radius) rounds_per_guess
        guesses re_solves cached
  | Ball ids -> Printf.sprintf "{\"resp\":\"ball\",\"ids\":%s}" (jints ids)
  | Balls rows ->
      Printf.sprintf "{\"resp\":\"balls\",\"rows\":[%s]}"
        (String.concat "," (List.map jints (Array.to_list rows)))
  | Assigned pairs ->
      Printf.sprintf "{\"resp\":\"assigned\",\"pairs\":[%s]}"
        (String.concat ","
           (List.map (fun (i, c) -> Printf.sprintf "[%d,%d]" i c) pairs))
  | Stats_reply s -> Printf.sprintf "{\"resp\":\"stats\",\"data\":%s}" (jstr s)
  | Metrics_reply s ->
      Printf.sprintf "{\"resp\":\"metrics\",\"data\":%s}" (jstr s)
  | Flight_reply s ->
      Printf.sprintf "{\"resp\":\"flight\",\"data\":%s}" (jstr s)
  | Error (kind, msg) ->
      Printf.sprintf "{\"resp\":\"error\",\"kind\":%s,\"msg\":%s}"
        (jstr (err_kind_to_string kind))
        (jstr msg)
  | Overloaded -> "{\"resp\":\"overloaded\"}"
  | Bye -> "{\"resp\":\"bye\"}"

(* JSON projection helpers that [fail] with field context instead of
   raising Json.Parse_error. *)

let jmember k j =
  match Json.member k j with Some v -> v | None -> fail "missing field %S" k

let jget_str what = function
  | Json.Str s -> s
  | _ -> fail "field %S: expected string" what

let jget_int what = function
  | Json.Num f ->
      let i = int_of_float f in
      if float_of_int i <> f then fail "field %S: expected integer" what
      else i
  | _ -> fail "field %S: expected integer" what

let jget_bool what = function
  | Json.Bool b -> b
  | _ -> fail "field %S: expected bool" what

let jget_float what = function
  | Json.Str s -> (
      try Formats.parse_float s
      with Failure m -> fail "field %S: %s" what m)
  | Json.Num f -> f
  | _ -> fail "field %S: expected float string" what

let jget_arr what = function
  | Json.Arr l -> l
  | _ -> fail "field %S: expected array" what

let jget_point what j =
  Array.of_list (List.map (jget_float what) (jget_arr what j))

let jget_ints what j = List.map (jget_int what) (jget_arr what j)

let jget_rect what j =
  let lo = jget_point "lo" (jmember "lo" j) in
  let hi = jget_point "hi" (jmember "hi" j) in
  ignore what;
  Rect.make ~lo ~hi

let request_of_json line =
  let j = try Json.parse line with Json.Parse_error m -> fail "%s" m in
  match jget_str "req" (jmember "req" j) with
  | "load" ->
      let name = jget_str "name" (jmember "name" j) in
      let k = jget_int "k" (jmember "k" j) in
      let z = jget_int "z" (jmember "z" j) in
      let eps = jget_float "eps" (jmember "eps" j) in
      let rounds =
        match jmember "rounds" j with
        | Json.Null -> None
        | v -> Some (jget_int "rounds" v)
      in
      let drift = jget_float "drift" (jmember "drift" j) in
      let points =
        Array.of_list
          (List.map (jget_point "points") (jget_arr "points" (jmember "points" j)))
      in
      let rects =
        Array.of_list
          (List.map (jget_rect "rects") (jget_arr "rects" (jmember "rects" j)))
      in
      Load { name; points; rects; k; z; eps; rounds; drift }
  | "prepare" -> Prepare (jget_str "name" (jmember "name" j))
  | "solve" -> Solve (jget_str "name" (jmember "name" j))
  | "ball" ->
      Query_ball
        {
          name = jget_str "name" (jmember "name" j);
          center = jget_point "center" (jmember "center" j);
          radius = jget_float "radius" (jmember "radius" j);
          eps = jget_float "eps" (jmember "eps" j);
        }
  | "balls_all" ->
      Balls_all
        {
          name = jget_str "name" (jmember "name" j);
          radius = jget_float "radius" (jmember "radius" j);
          eps = jget_float "eps" (jmember "eps" j);
        }
  | "assign" -> Assign (jget_str "name" (jmember "name" j))
  | "insert" ->
      Insert
        {
          name = jget_str "name" (jmember "name" j);
          point = jget_point "point" (jmember "point" j);
        }
  | "delete" ->
      Delete
        {
          name = jget_str "name" (jmember "name" j);
          id = jget_int "id" (jmember "id" j);
        }
  | "insert_rect" ->
      Insert_rect
        {
          name = jget_str "name" (jmember "name" j);
          rect = jget_rect "rect" (jmember "rect" j);
        }
  | "delete_rect" ->
      Delete_rect
        {
          name = jget_str "name" (jmember "name" j);
          id = jget_int "id" (jmember "id" j);
        }
  | "stats" -> Stats
  | "metrics" -> Metrics
  | "flight" -> Flight
  | "shutdown" -> Shutdown
  | other -> fail "unknown request %S" other

let response_of_json line =
  let j = try Json.parse line with Json.Parse_error m -> fail "%s" m in
  match jget_str "resp" (jmember "resp" j) with
  | "ok" -> Ok_reply
  | "inserted" -> Inserted (jget_int "id" (jmember "id" j))
  | "solved" ->
      Solved
        {
          centers = jget_ints "centers" (jmember "centers" j);
          outliers = jget_ints "outliers" (jmember "outliers" j);
          radius = jget_float "radius" (jmember "radius" j);
          rounds_per_guess =
            jget_int "rounds_per_guess" (jmember "rounds_per_guess" j);
          guesses = jget_int "guesses" (jmember "guesses" j);
          re_solves = jget_int "re_solves" (jmember "re_solves" j);
          cached = jget_bool "cached" (jmember "cached" j);
        }
  | "ball" -> Ball (jget_ints "ids" (jmember "ids" j))
  | "balls" ->
      Balls
        (Array.of_list
           (List.map (jget_ints "rows") (jget_arr "rows" (jmember "rows" j))))
  | "assigned" ->
      Assigned
        (List.map
           (fun p ->
             match jget_ints "pairs" p with
             | [ i; c ] -> (i, c)
             | _ -> fail "field \"pairs\": expected [id,center] pairs")
           (jget_arr "pairs" (jmember "pairs" j)))
  | "stats" -> Stats_reply (jget_str "data" (jmember "data" j))
  | "metrics" -> Metrics_reply (jget_str "data" (jmember "data" j))
  | "flight" -> Flight_reply (jget_str "data" (jmember "data" j))
  | "error" ->
      let kind_s = jget_str "kind" (jmember "kind" j) in
      let kind =
        match err_kind_of_string kind_s with
        | Some k -> k
        | None -> fail "unknown error kind %S" kind_s
      in
      Error (kind, jget_str "msg" (jmember "msg" j))
  | "overloaded" -> Overloaded
  | "bye" -> Bye
  | other -> fail "unknown response %S" other

(* ------------------------------------------------------------------ *)
(* Framing                                                             *)
(* ------------------------------------------------------------------ *)

let frame_binary payload =
  let n = String.length payload in
  let b = Buffer.create (n + 4) in
  Buffer.add_int32_be b (Int32.of_int n);
  Buffer.add_string b payload;
  Buffer.contents b

let total mode f_bin f_json v =
  match mode with
  | Binary -> frame_binary (f_bin v)
  | Jsonl -> f_json v ^ "\n"

let encode_request mode r = total mode request_to_binary request_to_json r
let encode_response mode r = total mode response_to_binary response_to_json r

let payload_length mode frame =
  String.length frame - (match mode with Binary -> 4 | Jsonl -> 1)

let protect f s =
  match f s with
  | v -> Ok v
  | exception Fail m -> Error m
  | exception Invalid_argument m -> Error m
  | exception Failure m -> Error m
  | exception Json.Parse_error m -> Error m

let decode_request mode s =
  match mode with
  | Binary -> protect request_of_binary s
  | Jsonl -> protect request_of_json s

let decode_response mode s =
  match mode with
  | Binary -> protect response_of_binary s
  | Jsonl -> protect response_of_json s

(* ------------------------------------------------------------------ *)
(* Incremental frame extraction                                        *)
(* ------------------------------------------------------------------ *)

type reader = {
  r_mode : mode;
  mutable r_data : string; (* unconsumed bytes *)
  mutable r_poisoned : bool;
}

let reader mode = { r_mode = mode; r_data = ""; r_poisoned = false }
let reader_pending r = String.length r.r_data
let reader_poisoned r = r.r_poisoned

let feed r buf n =
  if r.r_poisoned then []
  else begin
    r.r_data <- r.r_data ^ Bytes.sub_string buf 0 n;
    let out = ref [] in
    let data = ref r.r_data in
    (try
       match r.r_mode with
       | Binary ->
           let continue = ref true in
           while !continue do
             let len = String.length !data in
             if len < 4 then continue := false
             else begin
               let flen =
                 Int32.to_int (String.get_int32_be !data 0) land 0xFFFFFFFF
               in
               if flen > max_frame then begin
                 out := `Oversized flen :: !out;
                 r.r_poisoned <- true;
                 data := "";
                 continue := false
               end
               else if len >= 4 + flen then begin
                 out := `Frame (String.sub !data 4 flen) :: !out;
                 data := String.sub !data (4 + flen) (len - 4 - flen)
               end
               else continue := false
             end
           done
       | Jsonl ->
           let continue = ref true in
           while !continue do
             match String.index_opt !data '\n' with
             | Some i when i <= max_frame ->
                 out := `Frame (String.sub !data 0 i) :: !out;
                 data :=
                   String.sub !data (i + 1) (String.length !data - i - 1)
             | Some i ->
                 out := `Oversized i :: !out;
                 r.r_poisoned <- true;
                 data := "";
                 continue := false
             | None ->
                 if String.length !data > max_frame then begin
                   out := `Oversized (String.length !data) :: !out;
                   r.r_poisoned <- true;
                   data := ""
                 end;
                 continue := false
           done
     with e ->
       r.r_data <- !data;
       raise e);
    r.r_data <- !data;
    List.rev !out
  end
