(* The [serve_mixed] traffic plan: resident instances and an open-loop
   Poisson request schedule over two sessions, generated from the seed
   alone and valid by construction.

   - Session A is the only writer of [big]: point reads, a balanced FIFO
     insert/delete churn, and once a second a Prepare sent right before
     its Balls_all, so no other session can invalidate the tree between
     them.
   - Session B reads [big] (balls, assignments, cached solves), scrapes
     Metrics once a second, and once a second inserts a rectangle nested
     inside one tile of a small instance, followed by a Solve that must
     re-solve. Each resolve op has a small instance of its own: one
     instance for all of them made the resolve latency and the solution
     quality a property of whichever instance the seed drew.

   Deletes name ids the model knows are live, and a nested rectangle
   never holds a point its tile does not also cover, so no request the
   plan makes can be refused. *)

module P = Cso_serve.Protocol
module Rect = Cso_geom.Rect
module Point = Cso_metric.Point

let big = "big"
let small i = Printf.sprintf "small-%02d" i
let big_n = 2048
let small_n = 128
let small_k = 3
let small_z = 2
let side = 100.0

(* Per-session Poisson rates (requests/s) of the background streams;
   the once-a-second ops come on top, for about 505 frames/s in all. *)
let rate_a = 250.0
let rate_b = 247.0
let write_share_a = 0.3
let ball_radius = 10.0
let bulk_radius = 4.0
let query_eps = 0.1

type cls = Read | Write | Bulk | Resolve | Scrape

let cls_name = function
  | Read -> "read"
  | Write -> "write"
  | Bulk -> "bulk"
  | Resolve -> "resolve"
  | Scrape -> "scrape"

(* The reply a frame must get. *)
type expect =
  | Ball
  | Assigned
  | Solved_any  (** cached or not *)
  | Solved_fresh  (** must re-solve: a cold solve, or a rect update precedes it *)
  | Inserted of int  (** the id the model predicts *)
  | Ok_reply
  | Balls of int  (** one row per live point *)
  | Metrics

type frame = {
  due : float;  (** seconds after the traffic starts *)
  session : int;  (** 0 = A, 1 = B *)
  op : int;  (** ops of two frames (bulk, resolve) share the id *)
  cls : cls;
  req : P.request;
  expect : expect;
}

type write = Ins of Point.t | Del of int

type plan = {
  big_points : Point.t array;
  small_points : Point.t array array;
      (** one small instance per resolve op, in op order *)
  frames : frame array;  (** ascending [due]; send order *)
  encoded : string array;  (** binary frames, aligned with [frames] *)
  ops : int;
  big_writes : write list;  (** session A's write stream, in order *)
  final_big_live : int;
  nested : (int * (int * Rect.t)) list;
      (** per resolve op: its small instance and the rect it inserts
          there, whose id follows the tiles' *)
}

let uniform_point st = [| Random.State.float st side; Random.State.float st side |]

(* [cols * rows] points uniform over the square, stratified: one
   uniform point per cell of a [cols x rows] grid, in a seeded random
   order. Each point is uniform in its cell, so the set is a uniform
   sample, but the instance a seed draws varies less than an
   unstratified one. *)
let stratified st ~cols ~rows =
  let w = side /. float_of_int cols and h = side /. float_of_int rows in
  let pts =
    Array.init (cols * rows) (fun i ->
        let cx = float_of_int (i mod cols) and cy = float_of_int (i / cols) in
        [| (cx +. Random.State.float st 1.0) *. w; (cy +. Random.State.float st 1.0) *. h |])
  in
  for i = Array.length pts - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = pts.(i) in
    pts.(i) <- pts.(j);
    pts.(j) <- t
  done;
  pts

(* 4x4 tiling of the square: covers every point, and no single
   discarded tile empties the population. *)
let tiles =
  Array.init 16 (fun i ->
      let x = float_of_int (i mod 4) *. 25.0 and y = float_of_int (i / 4) *. 25.0 in
      Rect.make ~lo:[| x; y |] ~hi:[| x +. 25.0; y +. 25.0 |])

let nested_rect st =
  let t = tiles.(Random.State.int st 16) in
  let inset () = 1.0 +. Random.State.float st 7.0 in
  let lo = Array.map (fun v -> v +. inset ()) t.Rect.lo in
  let hi = Array.map (fun v -> v -. inset ()) t.Rect.hi in
  Rect.make ~lo ~hi

let load name points ~k ~z =
  P.Load
    { name; points; rects = tiles; k; z; eps = 0.5; rounds = Some 40; drift = 2.0 }

let load_big p = load big p.big_points ~k:4 ~z:1
let load_small p i = load (small i) p.small_points.(i) ~k:small_k ~z:small_z

(* Event times of a Poisson stream of [rate] over [0, duration). *)
let poisson st ~rate ~duration =
  let rec go t acc =
    let t = t -. (log (1.0 -. Random.State.float st 1.0) /. rate) in
    if t >= duration then List.rev acc else go t (t :: acc)
  in
  go 0.0 []

(* Once a second at a fixed phase. The once-a-second ops stall every
   session; fixed phases keep the seed from deciding whether two of
   them overlap, which would move the tail percentiles from seed to
   seed. *)
let per_second ~phase ~duration =
  List.init (int_of_float duration) (fun s -> float_of_int s +. phase)

type event = A_bg | A_bulk | B_bg | B_scrape | B_resolve

let plan ~seed ~duration =
  let st tag = Random.State.make [| seed; tag; 0x5e77e |] in
  let big_points = stratified (st 1) ~cols:64 ~rows:(big_n / 64) in
  let resolve_times = per_second ~phase:0.7 ~duration in
  let small_points =
    Array.init (List.length resolve_times) (fun i ->
        stratified (st (100 + i)) ~cols:16 ~rows:(small_n / 16))
  in
  let ta = st 3 and tb = st 4 in
  let events =
    List.map (fun t -> (t, A_bg)) (poisson ta ~rate:rate_a ~duration)
    @ List.map (fun t -> (t, A_bulk)) (per_second ~phase:0.2 ~duration)
    @ List.map (fun t -> (t, B_bg)) (poisson tb ~rate:rate_b ~duration)
    @ List.map (fun t -> (t, B_scrape)) (per_second ~phase:0.45 ~duration)
    @ List.map (fun t -> (t, B_resolve)) resolve_times
  in
  let events = List.stable_sort (fun (a, _) (b, _) -> compare a b) events in
  (* Walk the schedule in send order, keeping the model of [big]'s live
     ids (FIFO) and of the small instances' nested rects. *)
  let ra = st 6 and rb = st 7 in
  let live = Queue.create () in
  for id = 0 to big_n - 1 do
    Queue.add id live
  done;
  let next_id = ref big_n in
  let insert_next = ref true in
  let resolves = ref 0 in
  let writes = ref [] and op = ref 0 and frames = ref [] and nested = ref [] in
  let emit due session cls parts =
    List.iter
      (fun (req, expect) -> frames := { due; session; op = !op; cls; req; expect } :: !frames)
      parts;
    incr op
  in
  let ball st =
    (P.Query_ball { name = big; center = uniform_point st; radius = ball_radius; eps = query_eps }, Ball)
  in
  List.iter
    (fun (t, ev) ->
      match ev with
      | A_bg when Random.State.float ra 1.0 < write_share_a ->
          if !insert_next then begin
            let p = uniform_point ra in
            let id = !next_id in
            incr next_id;
            Queue.add id live;
            writes := Ins p :: !writes;
            emit t 0 Write [ (P.Insert { name = big; point = p }, Inserted id) ]
          end
          else begin
            let id = Queue.pop live in
            writes := Del id :: !writes;
            emit t 0 Write [ (P.Delete { name = big; id }, Ok_reply) ]
          end;
          insert_next := not !insert_next
      | A_bg ->
          if Random.State.float ra 1.0 < 0.9 then emit t 0 Read [ ball ra ]
          else emit t 0 Read [ (P.Assign big, Assigned) ]
      | A_bulk ->
          emit t 0 Bulk
            [
              (P.Prepare big, Ok_reply);
              ( P.Balls_all { name = big; radius = bulk_radius; eps = query_eps },
                Balls (Queue.length live) );
            ]
      | B_bg ->
          let u = Random.State.float rb 1.0 in
          if u < 0.8 then emit t 1 Read [ ball rb ]
          else if u < 0.9 then emit t 1 Read [ (P.Assign big, Assigned) ]
          else emit t 1 Read [ (P.Solve big, Solved_any) ]
      | B_scrape -> emit t 1 Scrape [ (P.Metrics, Metrics) ]
      | B_resolve ->
          let i = !resolves in
          incr resolves;
          let name = small i and rid = Array.length tiles in
          let r = nested_rect rb in
          nested := (!op, (i, r)) :: !nested;
          emit t 1 Resolve
            [ (P.Insert_rect { name; rect = r }, Inserted rid); (P.Solve name, Solved_fresh) ])
    events;
  let frames = Array.of_list (List.rev !frames) in
  {
    big_points;
    small_points;
    frames;
    encoded = Array.map (fun f -> P.encode_request P.Binary f.req) frames;
    ops = !op;
    big_writes = List.rev !writes;
    final_big_live = Queue.length live;
    nested = !nested;
  }

(* Whether a reply is the one the plan expects. *)
let reply_ok expect (r : P.response) =
  match (expect, r) with
  | Ball, P.Ball _ | Assigned, P.Assigned _ | Solved_any, P.Solved _
  | Ok_reply, P.Ok_reply | Metrics, P.Metrics_reply _ ->
      true
  | Solved_fresh, P.Solved s -> not s.cached
  | Inserted id, P.Inserted got -> id = got
  | Balls n, P.Balls rows -> Array.length rows = n
  | _ -> false
