(* The benchmark's own spans, recorded in the traced run only: one span
   per op and one per layer call the op makes, each tagged with the op
   id and parented to the op span. Kept in memory and written as JSONL
   when the run ends. *)

type t = {
  id : int;
  parent : int;  (** 0 for op spans *)
  op : int;
  name : string;
  t0 : float;  (** seconds, {!Clock.now} *)
  t1 : float;
}

let on = ref false
let log : t list ref = ref []
let next_id = ref 1

let reset ~enabled =
  on := enabled;
  log := [];
  next_id := 1

(* Records a finished span and returns its id (0 while tracing is off). *)
let add ~op ~parent name t0 t1 =
  if not !on then 0
  else begin
    let id = !next_id in
    incr next_id;
    log := { id; parent; op; name; t0; t1 } :: !log;
    id
  end

let time f =
  let t0 = Clock.now () in
  let r = f () in
  (r, t0, Clock.now ())

let all () = List.rev !log

(* Length of [t0, t1] that no interval of [covers] overlaps. *)
let uncovered ~t0 ~t1 covers =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a t0 and b = Float.min b t1 in
        if b > a then Some (a, b) else None)
      covers
    |> List.sort compare
  in
  let covered, _ =
    List.fold_left
      (fun (acc, reach) (a, b) ->
        let a = Float.max a reach in
        if b > a then (acc +. (b -. a), b) else (acc, reach))
      (0.0, t0) clipped
  in
  Float.max 0.0 (t1 -. t0 -. covered)

(* trace.unattributed_pct: the share (in percent) of op wall time that
   no layer span covers, summed over the ops fed to [cover]. *)
type coverage = { mutable wall : float; mutable free : float }

let coverage () = { wall = 0.0; free = 0.0 }

let cover acc ~t0 ~t1 covers =
  acc.wall <- acc.wall +. (t1 -. t0);
  acc.free <- acc.free +. uncovered ~t0 ~t1 covers

let unattributed_pct acc = if acc.wall > 0.0 then 100.0 *. acc.free /. acc.wall else 0.0

let to_jsonl spans =
  let b = Buffer.create 4096 in
  List.iter
    (fun s ->
      Printf.bprintf b
        "{\"id\": %d, \"parent\": %d, \"op\": %d, \"name\": \"%s\", \
         \"t0_ms\": %.6f, \"t1_ms\": %.6f}\n"
        s.id s.parent s.op s.name (Clock.ms s.t0) (Clock.ms s.t1))
    spans;
  Buffer.contents b
