(* Host-speed reference for the timed calls.

   The hosts this benchmark runs on share their memory system with other
   tenants, and the speed of the program's allocation-heavy code drifts
   with their load: the same solve of the same instance takes 150 ms for
   a few seconds, then 250 ms, and a run's median moves with the share
   of time spent in each phase. A loop of integer arithmetic does not
   track that drift. A loop that writes through memory the way the
   program's allocations do, does.

   So each timed call sits between two runs of [probe], the benchmark's
   own fixed loop, never program code, and its wall time is scaled by
   [nominal_s] over the mean of the two probe times. The scaled time is
   what the call would take on a host where the probe takes
   [nominal_s]: a change to the program moves it in full, a change of
   host speed mostly cancels. *)

(* The probe writes six words per step through a 2 MiB ring, the size
   of the default minor heap, as a loop allocating short-lived blocks
   writes them through the minor heap. It allocates nothing itself, so
   it neither triggers nor waits for a collection, and the program's
   heap does not change its speed. *)
let ring_words = 262_144
let ring = Array.make ring_words 0
let probe_steps = 3_000_000

let probe_work ?(steps = probe_steps) () =
  let j = ref 0 in
  for i = 0 to steps - 1 do
    let k = !j in
    Array.unsafe_set ring k i;
    Array.unsafe_set ring (k + 1) (i + 1);
    Array.unsafe_set ring (k + 2) i;
    Array.unsafe_set ring (k + 3) (i + 2);
    Array.unsafe_set ring (k + 4) i;
    Array.unsafe_set ring (k + 5) i;
    j := if k + 12 >= ring_words then 0 else k + 6
  done;
  ring.(7)

(* Wall seconds of one probe. A shorter probe of [steps] steps reports
   its time scaled up to the full [probe_steps]. *)
let probe ?(steps = probe_steps) () =
  let t0 = Clock.now () in
  ignore (Sys.opaque_identity (probe_work ~steps ()));
  (Clock.now () -. t0) *. float_of_int probe_steps /. float_of_int steps

(* The probe's time on a typical host of this benchmark (its medians
   ranged 6-11 ms over runs on a 2-vCPU machine): scaled times are in
   the milliseconds of a host where the probe takes this long. *)
let nominal_s = 0.008

(* A meter shares each probe between the calls on either side of it.
   It keeps every probe time and the raw wall time of every call, for
   the run's info line. *)
type meter = {
  mutable last : float;
  mutable probes : float list;
  mutable raw : float list;
}

let meter () =
  let p = probe () in
  { last = p; probes = [ p ]; raw = [] }

(* Runs [f] and returns its result and its probe-scaled duration in
   seconds. *)
let time m f =
  let r, t0, t1 = Spans.time f in
  let after = probe () in
  let scale = nominal_s /. ((m.last +. after) /. 2.0) in
  m.last <- after;
  m.probes <- after :: m.probes;
  m.raw <- (t1 -. t0) :: m.raw;
  (r, (t1 -. t0) *. scale)

(* The median probe and the median raw call time, in ms, for stderr. *)
let summary m =
  Printf.sprintf "probe_ms_p50=%.3f raw_call_ms_p50=%.3f"
    (Clock.ms (Stats.median m.probes))
    (if m.raw = [] then nan else Clock.ms (Stats.median m.raw))
