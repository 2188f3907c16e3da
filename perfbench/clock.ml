(* One monotonic clock for every timing the benchmark takes, installed
   into the program's span clock and server clock as well, so the
   benchmark's spans, the program's spans and the flight records share a
   time base. Both program clocks default to CPU time. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let ms s = s *. 1e3
