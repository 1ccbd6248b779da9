(* The benchmark's only clock: Bechamel's monotonic clock (CLOCK_MONOTONIC,
   nanoseconds), never the wall clock. *)

let now () = Monotonic_clock.now ()

let ms_since t0 = Int64.to_float (Int64.sub (now ()) t0) /. 1e6

(* [time f] runs [f] and returns its result with its duration in ms. *)
let time f =
  let t0 = now () in
  let r = f () in
  (r, ms_since t0)
