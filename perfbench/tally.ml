(* Correctness accounting: every timed operation is attempted, and it
   fails when it raised or its output disagreed with the reference.
   Run-wide gates (bounds, byte-identity across configurations) are
   recorded as problems; any failure or problem makes the run
   incorrect. *)

type t = {
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;  (** newest first *)
}

let create () = { attempted = 0; failed = 0; problems = [] }

let op t ~ok what =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    t.problems <- what :: t.problems
  end

(* [ops t ~failed n what] accounts a batch of [n] operations at once. *)
let ops t ~failed n what =
  t.attempted <- t.attempted + n;
  if failed > 0 then begin
    t.failed <- t.failed + failed;
    t.problems <- Printf.sprintf "%s (%d of %d)" what failed n :: t.problems
  end

let check t ~ok what = if not ok then t.problems <- what :: t.problems

let fail_ratio t =
  if t.attempted = 0 then 1.
  else float_of_int t.failed /. float_of_int t.attempted

let correct t = t.attempted > 0 && t.failed = 0 && t.problems = []

let problems t = List.rev t.problems
