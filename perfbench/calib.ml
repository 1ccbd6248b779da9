(* Host-speed calibration.

   On a shared host the whole machine runs faster or slower for minutes
   at a time, by up to 2x.  A fixed kernel, timed right next to each
   measured operation, tracks that speed: the end-to-end times are
   reported as [raw * reference_ms / kernel_ms], that is, in
   milliseconds of a host on which the kernel takes [reference_ms].
   The kernel is integer arithmetic over a 512 KiB array, allocates
   nothing and calls nothing in the repository.  Each sample runs it
   once untimed first: the program under test leaves the caches and the
   TLB in a state that depends on its memory footprint, and the warm-up
   pass refills the array from there, so the timed pass always starts
   with the array in the core's private cache, whatever ran before. *)

let scratch = Array.make 65536 0

let kernel () =
  let x = ref 12345 in
  for i = 1 to 400_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let j = !x land 65535 in
    scratch.(j) <- scratch.(j) + i
  done

(* The warm kernel's time on a quiet 2-core 2.0 GHz Xeon VM: the cold
   kernel's median there, 0.79 ms, times 0.81, the warm/cold ratio of
   the medians over 364 interleaved pairs on the same VM. *)
let reference_ms = 0.64

(* Time one kernel call after an untimed warm-up call, in ms. *)
let sample () =
  kernel ();
  snd (Clock.time kernel)

(* The factor turning raw times measured next to [samples] into
   reference-host times: one per run, from all of the run's kernel
   samples, so it follows the host's speed from run to run without
   adding the kernel's own per-sample jitter to each operation. *)
let factor samples = reference_ms /. Stats.median samples
