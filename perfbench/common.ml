(* Shared plumbing of the benchmark program: options, GC state, memory
   readings, set-up repetition, the closed loop and the result line. *)

open Perfbench

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  racedet : string;  (** The CLI binary, for the serve daemon. *)
}

(* Scratch files: daemon sockets and trace output (run.py also points
   the runtime-events ring here). *)
let work_dir = ".perfbench"

type metric = { m_name : string; m_value : float; m_unit : string }

let metric m_name m_unit m_value = { m_name; m_value; m_unit }

(* Worker domains of the pool campaigns run by the correctness check and
   the traced ladder: the host's cores, capped so a large host does not
   turn the benchmark into a scaling test. *)
let parallelism = max 1 (min 2 (Domain.recommended_domain_count ()))

let say fmt = Printf.ksprintf (fun s -> print_string s; print_newline ()) fmt

(* Every workload starts from the same GC state. *)
let reset_gc () =
  Gc.set
    { (Gc.get ()) with Gc.minor_heap_size = 262_144; space_overhead = 120 };
  Gc.compact ()

(* Peak resident set (VmHWM) of this process, in MiB. *)
let peak_mem_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        let line = input_line ic in
        match Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id with
        | Some kb -> float_of_int kb /. 1024.
        | None -> go ()
      in
      go ())

(* Reset this process's peak resident set (VmHWM) to its current size.
   Where the kernel refuses, the peak stays the run's high-water mark. *)
let reset_peak_mem () =
  try
    Out_channel.with_open_text "/proc/self/clear_refs" (fun oc ->
        output_string oc "5")
  with Sys_error _ -> ()

(* Run [f] [times] times and keep the last result; the set-up time is
   the median over the repetitions, in seconds of the reference host
   (kernels are timed before each repetition).  [release] disposes of
   each result but the last. *)
let repeat_setup ?(times = 21) ?(release = ignore) f =
  let rec go k ms_acc kernels =
    let kernels = List.init 3 (fun _ -> Calib.sample ()) @ kernels in
    let r, ms = Clock.time f in
    if k = 1 then (r, Stats.median (ms :: ms_acc) *. Calib.factor kernels /. 1000.)
    else begin
      release r;
      go (k - 1) (ms :: ms_acc) kernels
    end
  in
  go times [] []

(* Run [op i] for [i = 0, 1, ...] until [seconds] have passed, at least
   [min] times. *)
let closed_loop ~seconds ?(min = 3) op =
  let t0 = Clock.now () in
  let rec go i =
    if i < min || Clock.ms_since t0 < seconds *. 1000. then begin
      op i;
      go (i + 1)
    end
  in
  go 0

let print_summary name ~unit xs =
  say "  %-28s %s" name (Stats.pp_summary ~unit (Stats.summarize xs))

let print_metric m = say "  %-28s %.6g %s" m.m_name m.m_value m.m_unit

let json_number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

(* The result line: the last line of standard output. *)
let result_line tally metrics =
  let body =
    String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.m_name
             (json_number m.m_value) m.m_unit)
         metrics)
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (Tally.correct tally) tally.Tally.attempted tally.Tally.failed body

(* A correctness-gate comparison, with a short diff hint. *)
let same ~what expected actual =
  if expected = actual then true
  else begin
    say "MISMATCH %s: expected %d bytes, got %d bytes" what
      (String.length expected) (String.length actual);
    false
  end
