(* Workload campaign-tsp: repeated exploration campaigns over tsp at its
   default size — PCT with three change points, raw equivalence, a fixed
   run budget, one worker domain per core.  Thousands of ~3 ms runs, so
   per-run fixed costs dominate; nothing is compiled inside the loop
   except each worker's own copy at campaign start. *)

open Perfbench
open Common
module H = Drd_harness
module P = H.Pipeline
module E = Drd_explore.Explore

let runs = 200

(* Worker domains of the timed campaigns.  One: with a worker per core,
   stop-the-world minor collections tie both cores together, and on a
   shared host the campaign time then swung by 17% from run to run
   against 7% for one-shot runs.  The pool size still runs in the
   correctness check (its report must be byte-identical) and in the
   traced ladder. *)
let workers = 1

let source () = (Option.get (H.Programs.find "tsp")).H.Programs.b_source

type state = {
  spec : E.spec;
  source : string;
  compiled : P.compiled;
  run_specs : Drd_explore.Strategy.run_spec list;
}

let setup_once ?(workers = workers) seed =
  let spec = Payload.campaign_spec ~seed ~workers ~runs in
  let source = source () in
  let compiled = P.compile spec.E.e_config ~source in
  { spec; source; compiled; run_specs = Payload.campaign_runs spec }

let setup opts = repeat_setup (fun () -> setup_once opts.seed)

type sample = {
  c_ms : float;
  c_kernels : float list;  (** Calibration kernels timed around the campaign. *)
  c_peak_mb : float;  (** This process's peak resident set during the campaign. *)
  c_runs : int;
  c_events : int;
  c_failed : int;
  c_report : string;
}

let kernels () = List.init 3 (fun _ -> Calib.sample ())

let campaign ?rec_ ~op st =
  let before = kernels () in
  reset_peak_mem ();
  let r, ms =
    Clock.time (fun () ->
        Spans.with_span rec_ ~op "explore.run_campaign" (fun () ->
            E.run_campaign st.spec ~source:st.source))
  in
  let c_peak_mb = peak_mem_mb () in
  let after = kernels () in
  {
    c_peak_mb;
    c_ms = ms;
    c_kernels = before @ after;
    c_runs = r.E.r_stats.Drd_explore.Aggregate.st_runs;
    c_events = r.E.r_stats.Drd_explore.Aggregate.st_events;
    c_failed = r.E.r_stats.Drd_explore.Aggregate.st_failed;
    c_report = E.report_json ~timing:false r;
  }

let loop ?(traced = fun _ -> false) ?rec_ opts st =
  ignore (campaign ~op:(-1) st);
  let samples = ref [] in
  closed_loop ~seconds:opts.seconds (fun i ->
      let rec_ = if traced i then rec_ else None in
      samples := (traced i, campaign ?rec_ ~op:i st) :: !samples);
  List.rev !samples

(* The references: the same campaign on a worker per core, and with a
   fresh run context per run instead of a reused one. *)
let check tally st samples =
  let pool = E.run_campaign { st.spec with E.e_workers = parallelism } ~source:st.source in
  let fresh = E.run_campaign ~reuse_ctx:false st.spec ~source:st.source in
  let expected = E.report_json ~timing:false pool in
  Tally.check tally
    ~ok:(same ~what:"campaign fresh vs reused contexts" expected
           (E.report_json ~timing:false fresh))
    "campaign report differs between fresh and reused run contexts";
  List.iter
    (fun s ->
      let identical =
        same ~what:(Printf.sprintf "campaign 1 worker vs %d" parallelism) expected
          s.c_report
      in
      Tally.ops tally
        ~failed:(if identical then s.c_failed else s.c_runs)
        s.c_runs "campaign runs failed or report differs from the pool's report")
    samples

let measure opts =
  reset_gc ();
  let st, setup_s = setup opts in
  let samples = List.map snd (loop opts st) in
  let peak = Stats.median (List.map (fun s -> s.c_peak_mb) samples) in
  let tally = Tally.create () in
  check tally st samples;
  let factor = Calib.factor (List.concat_map (fun s -> s.c_kernels) samples) in
  let ms = List.map (fun s -> s.c_ms) samples in
  let per_s f = List.map (fun s -> float_of_int (f s) /. (s.c_ms /. 1000.)) samples in
  let rps = per_s (fun s -> s.c_runs) and eps = per_s (fun s -> s.c_events) in
  say "campaign-tsp: %d campaigns of %d runs, pct(d=3), raw, %d workers, seed %d"
    (List.length samples) runs workers opts.seed;
  print_summary "campaign_ms" ~unit:"ms" ms;
  print_summary "runs_per_s" ~unit:"1/s" rps;
  print_summary "events_per_s" ~unit:"1/s" eps;
  say "  %-28s %.4f x" "host_factor" factor;
  ( tally,
    [
      metric "setup_s" "s" setup_s;
      metric "peak_mem_mb" "MiB" peak;
      metric "op_p50_ms" "ms" (Stats.median ms *. factor);
      metric "runs_per_s" "1/s" (Stats.median rps /. factor);
      metric "events_per_s" "1/s" (Stats.median eps /. factor);
    ] )

let overhead opts rec_ tally =
  reset_gc ();
  let st, _ = setup opts in
  let samples = loop ~traced:(fun i -> i mod 2 = 1) ~rec_ opts st in
  check tally st (List.map snd samples);
  List.partition_map
    (fun (traced, s) -> if traced then Right s.c_ms else Left s.c_ms)
    samples
