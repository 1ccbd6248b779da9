(* The benchmark program: one seeded workload per invocation.

     main.exe --workload NAME --seed N --seconds S --trace 0|1 --racedet PATH

   With --trace 0 it measures the workload's end-to-end metrics with
   tracing off; with --trace 1 it runs the per-layer ladder and the
   workload with every other operation traced.  Human-readable lines
   come first; the last line is the JSON result.  The exit code is 0
   only when every correctness gate passed. *)

open Perfbench
open Common

let workloads = [ "oneshot-perf"; "campaign-tsp" ]

let parse_args () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0.
  and trace = ref 0 and racedet = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME " ^ String.concat "|" workloads);
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 traced per-layer run");
      ("--racedet", Arg.Set_string racedet, "PATH racedet binary (serve daemon)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1 --racedet PATH";
  if not (List.mem !workload workloads) then failwith ("unknown workload " ^ !workload);
  if !seed < 0 then failwith "--seed must be a non-negative integer";
  if !seconds <= 0. then failwith "--seconds must be positive";
  if !trace <> 0 && !trace <> 1 then failwith "--trace must be 0 or 1";
  if not (Sys.file_exists !racedet) then failwith "--racedet must name the racedet binary";
  {
    workload = !workload;
    seed = !seed;
    seconds = !seconds;
    trace = !trace = 1;
    racedet = !racedet;
  }

let measure opts =
  match opts.workload with
  | "oneshot-perf" -> Wl_oneshot.measure opts
  | _ -> Wl_campaign.measure opts

let print_spans spans =
  say "spans (self time = duration minus the time its child spans cover):";
  say "  %-36s %7s %12s %12s" "span" "count" "total ms" "self ms";
  List.iter
    (fun r ->
      say "  %-36s %7d %12.3f %12.3f" r.Spans.r_name r.Spans.r_count r.Spans.r_total_ms
        r.Spans.r_self_ms)
    (Spans.by_name spans)

let traced opts =
  let tally = Tally.create () in
  let ladder_rec = Spans.create ~lane:0 in
  let layers = Ladder.run opts ladder_rec tally in
  let loop_rec = Spans.create ~lane:1 in
  let untraced, traced =
    match opts.workload with
    | "oneshot-perf" -> Wl_oneshot.overhead opts loop_rec tally
    | _ -> Wl_campaign.overhead opts loop_rec tally
  in
  print_summary "op_ms.untraced" ~unit:"ms" untraced;
  print_summary "op_ms.traced" ~unit:"ms" traced;
  let overhead = Stats.median traced /. Stats.median untraced in
  let spans = Spans.spans ladder_rec @ Spans.spans loop_rec in
  print_spans spans;
  let file =
    Filename.concat work_dir
      (Printf.sprintf "trace-%s-%d.json" opts.workload opts.seed)
  in
  Out_channel.with_open_bin file (fun oc ->
      output_string oc (Spans.to_trace_json spans));
  say "trace written to %s (%d spans)" file (List.length spans);
  (tally, layers @ [ metric "trace.overhead_ratio" "ratio" overhead ])

let () =
  match parse_args () with
  | exception (Failure m | Arg.Bad m) ->
      prerr_endline ("perfbench: " ^ m);
      exit 2
  | exception Arg.Help m ->
      print_string m;
      exit 0
  | opts ->
      (* A daemon that drops a connection must surface as an error, not
         kill this process before it stops the daemon. *)
      Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
      if not (Sys.file_exists work_dir) then Sys.mkdir work_dir 0o755;
      let tally, metrics = if opts.trace then traced opts else measure opts in
      say "metrics (%s, seed %d, %s):" opts.workload opts.seed
        (if opts.trace then "traced" else "untraced");
      List.iter print_metric metrics;
      say "  %-28s %.6g failed/attempted (%d/%d)" "fail_ratio" (Tally.fail_ratio tally)
        tally.Tally.failed tally.Tally.attempted;
      List.iter (fun p -> say "FAILED: %s" p) (Tally.problems tally);
      let finite = List.for_all (fun m -> Float.is_finite m.m_value) metrics in
      if not finite then say "FAILED: a metric is not a finite number";
      print_endline (result_line tally metrics);
      if not (Tally.correct tally && finite) then exit 1
