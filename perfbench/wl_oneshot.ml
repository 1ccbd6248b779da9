(* Workload oneshot-perf: a closed loop of one-shot Pipeline.run calls on
   the paper's CPU-bound Table 2 programs at perf size.  Base and Full
   runs are interleaved, which goes first alternates, and the program
   order rotates every round, so host drift hits every cell alike. *)

open Perfbench
open Common
module H = Drd_harness
module P = H.Pipeline

let programs = [ "mtrt"; "tsp"; "sor2" ]

let perf_source prog = (Option.get (H.Programs.find prog)).H.Programs.b_perf_source

type cell = { prog : string; base : P.compiled; full : P.compiled }

let compile_cells seed =
  List.map
    (fun prog ->
      let source = perf_source prog in
      {
        prog;
        base = P.compile { H.Config.base with H.Config.seed } ~source;
        full = P.compile { H.Config.full with H.Config.seed } ~source;
      })
    programs

(* A collector's races, rendered as the serve protocol does. *)
let race_lines c =
  List.map
    (fun x -> Drd_explore.Wire.json_to_string (Drd_serve.Protocol.race_json x))
    (Drd_core.Report.races c)

(* Everything a run's output must agree on with the reference
   interpreter: the rendered races, the decoded racy locations and
   objects, and the event and step counts. *)
let output_of (r : P.result) =
  let races = match r.P.report with None -> [] | Some c -> race_lines c in
  String.concat "\n"
    (races @ r.P.races @ r.P.racy_objects
    @ [ Printf.sprintf "events %d steps %d" r.P.events r.P.steps ])

type sample = {
  s_prog : string;
  s_full : bool;
  s_ms : float;
  s_kernel_ms : float;  (** Calibration kernel timed just before the run. *)
  s_events : int;
  s_steps : int;
  s_output : string;
}

let run_one ?rec_ ~op cell full =
  let compiled = if full then cell.full else cell.base in
  let name =
    Printf.sprintf "pipeline.run.%s.%s" (if full then "full" else "base") cell.prog
  in
  let kernel = Calib.sample () in
  let r, ms =
    Clock.time (fun () -> Spans.with_span rec_ ~op name (fun () -> P.run compiled))
  in
  {
    s_prog = cell.prog;
    s_full = full;
    s_ms = ms;
    s_kernel_ms = kernel;
    s_events = r.P.events;
    s_steps = r.P.steps;
    s_output = output_of r;
  }

(* One round: every program once under Base and once under Full. *)
let round ?rec_ cells r =
  let n = List.length cells in
  let go () =
    List.concat
      (List.init n (fun k ->
           let cell = List.nth cells ((k + r) mod n) in
           if (k + r) mod 2 = 0 then
             [ run_one ?rec_ ~op:r cell true; run_one ?rec_ ~op:r cell false ]
           else [ run_one ?rec_ ~op:r cell false; run_one ?rec_ ~op:r cell true ]))
  in
  Spans.with_span rec_ ~op:r "oneshot.round" go

let full_ms_of_round samples =
  List.fold_left (fun acc s -> if s.s_full then acc +. s.s_ms else acc) 0. samples

type state = { cells : cell list }

let setup opts =
  let cells, setup_s = repeat_setup (fun () -> compile_cells opts.seed) in
  ({ cells }, setup_s)

(* The timed loop; [traced i] says whether round [i] records spans. *)
let loop ?(traced = fun _ -> false) ?rec_ opts st =
  ignore (round st.cells 0);
  let rounds = ref [] in
  closed_loop ~seconds:opts.seconds (fun i ->
      let rec_ = if traced i then rec_ else None in
      rounds := (traced i, round ?rec_ st.cells i) :: !rounds);
  List.rev !rounds

(* Check every run against the reference interpreter's output for the
   same compiled program. *)
let check tally st samples =
  List.iter
    (fun cell ->
      let refs =
        List.map
          (fun full ->
            let c = if full then cell.full else cell.base in
            (full, output_of (P.run ~engine:`Ref c)))
          [ true; false ]
      in
      List.iter
        (fun s ->
          if s.s_prog = cell.prog then
            Tally.op tally
              ~ok:
                (same
                   ~what:
                     (Printf.sprintf "%s %s vs reference interpreter" s.s_prog
                        (if s.s_full then "Full" else "Base"))
                   (List.assoc s.s_full refs) s.s_output)
              (Printf.sprintf "%s %s output differs from the reference" s.s_prog
                 (if s.s_full then "Full" else "Base")))
        samples)
    st.cells

let cell_ms samples ~prog ~full =
  List.filter_map
    (fun s -> if s.s_prog = prog && s.s_full = full then Some s.s_ms else None)
    samples

let measure opts =
  reset_gc ();
  let st, setup_s = setup opts in
  let rounds = loop opts st in
  let peak = peak_mem_mb () in
  let samples = List.concat_map (fun (_, s) -> s) rounds in
  let tally = Tally.create () in
  check tally st samples;
  say "oneshot-perf: %d rounds, Table 2 programs at perf size, seed %d"
    (List.length rounds) opts.seed;
  let ratios =
    List.map
      (fun prog ->
        let f = cell_ms samples ~prog ~full:true
        and b = cell_ms samples ~prog ~full:false in
        print_summary ("full_ms." ^ prog) ~unit:"ms" f;
        print_summary ("base_ms." ^ prog) ~unit:"ms" b;
        let steps full =
          (List.find (fun s -> s.s_prog = prog && s.s_full = full) samples).s_steps
        in
        say "  %-28s full %d, base %d" ("steps." ^ prog) (steps true) (steps false);
        Stats.median f /. Stats.median b)
      programs
  in
  let rounds_ms = List.map (fun (_, s) -> full_ms_of_round s) rounds in
  let factor = Calib.factor (List.map (fun s -> s.s_kernel_ms) samples) in
  (* per round: the Full runs and their events over the Full time *)
  let per_round f =
    List.map2
      (fun (_, s) ms -> f (List.filter (fun s -> s.s_full) s) /. (ms /. 1000.))
      rounds rounds_ms
  in
  let runs_per_s = per_round (fun l -> float_of_int (List.length l)) in
  let events_per_s =
    per_round (fun l -> float_of_int (List.fold_left (fun a s -> a + s.s_events) 0 l))
  in
  print_summary "full_round_ms" ~unit:"ms" rounds_ms;
  print_summary "runs_per_s" ~unit:"1/s" runs_per_s;
  print_summary "events_per_s" ~unit:"1/s" events_per_s;
  say "  %-28s %.4f x" "host_factor" factor;
  let overhead = Stats.geomean ratios in
  say "  %-28s %.4f x (geomean of median Full / median Base)" "overhead_x" overhead;
  ( tally,
    [
      metric "setup_s" "s" setup_s;
      metric "peak_mem_mb" "MiB" peak;
      metric "op_p50_ms" "ms" (Stats.median rounds_ms *. factor);
      metric "runs_per_s" "1/s" (Stats.median runs_per_s /. factor);
      metric "events_per_s" "1/s" (Stats.median events_per_s /. factor);
    ] )

(* Traced run: alternate untraced and traced rounds; returns the round
   times of each kind. *)
let overhead opts rec_ tally =
  reset_gc ();
  let st, _ = setup opts in
  let rounds = loop ~traced:(fun i -> i mod 2 = 1) ~rec_ opts st in
  check tally st (List.concat_map (fun (_, s) -> s) rounds);
  List.partition_map
    (fun (traced, s) ->
      let ms = List.fold_left (fun a s -> a +. s.s_ms) 0. s in
      if traced then Right ms else Left ms)
    rounds
