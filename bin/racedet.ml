(* racedet — command-line driver for the datarace detection pipeline.

   Subcommands:
     run      compile + execute a MiniJava program (file or built-in
              benchmark) under a detector configuration and print the
              race reports;
     explore  run a schedule-exploration campaign (seed sweep, quantum
              jitter or PCT priority scheduling) — optionally one shard
              of a distributed campaign (--shard I/N --emit-obs FILE);
     merge    re-fold shard observation files into the single-process
              campaign report;
     serve    long-lived streaming detection daemon (stdin or a Unix
              socket), bounded memory via quiescent-location eviction;
     analyze  run only the static datarace analysis and report its
              statistics;
     ir       dump the (optionally instrumented/optimized) IR;
     list     list built-in benchmarks and configurations.

   Exit codes: 0 success; 2 malformed input data (event logs,
   observation files, protocol streams); 124 command-line misuse;
   125 internal error. *)

module H = Drd_harness
module E = Drd_explore
module W = Drd_explore.Wire
module Ir = Drd_ir.Ir
module A = Drd_arena.Arena
open Cmdliner

(* Malformed input *data* (as opposed to command-line misuse, which
   cmdliner exits 124 for, and internal errors, which it exits 125
   for): print the diagnostic to stderr and exit 2, so scripts can
   tell a truncated log from a crashed tool. *)
let data_error_exit = 2

let data_error fmt =
  Printf.ksprintf
    (fun m ->
      Printf.eprintf "racedet: %s\n%!" m;
      exit data_error_exit)
    fmt

(* A program that fails to compile — lex, parse or type error — is
   command-line misuse (the user pointed the tool at bad source), not
   malformed input data and not an internal error: route the frontend
   diagnostic through cmdliner's error path, exit 124.  Campaigns
   compile once up-front (Pipeline.compile in Explore.run_campaign), so
   a bad program is fatal before any worker domain starts, never a
   per-run failure row. *)
let or_compile_error f =
  try f () with H.Pipeline.Compile_error msg -> `Error (false, msg)

(* ---- parsing at the boundary: every flag below is a typed value by
   the time a subcommand runs, and every bad value is a cmdliner
   error (exit 124) with a diagnostic on stderr ---- *)

(* An int flag with a lower bound: out-of-range values are misuse, not
   an uncaught [Invalid_argument] deep in the VM or the arena. *)
let int_at_least lo =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok n when n < lo ->
        Error (`Msg (Printf.sprintf "%d is below the minimum %d" n lo))
    | r -> r
  in
  Arg.conv (parse, Fmt.int)

(* A built-in program by name: the benchmarks plus the paper's two
   Figure 2 examples. *)
let benchmark_conv =
  let parse = function
    | "figure2" as b -> Ok (b, H.Programs.figure2 ())
    | "figure2-samelock" as b -> Ok (b, H.Programs.figure2 ~same_pq:true ())
    | b -> (
        match H.Programs.find b with
        | Some bench -> Ok (b, bench.H.Programs.b_source)
        | None ->
            Error (Printf.sprintf "unknown benchmark %s (try: racedet list)" b))
  in
  Arg.conv' (parse, fun ppf (name, _) -> Fmt.string ppf name)

(* The program a subcommand runs: its source text, and what
   reproduction command lines name — the file, or the benchmark flag
   that selects the same program. *)
type source = { text : string; target : string }

let source_term =
  let file =
    Arg.(
      value
      & pos 0 (some non_dir_file) None
      & info [] ~docv:"FILE" ~doc:"MiniJava source file.")
  in
  let benchmark =
    Arg.(
      value
      & opt (some benchmark_conv) None
      & info [ "b"; "benchmark" ] ~docv:"NAME"
          ~doc:"Use a built-in benchmark instead of a file.")
  in
  let load file benchmark =
    match (file, benchmark) with
    | Some f, None -> (
        match In_channel.with_open_bin f In_channel.input_all with
        | text -> `Ok { text; target = f }
        | exception Sys_error e -> `Error (false, e))
    | None, Some (name, text) -> `Ok { text; target = "-b " ^ name }
    | Some _, Some _ ->
        `Error (false, "give either FILE or --benchmark, not both")
    | None, None -> `Error (false, "give a FILE or --benchmark NAME")
  in
  Term.(ret (const load $ file $ benchmark))

let config_conv =
  let parse name =
    match H.Config.by_name name with
    | Some c -> Ok c
    | None -> Error (Printf.sprintf "unknown configuration %s" name)
  in
  Arg.conv' (parse, fun ppf (c : H.Config.t) -> Fmt.string ppf c.H.Config.name)

let config_arg =
  Arg.(
    value & opt config_conv H.Config.full
    & info [ "c"; "config" ] ~docv:"CONFIG"
        ~doc:
          "Detector configuration (see $(b,racedet list)).  Selecting a \
           baseline technique by configuration name ($(b,-c Eraser), \
           $(b,-c ObjRace), $(b,-c HappensBefore)) is deprecated: use \
           $(b,--detector) $(b,eraser)/$(b,objrace)/$(b,vclock).")

(* The name-keyed detector registry behind `--detector`: unknown names
   are command-line misuse, so cmdliner's conv error path (exit 124)
   is exactly right. *)
let detector_conv : H.Registry.entry Arg.conv =
  let parse s =
    match H.Registry.find s with
    | Some e -> Ok e
    | None ->
        Error
          (Printf.sprintf "unknown detector %s (expected one of: %s)" s
             (String.concat ", " (H.Registry.names ())))
  in
  let print ppf (e : H.Registry.entry) = Fmt.string ppf e.H.Registry.name in
  Arg.conv' (parse, print)

let detector_doc =
  "Detection technique (see $(b,racedet list)): $(b,paper), $(b,eraser), \
   $(b,objrace) or $(b,vclock).  Supersedes selecting baselines through \
   $(b,-c): $(b,-c Eraser) is $(b,--detector eraser), $(b,-c ObjRace) is \
   $(b,--detector objrace), $(b,-c HappensBefore) is $(b,--detector \
   vclock)."

let detector_arg =
  Arg.(
    value
    & opt (some detector_conv) None
    & info [ "detector" ] ~docv:"NAME" ~doc:detector_doc)

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Scheduler seed.")

let quantum_arg =
  Arg.(
    value
    & opt (some (int_at_least 1)) None
    & info [ "quantum" ] ~docv:"N"
        ~doc:"Override the scheduler slice bound (instructions).")

let pct_arg =
  Arg.(
    value
    & opt (some (int_at_least 0)) None
    & info [ "pct" ] ~docv:"D"
        ~doc:
          "Schedule with PCT-style random thread priorities and $(docv) \
           priority-change points instead of the random walk.")

let pct_horizon_arg =
  Arg.(
    value & opt int 20_000
    & info [ "pct-horizon" ] ~docv:"STEPS"
        ~doc:"Step horizon the PCT priority-change points are drawn from.")

(* The configuration a subcommand runs under: [-c] plus whichever of
   the scheduling and detector flags the subcommand takes (the others
   stay at their defaults). *)
let config_term ?(detector = Term.const None) ?(seed = Term.const 42)
    ?(quantum = Term.const None) ?(pct = Term.const None)
    ?(pct_horizon = Term.const 20_000) () =
  let make (c : H.Config.t) detector seed quantum pct pct_horizon =
    let c =
      {
        c with
        H.Config.seed;
        quantum = Option.value quantum ~default:c.H.Config.quantum;
        policy =
          (match pct with
          | Some depth -> Drd_vm.Interp.Pct { depth; horizon = pct_horizon }
          | None -> c.H.Config.policy);
      }
    in
    match detector with None -> c | Some e -> H.Registry.apply e c
  in
  Term.(const make $ config_arg $ detector $ seed $ quantum $ pct $ pct_horizon)

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print detector statistics.")

let json_arg =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit machine-readable JSON.")

let engine_arg =
  Arg.(
    value
    & opt
        (enum
           [
             ("specialized", (`Spec : H.Pipeline.engine));
             ("linked", `Linked);
             ("ref", `Ref);
           ])
        `Spec
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:
          "VM engine: $(b,specialized) executes the flat linked image with \
           the link-time specialized trace fast paths enabled (the \
           default); $(b,linked) executes the same image with the fast \
           paths disabled; $(b,ref) executes the frozen pre-link block \
           interpreter.  All three produce bit-identical schedules and \
           reports; $(b,linked) and $(b,ref) exist for cross-checking and \
           benchmarking.")

let site_stats_arg =
  Arg.(
    value & flag
    & info [ "site-stats" ]
        ~doc:
          "Count events per trace site and print a table of site, \
           specialization class (fixed-lockset, owned, read-only or \
           generic), events seen, fast-path drops and generic fallbacks, \
           plus the fraction of all events that arrived through \
           specialized sites.")

let no_timing_arg =
  Arg.(
    value & flag
    & info [ "no-timing" ]
        ~doc:
          "Omit wall-clock, throughput and worker-count output so reports \
           are comparable across machines and with $(b,racedet merge).")

let strategy_conv =
  Arg.conv'
    (E.Strategy.of_string, fun ppf s -> Fmt.string ppf (E.Strategy.name s))

let strategy_arg =
  Arg.(
    value
    & opt strategy_conv (E.Strategy.Pct 3)
    & info [ "s"; "strategy" ] ~docv:"NAME"
        ~doc:
          "Exploration strategy: $(b,sweep) (sequential seeds), \
           $(b,jitter) (random seed + slice bound per run), or $(b,pct) \
           (random thread priorities with change points).")

let depth_arg =
  Arg.(
    value & opt (int_at_least 0) 3
    & info [ "d"; "depth" ] ~docv:"D"
        ~doc:"Priority-change points per run (pct strategy).")

let workers_arg =
  Arg.(
    value & opt (int_at_least 1) 1
    & info [ "w"; "workers" ] ~docv:"N"
        ~doc:"Parallel worker domains to fan runs out over.")

let batch_arg =
  Arg.(
    value
    & opt (some (int_at_least 1)) None
    & info [ "batch" ] ~docv:"N"
        ~doc:
          "Runs per work-queue claim (default: scaled to the budget and \
           worker count).  The report is byte-identical for every batch \
           size; the knob only trades hand-off overhead against \
           adaptive-budget overshoot.")

let runs_arg =
  Arg.(
    value & opt (int_at_least 0) 64
    & info [ "n"; "runs" ] ~docv:"N" ~doc:"Run budget for the campaign.")

(* ---- run: JSON rendering on the shared Wire.json value ---- *)

let run_json compiled (r : H.Pipeline.result) ~deadlocks ~extra =
  let names = H.Pipeline.names_of compiled r in
  (* The daemon's renderer with names, plus the Section 2.6 peers. *)
  let race_json (race : Drd_core.Report.race) =
    let str f x = W.String (f names x) in
    let peers =
      H.Pipeline.static_peers_of_site compiled
        race.Drd_core.Report.current.Drd_core.Event.site
    in
    Drd_serve.Protocol.race_json ~loc:(str Drd_core.Names.loc_name)
      ~site:(str Drd_core.Names.site_name) ~lock:(str Drd_core.Names.lock_name)
      ~extra:[ ("static_peers", W.List (List.map (fun s -> W.String s) peers)) ]
      race
  in
  let races =
    match r.H.Pipeline.report with
    | Some coll -> List.map race_json (Drd_core.Report.races coll)
    | None ->
        List.map
          (fun l -> W.Obj [ ("location", W.String l) ])
          r.H.Pipeline.races
  in
  let deadlocks =
    List.map
      (fun (d : Drd_core.Lock_order.report) ->
        W.Obj
          [
            ( "locks",
              W.List
                (List.map (fun l -> W.Int l) d.Drd_core.Lock_order.dl_locks) );
            ( "threads",
              W.List
                (List.map (fun t -> W.Int t) d.Drd_core.Lock_order.dl_threads)
            );
          ])
      deadlocks
  in
  print_endline
    (W.json_to_string
       (W.Obj
          ([
             ("races", W.List races);
             ("potential_deadlocks", W.List deadlocks);
             ("events", W.Int r.H.Pipeline.events);
             ("steps", W.Int r.H.Pipeline.steps);
             ("threads", W.Int r.H.Pipeline.threads);
             ("wall_time_s", W.Float r.H.Pipeline.wall_time);
           ]
          @ extra)))

(* ---- run ---- *)

let spec_class_name = function
  | Some Drd_ir.Link.Sfixed -> "fixed-lockset"
  | Some Drd_ir.Link.Sowned -> "owned"
  | Some Drd_ir.Link.Sro -> "read-only"
  | None -> "generic"

(* The --site-stats rows: one per trace site that saw events or was
   specialized — site, class, name, the events routed through it and
   how many took a fast-path drop (the rest fell back to the full
   detector pipeline). *)
let site_rows compiled (ev, fast) =
  let image = compiled.H.Pipeline.image in
  let sites = compiled.H.Pipeline.prog.Drd_ir.Ir.p_sites in
  List.init (Array.length ev) Fun.id
  |> List.filter_map (fun s ->
         let cls = Drd_ir.Link.spec_class_of_site image s in
         if ev.(s) > 0 || cls <> None then
           Some
             ( s,
               spec_class_name cls,
               Drd_ir.Site_table.name sites s,
               ev.(s),
               fast.(s) )
         else None)

(* The table, plus the share of all events that arrived through
   specialized sites. *)
let print_site_stats compiled (r : H.Pipeline.result) =
  match r.H.Pipeline.site_stats with
  | None -> ()
  | Some stats ->
      Fmt.pr "@.--- per-site event statistics ---@.";
      Fmt.pr "%-5s %-14s %10s %10s %10s  %s@." "site" "class" "events" "fast"
        "generic" "name";
      List.iter
        (fun (s, cls, name, ev, fast) ->
          Fmt.pr "%-5d %-14s %10d %10d %10d  %s@." s cls ev fast (ev - fast)
            name)
        (site_rows compiled stats);
      if r.H.Pipeline.events > 0 then
        Fmt.pr "events through specialized sites: %d / %d (%.1f%%)@."
          r.H.Pipeline.spec_events r.H.Pipeline.events
          (100.
          *. float_of_int r.H.Pipeline.spec_events
          /. float_of_int r.H.Pipeline.events)

let site_stats_json compiled (r : H.Pipeline.result) =
  match r.H.Pipeline.site_stats with
  | None -> []
  | Some stats ->
      let row (s, cls, name, ev, fast) =
        W.Obj
          [
            ("site", W.Int s);
            ("name", W.String name);
            ("class", W.String cls);
            ("events", W.Int ev);
            ("fast", W.Int fast);
            ("generic", W.Int (ev - fast));
          ]
      in
      [
        ("spec_events", W.Int r.H.Pipeline.spec_events);
        ("site_stats", W.List (List.map row (site_rows compiled stats)));
      ]

(* A baseline detector's report: racy locations only. *)
let print_located_races detector = function
  | [] -> Fmt.pr "@.No dataraces detected (%s).@." detector
  | locs ->
      Fmt.pr "@.Dataraces reported by %s on:@." detector;
      List.iter (Fmt.pr "  %s@.") locs

(* Compile and run once.  Under the paper detector the Section 10 side
   analyses ride along as taps: potential deadlocks from the lock-order
   graph, and the immutability summary. *)
let run_impl src config engine site_stats verbose json =
  or_compile_error @@ fun () ->
  let compiled = H.Pipeline.compile config ~source:src.text in
  let locks = Drd_core.Lock_order.create () in
  let immut = Drd_core.Immutability.create () in
  let ours = config.H.Config.detector = H.Config.Ours in
  let tap =
    if ours then Some Drd_vm.Sink.(tee (lock_order locks) (immutability immut))
    else None
  in
  let r = H.Pipeline.run ?tap ~engine ~site_stats compiled in
  let deadlocks =
    if ours then Drd_core.Lock_order.potential_deadlocks locks else []
  in
  if json then
    run_json compiled r ~deadlocks ~extra:(site_stats_json compiled r)
  else begin
    List.iter
      (fun (tag, v) ->
        match v with
        | Some v -> Fmt.pr "[out] %s = %a@." tag Drd_vm.Value.pp v
        | None -> Fmt.pr "[out] %s@." tag)
      r.H.Pipeline.prints;
    (match r.H.Pipeline.report with
    | Some coll when Drd_core.Report.count coll > 0 ->
        let names = H.Pipeline.names_of compiled r in
        List.iter
          (fun (race : Drd_core.Report.race) ->
            Fmt.pr "@.%a@." (Drd_core.Report.pp_race names) race;
            match
              H.Pipeline.static_peers_of_site compiled
                race.Drd_core.Report.current.Drd_core.Event.site
            with
            | [] -> ()
            | peers ->
                Fmt.pr "  statically possible racing statements:@.";
                List.iter (Fmt.pr "    %s@.") peers)
          (Drd_core.Report.races coll)
    | Some _ -> Fmt.pr "@.No dataraces detected.@."
    | None -> print_located_races config.H.Config.name r.H.Pipeline.races);
    (match deadlocks with
    | [] -> ()
    | dls ->
        Fmt.pr "@.Potential deadlocks (lock-order cycles):@.";
        List.iter
          (fun (d : Drd_core.Lock_order.report) ->
            Fmt.pr "  locks {%a} acquired in conflicting order by threads {%a}@."
              Fmt.(list ~sep:(any ", ") int)
              d.Drd_core.Lock_order.dl_locks
              Fmt.(list ~sep:(any ", ") int)
              d.Drd_core.Lock_order.dl_threads)
          dls);
    if verbose then begin
      Fmt.pr "@.--- pipeline statistics ---@.";
      Fmt.pr "compile time:      %.3fs@." compiled.H.Pipeline.compile_time;
      (match compiled.H.Pipeline.static_stats with
      | Some s -> Fmt.pr "%a@." Drd_static.Race_set.pp_stats s
      | None -> ());
      Fmt.pr "traces inserted:   %d@." compiled.H.Pipeline.traces_inserted;
      Fmt.pr "traces eliminated: %d@." compiled.H.Pipeline.traces_eliminated;
      Fmt.pr "threads:           %d@." r.H.Pipeline.threads;
      Fmt.pr "steps:             %d@." r.H.Pipeline.steps;
      Fmt.pr "events:            %d@." r.H.Pipeline.events;
      Fmt.pr "wall time:         %.3fs@." r.H.Pipeline.wall_time;
      if ours then
        Fmt.pr "immutability:      %a@." Drd_core.Immutability.pp_summary
          (Drd_core.Immutability.summary immut);
      match r.H.Pipeline.detector_stats with
      | Some s -> Fmt.pr "%a@." Drd_core.Detector.pp_stats s
      | None -> ()
    end;
    print_site_stats compiled r
  end;
  `Ok ()

let run_cmd =
  let doc = "run a program under a datarace detector" in
  let config =
    config_term ~detector:detector_arg ~seed:seed_arg ~quantum:quantum_arg
      ~pct:pct_arg ~pct_horizon:pct_horizon_arg ()
  in
  Cmd.v
    (Cmd.info "run" ~doc)
    Term.(
      ret
        (const run_impl $ source_term $ config $ engine_arg $ site_stats_arg
       $ verbose_arg $ json_arg))

(* ---- analyze ---- *)

(* The static analysis runs on the lowered, unpeeled program: the
   NoPeeling configuration's compile computes exactly these statistics. *)
let analyze_impl src =
  or_compile_error @@ fun () ->
  let compiled = H.Pipeline.compile H.Config.no_peeling ~source:src.text in
  Option.iter
    (Fmt.pr "%a@." Drd_static.Race_set.pp_stats)
    compiled.H.Pipeline.static_stats;
  `Ok ()

let analyze_cmd =
  let doc = "run the static datarace analysis only" in
  Cmd.v (Cmd.info "analyze" ~doc) Term.(ret (const analyze_impl $ source_term))

(* ---- ir ---- *)

let ir_impl src config meth =
  or_compile_error @@ fun () ->
  let compiled = H.Pipeline.compile config ~source:src.text in
  let prog = compiled.H.Pipeline.prog in
  (match meth with
  | Some key -> (
      match Ir.find_mir prog key with
      | Some m -> Fmt.pr "%a@." Drd_ir.Pretty.pp_mir m
      | None -> Fmt.pr "no method %s@." key)
  | None -> Fmt.pr "%a@." Drd_ir.Pretty.pp_program prog);
  `Ok ()

let ir_cmd =
  let doc = "dump the (instrumented) intermediate representation" in
  let meth =
    Arg.(
      value
      & opt (some string) None
      & info [ "m"; "method" ] ~docv:"Class.method" ~doc:"Dump one method only.")
  in
  Cmd.v
    (Cmd.info "ir" ~doc)
    Term.(ret (const ir_impl $ source_term $ config_term () $ meth))

(* ---- record / detect: post-mortem mode (paper Section 1) ---- *)

let record_impl src out =
  or_compile_error @@ fun () ->
  let compiled = H.Pipeline.compile H.Config.full ~source:src.text in
  let log, result = H.Pipeline.record_log compiled in
  let oc = open_out out in
  Drd_core.Event_log.to_channel oc log;
  close_out oc;
  Fmt.pr "recorded %d events (%d threads, %d steps) to %s@."
    (Drd_core.Event_log.length log)
    result.H.Pipeline.threads result.H.Pipeline.steps out;
  `Ok ()

let record_cmd =
  let doc = "execute a program recording its event log (post-mortem phase 1)" in
  let out =
    Arg.(
      value & opt string "events.log"
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Log file to write.")
  in
  Cmd.v
    (Cmd.info "record" ~doc)
    Term.(ret (const record_impl $ source_term $ out))

let read_log log_file =
  match In_channel.with_open_text log_file Drd_core.Event_log.of_channel with
  | exception Sys_error e -> data_error "%s" e
  | exception Failure e -> data_error "%s" e
  | log -> log

(* `--detector` on a baseline replays the log through the registry's
   module — the generic sibling of the paper detector's post-mortem
   phase below.  Site/location names are not part of the log, so
   locations print by id, as the `-c` baseline path always has. *)
let detect_replay_module (e : H.Registry.entry) log json =
  let racy, events = H.Pipeline.replay_module e.H.Registry.impl log in
  if json then
    print_endline
      (W.json_to_string
         (W.Obj
            [
              ("detector", W.String e.H.Registry.name);
              ("racy_locations", W.List (List.map (fun l -> W.Int l) racy));
              ("events", W.Int events);
              ("entries", W.Int (Drd_core.Event_log.length log));
            ]))
  else begin
    Fmt.pr "replayed %d log entries (%d access events)@."
      (Drd_core.Event_log.length log)
      events;
    print_located_races e.H.Registry.name
      (List.map (Printf.sprintf "location %d") racy)
  end;
  `Ok ()

let detect_impl log_file detector config pairs benchmark json =
  let log = read_log log_file in
  match detector with
  | Some e when e.H.Registry.detector <> H.Config.Ours ->
      detect_replay_module e log json
  | _ ->
      let coll, stats = H.Pipeline.detect_post_mortem config log in
      if json then
        (* The same renderer the serve daemon closes a session with, so a
           streamed session's report frame can be byte-compared against
           this one-shot replay. *)
        print_endline
          (Drd_serve.Protocol.events_report_body
             ~races:(Drd_core.Report.races coll)
             ~stats ~evictions:0)
      else begin
        Fmt.pr "replayed %d log entries@." (Drd_core.Event_log.length log);
        Fmt.pr "%a@." Drd_core.Detector.pp_stats stats;
        let racy = Drd_core.Report.racy_locs coll in
        (* Site names are available when the recorded program is known
           (record always compiles with the Full configuration). *)
        let site_name =
          match benchmark with
          | None -> fun s -> Printf.sprintf "site %d" s
          | Some (_, source) ->
              let compiled = H.Pipeline.compile H.Config.full ~source in
              fun s ->
                if s < 0 then "<unknown>"
                else
                  Drd_ir.Site_table.name
                    compiled.H.Pipeline.prog.Drd_ir.Ir.p_sites s
        in
        if racy = [] then Fmt.pr "@.No dataraces detected.@."
        else begin
          Fmt.pr "@.Dataraces on %d locations:@." (List.length racy);
          List.iter (Fmt.pr "  location %d@.") racy;
          if pairs then begin
            Fmt.pr
              "@.FullRace reconstruction (all racing site pairs, Section 2.5):@.";
            List.iter
              (fun (loc, ps) ->
                Fmt.pr "  location %d:@." loc;
                List.iter
                  (fun (p : Drd_core.Full_race.pair) ->
                    Fmt.pr "    %5d× %a at %s  vs  %a at %s@."
                      p.Drd_core.Full_race.fr_count Drd_core.Event.pp_kind
                      p.Drd_core.Full_race.fr_kind_a
                      (site_name p.Drd_core.Full_race.fr_site_a)
                      Drd_core.Event.pp_kind p.Drd_core.Full_race.fr_kind_b
                      (site_name p.Drd_core.Full_race.fr_site_b))
                  ps)
              (Drd_core.Full_race.reconstruct log ~locs:racy)
          end
        end
      end;
      `Ok ()

let detect_cmd =
  let doc = "run the detection phase offline over a recorded log (phase 2)" in
  let log_file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"LOG" ~doc:"Event log produced by $(b,racedet record).")
  in
  let pairs =
    Arg.(
      value & flag
      & info [ "pairs" ]
          ~doc:"Reconstruct the full set of racing site pairs (FullRace) \
                for each detected location.")
  in
  let bench_for_names =
    Arg.(
      value
      & opt (some benchmark_conv) None
      & info [ "b"; "benchmark" ] ~docv:"NAME"
          ~doc:"The recorded benchmark, to resolve site names.")
  in
  Cmd.v
    (Cmd.info "detect" ~doc)
    Term.(
      ret
        (const detect_impl $ log_file $ detector_arg
       $ config_term ~detector:detector_arg ()
       $ pairs $ bench_for_names $ json_arg))

(* ---- explore: the parallel schedule-exploration campaign ---- *)

(* [--shard I/N]: run indices congruent to I mod N. *)
let shard_conv =
  let parse s =
    let bad () = Error (Printf.sprintf "%s is not I/N with 0 <= I < N" s) in
    match String.index_opt s '/' with
    | None -> bad ()
    | Some k -> (
        let i = String.sub s 0 k in
        let n = String.sub s (k + 1) (String.length s - k - 1) in
        match (int_of_string_opt i, int_of_string_opt n) with
        | Some i, Some n when n >= 1 && i >= 0 && i < n -> Ok (i, n)
        | _ -> bad ())
  in
  Arg.conv' (parse, fun ppf (i, n) -> Fmt.pf ppf "%d/%d" i n)

let explore_impl src config strategy depth workers batch runs max_seconds
    plateau pct_horizon equiv shard emit_obs no_timing json =
  or_compile_error @@ fun () ->
  let strategy =
    match strategy with E.Strategy.Pct _ -> E.Strategy.Pct depth | s -> s
  in
  let sp =
    E.Explore.spec ~strategy ~workers
      ~budget:(E.Explore.budget ?seconds:max_seconds ?plateau runs)
      ~pct_horizon ~equiv config
  in
  let r = E.Explore.run_campaign ?shard ?batch sp ~source:src.text in
  (match emit_obs with
  | Some path ->
      let rows = E.Explore.rows_of_report r in
      let oc = open_out path in
      E.Explore.write_obs_channel oc ~target:src.target sp rows;
      close_out oc;
      (* Diagnostics never on stdout under --json: machine consumers
         read it. *)
      (if json then Fmt.epr else Fmt.pr)
        "wrote %d observation rows%s to %s@." (List.length rows)
        (match shard with
        | Some (i, n) -> Printf.sprintf " (shard %d/%d)" i n
        | None -> "")
        path
  | None ->
      if json then
        print_endline (E.Explore.report_json ~timing:(not no_timing) r)
      else
        print_string
          (E.Explore.report_text ~timing:(not no_timing) ~target:src.target r));
  `Ok ()

let explore_cmd =
  let doc =
    "explore many schedules in parallel and dedupe the race reports"
  in
  let max_seconds =
    Arg.(
      value
      & opt (some float) None
      & info [ "max-seconds" ] ~docv:"S"
          ~doc:
            "Wall-clock budget; stops claiming new runs once exceeded \
             (makes the campaign non-deterministic).")
  in
  let plateau =
    Arg.(
      value
      & opt (some int) None
      & info [ "plateau" ] ~docv:"K"
          ~doc:
            "Adaptive budget: stop after $(docv) consecutive runs that \
             discover no new distinct race (deterministic, unlike \
             $(b,--max-seconds)).  With $(b,--shard) the window is a \
             campaign-wide property the shard cannot evaluate alone, so \
             each shard runs its full slice and $(b,racedet merge) \
             applies the window.")
  in
  let shard =
    Arg.(
      value
      & opt (some shard_conv) None
      & info [ "shard" ] ~docv:"I/N"
          ~doc:
            "Run only shard $(i,I) of $(i,N) — the run indices congruent \
             to I mod N.  Combine with $(b,--emit-obs) and $(b,racedet \
             merge) for distributed campaigns.  A $(b,--plateau) window \
             is deferred to merge time (the shard emits its full slice).")
  in
  let emit_obs =
    Arg.(
      value
      & opt (some string) None
      & info [ "emit-obs" ] ~docv:"FILE"
          ~doc:
            "Instead of a report, write the raw run observations \
             (schema-versioned JSON lines) to $(docv) for $(b,racedet \
             merge).")
  in
  let equiv =
    let equiv_conv =
      Arg.conv'
        ( E.Explore.equiv_of_string,
          fun ppf e -> Fmt.string ppf (E.Explore.equiv_name e) )
    in
    Arg.(
      value & opt equiv_conv E.Explore.Raw
      & info [ "equiv" ] ~docv:"MODE"
          ~doc:
            "Schedule-equivalence mode: $(b,raw) fingerprints the exact \
             event order; $(b,hb) fingerprints the happens-before \
             structure and skips detector replay for schedules \
             equivalent to one already seen (the run still counts, and \
             the deduped race report is identical to $(b,raw)'s).")
  in
  Cmd.v
    (Cmd.info "explore" ~doc)
    Term.(
      ret
        (const explore_impl $ source_term
       $ config_term ~seed:seed_arg ~quantum:quantum_arg ()
       $ strategy_arg $ depth_arg $ workers_arg $ batch_arg $ runs_arg
       $ max_seconds $ plateau $ pct_horizon_arg $ equiv $ shard $ emit_obs
       $ no_timing_arg $ json_arg))

(* ---- merge: re-fold shard observation files ---- *)

let merge_impl files json =
  (* Stream each file row by row (fold_obs_channel): one line resident at
     a time, so an observation file larger than memory still merges.
     Only the decoded rows accumulate. *)
  let read path =
    match
      In_channel.with_open_text path (fun ic ->
          E.Explore.fold_obs_channel ic ~init:[] ~row:(fun acc r -> r :: acc))
    with
    | exception Sys_error e -> data_error "%s" e
    | Ok (spec, target, rows) -> ((path, spec, List.rev rows), target)
    | Error m -> data_error "%s: %s" path m
  in
  (* [files] is non-empty; reproduction lines name the first file's
     target. *)
  let inputs, targets = List.split (List.map read files) in
  match E.Explore.merge inputs with
  | Error e -> data_error "%s" e
  | Ok (r, missing) ->
      if missing <> [] then
        Printf.eprintf
          "warning: %s; assuming the campaign's wall-clock/plateau budget \
           stopped those runs\n\
           %!"
          (E.Explore.describe_missing r.E.Explore.r_spec missing);
      if json then print_endline (E.Explore.report_json ~timing:false r)
      else
        print_string
          (E.Explore.report_text ~timing:false ~target:(List.hd targets) r);
      `Ok ()

let merge_cmd =
  let doc = "merge shard observation files into one campaign report" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Validates that every input records the same campaign \
         (configuration, strategy, budget — worker fan-out may differ), \
         that no run index appears twice (overlapping shards), and — \
         for purely runs-based budgets — that every run index is \
         present (an incomplete shard set is an error; under a \
         wall-clock or plateau budget gaps only warn).  It then \
         re-folds the observations in run-index order.  The report is \
         byte-identical to running the whole campaign in one process \
         with $(b,--no-timing).";
      `P
        "Produce inputs with $(b,racedet explore --shard I/N --emit-obs \
         FILE).";
    ]
  in
  let files =
    Arg.(
      non_empty & pos_all file []
      & info [] ~docv:"OBS"
          ~doc:"Observation files from $(b,racedet explore --emit-obs).")
  in
  Cmd.v
    (Cmd.info "merge" ~doc ~man)
    Term.(ret (const merge_impl $ files $ json_arg))

(* ---- serve: the long-lived streaming detection daemon ---- *)

let serve_impl config socket stats_every eviction =
  let conf =
    {
      Drd_serve.Server.sv_config = config;
      sv_eviction = eviction;
      sv_stats_every = stats_every;
    }
  in
  match socket with
  | Some path -> (
      match Drd_serve.Server.serve_socket conf ~path () with
      | Ok () -> `Ok ()
      | Error e -> `Error (false, e))
  | None -> (
      match Drd_serve.Server.serve_channels conf stdin stdout with
      | Ok () -> `Ok ()
      | Error e -> data_error "%s" e)

let serve_cmd =
  let doc = "long-lived streaming detection daemon (service mode)" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Accepts newline-delimited frames: event-log lines (the \
         $(b,racedet record) text format) and observation-wire lines are \
         payload; JSON lines tagged $(b,hello)/$(b,stats)/$(b,close)/\
         $(b,shutdown) are control.  Each $(b,hello) opens a session \
         ($(b,events): incremental detection, racy locations reported the \
         moment they are found; $(b,obs): a streaming $(b,racedet merge)); \
         $(b,close) — or end of stream — emits the session's final report \
         frame.  A payload line before any $(b,hello) implicitly opens a \
         default events session, so $(b,cat events.log | racedet serve) \
         works bare.";
      `P
        "Without $(b,--socket) the daemon serves one connection on \
         stdin/stdout.  With it, a Unix-domain socket accepts any number \
         of concurrent client connections.";
      `P
        "Memory is bounded with $(b,--evict-high): when more locations \
         than that are tracked, the least-recently-accessed ones are \
         retired down to $(b,--evict-low) (default half of high).  \
         Eviction never changes the report for a location that is never \
         evicted; a retired location that is accessed again re-enters as \
         brand new.  Periodic machine-readable stats lines go to stderr, \
         never into the protocol stream.";
    ]
  in
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Listen on a Unix-domain socket instead of stdin/stdout.")
  in
  let stats_every =
    Arg.(
      value & opt float 10.
      & info [ "stats-every" ] ~docv:"S"
          ~doc:"Seconds between stderr stats lines (0 disables them).")
  in
  let evict_high =
    Arg.(
      value
      & opt (some int) None
      & info [ "evict-high" ] ~docv:"N"
          ~doc:
            "Evict quiescent locations once more than $(docv) are tracked \
             (default: never evict; memory grows with distinct locations).")
  in
  let evict_low =
    Arg.(
      value
      & opt (some int) None
      & info [ "evict-low" ] ~docv:"N"
          ~doc:
            "Keep the $(docv) most recently accessed locations when \
             evicting (default: half of $(b,--evict-high)).")
  in
  let eviction =
    let make high low =
      match (high, low) with
      | None, None -> `Ok None
      | None, Some _ ->
          `Error (false, "--evict-low is meaningless without --evict-high")
      | Some high, low -> (
          match Drd_core.Detector.eviction ?low ~high () with
          | ev -> `Ok (Some ev)
          | exception Invalid_argument m -> `Error (false, m))
    in
    Term.(ret (const make $ evict_high $ evict_low))
  in
  Cmd.v
    (Cmd.info "serve" ~doc ~man)
    Term.(
      ret (const serve_impl $ config_term () $ socket $ stats_every $ eviction))

(* ---- arena: differential detector testing on generated programs ---- *)

let arena_impl count seed max_units max_steps detectors no_shrink
    fail_on_miss repro_dir json =
  let detectors =
    match detectors with [] -> H.Registry.all | ds -> ds
  in
  let opts =
    {
      A.o_seed = seed;
      o_count = count;
      o_max_units = max_units;
      o_max_steps = max_steps;
      o_detectors = detectors;
      o_shrink = not no_shrink;
    }
  in
  let r = A.run opts in
  if json then print_string (A.to_json r)
  else Fmt.pr "%a" A.pp_report r;
  (match repro_dir with
  | None -> ()
  | Some dir ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let write name text =
        let path = Filename.concat dir name in
        let oc = open_out path in
        output_string oc text;
        close_out oc;
        (* Diagnostics never on stdout under --json. *)
        (if json then Fmt.epr else Fmt.pr) "wrote %s@." path
      in
      List.iter
        (fun (p : A.pair) ->
          match p.A.pr_example with
          | None -> ()
          | Some x ->
              write
                (Printf.sprintf "arena_%s_over_%s.mj" p.A.pr_reporter
                   p.A.pr_silent)
                (A.repro_source ~reporter:p.A.pr_reporter
                   ~silent:p.A.pr_silent x))
        r.A.r_pairs;
      List.iter
        (fun (m : A.miss) ->
          match m.A.ms_example with
          | None -> ()
          | Some x ->
              write
                (Printf.sprintf "arena_miss_%s.mj" m.A.ms_detector)
                (Fmt.str
                   "// Arena-shrunk GROUND-TRUTH MISS: %s stayed quiet on \
                    the\n\
                    // guaranteed race %s.\n%s"
                   m.A.ms_detector x.A.x_marker (Drd_arena.Gen.emit x.A.x_shrunk)))
        r.A.r_misses);
  match fail_on_miss with
  | Some (e : H.Registry.entry)
    when A.guaranteed_misses r ~detector:e.H.Registry.name > 0 ->
      Fmt.epr "racedet arena: %s missed %d guaranteed race(s)@."
        e.H.Registry.name
        (A.guaranteed_misses r ~detector:e.H.Registry.name);
      exit 1
  | _ -> `Ok ()

let arena_cmd =
  let doc = "differentially test the detectors on generated programs" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Generates a deterministic corpus of well-typed concurrent \
         MiniJava programs composed from synchronization idioms — \
         mutexes, fork/join chains, wait/notify signaling, worker-loop \
         queues — with seeded races and known-safe twins, so every \
         program carries ground truth.  Runs every selected detector \
         over every program on the same schedule, scores each against \
         the labels (precision, recall, guaranteed-race misses), counts \
         pairwise disagreements, and shrinks the first witness of each \
         disagreement direction to a minimal program.";
      `P
        "Racy cells are labelled $(i,guaranteed) (every detector reports \
         them in every schedule; silence is unambiguously a miss — the \
         count $(b,--fail-on-miss) gates on) or $(i,feasible) \
         (schedule-dependent, e.g. races hidden behind an accidental \
         lock-order edge; counted toward recall only).";
      `P
        "For a fixed seed/count/detector set the $(b,--json) report is \
         byte-identical across invocations.";
    ]
  in
  let count =
    Arg.(
      value & opt (int_at_least 0) 200
      & info [ "n"; "programs" ] ~docv:"N" ~doc:"Programs to generate.")
  in
  let max_units =
    Arg.(
      value & opt int 4
      & info [ "max-units" ] ~docv:"N"
          ~doc:"Idiom units per program (1 to $(docv)).")
  in
  let max_steps =
    Arg.(
      value & opt int 400_000
      & info [ "max-steps" ] ~docv:"N"
          ~doc:
            "VM step budget per run; a program exceeding it scores as an \
             error verdict.")
  in
  let detectors =
    Arg.(
      value
      & opt_all detector_conv []
      & info [ "detector" ] ~docv:"NAME"
          ~doc:
            "Restrict the arena to the named detectors (repeatable; \
             default: all).  Same names as $(b,run --detector).")
  in
  let no_shrink =
    Arg.(
      value & flag
      & info [ "no-shrink" ]
          ~doc:
            "Skip shrinking disagreement/miss witnesses (saves the extra \
             runs; the example specs stay as first seen).")
  in
  let fail_on_miss =
    Arg.(
      value
      & opt (some detector_conv) None
      & info [ "fail-on-miss" ] ~docv:"NAME"
          ~doc:
            "Exit 1 if $(docv) missed any guaranteed race — the CI gate \
             for the paper detector.")
  in
  let repro_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "repro" ] ~docv:"DIR"
          ~doc:
            "Write each shrunk disagreement/miss witness as a standalone \
             MiniJava reproducer under $(docv).")
  in
  Cmd.v
    (Cmd.info "arena" ~doc ~man)
    Term.(
      ret
        (const arena_impl $ count $ seed_arg $ max_units $ max_steps
       $ detectors $ no_shrink $ fail_on_miss $ repro_dir $ json_arg))

(* ---- list ---- *)

let list_impl () =
  Fmt.pr "Benchmarks (plus the paper's 'figure2' / 'figure2-samelock' examples):@.";
  List.iter
    (fun (b : H.Programs.benchmark) ->
      Fmt.pr "  %-10s %s@." b.H.Programs.b_name b.H.Programs.b_description)
    H.Programs.benchmarks;
  Fmt.pr "@.Configurations:@.";
  List.iter
    (fun (c : H.Config.t) ->
      Fmt.pr "  %-14s static=%b weaker=%b peel=%b cache=%b ownership=%b@."
        c.H.Config.name c.H.Config.static_analysis c.H.Config.weaker_elim
        c.H.Config.loop_peel c.H.Config.use_cache c.H.Config.use_ownership)
    H.Config.all;
  Fmt.pr "@.Detectors (run/detect/arena --detector):@.";
  List.iter
    (fun (e : H.Registry.entry) ->
      Fmt.pr "  %-8s %s%s@." e.H.Registry.name (H.Registry.describe e)
        (match e.H.Registry.aliases with
        | [] -> ""
        | a -> Printf.sprintf " (aliases: %s)" (String.concat ", " a)))
    H.Registry.all;
  `Ok ()

let list_cmd =
  let doc = "list built-in benchmarks and configurations" in
  Cmd.v (Cmd.info "list" ~doc) Term.(ret (const list_impl $ const ()))

let () =
  let doc = "efficient and precise datarace detection (PLDI 2002)" in
  let exits =
    Cmd.Exit.info data_error_exit
      ~doc:
        "on malformed input data (a truncated or corrupt event log, \
         observation file or protocol stream) — distinct from \
         command-line misuse (124) and internal errors (125)."
    :: Cmd.Exit.defaults
  in
  let info = Cmd.info "racedet" ~version:"1.0" ~doc ~exits in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            run_cmd;
            explore_cmd;
            merge_cmd;
            serve_cmd;
            analyze_cmd;
            ir_cmd;
            record_cmd;
            detect_cmd;
            arena_cmd;
            list_cmd;
          ]))
