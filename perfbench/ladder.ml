(* The traced run's per-layer ladder.  Every figure is read off a span
   recorded around a call into one layer's public functions:

   - compile: the passes Pipeline.compile chains, called in its order;
   - vm / spec / core: a subtractive ladder of configurations that
     already exist (Base, Full without detection, the linked engine,
     the specialized engine, NoCache, NoOwnership) plus post-mortem
     replay of each program's Full event log;
   - explore: single-domain observe_run, 1-worker and pool campaigns,
     wire rows and the fold, with GC deltas and runtime-events pauses;
   - serve: in-process decode, feed and close on one domain, and the
     same payloads through a daemon over its socket. *)

open Perfbench
open Common
module H = Drd_harness
module P = H.Pipeline
module E = Drd_explore.Explore
module Agg = Drd_explore.Aggregate

let programs = Wl_oneshot.programs

(* Repetitions of each timed rung; figures are medians over them. *)
let reps = 5

let med = Stats.median

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* ---- compile: Pipeline.compile's passes for the Full configuration,
   in its order (Full peels, analyzes, eliminates, optimizes and
   specializes). ---- *)

let compile_passes =
  [
    "lang.parse"; "lang.typecheck"; "instr.peel"; "ir.lower"; "static.race_set";
    "instr.insert"; "instr.weaker"; "ir.optimize"; "static.specialize"; "ir.link";
  ]

let compile_chain rec_ ~op source =
  let t name f = Spans.timed rec_ ~op name f in
  let ast, parse = t "lang.parse" (fun () -> Drd_lang.Parser.parse_program source) in
  let tprog, check = t "lang.typecheck" (fun () -> Drd_lang.Typecheck.check ast) in
  let tprog, peel = t "instr.peel" (fun () -> Drd_instr.Peel.peel_program tprog) in
  let prog, lower = t "ir.lower" (fun () -> Drd_ir.Lower.lower_program tprog) in
  let rs, race = t "static.race_set" (fun () -> Drd_static.Race_set.compute prog) in
  let (), insert =
    t "instr.insert" (fun () ->
        Drd_instr.Insert.instrument ~keep:(Drd_static.Race_set.may_race rs) prog)
  in
  let inserted = Drd_instr.Insert.count_traces prog in
  let eliminated, weaker =
    t "instr.weaker" (fun () -> Drd_instr.Static_weaker.eliminate prog)
  in
  let _, optimize = t "ir.optimize" (fun () -> Drd_ir.Optimize.optimize prog) in
  let spec, specialize =
    t "static.specialize" (fun () -> Drd_static.Specialize.compute rs prog)
  in
  let _, link = t "ir.link" (fun () -> Drd_ir.Link.link ?spec prog) in
  ( [ parse; check; peel; lower; race; insert; weaker; optimize; specialize; link ],
    inserted,
    eliminated )

let compile_layer rec_ tally seed =
  let rounds =
    List.init 5 (fun op ->
        List.map
          (fun prog ->
            Spans.record rec_ ~op ("compile." ^ prog) (fun () ->
                compile_chain rec_ ~op (Wl_oneshot.perf_source prog)))
          programs)
  in
  let last = List.hd (List.rev rounds) in
  List.iter2
    (fun prog (_, ins, elim) ->
      let c =
        P.compile { H.Config.full with H.Config.seed } ~source:(Wl_oneshot.perf_source prog)
      in
      Tally.check tally
        ~ok:(c.P.traces_inserted = ins && c.P.traces_eliminated = elim)
        (Printf.sprintf "%s: pass chain traces %d/%d differ from Pipeline.compile's %d/%d"
           prog ins elim c.P.traces_inserted c.P.traces_eliminated))
    programs last;
  let pass_ms i =
    med
      (List.map
         (fun round -> List.fold_left (fun a (ms, _, _) -> a +. List.nth ms i) 0. round)
         rounds)
  in
  List.mapi (fun i name -> metric (name ^ "_ms") "ms" (pass_ms i)) compile_passes
  @ [
      metric "instr.traces_inserted" "count"
        (float_of_int (List.fold_left (fun a (_, n, _) -> a + n) 0 last));
      metric "instr.traces_eliminated" "count"
        (float_of_int (List.fold_left (fun a (_, _, n) -> a + n) 0 last));
    ]

(* ---- vm, spec and core: the configuration ladder per program ---- *)

type rungs = {
  base : P.compiled;
  full : P.compiled;
  nocache : P.compiled;
  noown : P.compiled;
}

(* The configuration ladder, bottom rung first: each rung's compiled
   program, whether it detects, and its engine. *)
let rungs =
  [
    ("vm.base", (fun r -> r.base), true, `Spec);
    ("vm.nodetect", (fun r -> r.full), false, `Spec);
    ("spec.linked", (fun r -> r.full), true, `Linked);
    ("spec.full", (fun r -> r.full), true, `Spec);
    ("core.nocache", (fun r -> r.nocache), true, `Spec);
    ("core.noown", (fun r -> r.noown), true, `Spec);
  ]

(* Extra interleaved pairs of traced top-rung and untraced Full tsp runs,
   so the gap between the two medians is measured on enough samples to
   be compared with the untraced runs' spread. *)
let gap_pairs = 21

let detector_config (c : H.Config.t) =
  {
    Drd_core.Detector.default_config with
    Drd_core.Detector.use_cache = c.H.Config.use_cache;
    use_ownership = c.H.Config.use_ownership;
  }

let vm_layers rec_ tally seed =
  let compile c prog =
    P.compile { c with H.Config.seed } ~source:(Wl_oneshot.perf_source prog)
  in
  let cells =
    List.map
      (fun prog ->
        ( prog,
          {
            base = compile H.Config.base prog;
            full = compile H.Config.full prog;
            nocache = compile H.Config.no_cache prog;
            noown = compile H.Config.no_ownership prog;
          } ))
      programs
  in
  (* samples.(prog, rung) -> ms list; the untraced Full runs are the
     end-to-end reference the ladder is compared with.  Every rung's
     output is checked against the reference interpreter's run of the
     same compiled program, outside the spans. *)
  let samples = Hashtbl.create 64 and results = Hashtbl.create 64 in
  let add k v =
    Hashtbl.replace samples k
      (v :: Option.value ~default:[] (Hashtbl.find_opt samples k))
  in
  let reference = Hashtbl.create 32 in
  let check_rung prog rung compiled detect res =
    let expected =
      match Hashtbl.find_opt reference (prog, rung) with
      | Some o -> o
      | None ->
          let o = Wl_oneshot.output_of (P.run ~engine:`Ref ~detect compiled) in
          Hashtbl.replace reference (prog, rung) o;
          o
    in
    Tally.check tally
      ~ok:(same ~what:(Printf.sprintf "ladder %s.%s vs reference interpreter" rung prog)
             expected (Wl_oneshot.output_of res))
      (Printf.sprintf "ladder: %s.%s output differs from the reference" rung prog)
  in
  let run_rung ~op prog r (rung, pick, detect, engine) =
    let compiled = pick r in
    let res, ms =
      Spans.timed rec_ ~op (rung ^ "." ^ prog) (fun () -> P.run ~detect ~engine compiled)
    in
    check_rung prog rung compiled detect res;
    Hashtbl.replace results (prog, rung) res;
    add (prog, rung) ms
  in
  let untraced_full prog r =
    let res, ms = Clock.time (fun () -> P.run r.full) in
    check_rung prog "spec.full" r.full true res;
    add (prog, "untraced.full") ms
  in
  let n = List.length cells in
  for op = 0 to reps - 1 do
    for k = 0 to n - 1 do
      let prog, r = List.nth cells ((k + op) mod n) in
      List.iter (run_rung ~op prog r) rungs;
      untraced_full prog r
    done
  done;
  let tsp = List.assoc "tsp" cells
  and top_rung = List.find (fun (rung, _, _, _) -> rung = "spec.full") rungs in
  for op = reps to reps + gap_pairs - 1 do
    if op mod 2 = 0 then begin
      run_rung ~op "tsp" tsp top_rung;
      untraced_full "tsp" tsp
    end
    else begin
      untraced_full "tsp" tsp;
      run_rung ~op "tsp" tsp top_rung
    end
  done;
  let ms prog rung = med (Hashtbl.find samples (prog, rung)) in
  let res prog rung = Hashtbl.find results (prog, rung) in
  (* The cache only drops events the trie already covers, so NoCache
     must report exactly what Full does; the reference interpreter runs
     the same detector and cannot catch a broken NoCache path. *)
  List.iter
    (fun (prog, _) ->
      Tally.check tally
        ~ok:
          (same ~what:(Printf.sprintf "ladder %s NoCache vs Full" prog)
             (Wl_oneshot.output_of (res prog "spec.full"))
             (Wl_oneshot.output_of (res prog "core.nocache")))
        (Printf.sprintf "ladder: %s NoCache output differs from Full" prog))
    cells;
  let per_program =
    List.concat_map
    (fun (prog, r) ->
      let full = res prog "spec.full" in
      let drops =
        match (P.run ~site_stats:true r.full).P.site_stats with
        | Some (seen, dropped) ->
            ratio (Array.fold_left ( + ) 0 dropped) (Array.fold_left ( + ) 0 seen)
        | None -> 0.
      in
      (* post-mortem replay of the Full log through the Full detector *)
      let log, _ = P.record_log r.full in
      let replays =
        List.init 5 (fun op ->
            let coll = Drd_core.Report.collector () in
            let det =
              Drd_core.Detector.create ~config:(detector_config r.full.P.config) coll
            in
            let (), ms =
              Spans.timed rec_ ~op ("core.replay." ^ prog) (fun () ->
                  Drd_core.Event_log.replay log det)
            in
            Tally.check tally
              ~ok:(Wl_oneshot.race_lines coll = Wl_oneshot.race_lines (Option.get full.P.report))
              (Printf.sprintf "ladder: replaying the %s Full log gives other races than the run"
                 prog);
            (ms, Drd_core.Detector.stats det))
      in
      let st = snd (List.hd replays) in
      let ev = st.Drd_core.Detector.events_in in
      let p name unit v = metric (name ^ "." ^ prog) unit v in
      [
        p "vm.base_ms" "ms" (ms prog "vm.base");
        p "vm.steps" "count" (float_of_int full.P.steps);
        p "vm.base_steps" "count" (float_of_int (res prog "vm.base").P.steps);
        p "vm.nodetect_ms" "ms" (ms prog "vm.nodetect");
        p "spec.linked_ms" "ms" (ms prog "spec.linked");
        p "spec.coverage" "ratio" (ratio full.P.spec_events full.P.events);
        p "spec.fast_drop_ratio" "ratio" drops;
        p "core.replay_ns_per_event" "ns"
          (med (List.map fst replays) *. 1e6 /. float_of_int (max 1 ev));
        p "core.nocache_ms" "ms" (ms prog "core.nocache");
        p "core.noown_ms" "ms" (ms prog "core.noown");
        p "core.cache_hit_ratio" "ratio" (ratio st.Drd_core.Detector.cache_hits ev);
        p "core.owned_ratio" "ratio" (ratio st.Drd_core.Detector.ownership_filtered ev);
        p "core.trie_reach_ratio" "ratio" (ratio st.Drd_core.Detector.race_checks ev);
        p "core.trie_nodes" "count" (float_of_int st.Drd_core.Detector.trie_nodes);
      ])
    cells
  in
  (* The tsp ladder: each rung's self time is its increment over the
     rung below.  The increments telescope to the top (specialized Full)
     rung, which must reproduce the untraced Full runs interleaved with
     it: the gap between the two medians must stay within the untraced
     runs' spread (IQR / median). *)
  let top = ms "tsp" "spec.full" in
  let untraced = Hashtbl.find samples ("tsp", "untraced.full") in
  let e2e = med untraced in
  let steps =
    [
      ("vm (Base)", ms "tsp" "vm.base");
      ("trace ops (Full, detection off)", ms "tsp" "vm.nodetect" -. ms "tsp" "vm.base");
      ("detector (linked engine)", ms "tsp" "spec.linked" -. ms "tsp" "vm.nodetect");
      ("spec fast paths", top -. ms "tsp" "spec.linked");
    ]
  in
  say "tsp ladder (perf size, self time per layer, medians of %d; top rung of %d):" reps
    (reps + gap_pairs);
  List.iter (fun (name, v) -> say "  %-34s %8.3f ms" name v) steps;
  let spread =
    match Stats.quantiles untraced 4 with [ q1; _; q3 ] -> (q3 -. q1) /. e2e | _ -> 0.
  in
  let gap = Float.abs (top -. e2e) /. e2e in
  say "  %-34s %8.3f ms vs untraced Full %.3f ms (n=%d): gap %.2f%%, spread %.2f%%"
    "sum of self times (top rung)" top e2e (List.length untraced) (100. *. gap)
    (100. *. spread);
  Tally.check tally ~ok:(gap <= spread)
    (Printf.sprintf
       "ladder: tsp self times sum to %.3f ms, %.2f%% off the untraced Full %.3f ms, \
        beyond its spread %.2f%%"
       top (100. *. gap) e2e (100. *. spread));
  per_program @ [ metric "ladder.gap_ratio.tsp" "ratio" gap ]

(* ---- explore and GC ---- *)

(* Stop-the-world time from the runtime's event rings: minor
   collections and major-GC stop-the-world phases, summed over
   domains. *)
let stw_tracker () =
  let open Runtime_events in
  let cursor = create_cursor None in
  let open_at = Hashtbl.create 8 and total = ref 0L in
  let stw = function EV_MINOR | EV_MAJOR_GC_STW -> true | _ -> false in
  let cb =
    Callbacks.create
      ~runtime_begin:(fun ring ts phase ->
        if stw phase then Hashtbl.replace open_at (ring, phase) (Timestamp.to_int64 ts))
      ~runtime_end:(fun ring ts phase ->
        match Hashtbl.find_opt open_at (ring, phase) with
        | Some t0 when stw phase ->
            Hashtbl.remove open_at (ring, phase);
            total := Int64.add !total (Int64.sub (Timestamp.to_int64 ts) t0)
        | _ -> ())
      ()
  in
  let poll () = ignore (read_poll cursor cb None) in
  (poll, fun () -> Int64.to_float !total /. 1e6)

let explore_layers rec_ tally seed =
  let st = Wl_campaign.setup_once ~workers:parallelism seed in
  let ctx = P.Run_ctx.create st.Wl_campaign.compiled in
  let specs = st.Wl_campaign.run_specs in
  List.iteri
    (fun i sp -> if i < 10 then ignore (E.observe_run ~ctx st.Wl_campaign.compiled sp))
    specs;
  let observed =
    List.mapi
      (fun op sp ->
        let w0 = Gc.minor_words () in
        let _, ms =
          Spans.timed rec_ ~op "explore.observe_run" (fun () ->
              E.observe_run ~ctx st.Wl_campaign.compiled sp)
        in
        (ms, Gc.minor_words () -. w0))
      specs
  in
  let fresh =
    List.filteri (fun i _ -> i < 100) specs
    |> List.mapi (fun op sp ->
           snd
             (Spans.timed rec_ ~op "explore.observe_run.fresh" (fun () ->
                  E.observe_run st.Wl_campaign.compiled sp)))
  in
  let one, one_ms =
    Spans.timed rec_ ~op:0 "explore.run_campaign.1w" (fun () ->
        E.run_campaign { st.Wl_campaign.spec with E.e_workers = 1 } ~source:st.Wl_campaign.source)
  in
  Runtime_events.start ();
  let poll, stw_ms = stw_tracker () in
  poll ();
  let stw0 = stw_ms () in
  let g0 = Gc.quick_stat () in
  let pool, pool_ms =
    Spans.timed rec_ ~op:0 "explore.run_campaign" (fun () ->
        E.run_campaign st.Wl_campaign.spec ~source:st.Wl_campaign.source)
  in
  let g1 = Gc.quick_stat () in
  poll ();
  let stw = stw_ms () -. stw0 in
  let runs = pool.E.r_stats.Agg.st_runs in
  Tally.check tally
    ~ok:(E.report_json ~timing:false one = E.report_json ~timing:false pool)
    "explore ladder: 1-worker and pool campaign reports differ";
  let rows = E.rows_of_report pool in
  let buf = Buffer.create 4096 in
  let wire_ok = ref true in
  let (), wire_ms =
    Spans.timed rec_ ~op:0 "explore.wire" (fun () ->
        List.iter
          (fun row ->
            Buffer.clear buf;
            Drd_explore.Wire.row_to_buffer buf row;
            match E.row_of_line (Buffer.contents buf) with
            | Ok back -> if E.row_to_json back <> Buffer.contents buf then wire_ok := false
            | Error _ -> wire_ok := false)
          rows)
  in
  Tally.check tally ~ok:!wire_ok "explore ladder: a wire row does not round-trip";
  let folded, fold_ms =
    Spans.timed rec_ ~op:0 "explore.report_of_rows" (fun () ->
        E.report_of_rows st.Wl_campaign.spec rows)
  in
  Tally.check tally
    ~ok:(E.report_json ~timing:false folded = E.report_json ~timing:false pool)
    "explore ladder: folding the rows does not reproduce the report";
  let words =
    List.fold_left (fun a (_, w) -> a +. w) 0. observed
    /. float_of_int (List.length observed)
  in
  Tally.check tally ~ok:(words < 100_000.)
    (Printf.sprintf "explore.minor_words_per_run %.0f is not under the 100k pin" words);
  let obs_ms = List.map fst observed in
  let per_run x = x /. float_of_int runs in
  [
    metric "explore.observe_ms_p50" "ms" (med obs_ms);
    metric "explore.observe_ms_p90" "ms" (Stats.percentile obs_ms 90.);
    metric "explore.observe_fresh_ms_p50" "ms" (med fresh);
    metric "explore.minor_words_per_run" "words" words;
    metric "explore.runs_per_s_1w" "1/s"
      (float_of_int one.E.r_stats.Agg.st_runs /. (one_ms /. 1000.));
    metric "explore.pool_efficiency" "ratio"
      (List.fold_left ( +. ) 0. obs_ms /. (float_of_int parallelism *. pool_ms));
    metric "explore.wire_us_per_row" "us"
      (wire_ms *. 1000. /. float_of_int (max 1 (List.length rows)));
    metric "explore.fold_ms" "ms" fold_ms;
    metric "explore.distinct_fingerprint_ratio" "ratio"
      (ratio pool.E.r_stats.Agg.st_distinct_fingerprints runs);
    metric "gc.minor_words_per_op" "words"
      (per_run (g1.Gc.minor_words -. g0.Gc.minor_words));
    metric "gc.minor_collections_per_op" "count"
      (per_run (float_of_int (g1.Gc.minor_collections - g0.Gc.minor_collections)));
    metric "gc.major_collections_per_op" "count"
      (per_run (float_of_int (g1.Gc.major_collections - g0.Gc.major_collections)));
    metric "gc.stw_ms_per_run" "ms" (per_run stw);
  ]

(* ---- serve: identity sessions replay the recorded tsp log, whose
   report must be byte-identical to the one-shot post-mortem detection;
   seeded race-free churn sessions cycle through far more locations than
   the eviction watermark. ---- *)

let evict_high = 4096

let churn_window = 20_000

(* The recorded tsp log and its one-shot report body. *)
let identity_payload seed =
  let config = { H.Config.full with H.Config.seed } in
  let source = (Option.get (H.Programs.find "tsp")).H.Programs.b_source in
  let log, _ = P.record_log (P.compile config ~source) in
  let buf = Buffer.create (1 lsl 20) in
  Drd_core.Event_log.iter
    (fun e ->
      Buffer.add_string buf (Drd_core.Event_log.entry_to_line e);
      Buffer.add_char buf '\n')
    log;
  let coll, stats = P.detect_post_mortem config log in
  ( Buffer.contents buf,
    Drd_serve.Protocol.events_report_body ~races:(Drd_core.Report.races coll) ~stats
      ~evictions:0 )

let socket_path () = Filename.concat work_dir (Printf.sprintf "s%d.sock" (Unix.getpid ()))

let split_lines s = String.split_on_char '\n' s |> List.filter (( <> ) "") |> Array.of_list

let serve_layers rec_ tally opts =
  let module S = Drd_serve.Session in
  let identity, expected = identity_payload opts.seed in
  let lines = Array.length (split_lines identity) in
  let churn = Payload.churn ~seed:opts.seed ~lines ~window:churn_window in
  let id_lines = split_lines identity and churn_lines = split_lines churn in
  let decode =
    List.init 5 (fun op ->
        snd
          (Spans.timed rec_ ~op "serve.decode" (fun () ->
               Array.iter
                 (fun l ->
                   match Drd_core.Event_log.entry_of_line l with
                   | Ok _ -> ()
                   | Error m -> failwith m)
                 id_lines)))
  in
  let pool = S.pool () in
  let session ~op kind ls =
    let s =
      S.create ~pool ~id:"ladder" ~kind:Drd_serve.Protocol.Events ~config:H.Config.full
        ~eviction:(Some (Drd_core.Detector.eviction ~high:evict_high ()))
        ()
    in
    let (), feed =
      Spans.timed rec_ ~op ("serve.feed." ^ kind) (fun () ->
          Array.iter
            (fun l -> match S.feed_line s l with Ok _ -> () | Error m -> failwith m)
            ls)
    in
    let live = S.live_locations s and evictions = S.evictions s in
    let body, close = Spans.timed rec_ ~op "serve.close" (fun () -> S.close s) in
    (feed, close, body, live, evictions)
  in
  let ident = List.init 5 (fun op -> session ~op "identity" id_lines) in
  let churned = List.init 5 (fun op -> session ~op "churn" churn_lines) in
  List.iter
    (fun (_, _, body, _, _) ->
      Tally.check tally ~ok:(body = Ok expected)
        "serve ladder: in-process identity session differs from one-shot detection")
    ident;
  List.iter
    (fun (_, _, _, _, ev) -> Tally.check tally ~ok:(ev > 0) "serve ladder: churn did not evict")
    churned;
  let per_line ms = ms *. 1e6 /. float_of_int lines in
  let inproc = med (List.map (fun (f, c, _, _, _) -> f +. c) ident) in
  (* the same payloads through the daemon, over one connection *)
  let module C = Serve_client in
  let d =
    C.spawn ~racedet:opts.racedet ~path:(socket_path ()) ~evict_high
  in
  let conn = C.connect d.C.path in
  let remote =
    List.init 10 (fun op ->
        let go kind payload =
          let id = Printf.sprintf "%s-%d" kind op in
          Spans.timed rec_ ~op ("serve.daemon_session." ^ kind) (fun () ->
              C.send_session conn ~id ~stats:(kind = "churn") payload;
              C.await_report conn ~id)
        in
        (go "identity" identity, go "churn" churn))
  in
  C.disconnect conn;
  let stats = C.daemon_stats d in
  C.shutdown d;
  List.iter
    (fun ((ri, _), (rc, _)) ->
      Tally.check tally
        ~ok:
          (ri.C.body = expected && ri.C.errors = [] && rc.C.errors = []
          && rc.C.evictions > 0 && rc.C.live <= evict_high)
        "serve ladder: daemon session failed its check")
    remote;
  let socket_ms = med (List.map (fun ((_, ms), _) -> ms) remote) in
  [
    metric "serve.decode_ns_per_line" "ns" (per_line (med decode));
    metric "serve.feed_ns_per_line.identity" "ns"
      (per_line (med (List.map (fun (f, _, _, _, _) -> f) ident)));
    metric "serve.feed_ns_per_line.churn" "ns"
      (per_line (med (List.map (fun (f, _, _, _, _) -> f) churned)));
    metric "serve.close_ms" "ms" (med (List.map (fun (_, c, _, _, _) -> c) ident));
    metric "serve.transport_share" "ratio" (1. -. (inproc /. socket_ms));
    metric "serve.evictions_per_session" "count"
      (med (List.map (fun (_, (rc, _)) -> float_of_int rc.C.evictions) remote));
    metric "serve.live_locations_max" "count"
      (float_of_int (List.fold_left (fun a (_, (rc, _)) -> max a rc.C.live) 0 remote));
    metric "serve.heap_words_max" "words" (float_of_int (C.stat_int stats "heap_words_max"));
  ]

(* Each layer starts from the same GC state, so one layer's heap does not
   slow the next. *)
let run opts rec_ tally =
  let layer f = reset_gc (); f () in
  let seed = opts.seed in
  let compile = layer (fun () -> compile_layer rec_ tally seed) in
  let vm = layer (fun () -> vm_layers rec_ tally seed) in
  let explore = layer (fun () -> explore_layers rec_ tally seed) in
  let serve = layer (fun () -> serve_layers rec_ tally opts) in
  compile @ vm @ explore @ serve
