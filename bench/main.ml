(* Regenerates every table and figure of the paper's evaluation
   (Section 8), plus the ablations for the design choices DESIGN.md
   calls out.  Performance is measured by perfbench/run.py, not here.

   Run everything:          dune exec bench/main.exe
   Individual pieces:       dune exec bench/main.exe -- --table2 --figure3
   Quick mode (small sizes) dune exec bench/main.exe -- --quick *)

module H = Drd_harness
open Drd_core

let fpf = Format.printf

(* ------------------------------------------------------------------ *)
(* Ablations for the design choices DESIGN.md calls out: the 256-entry
   cache size the paper fixes (Section 4.3), and the per-location vs
   packed history representation. *)

let ablation () =
  fpf "Ablation 1: cache size (paper fixes 256 direct-mapped entries)@.";
  fpf "%8s %12s %12s %14s@." "entries" "hits" "misses" "hit rate";
  let b = Option.get (H.Programs.find "tsp") in
  let compiled = H.Pipeline.compile H.Config.full ~source:b.H.Programs.b_perf_source in
  let log, _ = H.Pipeline.record_log compiled in
  List.iter
    (fun size ->
      let collector = Report.collector () in
      let det =
        Detector.create
          ~config:{ Detector.default_config with Detector.cache_size = size }
          collector
      in
      Event_log.replay log det;
      let s = Detector.stats det in
      let lookups = s.Detector.events_in in
      fpf "%8d %12d %12d %13.1f%%@." size s.Detector.cache_hits
        (lookups - s.Detector.cache_hits)
        (100. *. float_of_int s.Detector.cache_hits /. float_of_int (max lookups 1)))
    [ 16; 64; 256; 1024; 4096 ];
  fpf "@.Ablation 2: history representation (replay wall time, tsp)@.";
  List.iter
    (fun (name, history) ->
      let collector = Report.collector () in
      let det =
        Detector.create
          ~config:
            { Detector.default_config with Detector.history; use_cache = false }
          collector
      in
      let t0 = Unix.gettimeofday () in
      Event_log.replay log det;
      let dt = Unix.gettimeofday () -. t0 in
      let s = Detector.stats det in
      fpf "  %-14s %.3fs  %6d trie nodes, %d races@." name dt
        s.Detector.trie_nodes s.Detector.races_reported)
    [ ("per-location", Detector.Per_location); ("packed", Detector.Packed) ];
  fpf "@."

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let has f = List.mem f args in
  let all = args = [] || has "--all" in
  let quick = has "--quick" in
  if all || has "--figure1" then H.Tables.figure1 ();
  if all || has "--figure2" then H.Tables.figure2 ();
  if all || has "--figure3" then H.Tables.figure3 ();
  if all || has "--table1" then H.Tables.table1 ();
  if all || has "--table2" then
    ignore (H.Tables.table2 ~runs:(if quick then 1 else 3) ~perf:(not quick) ());
  if all || has "--table3" then ignore (H.Tables.table3 ());
  if all || has "--sor-vs-sor2" then ignore (H.Tables.sor_vs_sor2 ());
  if all || has "--space" then ignore (H.Tables.space ());
  if all || has "--join-example" then H.Tables.join_example ();
  if all || has "--baselines" then ignore (H.Tables.baselines ());
  if all || has "--ablation" then ablation ();
