(* Minimal parse→check→lower→instrument→run pipeline used by the VM and
   language tests.  The full configurable pipeline (static analysis,
   instrumentation optimization, baselines) lives in Drd_harness. *)

module Parser = Drd_lang.Parser
module Typecheck = Drd_lang.Typecheck
module Lower = Drd_ir.Lower
module Insert = Drd_instr.Insert
module Value = Drd_vm.Value
module Interp = Drd_vm.Interp
module Link = Drd_ir.Link
module Memloc = Drd_vm.Memloc
module Sink = Drd_vm.Sink
open Drd_core

type outcome = {
  prints : (string * Value.t option) list;
  races : Report.race list;
  race_locs : string list; (* decoded location names, sorted *)
  stats : Detector.stats;
  result : Interp.result;
}

let compile ?(peel = false) source =
  let ast = Parser.parse_program source in
  let tprog = Typecheck.check ast in
  let tprog = if peel then Drd_instr.Peel.peel_program tprog else tprog in
  Lower.lower_program tprog

let run ?(seed = 42) ?(quantum = 20) ?(instrument = true) ?(peel = false)
    ?(weaker = false) ?(static = false)
    ?(detector_config = Detector.default_config)
    ?(granularity = Memloc.Per_field) source =
  let prog = compile ~peel source in
  (if instrument then
     if static then
       let rs = Drd_static.Race_set.compute prog in
       Insert.instrument ~keep:(Drd_static.Race_set.may_race rs) prog
     else Insert.instrument prog);
  if weaker then ignore (Drd_instr.Static_weaker.eliminate prog);
  let collector = Report.collector () in
  let det = Detector.create ~config:detector_config collector in
  let sink =
    {
      Sink.null with
      Sink.access =
        (fun ~tid ~loc ~kind ~locks ~site ->
          ignore (Detector.on_access det ~loc ~thread:tid ~locks ~kind ~site));
      acquire = (fun ~tid ~lock -> Detector.on_acquire det ~thread:tid ~lock);
      release = (fun ~tid ~lock -> Detector.on_release det ~thread:tid ~lock);
      thread_exit = (fun ~tid -> Detector.on_thread_exit det ~thread:tid);
    }
  in
  let config = { Interp.default_config with seed; quantum; granularity } in
  let result = Interp.run ~config ~sink (Link.link prog) in
  let race_locs =
    Report.racy_locs collector
    |> List.map (Memloc.describe prog.Drd_ir.Ir.p_tprog result.Interp.r_heap)
    |> List.sort compare
  in
  {
    prints = result.Interp.r_prints;
    races = Report.races collector;
    race_locs;
    stats = Detector.stats det;
    result;
  }

(* Run one of the baseline detectors (fully instrumented program). *)
type baseline = Eraser | ObjRace | HappensBefore

let run_baseline ?(seed = 42) ?(quantum = 20) baseline source =
  let prog = compile source in
  Insert.instrument prog;
  let granularity =
    match baseline with
    | ObjRace -> Memloc.Per_object
    | Eraser | HappensBefore -> Memloc.Per_field
  in
  let (module D : Detector_intf.S) =
    match baseline with
    | Eraser -> (module Drd_baselines.Eraser)
    | ObjRace -> (module Drd_baselines.Objrace)
    | HappensBefore -> (module Drd_baselines.Happens_before)
  in
  let d = D.create () in
  let sink =
    {
      Sink.access =
        (fun ~tid ~loc ~kind ~locks ~site ->
          D.on_access d ~loc ~thread:tid ~locks ~kind ~site);
      acquire = (fun ~tid ~lock -> D.on_acquire d ~thread:tid ~lock);
      release = (fun ~tid ~lock -> D.on_release d ~thread:tid ~lock);
      thread_start =
        (fun ~parent ~child -> D.on_thread_start d ~parent ~child);
      thread_join =
        (fun ~joiner ~joinee -> D.on_thread_join d ~joiner ~joinee);
      thread_exit = (fun ~tid -> D.on_thread_exit d ~thread:tid);
      call =
        (if D.needs_call_events then
           Some
             (fun ~tid ~obj ~locks ~site ->
               D.on_call d ~thread:tid
                 ~obj_loc:(Memloc.whole_object ~obj)
                 ~locks ~site)
         else None);
      spec = None;
    }
  in
  let config =
    {
      Interp.default_config with
      seed;
      quantum;
      granularity;
      pseudo_locks = false;
    }
  in
  let result = Interp.run ~config ~sink (Link.link prog) in
  let locs =
    D.racy_locs d
    |> List.map (Memloc.describe prog.Drd_ir.Ir.p_tprog result.Interp.r_heap)
    |> List.sort compare
  in
  (locs, result)

(* Convenience: run without any detection at all (Base configuration). *)
let run_base ?(seed = 42) ?(quantum = 20) source =
  let prog = compile source in
  Interp.run
    ~config:{ Interp.default_config with seed; quantum }
    ~sink:Sink.null (Link.link prog)

let ints prints =
  List.map
    (fun (tag, v) ->
      (tag, match v with Some (Value.Vint n) -> n | _ -> min_int))
    prints
