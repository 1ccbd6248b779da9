(* Golden byte-identity for the link phase: the linked-image interpreter
   ([Interp]) and the frozen pre-link block interpreter ([Interp_ref])
   must be indistinguishable through every observable channel — full
   race reports, racy-object lists, event/step/thread counts, prints,
   the complete recorded event log, the raw interleaving fingerprint,
   the happens-before fingerprint and the side-analysis taps
   (immutability summary, potential deadlocks) — for every example program under
   every scheduling family (sweep, jitter, pct).  A run that dies (e.g.
   needle's seed-dependent wait() deadlock) must die identically: same
   error string, same event-log prefix. *)

module H = Drd_harness
module Pipeline = H.Pipeline
module Config = H.Config
module Programs = H.Programs
module Strategy = Drd_explore.Strategy
module Explore = Drd_explore.Explore
module Hb_fingerprint = Drd_explore.Hb_fingerprint
module Interp = Drd_vm.Interp
module Sink = Drd_vm.Sink
module Value = Drd_vm.Value
module Link = Drd_ir.Link
open Drd_core

(* A sink recording every notification into an event log (the post-
   mortem recording sink, as a tap). *)
type obs = {
  o_error : string option; (* Runtime_error message, if the run died *)
  o_races : string list;
  o_objects : string list;
  o_events : int;
  o_steps : int;
  o_threads : int;
  o_prints : (string * Value.t option) list;
  o_log : Event_log.entry list;
  o_interleave_fp : int;
  o_hb_fp : int;
  o_immut : string;
  o_deadlocks : Lock_order.report list;
}

let observe ~engine compiled vm : obs =
  let log = Event_log.create () in
  let log_sink = Sink.event_log log in
  let fp_sink, fp = Explore.fingerprint_tap () in
  let hb_sink, hb = Hb_fingerprint.tap () in
  let immut = Immutability.create () in
  let locks = Lock_order.create () in
  let tap =
    Sink.tee log_sink
      (Sink.tee fp_sink
         (Sink.tee hb_sink
            (Sink.tee (Sink.immutability immut) (Sink.lock_order locks))))
  in
  let empty =
    {
      o_error = None;
      o_races = [];
      o_objects = [];
      o_events = 0;
      o_steps = 0;
      o_threads = 0;
      o_prints = [];
      o_log = [];
      o_interleave_fp = 0;
      o_hb_fp = 0;
      o_immut = "";
      o_deadlocks = [];
    }
  in
  let finish o =
    {
      o with
      o_log = Event_log.entries log;
      o_interleave_fp = fp ();
      o_hb_fp = hb ();
      o_immut = Fmt.str "%a" Immutability.pp_summary (Immutability.summary immut);
      o_deadlocks = Lock_order.potential_deadlocks locks;
    }
  in
  match Pipeline.run ~vm ~tap ~engine compiled with
  | r ->
      finish
        {
          empty with
          o_races = r.Pipeline.races;
          o_objects = r.Pipeline.racy_objects;
          o_events = r.Pipeline.events;
          o_steps = r.Pipeline.steps;
          o_threads = r.Pipeline.threads;
          o_prints = r.Pipeline.prints;
        }
  | exception Interp.Runtime_error m -> finish { empty with o_error = Some m }

let render_entry = function
  | Event_log.Access e ->
      Printf.sprintf "A t%d l%d %s s%d L%d" e.Event.thread e.Event.loc
        (match e.Event.kind with Event.Read -> "R" | Event.Write -> "W")
        e.Event.site
        (e.Event.locks :> int)
  | Event_log.Acquire (t, l) -> Printf.sprintf "acq t%d l%d" t l
  | Event_log.Release (t, l) -> Printf.sprintf "rel t%d l%d" t l
  | Event_log.Thread_start (p, c) -> Printf.sprintf "start %d->%d" p c
  | Event_log.Thread_join (j, e) -> Printf.sprintf "join %d<-%d" j e
  | Event_log.Thread_exit t -> Printf.sprintf "exit %d" t

let check_logs name (ref_log : Event_log.entry list) linked_log =
  let nref = List.length ref_log and nlin = List.length linked_log in
  if nref <> nlin then
    Alcotest.failf "%s: event log length %d (ref) vs %d (linked)" name nref
      nlin;
  List.iteri
    (fun i (a, b) ->
      if a <> b then
        Alcotest.failf "%s: event log diverges at entry %d: %s (ref) vs %s \
                        (linked)"
          name i (render_entry a) (render_entry b))
    (List.combine ref_log linked_log)

let check_obs name (a : obs) (b : obs) =
  Alcotest.(check (option string)) (name ^ " error") a.o_error b.o_error;
  Alcotest.(check (list string)) (name ^ " races") a.o_races b.o_races;
  Alcotest.(check (list string)) (name ^ " objects") a.o_objects b.o_objects;
  Alcotest.(check int) (name ^ " events") a.o_events b.o_events;
  Alcotest.(check int) (name ^ " steps") a.o_steps b.o_steps;
  Alcotest.(check int) (name ^ " threads") a.o_threads b.o_threads;
  Alcotest.(check int)
    (name ^ " prints") (List.length a.o_prints) (List.length b.o_prints);
  if a.o_prints <> b.o_prints then Alcotest.failf "%s: prints differ" name;
  check_logs name a.o_log b.o_log;
  Alcotest.(check int)
    (name ^ " interleaving fp") a.o_interleave_fp b.o_interleave_fp;
  Alcotest.(check int) (name ^ " hb fp") a.o_hb_fp b.o_hb_fp;
  Alcotest.(check string) (name ^ " immutability") a.o_immut b.o_immut;
  if a.o_deadlocks <> b.o_deadlocks then
    Alcotest.failf "%s: potential deadlocks differ" name

(* Every example program: the Table 1 benchmark ports plus the paper's
   Figure 2 example. *)
let sources =
  ("figure2", Programs.figure2 ())
  :: List.map
       (fun b -> (b.Programs.b_name, b.Programs.b_source))
       Programs.benchmarks

let compiled_of =
  (* Compile once per program (static analysis is the slow part) and
     reuse across the strategy families. *)
  let memo = Hashtbl.create 8 in
  fun name source ->
    match Hashtbl.find_opt memo name with
    | Some c -> c
    | None ->
        let c = Pipeline.compile Config.full ~source in
        Hashtbl.add memo name c;
        c

let vm_of compiled (sp : Strategy.run_spec) =
  {
    (Pipeline.vm_config_of compiled.Pipeline.config) with
    Interp.seed = sp.Strategy.sp_seed;
    quantum = sp.Strategy.sp_quantum;
    policy = sp.Strategy.sp_policy;
  }

let runs_per_strategy = 3

let test_identity name source strategy () =
  let compiled = compiled_of name source in
  for index = 0 to runs_per_strategy - 1 do
    let sp =
      Strategy.spec strategy ~base:compiled.Pipeline.config
        ~pct_horizon:20_000 index
    in
    let vm = vm_of compiled sp in
    let label = Printf.sprintf "%s %s #%d" name (Strategy.name strategy) index in
    let a = observe ~engine:`Ref compiled vm in
    let b = observe ~engine:`Linked compiled vm in
    check_obs label a b;
    (* The specialized engine's fast paths must be invisible through
       every observable channel too — including the tapped event log,
       where a wrongly dropped event would surface. *)
    let c = observe ~engine:`Spec compiled vm in
    check_obs (label ^ " [spec]") a c
  done

(* Run [vm] on all three engines; linked and specialized must match the
   reference run, which is returned. *)
let same_three_ways label compiled vm =
  let a = observe ~engine:`Ref compiled vm in
  check_obs label a (observe ~engine:`Linked compiled vm);
  check_obs (label ^ " [spec]") a (observe ~engine:`Spec compiled vm);
  a

(* Superinstructions take their fast path only when the slice budget
   has room for every slot they cover; quanta of 1-3 end slices on each
   covered slot, so every fused op's partial path runs.  PCT slices are
   exactly [quantum] long, so a quantum-2 PCT run splits the three-slot
   array ops in every slice. *)
let test_budget_boundaries name source () =
  let compiled = compiled_of name source in
  let base = Pipeline.vm_config_of compiled.Pipeline.config in
  let runs =
    List.map
      (fun q ->
        (Printf.sprintf "%s quantum %d" name q, { base with Interp.quantum = q }))
      [ 1; 2; 3 ]
    @ [
        ( name ^ " pct quantum 2",
          {
            base with
            Interp.quantum = 2;
            policy = Interp.Pct { depth = 3; horizon = 20_000 };
          } );
      ]
  in
  List.iter (fun (label, vm) -> ignore (same_three_ways label compiled vm)) runs

(* A step limit that falls on every slot of a small array loop — inside
   the fused array accesses, const+add/sub and lt+if runs too — must stop
   every engine on the same slot: same error, same event-log prefix.
   [all_accesses] logs every array access, so the prefix pins the stop
   to the access. *)
let test_step_limit_sweep () =
  let source =
    {|
    class Main {
      static void main() {
        int[] a = new int[4];
        for (int i = 0; i < a.length; i = i + 1) {
          a[i] = a[i] + i;
          a[i] = a[i] - 1;
        }
        print("a3", a[3]);
      }
    }
  |}
  in
  let compiled = compiled_of "step-limit-loop" source in
  let main =
    let img = compiled.Pipeline.image in
    img.Link.i_methods.(img.Link.i_main).Link.m_code
  in
  List.iter
    (fun (kind, is) ->
      if not (Array.exists is main) then
        Alcotest.failf "the loop no longer links a %s superinstruction" kind)
    [
      ("checked aload", function Link.Laload_checked _ -> true | _ -> false);
      ("checked astore", function Link.Lastore_checked _ -> true | _ -> false);
      ("const+add", function Link.Lconst_add _ -> true | _ -> false);
      ("const+sub", function Link.Lconst_sub _ -> true | _ -> false);
      ("lt+if", function Link.Llt_if _ -> true | _ -> false);
    ];
  let vm =
    {
      (Pipeline.vm_config_of compiled.Pipeline.config) with
      Interp.all_accesses = true;
    }
  in
  let total = (observe ~engine:`Ref compiled vm).o_steps in
  if total < 40 then Alcotest.failf "loop ran only %d steps" total;
  for max_steps = 1 to total + 1 do
    let vm = { vm with Interp.max_steps } in
    let label = Printf.sprintf "max_steps %d" max_steps in
    let a = same_three_ways label compiled vm in
    Alcotest.(check (option string))
      (label ^ " stops at the limit")
      (if max_steps < total then Some "step limit exceeded" else None)
      a.o_error
  done

(* PCT crosses a change point at the first slice end whose step count
   reaches it, so a superinstruction that ran past its budget would move
   a slice end by a step and reorder the threads.  Dense change points
   over two threads sharing an array loop, at quanta 2 and 3, put slice
   ends on every covered slot. *)
let test_pct_change_points () =
  let source =
    {|
    class W extends Thread {
      int[] a;
      void run() {
        for (int i = 0; i < a.length; i = i + 1) { a[i] = a[i] + 1; }
      }
    }
    class Main {
      static void main() {
        int[] a = new int[6];
        W w1 = new W(); w1.a = a;
        W w2 = new W(); w2.a = a;
        w1.start(); w2.start();
        w1.join(); w2.join();
        print("a0", a[0]);
      }
    }
  |}
  in
  let compiled = compiled_of "pct-loop" source in
  let vm =
    {
      (Pipeline.vm_config_of compiled.Pipeline.config) with
      Interp.all_accesses = true;
    }
  in
  let total = (observe ~engine:`Ref compiled vm).o_steps in
  List.iter
    (fun quantum ->
      for seed = 0 to 19 do
        let vm =
          {
            vm with
            Interp.seed;
            quantum;
            policy = Interp.Pct { depth = total / 4; horizon = total };
          }
        in
        ignore
          (same_three_ways
             (Printf.sprintf "pct quantum %d seed %d" quantum seed)
             compiled vm)
      done)
    [ 2; 3 ]

(* The scheduler takes a decision inside the slice loop when a slice
   ends on its budget and no thread's readiness can have changed, and
   rescans otherwise.  This program puts a slice end on every kind of
   boundary that matters to that choice: a yield (which must end the
   stretch so PCT can demote the yielder), a call and a return, a
   thread's final return, a monitor exit, wait and notify, start and
   join.  Quanta 1-4 end slices on each of them in turn. *)
let slice_boundary_source =
  {|
  class Box {
    int v;
    boolean full;
    synchronized void put(int x) {
      while (full) { this.wait(); }
      v = x;
      full = true;
      this.notifyAll();
    }
    synchronized int take() {
      while (!full) { this.wait(); }
      full = false;
      this.notify();
      return v;
    }
  }
  class Flag { boolean up; int hits; }
  class P extends Thread {
    Box b; Flag f;
    int twice(int x) { return x + x; }
    void run() {
      for (int i = 0; i < 4; i = i + 1) { b.put(twice(i)); }
      int s = 0;
      for (int i = 0; i < 8; i = i + 1) { s = s + twice(i); }
      f.up = true;
      f.hits = f.hits + s;
    }
  }
  class C extends Thread {
    Box b; Flag f; int sum;
    void run() {
      for (int i = 0; i < 4; i = i + 1) { sum = sum + b.take(); }
      while (!f.up) { Thread.yield(); }
      f.hits = f.hits + 1;
    }
  }
  class Main {
    static void main() {
      Box b = new Box(); Flag f = new Flag();
      P p = new P(); p.b = b; p.f = f;
      C c = new C(); c.b = b; c.f = f;
      p.start(); c.start();
      p.join(); c.join();
      print("sum", c.sum);
    }
  }
|}

let test_slice_boundaries ~pct quantum () =
  let compiled = compiled_of "slice-boundaries" slice_boundary_source in
  let code =
    Array.to_list compiled.Pipeline.image.Link.i_methods
    |> List.map (fun (m : Link.lmethod) -> m.Link.m_code)
    |> Array.concat
  in
  List.iter
    (fun (kind, is) ->
      if not (Array.exists is code) then
        Alcotest.failf "the program no longer links a %s" kind)
    [
      ("yield", function Link.Lyield -> true | _ -> false);
      ("call", function Link.Lcall _ -> true | _ -> false);
      ("return", function Link.Lret _ -> true | _ -> false);
      ("monitor exit", function Link.Lmonitorexit _ -> true | _ -> false);
      ("wait", function Link.Lwait _ -> true | _ -> false);
      ("notify", function Link.Lnotify _ -> true | _ -> false);
      ("thread start", function Link.Lthreadstart _ -> true | _ -> false);
      ("thread join", function Link.Lthreadjoin _ -> true | _ -> false);
    ];
  let base =
    { (Pipeline.vm_config_of compiled.Pipeline.config) with Interp.quantum }
  in
  let total = (observe ~engine:`Ref compiled base).o_steps in
  for seed = 0 to 19 do
    let vm =
      {
        base with
        Interp.seed;
        policy =
          (if pct then Interp.Pct { depth = total / 4; horizon = total }
           else Interp.Random_walk);
      }
    in
    let a =
      same_three_ways
        (Printf.sprintf "%s quantum %d seed %d"
           (if pct then "pct" else "random-walk")
           quantum seed)
        compiled vm
    in
    Alcotest.(check (option string)) "run completes" None a.o_error;
    Alcotest.(check bool)
      "the consumer took every item" true
      (a.o_prints = [ ("sum", Some (Value.Vint 12)) ])
  done

(* The slice loop skips the write barrier on a register store that
   would write the identical value.  Under a 4k-word minor heap and
   [space_overhead] 20 minor collections are constant and a major cycle
   is almost always marking while registers are rewritten, so a skipped
   barrier that mattered would lose a live value or keep a stale one and
   show as a diverging report, step count or fingerprint. *)
let test_gc_stress () =
  let saved = Gc.get () in
  Fun.protect
    ~finally:(fun () -> Gc.set saved)
    (fun () ->
      Gc.set { saved with Gc.minor_heap_size = 4096; space_overhead = 20 };
      List.iter
        (fun name ->
          let source = List.assoc name sources in
          let compiled = compiled_of name source in
          let vm = Pipeline.vm_config_of compiled.Pipeline.config in
          let o = same_three_ways (name ^ " under GC stress") compiled vm in
          if o.o_error <> None || o.o_steps = 0 then
            Alcotest.failf "%s did not run to completion" name)
        [ "sor2"; "mtrt"; "tsp" ])

let test_record_log name source () =
  (* The post-mortem recording path proper (not just its sink as a tap)
     must also be engine-independent. *)
  let compiled = compiled_of name source in
  let log_ref, r_ref = Pipeline.record_log ~engine:`Ref compiled in
  let log_lin, r_lin = Pipeline.record_log ~engine:`Linked compiled in
  check_logs (name ^ " record_log") (Event_log.entries log_ref)
    (Event_log.entries log_lin);
  Alcotest.(check int)
    (name ^ " record_log steps") r_ref.Pipeline.steps r_lin.Pipeline.steps

let suite =
  let strategies =
    [ Strategy.Sweep; Strategy.Jitter; Strategy.Pct 3 ]
  in
  List.concat_map
    (fun (name, source) ->
      List.map
        (fun strategy ->
          Alcotest.test_case
            (Printf.sprintf "%s x %s byte-identical" name
               (Strategy.name strategy))
            `Quick
            (test_identity name source strategy))
        strategies
      @ [
          Alcotest.test_case
            (name ^ " record_log byte-identical")
            `Quick (test_record_log name source);
          Alcotest.test_case
            (name ^ " quanta 1-3 and pct byte-identical")
            `Quick
            (test_budget_boundaries name source);
        ])
    sources
  @ [
      Alcotest.test_case "step limit on every slot byte-identical" `Quick
        test_step_limit_sweep;
      Alcotest.test_case "dense pct change points byte-identical" `Quick
        test_pct_change_points;
    ]
  @ List.concat_map
      (fun pct ->
        List.map
          (fun quantum ->
            Alcotest.test_case
              (Printf.sprintf "slice boundaries %s quantum %d byte-identical"
                 (if pct then "pct" else "random-walk")
                 quantum)
              `Quick
              (test_slice_boundaries ~pct quantum))
          [ 1; 2; 3; 4 ])
      [ false; true ]
  @ [
      Alcotest.test_case "sor2, mtrt, tsp under GC stress byte-identical"
        `Quick test_gc_stress;
    ]
