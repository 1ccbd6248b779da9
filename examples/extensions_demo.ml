(* The Section 10 future-work items, implemented: potential-deadlock
   detection from lock-order graphs, dynamic immutability analysis, and
   the post-mortem mode of Section 1 (record the event stream, detect
   off-line).

   Run with:  dune exec examples/extensions_demo.exe *)

module H = Drd_harness
open Drd_core

let hazard_src =
  {|
  class Resource { int uses; }
  class Transfer extends Thread {
    Resource from; Resource to_;
    Transfer(Resource a, Resource b) { from = a; to_ = b; }
    void run() {
      synchronized (from) {
        synchronized (to_) {
          from.uses = from.uses + 1;
          to_.uses = to_.uses + 1;
        }
      }
    }
  }
  class Main {
    static void main() {
      Resource a = new Resource();
      Resource b = new Resource();
      Transfer t1 = new Transfer(a, b);   // locks a then b
      Transfer t2 = new Transfer(b, a);   // locks b then a!
      t1.start();
      t1.join();        // this run happens to serialize them ...
      t2.start();
      t2.join();
      print("uses", a.uses + b.uses);
    }
  }
|}

(* Both analyses are taps: they observe the run's event stream next to
   the race detector. *)
let run_tapped source =
  let locks = Lock_order.create () in
  let immut = Immutability.create () in
  let tap = Drd_vm.Sink.(tee (lock_order locks) (immutability immut)) in
  let r = H.Pipeline.run ~tap (H.Pipeline.compile H.Config.full ~source) in
  (r, locks, immut)

let () =
  Fmt.pr "=== potential deadlocks (lock-order cycles) ===@.";
  let r, lock_order, _ = run_tapped hazard_src in
  Fmt.pr "the run completed (uses printed: %d values), no dataraces: %b@."
    (List.length r.H.Pipeline.prints)
    (r.H.Pipeline.races = []);
  List.iter
    (fun (d : Lock_order.report) ->
      Fmt.pr
        "POTENTIAL DEADLOCK: locks {%a} are acquired in conflicting order by \
         threads {%a}@."
        Fmt.(list ~sep:comma int)
        d.Lock_order.dl_locks
        Fmt.(list ~sep:comma int)
        d.Lock_order.dl_threads)
    (Lock_order.potential_deadlocks lock_order);
  Fmt.pr
    "The hazard is reported although this schedule never blocked — the@.";
  Fmt.pr "cycle exists in the lock-order graph.@.";

  Fmt.pr "@.=== dynamic immutability analysis ===@.";
  List.iter
    (fun (b : H.Programs.benchmark) ->
      let _, _, immut = run_tapped b.H.Programs.b_source in
      Fmt.pr "  %-10s %a@." b.H.Programs.b_name Immutability.pp_summary
        (Immutability.summary immut))
    H.Programs.benchmarks;
  Fmt.pr
    "Shared-immutable locations are the initialize-then-publish data that@.";
  Fmt.pr "needs no locking; shared-mutable is where discipline matters.@.";

  Fmt.pr "@.=== post-mortem detection (Section 1) ===@.";
  let b = Option.get (H.Programs.find "hedc") in
  let compiled = H.Pipeline.compile H.Config.full ~source:b.H.Programs.b_source in
  let log, _ = H.Pipeline.record_log compiled in
  Fmt.pr "recorded %d events during execution@." (Event_log.length log);
  let coll, stats = H.Pipeline.detect_post_mortem H.Config.full log in
  Fmt.pr "off-line detection: %d races on %d tracked locations@."
    (Report.count coll) stats.Detector.locations_tracked;
  Fmt.pr "(identical to the online reports — see test/test_postmortem.ml)@."
