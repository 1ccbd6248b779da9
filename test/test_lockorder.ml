(* Potential-deadlock detection via lock-order graphs — the Section 10
   future-work extension: cycles are found even in runs that happened
   not to deadlock, and gate locks suppress serialized cycles. *)

module Lock_order = Drd_core.Lock_order
module H = Drd_harness

let test_two_lock_cycle () =
  let t = Lock_order.create () in
  (* T1: a then b; T2: b then a — classic. *)
  Lock_order.on_acquire t ~thread:1 ~lock:10;
  Lock_order.on_acquire t ~thread:1 ~lock:20;
  Lock_order.on_release t ~thread:1 ~lock:20;
  Lock_order.on_release t ~thread:1 ~lock:10;
  Lock_order.on_acquire t ~thread:2 ~lock:20;
  Lock_order.on_acquire t ~thread:2 ~lock:10;
  Lock_order.on_release t ~thread:2 ~lock:10;
  Lock_order.on_release t ~thread:2 ~lock:20;
  match Lock_order.potential_deadlocks t with
  | [ r ] ->
      Alcotest.(check (list int)) "locks" [ 10; 20 ] r.Lock_order.dl_locks;
      Alcotest.(check (list int)) "threads" [ 1; 2 ] r.Lock_order.dl_threads
  | rs -> Alcotest.failf "expected one report, got %d" (List.length rs)

let test_same_thread_no_report () =
  let t = Lock_order.create () in
  (* One thread acquiring in both orders cannot deadlock with itself. *)
  Lock_order.on_acquire t ~thread:1 ~lock:10;
  Lock_order.on_acquire t ~thread:1 ~lock:20;
  Lock_order.on_release t ~thread:1 ~lock:20;
  Lock_order.on_release t ~thread:1 ~lock:10;
  Lock_order.on_acquire t ~thread:1 ~lock:20;
  Lock_order.on_acquire t ~thread:1 ~lock:10;
  Lock_order.on_release t ~thread:1 ~lock:10;
  Lock_order.on_release t ~thread:1 ~lock:20;
  Alcotest.(check int) "no report" 0
    (List.length (Lock_order.potential_deadlocks t))

let test_gate_lock_suppresses () =
  let t = Lock_order.create () in
  (* Both opposite-order acquisitions happen under a common gate g=5:
     serialized, no deadlock possible. *)
  Lock_order.on_acquire t ~thread:1 ~lock:5;
  Lock_order.on_acquire t ~thread:1 ~lock:10;
  Lock_order.on_acquire t ~thread:1 ~lock:20;
  List.iter (fun l -> Lock_order.on_release t ~thread:1 ~lock:l) [ 20; 10; 5 ];
  Lock_order.on_acquire t ~thread:2 ~lock:5;
  Lock_order.on_acquire t ~thread:2 ~lock:20;
  Lock_order.on_acquire t ~thread:2 ~lock:10;
  List.iter (fun l -> Lock_order.on_release t ~thread:2 ~lock:l) [ 10; 20; 5 ];
  Alcotest.(check int) "gate lock suppresses" 0
    (List.length (Lock_order.potential_deadlocks t))

let test_gate_must_be_common () =
  let t = Lock_order.create () in
  (* Different gates do not serialize. *)
  Lock_order.on_acquire t ~thread:1 ~lock:5;
  Lock_order.on_acquire t ~thread:1 ~lock:10;
  Lock_order.on_acquire t ~thread:1 ~lock:20;
  List.iter (fun l -> Lock_order.on_release t ~thread:1 ~lock:l) [ 20; 10; 5 ];
  Lock_order.on_acquire t ~thread:2 ~lock:6;
  Lock_order.on_acquire t ~thread:2 ~lock:20;
  Lock_order.on_acquire t ~thread:2 ~lock:10;
  List.iter (fun l -> Lock_order.on_release t ~thread:2 ~lock:l) [ 10; 20; 6 ];
  Alcotest.(check int) "distinct gates do not suppress" 1
    (List.length (Lock_order.potential_deadlocks t))

let test_three_cycle () =
  let t = Lock_order.create () in
  let edge th a b =
    Lock_order.on_acquire t ~thread:th ~lock:a;
    Lock_order.on_acquire t ~thread:th ~lock:b;
    Lock_order.on_release t ~thread:th ~lock:b;
    Lock_order.on_release t ~thread:th ~lock:a
  in
  edge 1 10 20;
  edge 2 20 30;
  edge 3 30 10;
  match Lock_order.potential_deadlocks t with
  | [ r ] ->
      Alcotest.(check (list int)) "three locks" [ 10; 20; 30 ] r.Lock_order.dl_locks
  | rs -> Alcotest.failf "expected one report, got %d" (List.length rs)

(* The potential deadlocks of one Full run, from the lock-order tap. *)
let deadlocks_of source =
  let t = Lock_order.create () in
  let r =
    H.Pipeline.run ~tap:(Drd_vm.Sink.lock_order t)
      (H.Pipeline.compile H.Config.full ~source)
  in
  (r, Lock_order.potential_deadlocks t)

(* End-to-end: a program whose opposite lock orders are serialized by
   join, so the run cannot deadlock — the graph still exposes the
   hazard. *)
let test_program_hazard () =
  let src =
    {|
    class L { }
    class First extends Thread {
      L a; L b;
      First(L x, L y) { a = x; b = y; }
      void run() { synchronized (a) { synchronized (b) { } } }
    }
    class Second extends Thread {
      L a; L b;
      Second(L x, L y) { a = x; b = y; }
      void run() { synchronized (b) { synchronized (a) { } } }
    }
    class Main {
      static void main() {
        L a = new L(); L b = new L();
        First f = new First(a, b);
        f.start();
        f.join();            // serializes the two threads
        Second s = new Second(a, b);
        s.start();
        s.join();
        print("ok", 1);
      }
    }
  |}
  in
  let r, deadlocks = deadlocks_of src in
  Alcotest.(check (list string)) "no datarace" [] r.H.Pipeline.races;
  Alcotest.(check int) "one potential deadlock" 1 (List.length deadlocks)

let test_benchmarks_deadlock_free () =
  List.iter
    (fun (b : H.Programs.benchmark) ->
      let _, deadlocks = deadlocks_of b.H.Programs.b_source in
      Alcotest.(check int)
        (b.H.Programs.b_name ^ " has no lock-order cycles")
        0 (List.length deadlocks))
    H.Programs.benchmarks

let suite =
  [
    Alcotest.test_case "two-lock cycle" `Quick test_two_lock_cycle;
    Alcotest.test_case "same thread quiet" `Quick test_same_thread_no_report;
    Alcotest.test_case "gate lock suppresses" `Quick test_gate_lock_suppresses;
    Alcotest.test_case "distinct gates report" `Quick test_gate_must_be_common;
    Alcotest.test_case "three-lock cycle" `Quick test_three_cycle;
    Alcotest.test_case "program hazard without deadlock" `Quick test_program_hazard;
    Alcotest.test_case "benchmarks deadlock-free" `Quick test_benchmarks_deadlock_free;
  ]
