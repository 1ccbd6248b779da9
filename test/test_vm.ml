(* End-to-end tests of the MiniJava VM: sequential semantics, object
   orientation, arrays, threads, monitors, and the interaction of the
   whole instrumented pipeline with the detector — including the paper's
   Figure 2 example. *)

module Value = Drd_vm.Value
module Interp = Drd_vm.Interp

let check_ints msg expected outcome =
  Alcotest.(check (list (pair string int))) msg expected (Pipe.ints outcome.Pipe.prints)

(* Check reported race locations by substring patterns (heap ids in the
   decoded names depend on allocation order, so exact names are
   brittle). *)
let check_races msg patterns out =
  let locs = out.Pipe.race_locs in
  Alcotest.(check int) (msg ^ ": count") (List.length patterns) (List.length locs);
  List.iter2
    (fun pat loc ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %s matches %s" msg loc pat)
        true
        (Astring_contains.contains loc pat))
    (List.sort compare patterns)
    locs

let test_arith_and_arrays () =
  let out =
    Pipe.run
      {|
      class Main {
        static void main() {
          int x = 2 + 3 * 4;
          print("x", x);
          int y = (20 - 2) / 3 % 4;
          print("y", y);
          int[] a = new int[5];
          for (int i = 0; i < a.length; i = i + 1) { a[i] = i * i; }
          print("a4", a[4]);
          print("len", a.length);
          boolean b = x > 10 && y < 3 || false;
          if (b) { print("b", 1); } else { print("b", 0); }
        }
      }
    |}
  in
  check_ints "arith" [ ("x", 14); ("y", 2); ("a4", 16); ("len", 5); ("b", 1) ] out;
  Alcotest.(check int) "no races" 0 (List.length out.Pipe.races)

let test_control_flow () =
  let out =
    Pipe.run
      {|
      class Main {
        static void main() {
          int sum = 0;
          int i = 0;
          while (true) {
            i = i + 1;
            if (i % 2 == 0) { continue; }
            if (i > 9) { break; }
            sum = sum + i;
          }
          print("sum", sum);  // 1+3+5+7+9 = 25
          int f = 1;
          for (int k = 1; k <= 5; k = k + 1) { f = f * k; }
          print("fact", f);
        }
      }
    |}
  in
  check_ints "control" [ ("sum", 25); ("fact", 120) ] out

let test_objects_dispatch () =
  let out =
    Pipe.run
      {|
      class A {
        int v;
        A(int v0) { v = v0; }
        int get() { return v; }
        int twice() { return this.get() * 2; }
      }
      class B extends A {
        B(int v0) { v = v0 + 100; }
        int get() { return v + 1; }
      }
      class Main {
        static void main() {
          A a = new A(5);
          A b = new B(5);
          print("a", a.twice());    // 10
          print("b", b.twice());    // (105+1)*2 = 212
          print("bv", b.v);         // 105
        }
      }
    |}
  in
  check_ints "dispatch" [ ("a", 10); ("b", 212); ("bv", 105) ] out

let test_static_fields_and_methods () =
  let out =
    Pipe.run
      {|
      class Util {
        static int counter;
        static int next() { counter = counter + 1; return counter; }
        static int abs(int x) { if (x < 0) { return 0 - x; } return x; }
      }
      class Main {
        static void main() {
          print("n1", Util.next());
          print("n2", Util.next());
          print("abs", Util.abs(0 - 42));
          print("c", Util.counter);
        }
      }
    |}
  in
  check_ints "statics" [ ("n1", 1); ("n2", 2); ("abs", 42); ("c", 2) ] out

let test_multidim_arrays () =
  let out =
    Pipe.run
      {|
      class Main {
        static void main() {
          int[][] m = new int[3][4];
          for (int i = 0; i < 3; i = i + 1) {
            for (int j = 0; j < 4; j = j + 1) { m[i][j] = i * 10 + j; }
          }
          print("m23", m[2][3]);
          print("rows", m.length);
          print("cols", m[0].length);
        }
      }
    |}
  in
  check_ints "multidim" [ ("m23", 23); ("rows", 3); ("cols", 4) ] out

let counter_src ~sync =
  Printf.sprintf
    {|
    class Counter { int n; %s void inc() { n = n + 1; } }
    class Worker extends Thread {
      Counter c; int iters;
      void run() { for (int i = 0; i < iters; i = i + 1) { c.inc(); } }
    }
    class Main {
      static void main() {
        Counter c = new Counter();
        Worker w1 = new Worker(); w1.c = c; w1.iters = 50;
        Worker w2 = new Worker(); w2.c = c; w2.iters = 50;
        w1.start(); w2.start();
        w1.join(); w2.join();
        print("n", c.n);
      }
    }
  |}
    (if sync then "synchronized" else "")

let test_threads_synchronized_counter () =
  let out = Pipe.run (counter_src ~sync:true) in
  check_ints "counter value" [ ("n", 100) ] out;
  Alcotest.(check (list string)) "no races with synchronization" []
    out.Pipe.race_locs;
  Alcotest.(check int) "three threads" 3 out.Pipe.result.Interp.r_max_threads

let test_threads_unsynchronized_counter_races () =
  let out = Pipe.run (counter_src ~sync:false) in
  check_races "race on Counter.n" [ "Counter#"; ] out |> ignore;
  check_races "race on Counter.n" [ ".n" ] out

(* The paper's Figure 2, with all object references aliased to [x]. *)
let figure2 ~same_pq =
  Printf.sprintf
    {|
    class Data { int f; int g; }
    class T1 extends Thread {
      Data a; Data b; Object p;
      synchronized void foo() {
        a.f = 50;                       // T11
        synchronized (p) { b.g = b.f; } // T13, T14
      }
      void run() { foo(); }
    }
    class T2 extends Thread {
      Data d; Object q;
      void bar() { synchronized (q) { d.f = 10; } } // T20, T21
      void run() { bar(); }
    }
    class Main {
      static void main() {
        Data x = new Data();
        x.f = 100;                      // T01
        Object shared = new Object();
        T1 t1 = new T1(); t1.a = x; t1.b = x; t1.p = %s;
        T2 t2 = new T2(); t2.d = x; t2.q = %s;
        t1.start();                     // T04
        t2.start();                     // T05
        t1.join(); t2.join();
      }
    }
  |}
    (if same_pq then "shared" else "new Object()")
    (if same_pq then "shared" else "new Object()")

let test_figure2 () =
  let out = Pipe.run (figure2 ~same_pq:false) in
  check_races "race on x.f only; T01 ordered by start" [ ".f" ] out

let test_figure2_feasible_race () =
  (* With p == q the happened-before tools would order T11 before T21 via
     the common lock and miss the feasible race; our lockset-based
     definition still reports it (Section 2.2). *)
  let races = ref [] in
  List.iter
    (fun seed ->
      let out = Pipe.run ~seed (figure2 ~same_pq:true) in
      races := out.Pipe.race_locs :: !races)
    [ 1; 7; 42; 1234 ];
  List.iter
    (fun locs ->
      Alcotest.(check int) "one race per schedule" 1 (List.length locs);
      Alcotest.(check bool) "feasible race on .f" true
        (Astring_contains.contains (List.hd locs) ".f"))
    !races

let test_monitor_mutual_exclusion () =
  (* With synchronization, increments are atomic: read-modify-write under
     a lock can never interleave, so the counter is exact under any
     seed. *)
  List.iter
    (fun seed ->
      let out = Pipe.run ~seed (counter_src ~sync:true) in
      check_ints "exact counter" [ ("n", 100) ] out)
    [ 1; 2; 3; 99; 12345 ]

let test_reentrant_monitor () =
  let out =
    Pipe.run
      {|
      class R {
        int v;
        synchronized void outer() { this.inner(); }
        synchronized void inner() { v = v + 1; }
      }
      class Main {
        static void main() {
          R r = new R();
          r.outer();
          print("v", r.v);
        }
      }
    |}
  in
  check_ints "reentrancy" [ ("v", 1) ] out

let test_join_semantics () =
  (* Parent must observe the child's writes after join, under any seed. *)
  List.iter
    (fun seed ->
      let out =
        Pipe.run ~seed
          {|
          class W extends Thread {
            int result;
            void run() {
              int acc = 0;
              for (int i = 1; i <= 10; i = i + 1) { acc = acc + i; }
              result = acc;
            }
          }
          class Main {
            static void main() {
              W w = new W();
              w.start();
              w.join();
              print("r", w.result);
            }
          }
        |}
      in
      check_ints "join waits" [ ("r", 55) ] out;
      Alcotest.(check (list string)) "join orders accesses" []
        out.Pipe.race_locs)
    [ 1; 5; 42 ]

let expect_error msg pattern f =
  match f () with
  | exception Interp.Runtime_error m ->
      Alcotest.(check bool)
        (msg ^ ": got " ^ m)
        true
        (Astring_contains.contains m pattern)
  | _ -> Alcotest.fail (msg ^ ": expected a runtime error")

let test_runtime_errors () =
  expect_error "null deref" "NullPointerException" (fun () ->
      Pipe.run
        {| class A { int f; }
           class Main { static void main() { A a = null; print("x", a.f); } } |});
  expect_error "bounds" "ArrayIndexOutOfBounds" (fun () ->
      Pipe.run
        {| class Main { static void main() { int[] a = new int[2]; print("x", a[5]); } } |});
  expect_error "div by zero" "division by zero" (fun () ->
      Pipe.run
        {| class Main { static void main() { int z = 0; print("x", 1 / z); } } |});
  expect_error "missing return" "missing return" (fun () ->
      Pipe.run
        {| class Main {
             static int f(boolean b) { if (b) { return 1; } }
             static void main() { print("x", f(false)); } } |});
  expect_error "double start" "started twice" (fun () ->
      Pipe.run
        {| class W extends Thread { void run() { } }
           class Main { static void main() { W w = new W(); w.start(); w.start(); } } |})

(* Array errors raised inside the fused nullcheck+boundscheck+access
   superinstructions carry the reference interpreter's exact message and
   source line. *)
let test_fused_array_errors () =
  let module Pipeline = Drd_harness.Pipeline in
  let module Link = Drd_ir.Link in
  let source ~decl ~access =
    String.concat "\n"
      [
        "class Main {";
        "  static void main() {";
        "    int[] a = " ^ decl ^ ";";
        "    " ^ access;
        "  }";
        "}";
      ]
  in
  let fused = function
    | Link.Laload_checked _ | Link.Lastore_checked _ -> true
    | _ -> false
  in
  let message engine compiled =
    match Pipeline.run ~engine compiled with
    | _ -> None
    | exception Interp.Runtime_error m -> Some m
  in
  List.iter
    (fun (label, decl, access, expected) ->
      let compiled =
        Pipeline.compile Drd_harness.Config.base ~source:(source ~decl ~access)
      in
      let img = compiled.Pipeline.image in
      if not (Array.exists fused img.Link.i_methods.(img.Link.i_main).Link.m_code)
      then Alcotest.failf "%s: the access is not linked as a superinstruction" label;
      let linked = message `Linked compiled in
      Alcotest.(check (option string))
        (label ^ ": same message as ref")
        (message `Ref compiled) linked;
      Alcotest.(check (option string)) (label ^ ": message") (Some expected) linked)
    [
      ( "null load",
        "null",
        "print(\"x\", a[0]);",
        "NullPointerException at Main.main line 4" );
      ("null store", "null", "a[0] = 1;", "NullPointerException at Main.main line 4");
      ( "load at -1",
        "new int[3]",
        "print(\"x\", a[0 - 1]);",
        "ArrayIndexOutOfBoundsException: -1 (length 3) at Main.main line 4" );
      ( "store at -1",
        "new int[3]",
        "a[0 - 1] = 1;",
        "ArrayIndexOutOfBoundsException: -1 (length 3) at Main.main line 4" );
      ( "load at length",
        "new int[3]",
        "print(\"x\", a[3]);",
        "ArrayIndexOutOfBoundsException: 3 (length 3) at Main.main line 4" );
      ( "store at length",
        "new int[3]",
        "a[3] = 1;",
        "ArrayIndexOutOfBoundsException: 3 (length 3) at Main.main line 4" );
    ]

(* Every runtime error the linked interpreter raises from a cold,
   out-of-line path must read exactly as the reference interpreter's, on
   every engine, whichever slot of a superinstruction it lands on:
   quanta 1 and 2 end slices inside the fused ops, so their single-slot
   fallbacks raise too.  The step-limit row sweeps the limit across a
   whole iteration of a loop whose body is fused array accesses. *)
let test_cold_path_parity () =
  let module Pipeline = Drd_harness.Pipeline in
  let module Config = Drd_harness.Config in
  let module Link = Drd_ir.Link in
  let main body =
    Printf.sprintf "class Main {\n  static void main() {\n%s\n  }\n}" body
  in
  let with_a body = "class A { int f; int g() { return f; } }\n" ^ main body in
  let loop =
    main
      {|    int[] a = new int[4];
    int s = 0;
    for (int i = 0; i < a.length; i = i + 1) { a[i] = a[i] + i; s = s + a[i]; }
    print("s", s);|}
  in
  let traced =
    {|class A { int f; }
class W extends Thread { A a; void run() { a.f = 1; } }
class Main {
  static void main() {
    A a = new A();
    W w = new W(); w.a = a; w.start();
    a.f = 2;
    w.join();
    a = null;
    a.f = 3;
  }
}|}
  in
  let require what is source =
    let c = Pipeline.compile Config.full ~source in
    if
      not
        (Array.exists
           (fun (m : Link.lmethod) -> Array.exists is m.Link.m_code)
           c.Pipeline.image.Link.i_methods)
    then Alcotest.failf "no %s is linked" what
  in
  require "specialized field trace"
    (function Link.Ltrace_field_spec _ -> true | _ -> false)
    traced;
  require "checked array load"
    (function Link.Laload_checked _ -> true | _ -> false)
    loop;
  let rows =
    [
      ( "getfield on null",
        with_a "    A a = null;\n    print(\"x\", a.f);",
        None,
        "NullPointerException at Main.main line 5" );
      ( "putfield on null",
        with_a "    A a = null;\n    a.f = 1;",
        None,
        "NullPointerException at Main.main line 5" );
      ( "array load on null",
        main "    int[] a = null;\n    print(\"x\", a[0]);",
        None,
        "NullPointerException at Main.main line 4" );
      ( "array store on null",
        main "    int[] a = null;\n    a[0] = 1;",
        None,
        "NullPointerException at Main.main line 4" );
      ( "length on null",
        main "    int[] a = null;\n    print(\"x\", a.length);",
        None,
        "NullPointerException at Main.main line 4" );
      ( "virtual call on null",
        with_a "    A a = null;\n    print(\"x\", a.g());",
        None,
        "NullPointerException at Main.main line 5" );
      ( "traced store on null", traced, None,
        "NullPointerException at Main.main line 10" );
      ( "synchronized on null",
        with_a "    A a = null;\n    synchronized (a) { print(\"x\", 1); }",
        None,
        "NullPointerException at Main.main line 5" );
      ( "load at -1",
        main "    int[] a = new int[3];\n    print(\"x\", a[0 - 1]);",
        None,
        "ArrayIndexOutOfBoundsException: -1 (length 3) at Main.main line 4" );
      ( "store at -1",
        main "    int[] a = new int[3];\n    a[0 - 1] = 1;",
        None,
        "ArrayIndexOutOfBoundsException: -1 (length 3) at Main.main line 4" );
      ( "load at length",
        main "    int[] a = new int[3];\n    print(\"x\", a[3]);",
        None,
        "ArrayIndexOutOfBoundsException: 3 (length 3) at Main.main line 4" );
      ( "store at length",
        main "    int[] a = new int[3];\n    a[3] = 1;",
        None,
        "ArrayIndexOutOfBoundsException: 3 (length 3) at Main.main line 4" );
      ( "division by zero",
        main "    int z = 0;\n    print(\"x\", 1 / z);",
        None,
        "division by zero at line 4" );
      ( "modulo by zero",
        main "    int z = 0;\n    print(\"x\", 1 % z);",
        None,
        "division by zero at line 4" );
      ( "missing return",
        {|class Main {
  static int f(boolean b) { if (b) { return 1; } }
  static void main() { print("x", f(false)); }
}|},
        None,
        "missing return in Main.f" );
    ]
    @ List.init 24 (fun k ->
          ( Printf.sprintf "step limit %d" (20 + k),
            loop,
            Some (20 + k),
            "step limit exceeded" ))
  in
  let message engine compiled vm =
    match Pipeline.run ~engine ~vm compiled with
    | _ -> None
    | exception Interp.Runtime_error m -> Some m
  in
  List.iter
    (fun (label, source, max_steps, expected) ->
      let compiled = Pipeline.compile Config.full ~source in
      let base = Pipeline.vm_config_of compiled.Pipeline.config in
      let base =
        match max_steps with
        | Some max_steps -> { base with Interp.max_steps }
        | None -> base
      in
      List.iter
        (fun quantum ->
          let vm = { base with Interp.quantum } in
          let label = Printf.sprintf "%s, quantum %d" label quantum in
          let ref_msg = message `Ref compiled vm in
          Alcotest.(check (option string))
            (label ^ ": ref") (Some expected) ref_msg;
          Alcotest.(check (option string))
            (label ^ ": linked") ref_msg (message `Linked compiled vm);
          Alcotest.(check (option string))
            (label ^ ": specialized") ref_msg (message `Spec compiled vm))
        [ 1; 2; base.Interp.quantum ])
    rows

let test_deadlock_detected () =
  expect_error "deadlock" "deadlock" (fun () ->
      Pipe.run
        {|
        class L { }
        class W extends Thread {
          L a; L b;
          void run() {
            synchronized (a) {
              int spin = 0;
              for (int i = 0; i < 300; i = i + 1) { spin = spin + 1; }
              synchronized (b) { spin = spin + 1; }
            }
          }
        }
        class Main {
          static void main() {
            L l1 = new L(); L l2 = new L();
            W w1 = new W(); w1.a = l1; w1.b = l2;
            W w2 = new W(); w2.a = l2; w2.b = l1;
            w1.start(); w2.start();
            w1.join(); w2.join();
          }
        }
      |})

let test_determinism () =
  let run () =
    let out = Pipe.run ~seed:7 (counter_src ~sync:false) in
    (out.Pipe.race_locs, out.Pipe.stats.Drd_core.Detector.events_in,
     out.Pipe.result.Interp.r_steps)
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "identical reruns" true (a = b)

let test_thread_default_run () =
  (* A bare Thread has an empty run(). *)
  let out =
    Pipe.run
      {| class Main {
           static void main() {
             Thread t = new Thread();
             t.start(); t.join();
             print("ok", 1);
           } } |}
  in
  check_ints "bare thread" [ ("ok", 1) ] out

let suite =
  [
    Alcotest.test_case "arith and arrays" `Quick test_arith_and_arrays;
    Alcotest.test_case "control flow" `Quick test_control_flow;
    Alcotest.test_case "objects and dispatch" `Quick test_objects_dispatch;
    Alcotest.test_case "static members" `Quick test_static_fields_and_methods;
    Alcotest.test_case "multi-dim arrays" `Quick test_multidim_arrays;
    Alcotest.test_case "synchronized counter" `Quick test_threads_synchronized_counter;
    Alcotest.test_case "unsynchronized counter races" `Quick
      test_threads_unsynchronized_counter_races;
    Alcotest.test_case "figure 2" `Quick test_figure2;
    Alcotest.test_case "figure 2 feasible race" `Quick test_figure2_feasible_race;
    Alcotest.test_case "monitor mutual exclusion" `Quick test_monitor_mutual_exclusion;
    Alcotest.test_case "reentrant monitor" `Quick test_reentrant_monitor;
    Alcotest.test_case "join semantics" `Quick test_join_semantics;
    Alcotest.test_case "runtime errors" `Quick test_runtime_errors;
    Alcotest.test_case "array errors inside superinstructions" `Quick
      test_fused_array_errors;
    Alcotest.test_case "deadlock detected" `Quick test_deadlock_detected;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "bare Thread" `Quick test_thread_default_run;
    Alcotest.test_case "cold-path errors identical on every engine" `Quick
      test_cold_path_parity;
  ]
