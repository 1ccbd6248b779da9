(* Tests for the ownership model (paper Sections 2.3 and 7): the
   owned/shared state machine, the initialize-then-hand-off idiom it is
   designed to silence, and the join pseudo-lock machinery. *)

open Drd_core
open Event

let access d (e : Event.t) =
  ignore
    (Detector.on_access d ~loc:e.loc ~thread:e.thread ~locks:e.locks
       ~kind:e.kind ~site:e.site)

let test_state_machine () =
  let o = Ownership.create () in
  Alcotest.(check bool) "first access owned" true
    (Ownership.check o ~thread:1 ~loc:7 = Ownership.Owned_skip);
  Alcotest.(check (option int)) "owner recorded" (Some 1) (Ownership.owner o 7);
  Alcotest.(check bool) "owner re-access skipped" true
    (Ownership.check o ~thread:1 ~loc:7 = Ownership.Owned_skip);
  Alcotest.(check bool) "second thread shares" true
    (Ownership.check o ~thread:2 ~loc:7 = Ownership.Became_shared);
  Alcotest.(check bool) "now shared" true (Ownership.is_shared o 7);
  Alcotest.(check bool) "owner access forwarded once shared" true
    (Ownership.check o ~thread:1 ~loc:7 = Ownership.Already_shared);
  Alcotest.(check (option int)) "no owner once shared" None (Ownership.owner o 7);
  Alcotest.(check int) "one shared location" 1 (Ownership.shared_count o);
  Alcotest.(check int) "one tracked location" 1 (Ownership.tracked_count o)

(* The idiom of Section 2.3: a parent initializes data without locks and
   hands it to a child; with the ownership filter no race is reported,
   without it a spurious race appears. *)
let run_handoff ~use_ownership =
  let coll = Report.collector () in
  let d =
    Detector.create
      ~config:{ Detector.default_config with use_ownership }
      coll
  in
  let locks = Lockset.empty in
  (* Parent (T0) initializes locations 1 and 2. *)
  access d (make ~loc:1 ~thread:0 ~locks ~kind:Write ~site:1);
  access d (make ~loc:2 ~thread:0 ~locks ~kind:Write ~site:2);
  (* Child (T1) processes them, unsynchronized but after start. *)
  access d (make ~loc:1 ~thread:1 ~locks ~kind:Read ~site:3);
  access d (make ~loc:2 ~thread:1 ~locks ~kind:Write ~site:4);
  Report.count coll

let test_handoff_idiom () =
  Alcotest.(check int) "ownership filters the hand-off" 0
    (run_handoff ~use_ownership:true);
  Alcotest.(check int) "NoOwnership reports both locations" 2
    (run_handoff ~use_ownership:false)

(* Ownership delays but does not hide true races: after the hand-off, if
   the parent keeps writing concurrently with the child, a race is
   reported even with the filter on. *)
let test_true_race_survives_ownership () =
  let coll = Report.collector () in
  let d = Detector.create ~config:Detector.default_config coll in
  let locks = Lockset.empty in
  access d (make ~loc:1 ~thread:0 ~locks ~kind:Write ~site:1);
  access d (make ~loc:1 ~thread:1 ~locks ~kind:Read ~site:2);
  access d (make ~loc:1 ~thread:0 ~locks ~kind:Write ~site:3);
  Alcotest.(check int) "race reported" 1 (Report.count coll)

(* Join pseudo-locks: child writes under its dummy lock S_c (plus a real
   lock); after joining, the parent reads holding S_c — the locksets
   intersect, so no race.  Without the join edge the race is flagged. *)
let run_join ~with_join =
  let coll = Report.collector () in
  let d =
    Detector.create
      ~config:{ Detector.default_config with use_ownership = false }
      coll
  in
  let pl = Pseudo_lock.create () in
  Pseudo_lock.on_thread_start pl 0 1001;
  Pseudo_lock.on_thread_start pl 1 1002;
  (* Child T1 writes loc 5 with no real locks. *)
  access d
    (make_interned ~loc:5 ~thread:1 ~locks:(Pseudo_lock.locks_of pl 1)
       ~kind:Write ~site:1);
  if with_join then Pseudo_lock.on_join pl ~joiner:0 ~joinee:1;
  (* Parent reads loc 5 after the join. *)
  access d
    (make_interned ~loc:5 ~thread:0 ~locks:(Pseudo_lock.locks_of pl 0)
       ~kind:Read ~site:2);
  Report.count coll

let test_join_pseudo_locks () =
  Alcotest.(check int) "join orders accesses" 0 (run_join ~with_join:true);
  Alcotest.(check int) "no join, race" 1 (run_join ~with_join:false)

(* The mtrt idiom of Section 8.3: two children access statistics under a
   common lock; the parent accesses them after joining both, with no
   lock.  The locksets {S1,sync}, {S2,sync}, {S1,S2} are mutually
   intersecting, so our definition reports no race even though no single
   common lock protects the location. *)
let test_mtrt_join_idiom () =
  let coll = Report.collector () in
  let d =
    Detector.create
      ~config:{ Detector.default_config with use_ownership = false }
      coll
  in
  let pl = Pseudo_lock.create () in
  List.iter (fun tid -> Pseudo_lock.on_thread_start pl tid (1001 + tid)) [ 0; 1; 2 ];
  let sync = 500 in
  let child t =
    access d
      (make_interned ~loc:9 ~thread:t
         ~locks:(Lockset_id.add sync (Pseudo_lock.locks_of pl t))
         ~kind:Write ~site:t)
  in
  child 1;
  child 2;
  Pseudo_lock.on_join pl ~joiner:0 ~joinee:1;
  Pseudo_lock.on_join pl ~joiner:0 ~joinee:2;
  access d
    (make_interned ~loc:9 ~thread:0 ~locks:(Pseudo_lock.locks_of pl 0)
       ~kind:Read ~site:0);
  Alcotest.(check int) "mutually intersecting locksets: no race" 0
    (Report.count coll)

let test_dummy_of () =
  let pl = Pseudo_lock.create () in
  Alcotest.(check (option int)) "unregistered" None (Pseudo_lock.dummy_of pl 3);
  Pseudo_lock.on_thread_start pl 3 1;
  Alcotest.(check (option int)) "registered" (Some 1) (Pseudo_lock.dummy_of pl 3);
  Pseudo_lock.on_join pl ~joiner:9 ~joinee:3;
  Alcotest.(check (list int)) "joiner holds S_3" [ 1 ]
    (Lockset_id.to_sorted_list (Pseudo_lock.locks_of pl 9));
  (* Joining an unregistered thread is a no-op. *)
  Pseudo_lock.on_join pl ~joiner:9 ~joinee:77;
  Alcotest.(check (list int)) "unchanged" [ 1 ]
    (Lockset_id.to_sorted_list (Pseudo_lock.locks_of pl 9))

let suite =
  [
    Alcotest.test_case "state machine" `Quick test_state_machine;
    Alcotest.test_case "hand-off idiom" `Quick test_handoff_idiom;
    Alcotest.test_case "true race survives" `Quick test_true_race_survives_ownership;
    Alcotest.test_case "join pseudo-locks" `Quick test_join_pseudo_locks;
    Alcotest.test_case "mtrt join idiom" `Quick test_mtrt_join_idiom;
    Alcotest.test_case "dummy_of" `Quick test_dummy_of;
  ]
