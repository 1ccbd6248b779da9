(* Dynamic immutability analysis (the Section 10 future-work item):
   classifying locations as thread-local, shared-immutable
   (initialize-then-publish) or shared-mutable. *)

module Immutability = Drd_core.Immutability
module H = Drd_harness
open Drd_core

let test_state_machine () =
  let t = Immutability.create () in
  Alcotest.(check bool) "unknown" true (Immutability.classify t 0 = None);
  (* Owner initializes. *)
  Immutability.record t ~loc:0 ~thread:1 ~kind:Event.Write;
  Immutability.record t ~loc:0 ~thread:1 ~kind:Event.Write;
  Alcotest.(check bool) "local" true
    (Immutability.classify t 0 = Some Immutability.Thread_local);
  (* Published via reads only: immutable. *)
  Immutability.record t ~loc:0 ~thread:2 ~kind:Event.Read;
  Immutability.record t ~loc:0 ~thread:1 ~kind:Event.Read;
  Alcotest.(check bool) "shared-immutable" true
    (Immutability.classify t 0 = Some Immutability.Shared_immutable);
  (* Any later write degrades it. *)
  Immutability.record t ~loc:0 ~thread:1 ~kind:Event.Write;
  Alcotest.(check bool) "shared-mutable" true
    (Immutability.classify t 0 = Some Immutability.Shared_mutable);
  Alcotest.(check (list int)) "mutable list" [ 0 ]
    (Immutability.shared_mutable_locs t)

let test_publication_write_is_mutable () =
  let t = Immutability.create () in
  Immutability.record t ~loc:0 ~thread:1 ~kind:Event.Write;
  Immutability.record t ~loc:0 ~thread:2 ~kind:Event.Write;
  Alcotest.(check bool) "write-publication is mutable" true
    (Immutability.classify t 0 = Some Immutability.Shared_mutable)

let test_summary_counts () =
  let t = Immutability.create () in
  Immutability.record t ~loc:1 ~thread:1 ~kind:Event.Write;
  Immutability.record t ~loc:2 ~thread:1 ~kind:Event.Write;
  Immutability.record t ~loc:2 ~thread:2 ~kind:Event.Read;
  Immutability.record t ~loc:3 ~thread:1 ~kind:Event.Write;
  Immutability.record t ~loc:3 ~thread:2 ~kind:Event.Write;
  let s = Immutability.summary t in
  Alcotest.(check int) "local" 1 s.Immutability.thread_local;
  Alcotest.(check int) "immutable" 1 s.Immutability.shared_immutable;
  Alcotest.(check int) "mutable" 1 s.Immutability.shared_mutable

let test_end_to_end_on_benchmark () =
  (* hedc: the MetaSearchRequest.query fields are the textbook
     initialize-then-publish pattern; pool/task state is mutable. *)
  let b = Option.get (H.Programs.find "hedc") in
  let t = Immutability.create () in
  ignore
    (H.Pipeline.run ~tap:(Drd_vm.Sink.immutability t)
       (H.Pipeline.compile H.Config.full ~source:b.H.Programs.b_source));
  let s = Immutability.summary t in
  Alcotest.(check bool) "some shared-immutable locations" true
    (s.Immutability.shared_immutable > 0);
  Alcotest.(check bool) "some shared-mutable locations" true
    (s.Immutability.shared_mutable > 0)

let suite =
  [
    Alcotest.test_case "state machine" `Quick test_state_machine;
    Alcotest.test_case "publication write" `Quick test_publication_write_is_mutable;
    Alcotest.test_case "summary" `Quick test_summary_counts;
    Alcotest.test_case "hedc end to end" `Quick test_end_to_end_on_benchmark;
  ]
