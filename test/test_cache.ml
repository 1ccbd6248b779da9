(* Tests for the per-thread runtime caches (paper Section 4): the policy
   invariant "a hit implies a weaker access was already forwarded", LIFO
   eviction, conflict replacement, and end-to-end transparency — the
   detector reports the same racy locations with and without caches on
   randomly generated well-nested multithreaded traces. *)

open Drd_core
open Event

let test_hit_after_miss () =
  let c = Cache.create ~size:8 () in
  Alcotest.(check bool) "first lookup misses" false
    (Cache.lookup_or_add c ~kind:Read ~loc:42);
  Alcotest.(check bool) "second lookup hits" true
    (Cache.lookup_or_add c ~kind:Read ~loc:42);
  Alcotest.(check bool) "write cache independent" false
    (Cache.lookup_or_add c ~kind:Write ~loc:42);
  Alcotest.(check int) "hit count" 1 (Cache.hits c);
  Alcotest.(check int) "miss count" 2 (Cache.misses c)

let test_eviction_on_release () =
  let c = Cache.create ~size:8 () in
  Cache.acquired c 100;
  ignore (Cache.lookup_or_add c ~kind:Write ~loc:1);
  Alcotest.(check bool) "hit while lock held" true
    (Cache.lookup_or_add c ~kind:Write ~loc:1);
  Cache.released c 100;
  Alcotest.(check bool) "evicted after release" false
    (Cache.lookup_or_add c ~kind:Write ~loc:1)

let test_nested_locks_lifo () =
  let c = Cache.create ~size:8 () in
  ignore (Cache.lookup_or_add c ~kind:Read ~loc:0);
  Cache.acquired c 100;
  ignore (Cache.lookup_or_add c ~kind:Read ~loc:1);
  Cache.acquired c 200;
  ignore (Cache.lookup_or_add c ~kind:Read ~loc:2);
  Cache.released c 200;
  Alcotest.(check bool) "inner entry evicted" false
    (Cache.lookup_or_add c ~kind:Read ~loc:2);
  (* loc 2 was re-added under lock 100 by the miss above. *)
  Cache.released c 100;
  Alcotest.(check bool) "outer entry evicted" false
    (Cache.lookup_or_add c ~kind:Read ~loc:1);
  Alcotest.(check bool) "lock-free entry survives" true
    (Cache.lookup_or_add c ~kind:Read ~loc:0)

(* Releasing a lock that was never acquired (malformed stream) degrades
   gracefully: the caches are cleared instead of raising, and held locks
   keep working. *)
let test_release_without_acquire_graceful () =
  let c = Cache.create ~size:8 () in
  Cache.acquired c 1;
  ignore (Cache.lookup_or_add c ~kind:Read ~loc:7);
  Cache.released c 2;
  Alcotest.(check bool) "caches cleared on unheld release" false
    (Cache.lookup_or_add c ~kind:Read ~loc:7);
  (* Lock 1 is still held: its frame survived, so inserting under it and
     releasing it still evicts. *)
  ignore (Cache.lookup_or_add c ~kind:Read ~loc:8);
  Cache.released c 1;
  Alcotest.(check bool) "held lock still evicts after recovery" false
    (Cache.lookup_or_add c ~kind:Read ~loc:8)

(* wait() can release a non-innermost monitor: the cache must stay
   sound by over-evicting the inner frames while keeping them on the
   stack for their own later release. *)
let test_non_lifo_release_conservative () =
  let c = Cache.create ~size:8 () in
  Cache.acquired c 1;
  ignore (Cache.lookup_or_add c ~kind:Event.Read ~loc:10);
  Cache.acquired c 2;
  ignore (Cache.lookup_or_add c ~kind:Event.Read ~loc:20);
  (* Release the OUTER lock 1 (as wait(outer) would). *)
  Cache.released c 1;
  Alcotest.(check bool) "outer entry evicted" false
    (Cache.lookup_or_add c ~kind:Event.Read ~loc:10);
  (* loc 20 was over-evicted (safe), and was re-inserted by the miss
     above?  No: that miss was loc 10.  Check 20 misses too. *)
  Alcotest.(check bool) "inner entry over-evicted" false
    (Cache.lookup_or_add c ~kind:Event.Read ~loc:20);
  (* Lock 2 is still held and its frame survives: releasing it must
     evict the entries inserted after the non-LIFO release. *)
  Cache.released c 2;
  Alcotest.(check bool) "re-inserted entries evicted by inner release" false
    (Cache.lookup_or_add c ~kind:Event.Read ~loc:20)

let test_conflict_replacement_not_double_evicted () =
  (* After an entry is replaced due to an index conflict, releasing the
     lock under which the old entry was inserted must not evict the new
     occupant. *)
  let c = Cache.create ~size:1 () in
  Cache.acquired c 100;
  ignore (Cache.lookup_or_add c ~kind:Read ~loc:1);
  Cache.released c 100;
  (* Entry for loc 1 evicted.  Insert loc 2 with no locks held. *)
  ignore (Cache.lookup_or_add c ~kind:Read ~loc:2);
  Cache.acquired c 100;
  ignore (Cache.lookup_or_add c ~kind:Read ~loc:3);
  (* loc 3 replaced loc 2 (size-1 cache).  Release: evicts loc 3 only. *)
  Cache.released c 100;
  Alcotest.(check bool) "replaced entry gone" false
    (Cache.lookup_or_add c ~kind:Read ~loc:3)

let test_stale_list_pair_ignored () =
  let c = Cache.create ~size:1 () in
  Cache.acquired c 100;
  ignore (Cache.lookup_or_add c ~kind:Read ~loc:1);
  (* Conflict-replace loc 1 by loc 2 while the lock list still records
     the (entry, stamp) pair for loc 1. *)
  ignore (Cache.lookup_or_add c ~kind:Read ~loc:2);
  ignore (Cache.lookup_or_add c ~kind:Read ~loc:1);
  (* Now the entry holds loc 1 again with a fresh stamp; both stale pairs
     for the same physical entry are on lock 100's list. *)
  Cache.released c 100;
  Alcotest.(check bool) "entry evicted exactly once, no resurrection" false
    (Cache.lookup_or_add c ~kind:Read ~loc:1)

let test_evict_loc () =
  let c = Cache.create ~size:8 () in
  ignore (Cache.lookup_or_add c ~kind:Read ~loc:5);
  ignore (Cache.lookup_or_add c ~kind:Write ~loc:5);
  Cache.evict_loc c 5;
  Alcotest.(check bool) "read evicted" false (Cache.lookup_or_add c ~kind:Read ~loc:5);
  Alcotest.(check bool) "write evicted" false (Cache.lookup_or_add c ~kind:Write ~loc:5)

let test_clear () =
  let c = Cache.create ~size:8 () in
  ignore (Cache.lookup_or_add c ~kind:Read ~loc:5);
  Cache.clear c;
  Alcotest.(check bool) "cleared" false (Cache.lookup_or_add c ~kind:Read ~loc:5)

let test_bad_size_rejected () =
  Alcotest.check_raises "non power of two"
    (Invalid_argument "Cache.create: size must be a positive power of two")
    (fun () -> ignore (Cache.create ~size:3 ()))

(* ------------------------------------------------------------------ *)
(* Random well-nested multithreaded traces.  Each thread runs a random
   sequence of operations with properly nested synchronized regions; a
   random interleaving is generated, and the resulting event stream is
   fed to detectors with and without the cache. *)

type op = Acq of int | Rel of int | Acc of int * kind

let gen_thread_ops =
  (* A balanced sequence over a small lock/location universe. *)
  QCheck.Gen.(
    let rec gen_block depth fuel =
      if fuel <= 0 then return []
      else
        frequency
          [
            ( 4,
              int_bound 3 >>= fun loc ->
              bool >>= fun w ->
              gen_block depth (fuel - 1) >|= fun rest ->
              Acc (loc, if w then Write else Read) :: rest );
            ( 2,
              if depth >= 3 then
                int_bound 3 >>= fun loc ->
                bool >>= fun w ->
                gen_block depth (fuel - 1) >|= fun rest ->
                Acc (loc, if w then Write else Read) :: rest
              else
                int_range 100 102 >>= fun l ->
                gen_block (depth + 1) (fuel / 2) >>= fun body ->
                gen_block depth (fuel - 1) >|= fun rest ->
                (Acq l :: body) @ (Rel l :: rest) );
          ]
    in
    gen_block 0 12)

let gen_schedule =
  QCheck.Gen.(
    list_repeat 3 gen_thread_ops >>= fun threads ->
    (* Random fair interleaving: repeatedly pick a non-empty thread. *)
    let rec interleave acc threads st =
      let nonempty =
        List.filteri (fun _ ops -> ops <> []) threads |> List.length
      in
      if nonempty = 0 then List.rev acc
      else
        let idx = Random.State.int st (List.length threads) in
        match List.nth threads idx with
        | [] -> interleave acc threads st
        | op :: rest ->
            let threads =
              List.mapi (fun i ops -> if i = idx then rest else ops) threads
            in
            interleave ((idx, op) :: acc) threads st
    in
    fun st -> interleave [] threads st)

let arb_schedule =
  let print sched =
    String.concat ";"
      (List.map
         (function
           | t, Acq l -> Printf.sprintf "T%d:acq%d" t l
           | t, Rel l -> Printf.sprintf "T%d:rel%d" t l
           | t, Acc (m, Read) -> Printf.sprintf "T%d:R%d" t m
           | t, Acc (m, Write) -> Printf.sprintf "T%d:W%d" t m)
         sched)
  in
  QCheck.make ~print gen_schedule

(* Run a schedule through a detector configuration.  The generator may
   produce nested acquisitions of the same lock; like the VM, the
   harness tracks reentrancy and only reports outermost transitions to
   the detector (the documented contract). *)
let run_schedule config sched =
  let coll = Report.collector () in
  let d = Detector.create ~config coll in
  let stacks = Hashtbl.create 8 in
  let counts = Hashtbl.create 8 in
  let stack_of t = Option.value (Hashtbl.find_opt stacks t) ~default:[] in
  let count_of t l = Option.value (Hashtbl.find_opt counts (t, l)) ~default:0 in
  List.iter
    (fun (t, op) ->
      match op with
      | Acq l ->
          Hashtbl.replace stacks t (l :: stack_of t);
          let c = count_of t l in
          Hashtbl.replace counts (t, l) (c + 1);
          if c = 0 then Detector.on_acquire d ~thread:t ~lock:l
      | Rel l ->
          (match stack_of t with
          | l' :: rest when l' = l -> Hashtbl.replace stacks t rest
          | _ -> Alcotest.fail "generator produced non-LIFO schedule");
          let c = count_of t l in
          Hashtbl.replace counts (t, l) (c - 1);
          if c = 1 then Detector.on_release d ~thread:t ~lock:l
      | Acc (loc, kind) ->
          let locks =
            List.filter (fun l -> count_of t l > 0) [ 100; 101; 102 ]
          in
          ignore
            (Detector.on_access d ~loc ~thread:t
               ~locks:(Lockset_id.of_list locks)
               ~kind ~site:0))
    sched;
  List.sort compare (Report.racy_locs coll)

(* Ground truth: quadratic IsRace over the event sequence the schedule
   induces. *)
let oracle_racy_locs sched =
  let counts = Hashtbl.create 8 in
  let count_of t l = Option.value (Hashtbl.find_opt counts (t, l)) ~default:0 in
  let events = ref [] in
  List.iter
    (fun (t, op) ->
      match op with
      | Acq l -> Hashtbl.replace counts (t, l) (count_of t l + 1)
      | Rel l -> Hashtbl.replace counts (t, l) (count_of t l - 1)
      | Acc (loc, kind) ->
          let locks =
            List.filter (fun l -> count_of t l > 0) [ 100; 101; 102 ]
          in
          events :=
            make ~loc ~thread:t ~locks:(Lockset.of_list locks) ~kind ~site:0
            :: !events)
    sched;
  let events = Array.of_list (List.rev !events) in
  let racy = Hashtbl.create 8 in
  Array.iteri
    (fun i ei ->
      Array.iteri
        (fun j ej ->
          if i < j && is_race ei ej then Hashtbl.replace racy ei.loc ())
        events)
    events;
  Hashtbl.fold (fun l () acc -> l :: acc) racy [] |> List.sort compare

let subset a b = List.for_all (fun x -> List.mem x b) a

(* The provable relationships (exact equality is NOT a theorem: the
   no-cache run can report t_bot artifacts — spurious races manufactured
   by node merging — that the cache happens to mask):
   - completeness: every truly racy location is reported, with and
     without the cache (ownership off);
   - monotonicity: enabling the cache never adds reports. *)
let prop_cache_sound_and_monotone =
  QCheck.Test.make ~count:500
    ~name:"cache: complete w.r.t. oracle and never adds reports" arb_schedule
    (fun sched ->
      let base =
        {
          Detector.default_config with
          Detector.use_cache = false;
          use_ownership = false;
        }
      in
      let nocache = run_schedule base sched in
      let cache = run_schedule { base with Detector.use_cache = true } sched in
      let tiny =
        run_schedule { base with Detector.use_cache = true; cache_size = 2 } sched
      in
      let oracle = oracle_racy_locs sched in
      subset oracle cache && subset oracle tiny && subset oracle nocache
      && subset cache nocache && subset tiny nocache)

let prop_cache_with_ownership_monotone =
  QCheck.Test.make ~count:500
    ~name:"cache with ownership: never adds reports" arb_schedule (fun sched ->
      let base =
        {
          Detector.default_config with
          Detector.use_cache = false;
          use_ownership = true;
        }
      in
      let nocache = run_schedule base sched in
      let cache = run_schedule { base with Detector.use_cache = true } sched in
      subset cache nocache)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_cache_sound_and_monotone; prop_cache_with_ownership_monotone ]

let suite =
  [
    Alcotest.test_case "hit after miss" `Quick test_hit_after_miss;
    Alcotest.test_case "eviction on release" `Quick test_eviction_on_release;
    Alcotest.test_case "nested LIFO eviction" `Quick test_nested_locks_lifo;
    Alcotest.test_case "release unheld graceful" `Quick test_release_without_acquire_graceful;
    Alcotest.test_case "non-LIFO release conservative" `Quick test_non_lifo_release_conservative;
    Alcotest.test_case "conflict replacement" `Quick test_conflict_replacement_not_double_evicted;
    Alcotest.test_case "stale list pairs" `Quick test_stale_list_pair_ignored;
    Alcotest.test_case "evict_loc" `Quick test_evict_loc;
    Alcotest.test_case "clear" `Quick test_clear;
    Alcotest.test_case "bad size" `Quick test_bad_size_rejected;
  ]
  @ qsuite
