(* Self-tests of the benchmark's own arithmetic and generators. *)

open Perfbench

let feq = Alcotest.float 1e-9

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let quantiles_match_python () =
  (* statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25] *)
  let xs = List.init 10 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (list feq)) "quartiles" [ 2.75; 5.5; 8.25 ] (Stats.quantiles xs 4);
  (* statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0] *)
  Alcotest.(check (list feq)) "tiny" [ 1.; 2.; 3. ] (Stats.quantiles [ 3.; 1.; 2. ] 4);
  Alcotest.(check feq) "median even" 2.5 (Stats.median [ 4.; 1.; 3.; 2. ]);
  Alcotest.(check feq) "median odd" 3. (Stats.median [ 5.; 1.; 3.; 2.; 4. ])

let percentile_needs_ten_beyond () =
  let tail n = Stats.tail_percentile n in
  Alcotest.(check (option (float 0.))) "12 samples: median only" None (tail 12);
  Alcotest.(check (option (float 0.))) "99 samples: no p90" None (tail 99);
  Alcotest.(check (option (float 0.))) "100 samples: p90" (Some 90.) (tail 100);
  Alcotest.(check (option (float 0.))) "999 samples: p90" (Some 90.) (tail 999);
  Alcotest.(check (option (float 0.))) "1000 samples: p99" (Some 99.) (tail 1000);
  Alcotest.(check (option (float 0.))) "10000: p99.9" (Some 99.9) (tail 10_000);
  let xs = List.init 100 (fun i -> float_of_int i) in
  let s = Stats.summarize xs in
  Alcotest.(check int) "count carried" 100 s.Stats.n;
  (match s.Stats.tail with
  | Some (p, v) ->
      Alcotest.(check feq) "p90 label" 90. p;
      (* statistics.quantiles(range(100), n=10)[8] == 89.9 *)
      Alcotest.(check feq) "p90 value" 89.9 v
  | None -> Alcotest.fail "p90 missing at n=100");
  Alcotest.(check bool) "summary names its count" true
    (contains (Stats.pp_summary ~unit:"ms" s) "n=100")

let mk id parent start stop =
  {
    Spans.id;
    name = Printf.sprintf "s%d" id;
    op = 0;
    parent;
    lane = 0;
    start_ns = Int64.of_int start;
    stop_ns = Int64.of_int stop;
  }

let self_of spans id =
  let s, self = List.find (fun (s, _) -> s.Spans.id = id) (Spans.self_times spans) in
  ignore s;
  Int64.to_int self

let span_self_time () =
  (* parent [0,100]: children [10,30] and [20,50] overlap (union 40), a
     grandchild inside the first must not count against the parent, and
     a child running past the parent's end is clipped. *)
  let spans =
    [ mk 1 (-1) 0 100; mk 2 1 10 30; mk 3 1 20 50; mk 4 2 12 18; mk 5 1 90 120 ]
  in
  Alcotest.(check int) "parent self" (100 - 40 - 10) (self_of spans 1);
  Alcotest.(check int) "nested child self" (20 - 6) (self_of spans 2);
  Alcotest.(check int) "leaf self" 30 (self_of spans 3);
  Alcotest.(check int) "leaf self 2" 6 (self_of spans 4);
  (* disjoint children *)
  let spans = [ mk 1 (-1) 0 10; mk 2 1 1 3; mk 3 1 5 8 ] in
  Alcotest.(check int) "disjoint" 5 (self_of spans 1);
  (* the recorder nests spans by the open stack *)
  let r = Spans.create ~lane:0 in
  Spans.record r ~op:7 "outer" (fun () -> Spans.record r ~op:7 "inner" ignore);
  match Spans.spans r with
  | [ inner; outer ] ->
      Alcotest.(check int) "inner parent" outer.Spans.id inner.Spans.parent;
      Alcotest.(check int) "outer root" (-1) outer.Spans.parent;
      Alcotest.(check int) "op shared" 7 inner.Spans.op
  | l -> Alcotest.failf "expected 2 spans, got %d" (List.length l)

let fail_ratio_accounting () =
  let t = Tally.create () in
  Alcotest.(check feq) "nothing attempted is a failure" 1. (Tally.fail_ratio t);
  Alcotest.(check bool) "nothing attempted is incorrect" false (Tally.correct t);
  Tally.op t ~ok:true "a";
  Tally.op t ~ok:true "b";
  Tally.ops t ~failed:0 6 "batch";
  Alcotest.(check feq) "all ok" 0. (Tally.fail_ratio t);
  Alcotest.(check bool) "correct" true (Tally.correct t);
  Tally.op t ~ok:false "c";
  Tally.ops t ~failed:1 10 "batch2";
  Alcotest.(check int) "attempted" 19 t.Tally.attempted;
  Alcotest.(check feq) "ratio" (2. /. 19.) (Tally.fail_ratio t);
  Alcotest.(check bool) "incorrect" false (Tally.correct t);
  let g = Tally.create () in
  Tally.op g ~ok:true "x";
  Tally.check g ~ok:false "gate";
  Alcotest.(check feq) "gate is not an op" 0. (Tally.fail_ratio g);
  Alcotest.(check bool) "gate failure is incorrect" false (Tally.correct g);
  Alcotest.(check (list string)) "problems in order" [ "gate" ] (Tally.problems g)

let payload_determinism () =
  let c s = Payload.churn ~seed:s ~lines:5000 ~window:2000 in
  Alcotest.(check string) "same seed, same churn" (c 7) (c 7);
  Alcotest.(check bool) "other seed, other churn" true (c 7 <> c 8);
  (* every location of the window is touched, by a writer then a reader *)
  let locs =
    String.split_on_char '\n' (c 3)
    |> List.filter (( <> ) "")
    |> List.map (fun l -> List.nth (String.split_on_char ' ' l) 1)
  in
  Alcotest.(check int) "lines" 5000 (List.length locs);
  Alcotest.(check int) "distinct locations" 2000
    (List.length (List.sort_uniq compare locs));
  let spec s = Payload.campaign_text (Payload.campaign_spec ~seed:s ~workers:2 ~runs:50) in
  Alcotest.(check string) "same seed, same campaign" (spec 11) (spec 11);
  Alcotest.(check bool) "other seed, other campaign" true (spec 11 <> spec 12)

let () =
  Alcotest.run "perfbench"
    [
      ( "perfbench",
        [
          Alcotest.test_case "quantiles match Python's" `Quick quantiles_match_python;
          Alcotest.test_case "percentile needs ten beyond" `Quick
            percentile_needs_ten_beyond;
          Alcotest.test_case "span self time" `Quick span_self_time;
          Alcotest.test_case "fail_ratio accounting" `Quick fail_ratio_accounting;
          Alcotest.test_case "payload seed determinism" `Quick payload_determinism;
        ] );
    ]
