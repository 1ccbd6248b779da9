(* Seeded generated inputs.  The same workload seed gives byte-identical
   payloads; nothing is read from outside the program. *)

module H = Drd_harness
module E = Drd_explore.Explore

(* A race-free churn session for the serve daemon, in the event-log text
   format: [lines] accesses to [window] distinct locations (far more
   than the daemon's eviction watermark), each location written by one
   thread and then read by another, so it becomes shared, grows a trie
   and the daemon must evict.  Every access holds the same lock, so no
   location ever races and the daemon sends no race frames. *)
let churn ~seed ~lines ~window =
  let st = Random.State.make [| seed; 0; 0xc4a2 |] in
  let base = 1 + Random.State.int st 1_000_000 in
  (* A step coprime with the window makes a pass visit every location
     of the window exactly once. *)
  let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
  let rec pick () =
    let s = 1 + Random.State.int st (window - 1) in
    if gcd s window = 1 then s else pick ()
  in
  let step = if window < 2 then 1 else pick () in
  let offset = Random.State.int st window in
  let writer = 1 + Random.State.int st 8 in
  let reader = writer + 1 + Random.State.int st 8 in
  let lock = 1 + Random.State.int st 64 in
  let site = 1 + Random.State.int st 256 in
  let buf = Buffer.create (lines * 24) in
  for i = 0 to lines - 1 do
    let loc = base + ((((i / 2) * step) + offset) mod window) in
    let thread, kind = if i mod 2 = 0 then (writer, 'W') else (reader, 'R') in
    Printf.bprintf buf "A %d %d %c %d %d\n" loc thread kind site lock
  done;
  Buffer.contents buf

(* The exploration campaign of the campaign workload: PCT with three
   change points, raw equivalence, a fixed run budget, on the Full
   configuration whose seed is the workload seed (run seeds derive from
   it through {!Drd_explore.Strategy}). *)
let campaign_spec ~seed ~workers ~runs =
  E.spec ~strategy:(Drd_explore.Strategy.Pct 3) ~workers
    ~budget:(E.runs_budget runs) ~equiv:E.Raw
    { H.Config.full with H.Config.seed }

(* The campaign's run schedules, one per line, as the explore layer
   derives them. *)
let campaign_runs (spec : E.spec) =
  Drd_explore.Strategy.specs spec.E.e_strategy ~base:spec.E.e_config
    ~pct_horizon:spec.E.e_pct_horizon ~first:0 ~stride:1
    ~count:spec.E.e_budget.E.b_runs

let campaign_text spec =
  String.concat "\n"
    (E.spec_to_json spec
    :: List.map Drd_explore.Strategy.describe (campaign_runs spec))
