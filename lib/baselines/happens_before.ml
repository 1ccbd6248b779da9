module Event = Drd_core.Event
open Drd_core

(* A happens-before race detector in the style of Djit / TRaDe
   (Section 9): precise with respect to the OBSERVED ordering, which is
   exactly why the paper's Section 2.2 criticizes the approach — a
   "feasible" race hidden by the accidental order of two critical
   sections (Figure 2 with p == q) is not reported, and whether a race
   is reported can depend on the schedule.

   Per-thread vector clocks; lock release/acquire transfers clocks
   through a per-lock clock; thread start and join edges are explicit.
   Each location keeps the epoch of the last write and a vector of last
   reads; a race is an access not ordered after the accesses it
   conflicts with. *)

type loc_state = {
  mutable write_thread : int;
  mutable write_clock : int; (* 0 = none *)
  reads : Vclock.t; (* last read clock per thread *)
}

type race = { loc : Event.loc_id; access : Event.t }

type t = {
  mutable clocks : Vclock.t array; (* per thread *)
  lock_clocks : (Event.lock_id, Vclock.t) Hashtbl.t;
  locs : (Event.loc_id, loc_state) Hashtbl.t;
  mutable races : race list;
  reported : (Event.loc_id, unit) Hashtbl.t;
  mutable events : int;
}

let create () =
  {
    clocks = Array.init 8 (fun _ -> Vclock.create ());
    lock_clocks = Hashtbl.create 64;
    locs = Hashtbl.create 1024;
    races = [];
    reported = Hashtbl.create 64;
    events = 0;
  }

(* Zeroed clocks beyond the fresh length are indistinguishable from the
   lazily-grown ones [clock_of] would create, so the grown arrays are
   kept; per-location states are dropped (they are re-created on
   demand and carry their own [reads] vector). *)
let reset d =
  Array.iter Vclock.reset d.clocks;
  Hashtbl.clear d.lock_clocks;
  Hashtbl.clear d.locs;
  d.races <- [];
  Hashtbl.clear d.reported;
  d.events <- 0

let clock_of d t =
  if t >= Array.length d.clocks then begin
    let n = max (t + 1) (2 * Array.length d.clocks) in
    let a = Array.init n (fun i ->
        if i < Array.length d.clocks then d.clocks.(i) else Vclock.create ())
    in
    d.clocks <- a
  end;
  d.clocks.(t)

let loc_state d loc =
  match Hashtbl.find_opt d.locs loc with
  | Some s -> s
  | None ->
      let s = { write_thread = -1; write_clock = 0; reads = Vclock.create () } in
      Hashtbl.add d.locs loc s;
      s

let report d loc make_access =
  if not (Hashtbl.mem d.reported loc) then begin
    Hashtbl.replace d.reported loc ();
    d.races <- { loc; access = make_access () } :: d.races
  end

let on_acquire d ~thread ~lock =
  match Hashtbl.find_opt d.lock_clocks lock with
  | Some lc -> Vclock.join (clock_of d thread) lc
  | None -> ()

let on_release d ~thread ~lock =
  let tc = clock_of d thread in
  let lc =
    match Hashtbl.find_opt d.lock_clocks lock with
    | Some lc -> lc
    | None ->
        let lc = Vclock.create () in
        Hashtbl.add d.lock_clocks lock lc;
        lc
  in
  Vclock.join lc tc;
  Vclock.tick tc thread

let on_thread_start d ~parent ~child =
  let pc = clock_of d parent in
  let cc = clock_of d child in
  Vclock.join cc pc;
  Vclock.tick cc child;
  Vclock.tick pc parent

let on_thread_join d ~joiner ~joinee =
  let jc = clock_of d joiner in
  Vclock.join jc (clock_of d joinee);
  Vclock.tick jc joiner

(* The scalar hot path: ordering comes entirely from the
   synchronization callbacks, so [locks] plays no role at all — it is
   ignored, and reported events carry the empty lockset so that reports
   do not vary with instrumentation details the algorithm never reads
   (this used to be the caller's job; it lives here now). *)
let on_access d ~loc ~thread ~locks:_ ~kind ~site =
  d.events <- d.events + 1;
  let report_here () =
    report d loc (fun () ->
        Event.make_interned ~loc ~thread ~locks:Lockset_id.empty ~kind ~site)
  in
  let tc = clock_of d thread in
  let s = loc_state d loc in
  match kind with
  | Event.Read ->
      (* Must be ordered after the last write. *)
      if
        s.write_clock > 0 && s.write_thread <> thread
        && not (Vclock.epoch_leq ~thread:s.write_thread ~clock:s.write_clock tc)
      then report_here ();
      s.reads.(thread) <- Vclock.get tc thread
  | Event.Write ->
      if
        s.write_clock > 0 && s.write_thread <> thread
        && not (Vclock.epoch_leq ~thread:s.write_thread ~clock:s.write_clock tc)
      then report_here ();
      (* ... and after every previous read. *)
      Array.iteri
        (fun t c ->
          if c > 0 && t <> thread && not (Vclock.epoch_leq ~thread:t ~clock:c tc)
          then report_here ())
        s.reads;
      s.write_thread <- thread;
      s.write_clock <- Vclock.get tc thread

(* Detector_intf.S plumbing. *)

let id = "vclock"

let describe =
  "Vector-clock happens-before detection (Djit/TRaDe style): precise \
   for the observed order, misses schedule-hidden feasible races"

let needs_call_events = false

let on_call _ ~thread:_ ~obj_loc:_ ~locks:_ ~site:_ = ()

let on_thread_exit _ ~thread:_ = ()

let races d = List.rev d.races

let racy_locs d = List.rev_map (fun r -> r.loc) d.races

let race_count d = Hashtbl.length d.reported

let events_seen d = d.events
