module Event = Drd_core.Event
open Drd_core

(* The Eraser lockset algorithm (Savage et al., TOCS 1997), the main
   dynamic baseline the paper compares against (Sections 8.3 and 9).

   Each location carries a state machine and a candidate lockset
   [C(m)]:

   - [Virgin] until first accessed;
   - [Exclusive t] while only thread [t] has touched it (initialization
     is exempt, like our ownership model);
   - [Shared] once a second thread reads it: [C(m)] is refined on every
     access but empty [C(m)] is not yet an error (read-shared data);
   - [Shared_modified] once a second thread is involved and a write
     occurs: empty [C(m)] reports a race.

   Crucially, Eraser demands ONE lock held across all accesses — where
   our detector accepts mutually-intersecting locksets (e.g. the mtrt
   join idiom {S1,sync},{S2,sync},{S1,S2}), Eraser reports a spurious
   race.  Eraser also has no modeling of [join], so it must be fed
   locksets without our join pseudo-locks. *)

type state =
  | Virgin
  | Exclusive of Event.thread_id
  | Shared of Lockset_id.id
  | Shared_modified of Lockset_id.id

type race = {
  loc : Event.loc_id;
  access : Event.t; (* the access that emptied the candidate set *)
}

type t = {
  states : (Event.loc_id, state) Hashtbl.t;
  mutable races : race list; (* reverse order *)
  reported : (Event.loc_id, unit) Hashtbl.t;
  mutable events : int;
}

let create () =
  {
    states = Hashtbl.create 1024;
    races = [];
    reported = Hashtbl.create 64;
    events = 0;
  }

let reset d =
  Hashtbl.clear d.states;
  d.races <- [];
  Hashtbl.clear d.reported;
  d.events <- 0

let report d loc make_access =
  if not (Hashtbl.mem d.reported loc) then begin
    Hashtbl.replace d.reported loc ();
    d.races <- { loc; access = make_access () } :: d.races
  end

(* The scalar hot path: the Event.t is only allocated if this access
   actually reports a race. *)
let on_access d ~loc ~thread ~locks ~kind ~site =
  d.events <- d.events + 1;
  let report_here () =
    report d loc (fun () ->
        Event.make_interned ~loc ~thread ~locks ~kind ~site)
  in
  let st = Option.value (Hashtbl.find_opt d.states loc) ~default:Virgin in
  let st' =
    match st with
    | Virgin -> Exclusive thread
    | Exclusive t when t = thread -> st
    | Exclusive _ -> (
        (* First contact by a second thread: C(m) starts as its locks. *)
        match kind with
        | Event.Read -> Shared locks
        | Event.Write ->
            if Lockset_id.is_empty locks then report_here ();
            Shared_modified locks)
    | Shared c -> (
        let c = Lockset_id.inter c locks in
        match kind with
        | Event.Read -> Shared c
        | Event.Write ->
            if Lockset_id.is_empty c then report_here ();
            Shared_modified c)
    | Shared_modified c ->
        let c = Lockset_id.inter c locks in
        if Lockset_id.is_empty c then report_here ();
        Shared_modified c
  in
  Hashtbl.replace d.states loc st'

(* Detector_intf.S plumbing.  Eraser's discipline is purely
   lockset-refinement over accesses: it has no modeling of
   synchronization order (no join edges — the documented imprecision),
   so every hook below is a no-op. *)

let id = "eraser"

let describe =
  "Eraser lockset discipline (Savage et al. 1997): one common lock \
   across all accesses, no fork/join modeling"

let needs_call_events = false

let on_call _ ~thread:_ ~obj_loc:_ ~locks:_ ~site:_ = ()

let on_acquire _ ~thread:_ ~lock:_ = ()

let on_release _ ~thread:_ ~lock:_ = ()

let on_thread_start _ ~parent:_ ~child:_ = ()

let on_thread_join _ ~joiner:_ ~joinee:_ = ()

let on_thread_exit _ ~thread:_ = ()

let races d = List.rev d.races

let racy_locs d = List.rev_map (fun r -> r.loc) d.races

let race_count d = Hashtbl.length d.reported

let events_seen d = d.events
