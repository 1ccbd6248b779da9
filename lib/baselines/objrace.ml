module Event = Drd_core.Event
open Drd_core

(* Object race detection (Praun & Gross, OOPSLA 2001), the baseline
   whose performance the paper beats and whose precision it criticizes
   (Sections 8.3 and 9): dataraces are tracked per OBJECT, not per
   field, and a method invocation on an object counts as a write to it.

   The detection discipline is Eraser-style lockset refinement with an
   ownership (first-owner) phase.  The caller is responsible for
   feeding object-granularity location ids (every field of an object
   maps to the object) and for forwarding virtual-call receiver events
   as writes. *)

type state =
  | Owned of Event.thread_id
  | Tracked of Lockset_id.id * bool (* candidate set, write seen *)

type race = { loc : Event.loc_id; access : Event.t }

type t = {
  states : (Event.loc_id, state) Hashtbl.t;
  mutable races : race list;
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
  let st =
    match Hashtbl.find_opt d.states loc with
    | Some s -> s
    | None -> Owned thread
  in
  let st' =
    match st with
    | Owned t when t = thread -> st
    | Owned _ -> Tracked (locks, kind = Event.Write)
    | Tracked (c, wrote) ->
        let c = Lockset_id.inter c locks in
        let wrote = wrote || kind = Event.Write in
        if wrote && Lockset_id.is_empty c then
          report d loc (fun () ->
              Event.make_interned ~loc ~thread ~locks ~kind ~site);
        Tracked (c, wrote)
  in
  Hashtbl.replace d.states loc st'

(* A virtual method invocation on a receiver object is treated as a
   write access to the object. *)
let on_call d ~thread ~obj_loc ~locks ~site =
  on_access d ~loc:obj_loc ~thread ~locks ~kind:Event.Write ~site

(* Detector_intf.S plumbing.  Like Eraser, the discipline is refined
   purely from per-access locksets — synchronization-order hooks are
   no-ops — but virtual-call receiver events are essential: treating
   an invocation as a write to the receiver is what defines the
   technique (and what floods hedc with spurious reports). *)

let id = "objrace"

let describe =
  "Object race detection (von Praun & Gross 2001): per-object \
   granularity, virtual calls count as writes to the receiver"

let needs_call_events = true

let on_acquire _ ~thread:_ ~lock:_ = ()

let on_release _ ~thread:_ ~lock:_ = ()

let on_thread_start _ ~parent:_ ~child:_ = ()

let on_thread_join _ ~joiner:_ ~joinee:_ = ()

let on_thread_exit _ ~thread:_ = ()

let races d = List.rev d.races

let racy_locs d = List.rev_map (fun r -> r.loc) d.races

let race_count d = Hashtbl.length d.reported

let events_seen d = d.events
