module Event = Drd_core.Event

(** A vector-clock happens-before race detector in the style of Djit /
    TRaDe (paper Section 9).

    Precise with respect to the {e observed} ordering — which is exactly
    the imprecision the paper's Section 2.2 criticizes: a feasible race
    hidden by the accidental order of two critical sections is missed,
    and whether a race is reported depends on the schedule.

    Clocks are transferred through per-lock release/acquire pairs and
    explicit thread start/join edges; each location keeps the last-write
    epoch and per-thread last-read clocks. *)

type race = { loc : Event.loc_id; access : Event.t }

type t

val create : unit -> t

val reset : t -> unit
(** Return the detector to its freshly-created state in place (see
    {!Drd_core.Detector_intf.S}); grown clock arrays are kept, zeroed. *)

val on_access :
  t ->
  loc:Event.loc_id ->
  thread:Event.thread_id ->
  locks:Drd_core.Lockset_id.id ->
  kind:Event.kind ->
  site:Event.site_id ->
  unit
(** The access entry point, mirroring
    {!Drd_core.Detector.on_access}.  [locks] is ignored: the
    ordering comes entirely from the synchronization callbacks below,
    and reported events carry the empty lockset so reports never vary
    with instrumentation details the algorithm does not read. *)

val id : string

val describe : string

val needs_call_events : bool
(** [false]. *)

val on_call :
  t ->
  thread:Event.thread_id ->
  obj_loc:Event.loc_id ->
  locks:Drd_core.Lockset_id.id ->
  site:Event.site_id ->
  unit
(** No-op ({!Drd_core.Detector_intf.S} conformance). *)

val on_acquire : t -> thread:Event.thread_id -> lock:Event.lock_id -> unit

val on_release : t -> thread:Event.thread_id -> lock:Event.lock_id -> unit

val on_thread_start :
  t -> parent:Event.thread_id -> child:Event.thread_id -> unit

val on_thread_join :
  t -> joiner:Event.thread_id -> joinee:Event.thread_id -> unit

val on_thread_exit : t -> thread:Event.thread_id -> unit
(** No-op: a terminated thread's clock simply stops advancing. *)

val races : t -> race list

val racy_locs : t -> Event.loc_id list

val race_count : t -> int

val events_seen : t -> int
