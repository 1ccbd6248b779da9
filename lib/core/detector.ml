type history_impl = Per_location | Packed

type config = {
  use_cache : bool;
  cache_size : int;
  use_ownership : bool;
  history : history_impl;
}

let default_config =
  {
    use_cache = true;
    cache_size = 256;
    use_ownership = true;
    history = Per_location;
  }

type stats = {
  events_in : int;
  cache_hits : int;
  ownership_filtered : int;
  weaker_filtered : int;
  race_checks : int;
  races_reported : int;
  locations_tracked : int;
  trie_nodes : int;
}

type history = Htries of (Event.loc_id, Trie.t) Hashtbl.t | Hpacked of Trie_packed.t

type eviction = { ev_high : int; ev_low : int; ev_track : bool }

let eviction ?low ?(track = false) ~high () =
  if high < 1 then
    invalid_arg "Detector.eviction: high watermark must be at least 1";
  let low = match low with Some l -> l | None -> high / 2 in
  if low < 0 || low >= high then
    invalid_arg
      (Printf.sprintf
         "Detector.eviction: low watermark %d must satisfy 0 <= low < high \
          (%d)"
         low high);
  { ev_high = high; ev_low = low; ev_track = track }

(* State of the quiescent-location eviction policy (serve mode).  One
   table drives everything: [last_access] maps every location the
   detector has ever been told about — whether or not it grew a trie —
   to the [events_in] clock of its most recent access.  When the table
   exceeds the high watermark, the least-recently-accessed locations are
   retired down to the low watermark: trie, ownership state, cache
   entries and the clock entry all go at once, so a later access to a
   retired location re-enters the detector as a brand-new location. *)
type evict_state = {
  ev : eviction;
  last_access : (Event.loc_id, int ref) Hashtbl.t;
  ever_evicted : (Event.loc_id, unit) Hashtbl.t;
      (** Only populated under [ev_track] (a test/debug aid: it grows
          with the number of retired locations, which an indefinite
          stream does not bound). *)
  mutable evicted : int;
}

type t = {
  config : config;
  history : history;
  mutable caches : Cache.t option array; (* indexed by thread id *)
  own : Ownership.t;
  collector : Report.collector;
  evict : evict_state option;
  mutable events_in : int;
  mutable cache_hits : int;
  mutable ownership_filtered : int;
  mutable weaker_filtered : int;
  mutable race_checks : int;
}

let create ?(config = default_config) ?eviction collector =
  (match (eviction, config.history) with
  | Some _, Packed ->
      invalid_arg
        "Detector.create: eviction requires the Per_location history (the \
         packed trie shares nodes across locations and cannot retire one \
         location's state)"
  | _ -> ());
  {
    config;
    history =
      (match config.history with
      | Per_location -> Htries (Hashtbl.create 1024)
      | Packed -> Hpacked (Trie_packed.create ()));
    caches = Array.make 16 None;
    own = Ownership.create ();
    collector;
    evict =
      Option.map
        (fun ev ->
          {
            ev;
            last_access = Hashtbl.create 1024;
            ever_evicted = Hashtbl.create (if ev.ev_track then 1024 else 0);
            evicted = 0;
          })
        eviction;
    events_in = 0;
    cache_hits = 0;
    ownership_filtered = 0;
    weaker_filtered = 0;
    race_checks = 0;
  }

(* Thread ids are small and dense (assigned by the VM in creation
   order), so the per-thread caches live in a growable array: the
   per-event lookup is one bounds check and one load, with no [Some]
   allocated — unlike a [Hashtbl.find_opt] — on the hit path. *)
let cache_of d thread =
  let n = Array.length d.caches in
  if thread >= n then begin
    let rec cap n = if thread < n then n else cap (n * 2) in
    let a = Array.make (cap (n * 2)) None in
    Array.blit d.caches 0 a 0 n;
    d.caches <- a
  end;
  match d.caches.(thread) with
  | Some c -> c
  | None ->
      let c = Cache.create ~size:d.config.cache_size () in
      d.caches.(thread) <- Some c;
      c

let process_history d (e : Event.t) =
  match d.history with
  | Hpacked h -> Trie_packed.process h e
  | Htries tries -> (
      match Hashtbl.find tries e.loc with
      | trie -> Trie.process trie e
      | exception Not_found ->
          let trie = Trie.create () in
          Hashtbl.add tries e.loc trie;
          Trie.process trie e)

(* Retire the least-recently-accessed locations until only [ev_low]
   remain tracked.  Everything keyed by a retired location goes in the
   same breath — trie, ownership state, cache entries, clock — because
   any survivor would re-assert facts (hit-implies-weaker, owned-means-
   invisible) whose justification was just deleted.  The location being
   processed right now is never retired: it is by construction the most
   recently accessed.  Cost is O(n log n) in the tracked-location count,
   paid once per (high - low) fresh locations, so amortized logarithmic
   per newly seen location and zero for a stream over a stable set. *)
let run_eviction d es ~current_loc =
  let tries =
    match d.history with Htries t -> t | Hpacked _ -> assert false
  in
  let live = Hashtbl.length es.last_access in
  let arr = Array.make live (0, 0) in
  let i = ref 0 in
  Hashtbl.iter
    (fun loc last ->
      arr.(!i) <- (!last, loc);
      incr i)
    es.last_access;
  Array.sort compare arr;
  let to_evict = live - es.ev.ev_low in
  let n = ref 0 in
  (try
     Array.iter
       (fun (_, loc) ->
         if !n >= to_evict then raise Exit;
         if loc <> current_loc then begin
           Hashtbl.remove es.last_access loc;
           Hashtbl.remove tries loc;
           Ownership.forget d.own loc;
           if d.config.use_cache then
             Array.iter
               (function Some c -> Cache.evict_loc c loc | None -> ())
               d.caches;
           if es.ev.ev_track then Hashtbl.replace es.ever_evicted loc ();
           es.evicted <- es.evicted + 1;
           incr n
         end)
       arr
   with Exit -> ())

(* Update the location's last-access clock (inserting it if new) and
   trigger eviction when the tracked-location count crosses the high
   watermark.  Runs on {e every} access, including cache hits: a
   location kept hot purely by one thread's cache must not be retired,
   or the cached hit-implies-weaker guarantee would outlive the history
   that justifies it. *)
let touch_loc d es loc =
  (match Hashtbl.find es.last_access loc with
  | r -> r := d.events_in
  | exception Not_found ->
      Hashtbl.add es.last_access loc (ref d.events_in);
      if Hashtbl.length es.last_access > es.ev.ev_high then
        run_eviction d es ~current_loc:loc)

type outcome = Cache_hit | Owned_skip | Reached

(* The one entry point: five immediates in, no [Event.t] materialized
   unless the event survives both the cache and the ownership filter —
   i.e. unless it actually reaches trie storage and may be needed for a
   race report.  Returns where the event stopped: the specialized VM
   fast paths key their memoization on [Reached] (the only outcome that
   certifies the trie now covers this (thread, locks, kind) at [loc] —
   a cache hit is recorded before the ownership check and an owned skip
   never touches the trie, so neither justifies dropping repeats). *)
let on_access d ~loc ~thread ~(locks : Lockset_id.id) ~kind ~site :
    outcome =
  d.events_in <- d.events_in + 1;
  (match d.evict with Some es -> touch_loc d es loc | None -> ());
  let filtered_by_cache =
    d.config.use_cache && Cache.lookup_or_add (cache_of d thread) ~kind ~loc
  in
  if filtered_by_cache then begin
    d.cache_hits <- d.cache_hits + 1;
    Cache_hit
  end
  else
    let pass =
      if not d.config.use_ownership then true
      else
        match Ownership.check d.own ~thread ~loc with
        | Ownership.Owned_skip ->
            d.ownership_filtered <- d.ownership_filtered + 1;
            false
        | Ownership.Became_shared ->
            (* Section 7.2: the owner's cached entries for this location
               no longer justify suppression; evict everywhere.  The
               transitioning thread's own entry was inserted by the
               lookup just above for this very event, which is being
               forwarded, so it stays valid. *)
            if d.config.use_cache then
              Array.iteri
                (fun t c ->
                  match c with
                  | Some c when t <> thread -> Cache.evict_loc c loc
                  | _ -> ())
                d.caches;
            true
        | Ownership.Already_shared -> true
    in
    if pass then begin
      d.race_checks <- d.race_checks + 1;
      let e = Event.make_interned ~loc ~thread ~locks ~kind ~site in
      let race, redundant = process_history d e in
      if redundant then d.weaker_filtered <- d.weaker_filtered + 1;
      (match race with
      | Some prior ->
          Report.add d.collector { Report.loc; current = e; prior }
      | None -> ());
      Reached
    end
    else Owned_skip

let on_acquire d ~thread ~lock =
  if d.config.use_cache then Cache.acquired (cache_of d thread) lock

let on_release d ~thread ~lock =
  if d.config.use_cache then Cache.released (cache_of d thread) lock

let on_thread_exit d ~thread =
  (* Reset in place rather than dropping the slot: thread ids are dense
     and never reused within one execution, so an exited thread's slot
     is only ever read again if a malformed stream keeps sending events
     for it — and a reset cache observes exactly like the fresh one the
     old [None] slot would have lazily created.  Keeping the arrays
     allocated is what lets a pooled detector run reallocation-free. *)
  if thread < Array.length d.caches then
    match d.caches.(thread) with Some c -> Cache.reset c | None -> ()

(* Return the detector to its freshly-created state without giving up
   any grown capacity: trie tables, cache arrays, ownership and eviction
   tables are all emptied in place.  The report collector is shared with
   the caller and deliberately NOT reset here — pooled pipelines reset
   it alongside.  The global [Lockset_id] interner also survives (it is
   append-only and domain-local, so stale entries are merely a warm
   cache for the next execution). *)
let reset d =
  (match d.history with
  | Htries tries -> Hashtbl.clear tries
  | Hpacked h -> Trie_packed.clear h);
  Array.iter (function Some c -> Cache.reset c | None -> ()) d.caches;
  Ownership.reset d.own;
  (match d.evict with
  | Some es ->
      Hashtbl.clear es.last_access;
      Hashtbl.clear es.ever_evicted;
      es.evicted <- 0
  | None -> ());
  d.events_in <- 0;
  d.cache_hits <- 0;
  d.ownership_filtered <- 0;
  d.weaker_filtered <- 0;
  d.race_checks <- 0

let evictions d = match d.evict with Some es -> es.evicted | None -> 0

let live_locations d =
  match d.evict with
  | Some es -> Hashtbl.length es.last_access
  | None -> (
      match d.history with
      | Htries tries -> Hashtbl.length tries
      | Hpacked h -> Trie_packed.locations h)

let was_evicted d loc =
  match d.evict with
  | Some es when es.ev.ev_track -> Hashtbl.mem es.ever_evicted loc
  | Some _ ->
      invalid_arg "Detector.was_evicted: eviction was created without ~track"
  | None -> false

let stats d =
  let trie_nodes =
    match d.history with
    | Htries tries ->
        Hashtbl.fold (fun _ t acc -> acc + Trie.node_count t) tries 0
    | Hpacked h -> Trie_packed.node_count h
  in
  let locations =
    match d.history with
    | Htries tries -> Hashtbl.length tries
    | Hpacked h -> Trie_packed.locations h
  in
  {
    events_in = d.events_in;
    cache_hits = d.cache_hits;
    ownership_filtered = d.ownership_filtered;
    weaker_filtered = d.weaker_filtered;
    race_checks = d.race_checks;
    races_reported = Report.count d.collector;
    locations_tracked = locations;
    trie_nodes;
  }

let pp_stats ppf (s : stats) =
  Fmt.pf ppf
    "@[<v>events in:          %d@ cache hits:         %d@ ownership \
     filtered: %d@ weaker filtered:    %d@ race checks:        %d@ races \
     reported:     %d@ locations tracked:  %d@ trie nodes:         %d@]"
    s.events_in s.cache_hits s.ownership_filtered s.weaker_filtered
    s.race_checks s.races_reported s.locations_tracked s.trie_nodes

(* The paper detector behind the common detector interface: [create]
   bundles a default-configuration detector with a fresh report
   collector, and [reset] empties both.  Fork/join ordering is modeled
   by the join pseudo-locks the VM folds into each access's lockset,
   not by explicit edges, so the start/join hooks are no-ops here. *)
module Standard = struct
  type nonrec t = t

  let id = "paper"

  let describe =
    "The paper's detector (Choi et al. 2002): trie histories, \
     weaker-than filtering, ownership model, join pseudo-locks"

  let needs_call_events = false

  let create () = create (Report.collector ())

  let on_access d ~loc ~thread ~locks ~kind ~site =
    ignore (on_access d ~loc ~thread ~locks ~kind ~site : outcome)

  let on_call _ ~thread:_ ~obj_loc:_ ~locks:_ ~site:_ = ()

  let on_acquire = on_acquire

  let on_release = on_release

  let on_thread_start _ ~parent:_ ~child:_ = ()

  let on_thread_join _ ~joiner:_ ~joinee:_ = ()

  let on_thread_exit = on_thread_exit

  let reset d =
    reset d;
    Report.reset d.collector

  let racy_locs d = Report.racy_locs d.collector

  let events_seen d = d.events_in
end
