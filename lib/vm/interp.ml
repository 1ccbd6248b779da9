open Drd_core
module Ir = Drd_ir.Ir
module Link = Drd_ir.Link
module Tast = Drd_lang.Tast
open Link

(* The linked-image interpreter.  It executes a [Link.image] — the flat
   form [Pipeline.compile] produces once per program — instead of the
   block IR: method bodies are [lop array]s addressed by an integer pc,
   calls are pre-resolved method ids or vtable slots, and every run-time
   table the hot loop touches is an array indexed by a dense id (thread
   id, heap id, class id).  No string is built or hashed between two
   scheduler decisions.

   Exploration campaigns replay the same program thousands of times, so
   this loop is where their wall-clock goes; perfbench's ladder times
   it as the `vm.*` rows.  Each step is one dispatch: the slice loop
   matches the slot's op once, and the link phase has already split
   every operator and constant kind into its own constructor and fused
   the hottest runs of ops into superinstructions (checked array
   load/store, const+add/sub, lt+if).  Only the rare ops — allocation,
   monitors, thread start/join, wait/notify, print — go through a
   helper ([exec_rare]).

   The fast arms make no out-of-line call: value construction and
   decoding and heap lookup are [@inline] functions of this module;
   every error path is an [@inline never] function; and a register
   store that would write the identical value is skipped ([set]), and
   with it the write barrier.  Dune's dev profile compiles each module
   with [-opaque], so nothing is inlined across a module boundary: a
   call into [Value] or [Heap] would be an indirect closure call, and
   since OCaml has no callee-saved registers every call also spills the
   loop's live locals.  What is left are [caml_modify] on a store that
   changes a register, the trace ops' event hand-off ([Memloc]'s
   encoding and the sink closure), and the helpers for calls, returns,
   rare ops and the scheduler.

   Semantics are bit-identical to the frozen block interpreter
   ([Interp_ref]): the same schedule, the same RNG draws in the same
   order, the same [Sink] notifications, the same error strings.  The
   invariants that keep it that way:

   - [st.steps] advances once per executed slot, and block terminators
     occupy exactly one slot in the linked stream (they were one "free"
     [exec_term] step in the block interpreter), so step counts — and
     with them PCT change points and the step limit — are unchanged;
   - the slice budget is spent only by instructions that advance, never
     by terminators or by a blocked retry, exactly as before;
   - a superinstruction counts a step per slot it covers and spends the
     budget those slots would, and runs whole only when the slice budget
     and the step limit have room for all of them; otherwise it runs its
     first slot alone and the covered slots, which keep their own single
     ops, follow one by one — so a slice ends, and an error is raised,
     on exactly the slot it would be without fusion;
   - the ready list is scanned newest-thread-first (the reverse creation
     order the old [thread list] had), so [Random_walk]'s [List.nth]
     draw and PCT's lazy priority assignment consume the RNG
     identically;
   - the decision is taken in place only while the ready set is provably
     unchanged: same draws, same order.  Only a rare op or a thread's
     final return can change which threads are ready, so those mark the
     cached ready list stale and the next decision rescans; a slice that
     ends on its budget with the list fresh takes the next decision
     inside the slice loop ([reschedule], the one routine the outer
     scheduler also calls) and, when the running thread is picked again,
     carries on with a fresh budget instead of returning;
   - heap ids are allocated in the same order (objects, arrays, class
     objects on first touch, join pseudo-locks at thread creation), so
     every location and lock id matches.

   The one intended delta: virtual calls report their real call-site id
   to [Sink.call] (the block interpreter hard-coded -1).  The recording
   and detector paths never read that field, so golden identity holds;
   the object-race baseline gets usable sites out of it. *)

exception Runtime_error of string

type policy =
  | Random_walk
  | Pct of { depth : int; horizon : int }

type config = {
  seed : int;
  quantum : int;
  max_steps : int;
  all_accesses : bool;
  granularity : Memloc.granularity;
  pseudo_locks : bool;
  policy : policy;
}

let default_config =
  {
    seed = 42;
    quantum = 20;
    max_steps = 200_000_000;
    all_accesses = false;
    granularity = Memloc.Per_field;
    pseudo_locks = true;
    policy = Random_walk;
  }

type result = {
  r_prints : (string * Value.t option) list;
  r_steps : int;
  r_max_threads : int;
  r_heap : Heap.t;
}

(* All fields but the register file are mutable so returned frames can
   be recycled through the per-context free list ([alloc_frame]): a
   frame is reinitialized field by field on reuse, and its register
   array — keyed by exact size — is refilled with [Vnull], making a
   recycled frame indistinguishable from a fresh one. *)
type frame = {
  mutable f_meth : lmethod;
  f_regs : Value.t array;
  mutable f_pc : int; (* index into [f_meth.m_code] *)
  mutable f_dst : Ir.reg option; (* caller register receiving the return value *)
}

type status =
  | Runnable
  | Blocked of int (* waiting to enter the monitor of this object *)
  | Joining of int (* waiting for this thread id to finish *)
  | Waiting of int (* in the wait set of this object's monitor *)
  | Finished

type thread = {
  t_id : int;
  mutable t_frames : frame list;
  mutable t_status : status;
  t_held : (int, int) Hashtbl.t; (* monitor object -> reentrancy count *)
  mutable t_lockset : Lockset_id.id; (* outermost real locks + pseudo *)
  mutable t_wait : int option; (* saved reentrancy count across wait() *)
}

type monitor = {
  mutable owner : int option;
  mutable count : int;
  mutable waiters : int list; (* FIFO wait set *)
}

(* Filler for unused thread-array slots; never scheduled. *)
let dummy_thread =
  {
    t_id = -1;
    t_frames = [];
    t_status = Finished;
    t_held = Hashtbl.create 1;
    t_lockset = Lockset_id.empty;
    t_wait = None;
  }

type st = {
  image : image;
  cfg : config;
  sink : Sink.t;
  spec :
    (cell:int ->
    tid:int ->
    loc:int ->
    kind:Drd_core.Event.kind ->
    locks:Lockset_id.id ->
    site:int ->
    unit)
    option;
      (* [sink.spec], pre-gated on the VM config: specialized trace ops
         only take their fast path under the per-field granularity and
         trace-driven (not [all_accesses]) event model the link-time
         classification assumed; any other config falls back to the
         generic [access] path, which is always exact. *)
  heap : Heap.t;
  globals : Value.t array; (* static field slots *)
  mutable threads : thread array; (* tid -> thread; first [nthreads] live *)
  mutable nthreads : int;
  (* Heap-indexed side tables, grown together on demand: heap ids are
     dense and never reused, so an array beats a hashtable on every
     access the hot loop makes. *)
  mutable monitors : monitor option array; (* heap id -> monitor *)
  mutable obj_cls : int array; (* heap id -> class id, or -1 *)
  mutable thread_of_obj : int array; (* heap id -> started tid, or -1 *)
  class_obj_ids : int array; (* class id -> per-class lock heap id, or -1 *)
  templates : Value.t array array; (* class id -> default field values *)
  mutable ready_buf : int array; (* ready tids, newest first *)
  mutable nready : int; (* live prefix of [ready_buf] *)
  mutable ready_fresh : bool;
      (* [ready_buf] is the current ready set: cleared by every rare op
         and every final return, set by [scan] *)
  mutable next : int;
      (* tid of the scheduler's pick for the next slice (an [int], so
         the per-slice store needs no write barrier) *)
  mutable next_n : int; (* ... and that slice's budget *)
  mutable prio : int array; (* PCT priorities, tid-indexed *)
  mutable pct_floor : int; (* PCT yield floor *)
  mutable pct_points : (int * int) list; (* PCT change points (step, rank) *)
  frame_pool : frame list array; (* free frames, indexed by register count *)
  pseudo : Pseudo_lock.t;
  rng : Random.State.t;
  mutable steps : int;
  mutable prints : (string * Value.t option) list; (* reverse order *)
}

let error fmt = Format.kasprintf (fun m -> raise (Runtime_error m)) fmt

(* Unchecked indexing for the two arrays the linker has already
   validated ([Link.validate]: every register operand is inside its
   method's register file, every pc the interpreter can reach is inside
   [m_code]), for a call's argument list, read in a loop bounded by
   its own length, and for the reads [of_int] and [heap_get] guard with
   their own range test.  Object fields and array elements keep their
   bounds checks.  Declared
   as the primitives themselves, not as aliases of [Array.unsafe_get],
   so each use compiles to an inline load or store rather than a call. *)
external ( .%() ) : 'a array -> int -> 'a = "%array_unsafe_get"
external ( .%()<- ) : 'a array -> int -> 'a -> unit = "%array_unsafe_set"

(* Every register store of the slice loop.  A store of the physically
   identical value is skipped: it would change nothing, and skipping it
   skips the write barrier ([caml_modify]).  Loop-invariant constants and
   bounds rewrite their register with the same shared box on every
   iteration, a third or more of all register stores.  The annotation
   keeps the array kind known: a polymorphic [set] would test for a
   float array on every store, even once inlined. *)
let[@inline] set (regs : Value.t array) d v =
  if regs.%(d) != v then regs.%(d) <- v

(* Allocation-free value constructors.  Values are immutable and
   compared structurally, so sharing the boxes is unobservable; computed
   ints cluster near zero (loop counters, array indices, small costs),
   so a small preallocated range absorbs almost every arithmetic
   result. *)
let vtrue = Value.Vbool true
let vfalse = Value.Vbool false
let[@inline] of_bool b = if b then vtrue else vfalse

let small_min = -128
let small_limit = 1024

let small_ints =
  Array.init (small_limit - small_min) (fun i -> Value.Vint (small_min + i))

let[@inline] of_int n =
  if n >= small_min && n < small_limit then small_ints.%(n - small_min)
  else Value.Vint n

(* [Value.to_int] and [Value.to_bool], inline; a value of the wrong
   type raises the same [Invalid_argument] out of line. *)
let[@inline never] type_error msg = invalid_arg msg

let[@inline] to_int = function
  | Value.Vint n -> n
  | _ -> type_error "expected int"

let[@inline] to_bool = function
  | Value.Vbool b -> b
  | _ -> type_error "expected boolean"

(* Grow the heap-indexed side tables to cover heap id [id]. *)
let ensure st id =
  if id >= Array.length st.obj_cls then begin
    let cap = max (2 * Array.length st.obj_cls) (id + 1) in
    let grow a fill =
      let b = Array.make cap fill in
      Array.blit a 0 b 0 (Array.length a);
      b
    in
    st.obj_cls <- grow st.obj_cls (-1);
    st.thread_of_obj <- grow st.thread_of_obj (-1);
    st.monitors <- grow st.monitors None
  end

let find_thread st tid =
  if tid < 0 || tid >= st.nthreads then error "unknown thread id %d" tid
  else st.threads.(tid)

let new_thread st frames =
  let tid = st.nthreads in
  st.nthreads <- st.nthreads + 1;
  let t =
    {
      t_id = tid;
      t_frames = frames;
      t_status = Runnable;
      t_held = Hashtbl.create 4;
      t_lockset = Lockset_id.empty;
      t_wait = None;
    }
  in
  if st.cfg.pseudo_locks then begin
    let s = Heap.alloc_opaque st.heap (Printf.sprintf "S_%d" tid) in
    ensure st s;
    Pseudo_lock.on_thread_start st.pseudo tid s;
    t.t_lockset <- Pseudo_lock.locks_of st.pseudo tid
  end;
  if tid >= Array.length st.threads then begin
    let b = Array.make (max 8 (2 * (tid + 1))) dummy_thread in
    Array.blit st.threads 0 b 0 (Array.length st.threads);
    st.threads <- b
  end;
  st.threads.(tid) <- t;
  t

let monitor_of st obj =
  ensure st obj;
  match st.monitors.(obj) with
  | Some m -> m
  | None ->
      let m = { owner = None; count = 0; waiters = [] } in
      st.monitors.(obj) <- Some m;
      m

let class_obj st cid =
  let id = st.class_obj_ids.(cid) in
  if id >= 0 then id
  else begin
    let id = Heap.alloc_opaque st.heap ("class " ^ st.image.i_classes.(cid)) in
    ensure st id;
    st.class_obj_ids.(cid) <- id;
    id
  end

(* The cold arms of the slice loop: every runtime error it raises, each
   out of line so that the arm that raises it makes no call on its fast
   path. *)
let[@inline never] not_a_ref ~what v =
  match v with
  | Value.Vnull -> error "NullPointerException (%s)" what
  | _ -> error "type confusion: expected reference (%s)" what

let[@inline never] field_not_a_ref (fm : Ir.field_meta) access v =
  not_a_ref ~what:(fm.Ir.fm_name ^ access) v

let[@inline never] not_an_object o = error "type confusion: expected object #%d" o
let[@inline never] not_an_array o = error "type confusion: expected array #%d" o
let[@inline never] step_limit () = error "step limit exceeded"
let[@inline never] trap msg (meth : lmethod) = error "%s in %s" msg meth.m_key

let[@inline never] division_by_zero (meth : lmethod) pc =
  error "division by zero at line %d" meth.m_lines.(pc)

let[@inline never] null_pointer (meth : lmethod) pc =
  error "NullPointerException at %s line %d" meth.m_key meth.m_lines.(pc)

let[@inline never] out_of_bounds k n (meth : lmethod) pc =
  error "ArrayIndexOutOfBoundsException: %d (length %d) at %s line %d" k n
    meth.m_key meth.m_lines.(pc)

let[@inline] as_ref ~what = function
  | Value.Vref o -> o
  | v -> not_a_ref ~what v

(* Structural equality on values without the generic [caml_equal] call;
   agrees with polymorphic [=] on every [Value.t]. *)
let[@inline] value_eq a b =
  a == b
  ||
  match (a, b) with
  | Value.Vint x, Value.Vint y -> x = y
  | Value.Vbool x, Value.Vbool y -> x = y
  | Value.Vref x, Value.Vref y -> x = y
  | Value.Vnull, Value.Vnull -> true
  | _ -> false

(* [Heap.get] with its bounds check inline; an id outside the heap goes
   to [Heap.get] itself, which raises its error.  That call sits in a
   local [@inline never] function: a call into another module is an
   indirect closure call under [-opaque]. *)
let[@inline never] bad_heap_id st o = Heap.get st.heap o

let[@inline] heap_get st o =
  let h = st.heap in
  if o >= 0 && o < h.Heap.n then h.Heap.data.%(o) else bad_heap_id st o

let[@inline] obj_fields st o =
  match heap_get st o with
  | Heap.Obj { fields; _ } -> fields
  | _ -> not_an_object o

let[@inline] arr_elems st o =
  match heap_get st o with
  | Heap.Arr { elems } -> elems
  | _ -> not_an_array o

let[@inline] emit_access st thr ~loc ~kind ~site =
  st.sink.Sink.access ~tid:thr.t_id ~loc ~kind ~locks:thr.t_lockset ~site

(* The call hot path: reuse a returned frame of the exact register
   count when one is free, else allocate.  The refill makes reuse
   unobservable — registers start [Vnull] either way. *)
let alloc_frame st (m : lmethod) dst =
  let n = m.m_nregs in
  match st.frame_pool.(n) with
  | fr :: tl ->
      st.frame_pool.(n) <- tl;
      Array.fill fr.f_regs 0 n Value.Vnull;
      fr.f_meth <- m;
      fr.f_pc <- m.m_entry;
      fr.f_dst <- dst;
      fr
  | [] ->
      { f_meth = m; f_regs = Array.make n Value.Vnull; f_pc = m.m_entry; f_dst = dst }

let recycle_frame st fr =
  let n = Array.length fr.f_regs in
  st.frame_pool.(n) <- fr :: st.frame_pool.(n)

(* Execute one of the rare ops — allocation, monitors, thread start and
   join, wait/notify, print — for the slice loop, which dispatches every
   other op itself.  [regs] is [frame.f_regs] and [pc] the op's slot, so
   error paths read the line from [m_lines.(pc)].  Returns [false] when
   the thread must retry the same op later (blocked). *)
let exec_rare st thr frame regs (op : lop) pc : bool =
  match op with
  | Lnewobj (d, cid) ->
      let id =
        Heap.alloc st.heap
          (Heap.Obj
             {
               cls = st.image.i_classes.(cid);
               fields = Array.copy st.templates.(cid);
             })
      in
      ensure st id;
      st.obj_cls.(id) <- cid;
      regs.%(d) <- Value.Vref id;
      true
  | Lnewarr (d, elem, dims) ->
      let ds = List.map (fun r -> to_int regs.%(r)) dims in
      List.iter
        (fun n -> if n < 0 then error "negative array size at line %d" frame.f_meth.m_lines.(pc))
        ds;
      let id = Heap.alloc_arr st.heap elem ds in
      ensure st id;
      regs.%(d) <- Value.Vref id;
      true
  | Lclassobj (d, cid) ->
      regs.%(d) <- Value.Vref (class_obj st cid);
      true
  | Lmonitorenter r -> (
      let obj = as_ref ~what:"monitorenter" regs.%(r) in
      let m = monitor_of st obj in
      match m.owner with
      | Some o when o = thr.t_id ->
          m.count <- m.count + 1;
          Hashtbl.replace thr.t_held obj m.count;
          true
      | None ->
          m.owner <- Some thr.t_id;
          m.count <- 1;
          Hashtbl.replace thr.t_held obj 1;
          thr.t_lockset <- Lockset_id.add obj thr.t_lockset;
          st.sink.Sink.acquire ~tid:thr.t_id ~lock:obj;
          true
      | Some _ ->
          thr.t_status <- Blocked obj;
          false)
  | Lmonitorexit r ->
      let obj = as_ref ~what:"monitorexit" regs.%(r) in
      let m = monitor_of st obj in
      if (match m.owner with Some o -> o <> thr.t_id | None -> true) then
        error "IllegalMonitorStateException at %s line %d" frame.f_meth.m_key
          frame.f_meth.m_lines.(pc);
      m.count <- m.count - 1;
      if m.count = 0 then begin
        m.owner <- None;
        Hashtbl.remove thr.t_held obj;
        thr.t_lockset <- Lockset_id.remove obj thr.t_lockset;
        st.sink.Sink.release ~tid:thr.t_id ~lock:obj
      end
      else Hashtbl.replace thr.t_held obj m.count;
      true
  | Lthreadstart r ->
      let obj = as_ref ~what:"start" regs.%(r) in
      ensure st obj;
      if st.thread_of_obj.(obj) >= 0 then
        error "IllegalThreadStateException: thread #%d started twice" obj;
      let cid = st.obj_cls.(obj) in
      let run_slot = st.image.i_run_slot in
      let mid =
        if cid >= 0 && run_slot >= 0 then st.image.i_vtables.(cid).(run_slot)
        else -1
      in
      if mid < 0 then
        error "class %s has no run method" (Heap.class_of st.heap obj);
      let m = st.image.i_methods.(mid) in
      let fr = alloc_frame st m None in
      fr.f_regs.(0) <- Value.Vref obj;
      let child = new_thread st [ fr ] in
      st.thread_of_obj.(obj) <- child.t_id;
      st.sink.Sink.thread_start ~parent:thr.t_id ~child:child.t_id;
      true
  | Lthreadjoin r ->
      let obj = as_ref ~what:"join" regs.%(r) in
      ensure st obj;
      let tid = st.thread_of_obj.(obj) in
      if tid < 0 then true (* joining a never-started thread returns at once *)
      else
        let target = find_thread st tid in
        if (match target.t_status with Finished -> true | _ -> false) then begin
          if st.cfg.pseudo_locks then begin
            Pseudo_lock.on_join st.pseudo ~joiner:thr.t_id ~joinee:tid;
            thr.t_lockset <-
              Lockset_id.union thr.t_lockset
                (Pseudo_lock.locks_of st.pseudo thr.t_id)
          end;
          st.sink.Sink.thread_join ~joiner:thr.t_id ~joinee:tid;
          true
        end
        else begin
          thr.t_status <- Joining tid;
          false
        end
  | Lwait r -> (
      let obj = as_ref ~what:"wait" regs.%(r) in
      let m = monitor_of st obj in
      match thr.t_wait with
      | None ->
          (* Phase 1: release the monitor entirely and join the wait
             set.  Resumes at this same instruction once notified. *)
          if (match m.owner with Some o -> o <> thr.t_id | None -> true) then
            error
              "IllegalMonitorStateException: wait at %s line %d without \
               owning the monitor"
              frame.f_meth.m_key frame.f_meth.m_lines.(pc);
          thr.t_wait <- Some m.count;
          m.owner <- None;
          m.count <- 0;
          m.waiters <- m.waiters @ [ thr.t_id ];
          Hashtbl.remove thr.t_held obj;
          thr.t_lockset <- Lockset_id.remove obj thr.t_lockset;
          st.sink.Sink.release ~tid:thr.t_id ~lock:obj;
          thr.t_status <- Waiting obj;
          false
      | Some saved -> (
          (* Phase 2: notified; re-acquire with the saved count. *)
          match m.owner with
          | None ->
              m.owner <- Some thr.t_id;
              m.count <- saved;
              Hashtbl.replace thr.t_held obj saved;
              thr.t_lockset <- Lockset_id.add obj thr.t_lockset;
              st.sink.Sink.acquire ~tid:thr.t_id ~lock:obj;
              thr.t_wait <- None;
              true
          | Some _ ->
              thr.t_status <- Blocked obj;
              false))
  | Lnotify (r, all) ->
      let obj = as_ref ~what:"notify" regs.%(r) in
      let m = monitor_of st obj in
      if (match m.owner with Some o -> o <> thr.t_id | None -> true) then
        error
          "IllegalMonitorStateException: notify at %s line %d without owning \
           the monitor"
          frame.f_meth.m_key frame.f_meth.m_lines.(pc);
      let woken, remaining =
        match m.waiters with
        | [] -> ([], [])
        | w :: rest -> if all then (m.waiters, []) else ([ w ], rest)
      in
      m.waiters <- remaining;
      List.iter
        (fun tid ->
          let t = find_thread st tid in
          (* The woken thread re-contends for the monitor. *)
          t.t_status <- Blocked obj)
        woken;
      true
  | Lprint (tag, r) ->
      let v = Option.map (fun r -> regs.%(r)) r in
      st.prints <- (tag, v) :: st.prints;
      true
  | _ -> assert false (* dispatched by the slice loop *)

let exec_ret st thr frame v =
  let value = match v with Some r -> Some frame.f_regs.(r) | None -> None in
  thr.t_frames <- List.tl thr.t_frames;
  (match thr.t_frames with
  | [] ->
      thr.t_status <- Finished;
      st.ready_fresh <- false;
      st.sink.Sink.thread_exit ~tid:thr.t_id
  | caller :: _ -> (
      match (frame.f_dst, value) with
      | Some d, Some v -> caller.f_regs.(d) <- v
      | Some _, None ->
          error "method %s returned no value" frame.f_meth.m_key
      | None, _ -> ()));
  (* Recycle only after the return value has been read out of [f_regs]
     and delivered. *)
  recycle_frame st frame

(* Can this thread make progress right now? *)
let ready st t =
  match t.t_status with
  | Runnable -> true
  | Finished -> false
  | Waiting _ -> false (* until notified *)
  | Blocked obj -> (match (monitor_of st obj).owner with None -> true | Some _ -> false)
  | Joining tid -> (
      match (find_thread st tid).t_status with Finished -> true | _ -> false)

(* Scheduling policy.  PCT (Burckhardt et al., ASPLOS 2010): every
   thread gets a random priority above [depth]; the scheduler always
   runs the highest-priority ready thread; at [depth] pre-chosen step
   counts within [horizon] the running thread's priority drops to the
   rank of the change point (below every initial priority).  All
   randomness comes from the seeded [st.rng], so a (seed, policy) pair
   names one schedule exactly.

   Priorities are indexed by tid (dense, never reused).  [min_int] marks
   "not yet assigned" — real priorities are either non-negative (initial
   draws, change-point ranks) or small negatives (the yield floor), so
   the sentinel cannot collide. *)
let prio_slot st tid =
  if tid >= Array.length st.prio then begin
    let b = Array.make (max 8 (2 * (tid + 1))) min_int in
    Array.blit st.prio 0 b 0 (Array.length st.prio);
    st.prio <- b
  end;
  st.prio

let prio_of st t =
  let a = prio_slot st t.t_id in
  let p = a.(t.t_id) in
  if p <> min_int then p
  else begin
    let depth = match st.cfg.policy with Pct { depth; _ } -> depth | _ -> 0 in
    let p = depth + Random.State.int st.rng 0x3FFFFFFF in
    a.(t.t_id) <- p;
    p
  end

(* Highest priority wins; ties (vanishingly rare) go to the lowest
   thread id for determinism.  This walks [ready_buf] in the order the
   frozen interpreter's fold walked its ready list, with the comparison
   written as the same two-binding [let] — lazy priority draws consume
   the RNG identically.  After one pick over a list of two or more
   threads every priority in it is assigned, so a repeated pick over the
   same list draws nothing. *)
let pick_pct st =
  let best = ref st.threads.(st.ready_buf.(0)) in
  for i = 1 to st.nready - 1 do
    let t = st.threads.(st.ready_buf.(i)) in
    let b = !best in
    let pb = prio_of st b and pt = prio_of st t in
    if pt > pb || (pt = pb && t.t_id < b.t_id) then best := t
  done;
  !best

(* Rebuild the ready list: scan threads newest-first (the order the
   block interpreter kept its thread list in — RNG consumption depends
   on it).  Leaves [nready] at 0 only when every thread has finished;
   live threads with none ready are a deadlock. *)
let scan st =
  if Array.length st.ready_buf < st.nthreads then
    st.ready_buf <- Array.make (2 * st.nthreads) 0;
  let nalive = ref 0 and nready = ref 0 and nwaiting = ref 0 in
  for tid = st.nthreads - 1 downto 0 do
    let t = st.threads.(tid) in
    match t.t_status with
    | Finished -> ()
    | s ->
        incr nalive;
        (match s with Waiting _ -> incr nwaiting | _ -> ());
        if ready st t then begin
          st.ready_buf.(!nready) <- tid;
          incr nready
        end
  done;
  if !nalive > 0 && !nready = 0 then
    if !nwaiting > 0 then
      error
        "deadlock: %d of %d remaining threads are stuck in wait() with no \
         runnable thread left to notify them"
        !nwaiting !nalive
    else error "deadlock: no runnable thread among %d" !nalive;
  st.nready <- !nready;
  st.ready_fresh <- true

(* The one scheduling decision, over a fresh ready list: close the slice
   [t] just ran and pick the next into [st.next] / [st.next_n].  [t] is
   [dummy_thread] before the first slice; [yielded] says its slice ended
   at an [Lyield]; [same_list] that [t] was picked over this very list,
   unchanged since.  [Random_walk] draws the thread, then the slice
   length.  PCT first crosses at most one due change point and demotes a
   yielder below the floor; a thread whose priority did not move stays
   the highest-priority thread of an unchanged list, so it is kept
   without a rescan of the priorities. *)
let reschedule st t ~yielded ~same_list =
  match st.cfg.policy with
  | Random_walk ->
      let k = Random.State.int st.rng st.nready in
      st.next <- st.ready_buf.(k);
      st.next_n <- 1 + Random.State.int st.rng st.cfg.quantum
  | Pct _ ->
      let crossed =
        t != dummy_thread
        &&
        match st.pct_points with
        | (steps_at, rank) :: rest when st.steps >= steps_at ->
            (prio_slot st t.t_id).(t.t_id) <- rank;
            st.pct_points <- rest;
            true
        | _ -> false
      in
      (* Yielders go below every change-point rank, most recent lowest:
         round-robin among spinning threads. *)
      if yielded then begin
        st.pct_floor <- st.pct_floor - 1;
        (prio_slot st t.t_id).(t.t_id) <- st.pct_floor
      end;
      st.next <-
        (if same_list && not crossed && not yielded then t.t_id
         else (pick_pct st).t_id);
      st.next_n <- max st.cfg.quantum 1

(* Enter a call: push the callee's frame with the arguments copied in.
   A virtual call reports its receiver to [Sink.call] and dispatches on
   the receiver's class. *)
let push_call st thr regs dst target (args : Ir.reg array) site =
  let mid =
    match target with
    | Lc_method mid -> mid
    | Lc_virtual (slot, name) ->
        let recv =
          match regs.%(args.(0)) with
          | Value.Vref recv -> recv
          | v -> as_ref ~what:("call " ^ name) v
        in
        (match st.sink.Sink.call with
        | Some f -> f ~tid:thr.t_id ~obj:recv ~locks:thr.t_lockset ~site
        | None -> ());
        ensure st recv;
        let cid = st.obj_cls.(recv) in
        let mid = if cid >= 0 then st.image.i_vtables.(cid).(slot) else -1 in
        if mid < 0 then
          error "no method %s on class %s" name (Heap.class_of st.heap recv)
        else mid
  in
  let fr = alloc_frame st st.image.i_methods.(mid) dst in
  let callee = fr.f_regs in
  for k = 0 to Array.length args - 1 do
    callee.(k) <- regs.%(args.%(k))
  done;
  thr.t_frames <- fr :: thr.t_frames

let[@inline] spec_access st thr ~cell ~loc ~kind ~site =
  match st.spec with
  | Some f -> f ~cell ~tid:thr.t_id ~loc ~kind ~locks:thr.t_lockset ~site
  | None -> emit_access st thr ~loc ~kind ~site

(* How [run_slice] returned. *)
type slice_end =
  | Ended (* on its budget with a stale ready list, or blocked or finished *)
  | Yielded (* at an [Lyield]: PCT deprioritizes the yielder so spin-wait
               loops cannot starve the thread they are waiting on *)
  | Decided (* on its budget, with the next slice already picked in place *)

(* Run a slice of up to [n] instructions on thread [t], and the slices
   after it for as long as the scheduler keeps picking [t].  A slice
   that ends on its budget while the ready list is fresh takes the next
   decision here, through [reschedule]: when [t] is picked again the
   loop goes on with the fresh budget and its locals intact; otherwise
   it returns [Decided] with the pick in [st.next], so the draw is never
   repeated.  A yield ends the stretch without a decision: PCT must
   demote the yielder first.

   Each step is one match on the slot's op: every arm executes its op,
   moves [pc] and evaluates to the slice budget it spent.  Terminators
   are slots in the flat stream, but stay what they were in the block
   interpreter: one step that costs no slice budget.

   A superinstruction covering [k] slots takes its fast path only when
   the slice budget and [max_steps] have room for all [k] of them and
   its operands are the well-typed, in-range values the fast path
   handles; it then advances [steps] by [k] and spends exactly the
   budget its single ops would have.  Otherwise it runs its first slot
   alone and the covered slots follow as single ops, so slice ends,
   step counts, PCT change points, the step-limit error and every
   runtime error land on the same slot as in the unfused stream. *)
let run_slice st t n =
  (* A blocked or joining thread is picked only once it can proceed.
     Tested first: the store is a write barrier, and most slices start
     on a thread that is already [Runnable]. *)
  (match t.t_status with Runnable -> () | _ -> t.t_status <- Runnable);
  let max_steps = st.cfg.max_steps in
  let all_accesses = st.cfg.all_accesses in
  let continue_ = ref true in
  let ended = ref Ended in
  let budget = ref n in
  while
    !continue_ && !budget > 0
    && (match t.t_status with Runnable -> true | _ -> false)
  do
    match t.t_frames with
    | [] -> continue_ := false
    | frame :: _ ->
        (* Inner loop over one frame: [code], [regs], [pc] and the step
           counter stay in locals until the frame changes (call/return),
           the thread stops advancing, or the slice ends.  [frame.f_pc]
           and [st.steps] are flushed at every exit, so anything outside
           this loop (the scheduler's change points, a resumed slice)
           sees exactly the state the per-step version maintained. *)
        let meth = frame.f_meth in
        let code = meth.m_code in
        let regs = frame.f_regs in
        let pc = ref frame.f_pc in
        let steps = ref st.steps in
        let inner = ref true in
        while !inner do
          incr steps;
          if !steps > max_steps then begin
            frame.f_pc <- !pc;
            st.steps <- !steps;
            step_limit ()
          end;
          let spent =
            match code.%(!pc) with
            | Lgoto l ->
                pc := l;
                0
            | Lif (c, tl, fl) ->
                pc := if to_bool regs.%(c) then tl else fl;
                0
            | Lret v ->
                inner := false;
                frame.f_pc <- !pc;
                st.steps <- !steps;
                exec_ret st t frame v;
                0
            | Ltrap msg ->
                frame.f_pc <- !pc;
                st.steps <- !steps;
                trap msg meth
            | Lconst_int (d, k) ->
                set regs d (of_int k);
                incr pc;
                1
            | Lconst_bool (d, b) ->
                set regs d (of_bool b);
                incr pc;
                1
            | Lconst_null d ->
                set regs d Value.Vnull;
                incr pc;
                1
            | Lmove (d, s) ->
                set regs d regs.%(s);
                incr pc;
                1
            | Ladd (d, l, r) ->
                set regs d (of_int (to_int regs.%(l) + to_int regs.%(r)));
                incr pc;
                1
            | Lsub (d, l, r) ->
                set regs d (of_int (to_int regs.%(l) - to_int regs.%(r)));
                incr pc;
                1
            | Lmul (d, l, r) ->
                set regs d (of_int (to_int regs.%(l) * to_int regs.%(r)));
                incr pc;
                1
            | Ldiv (d, l, r) ->
                let a = to_int regs.%(l) and b = to_int regs.%(r) in
                if b = 0 then division_by_zero meth !pc;
                set regs d (of_int (a / b));
                incr pc;
                1
            | Lmod (d, l, r) ->
                let a = to_int regs.%(l) and b = to_int regs.%(r) in
                if b = 0 then division_by_zero meth !pc;
                set regs d (of_int (a mod b));
                incr pc;
                1
            | Llt (d, l, r) ->
                set regs d (of_bool (to_int regs.%(l) < to_int regs.%(r)));
                incr pc;
                1
            | Lle (d, l, r) ->
                set regs d (of_bool (to_int regs.%(l) <= to_int regs.%(r)));
                incr pc;
                1
            | Lgt (d, l, r) ->
                set regs d (of_bool (to_int regs.%(l) > to_int regs.%(r)));
                incr pc;
                1
            | Lge (d, l, r) ->
                set regs d (of_bool (to_int regs.%(l) >= to_int regs.%(r)));
                incr pc;
                1
            | Leq (d, l, r) ->
                set regs d (of_bool (value_eq regs.%(l) regs.%(r)));
                incr pc;
                1
            | Lne (d, l, r) ->
                set regs d (of_bool (not (value_eq regs.%(l) regs.%(r))));
                incr pc;
                1
            | Lneg (d, s) ->
                set regs d (of_int (-to_int regs.%(s)));
                incr pc;
                1
            | Lnot (d, s) ->
                set regs d (of_bool (not (to_bool regs.%(s))));
                incr pc;
                1
            | Lgetfield (d, o, fm) ->
                (* The error label is built only on the failure path,
                   inside [field_not_a_ref]: an [as_ref ~what] argument
                   would allocate a string per access. *)
                let obj =
                  match regs.%(o) with
                  | Value.Vref obj -> obj
                  | v -> field_not_a_ref fm " load" v
                in
                set regs d ((obj_fields st obj).(fm.Ir.fm_index));
                if all_accesses then
                  emit_access st t ~site:(-1)
                    ~loc:
                      (Memloc.field ~gran:st.cfg.granularity ~obj
                         ~index:fm.Ir.fm_index)
                    ~kind:Event.Read;
                incr pc;
                1
            | Lputfield (o, fm, s) ->
                let obj =
                  match regs.%(o) with
                  | Value.Vref obj -> obj
                  | v -> field_not_a_ref fm " store" v
                in
                (obj_fields st obj).(fm.Ir.fm_index) <- regs.%(s);
                if all_accesses then
                  emit_access st t ~site:(-1)
                    ~loc:
                      (Memloc.field ~gran:st.cfg.granularity ~obj
                         ~index:fm.Ir.fm_index)
                    ~kind:Event.Write;
                incr pc;
                1
            | Lgetstatic (d, sm) ->
                set regs d st.globals.(sm.Ir.sm_slot);
                if all_accesses then
                  emit_access st t ~site:(-1)
                    ~loc:
                      (Memloc.static ~gran:st.cfg.granularity
                         ~slot:sm.Ir.sm_slot)
                    ~kind:Event.Read;
                incr pc;
                1
            | Lputstatic (sm, s) ->
                st.globals.(sm.Ir.sm_slot) <- regs.%(s);
                if all_accesses then
                  emit_access st t ~site:(-1)
                    ~loc:
                      (Memloc.static ~gran:st.cfg.granularity
                         ~slot:sm.Ir.sm_slot)
                    ~kind:Event.Write;
                incr pc;
                1
            | Laload (d, a, idx) ->
                let arr = as_ref ~what:"array load" regs.%(a) in
                set regs d ((arr_elems st arr).(to_int regs.%(idx)));
                if all_accesses then
                  emit_access st t ~site:(-1)
                    ~loc:(Memloc.array ~gran:st.cfg.granularity ~obj:arr)
                    ~kind:Event.Read;
                incr pc;
                1
            | Lastore (a, idx, s) ->
                let arr = as_ref ~what:"array store" regs.%(a) in
                (arr_elems st arr).(to_int regs.%(idx)) <- regs.%(s);
                if all_accesses then
                  emit_access st t ~site:(-1)
                    ~loc:(Memloc.array ~gran:st.cfg.granularity ~obj:arr)
                    ~kind:Event.Write;
                incr pc;
                1
            | Larrlen (d, a) ->
                let arr = as_ref ~what:"length" regs.%(a) in
                set regs d (of_int (Array.length (arr_elems st arr)));
                incr pc;
                1
            | Lnullcheck r ->
                (match regs.%(r) with
                | Value.Vnull -> null_pointer meth !pc
                | _ -> ());
                incr pc;
                1
            | Lboundscheck (a, idx) ->
                let arr = as_ref ~what:"array access" regs.%(a) in
                let n = Array.length (arr_elems st arr) in
                let k = to_int regs.%(idx) in
                if k < 0 || k >= n then out_of_bounds k n meth !pc;
                incr pc;
                1
            | Lcall (dst, target, args, site) ->
                push_call st t regs dst target args site;
                (* Leave this frame parked at the return pc and re-enter
                   on the callee's frame. *)
                incr pc;
                inner := false;
                1
            | Lyield ->
                incr pc;
                continue_ := false;
                ended := Yielded;
                inner := false;
                1
            | Ltrace_field (o, index, kind, site) ->
                let obj = as_ref ~what:"trace" regs.%(o) in
                emit_access st t
                  ~loc:(Memloc.field ~gran:st.cfg.granularity ~obj ~index)
                  ~kind ~site;
                incr pc;
                1
            | Ltrace_static (slot, kind, site) ->
                emit_access st t
                  ~loc:(Memloc.static ~gran:st.cfg.granularity ~slot)
                  ~kind ~site;
                incr pc;
                1
            | Ltrace_array (a, kind, site) ->
                emit_access st t
                  ~loc:
                    (Memloc.array ~gran:st.cfg.granularity
                       ~obj:(as_ref ~what:"trace" regs.%(a)))
                  ~kind ~site;
                incr pc;
                1
            | Ltrace_field_spec (o, index, kind, site, cell) ->
                let obj = as_ref ~what:"trace" regs.%(o) in
                spec_access st t ~cell
                  ~loc:(Memloc.field ~gran:st.cfg.granularity ~obj ~index)
                  ~kind ~site;
                incr pc;
                1
            | Ltrace_static_spec (slot, kind, site, cell) ->
                spec_access st t ~cell
                  ~loc:(Memloc.static ~gran:st.cfg.granularity ~slot)
                  ~kind ~site;
                incr pc;
                1
            | Ltrace_array_spec (a, kind, site, cell) ->
                spec_access st t ~cell
                  ~loc:
                    (Memloc.array ~gran:st.cfg.granularity
                       ~obj:(as_ref ~what:"trace" regs.%(a)))
                  ~kind ~site;
                incr pc;
                1
            | Laload_checked (d, a, idx) -> (
                match regs.%(a) with
                | Value.Vnull -> null_pointer meth !pc
                | Value.Vref obj when !budget >= 3 && !steps + 2 <= max_steps
                  -> (
                    match (heap_get st obj, regs.%(idx)) with
                    | Heap.Arr { elems }, Value.Vint k
                      when k >= 0 && k < Array.length elems ->
                        set regs d (Array.unsafe_get elems k);
                        if all_accesses then
                          emit_access st t ~site:(-1)
                            ~loc:(Memloc.array ~gran:st.cfg.granularity ~obj)
                            ~kind:Event.Read;
                        pc := !pc + 3;
                        steps := !steps + 2;
                        3
                    | _ ->
                        incr pc;
                        1)
                | _ ->
                    incr pc;
                    1)
            | Lastore_checked (a, idx, s) -> (
                match regs.%(a) with
                | Value.Vnull -> null_pointer meth !pc
                | Value.Vref obj when !budget >= 3 && !steps + 2 <= max_steps
                  -> (
                    match (heap_get st obj, regs.%(idx)) with
                    | Heap.Arr { elems }, Value.Vint k
                      when k >= 0 && k < Array.length elems ->
                        Array.unsafe_set elems k regs.%(s);
                        if all_accesses then
                          emit_access st t ~site:(-1)
                            ~loc:(Memloc.array ~gran:st.cfg.granularity ~obj)
                            ~kind:Event.Write;
                        pc := !pc + 3;
                        steps := !steps + 2;
                        3
                    | _ ->
                        incr pc;
                        1)
                | _ ->
                    incr pc;
                    1)
            | Lconst_add (kr, k, d, x) -> (
                set regs kr (of_int k);
                match regs.%(x) with
                | Value.Vint v when !budget >= 2 && !steps < max_steps ->
                    set regs d (of_int (v + k));
                    pc := !pc + 2;
                    incr steps;
                    2
                | _ ->
                    incr pc;
                    1)
            | Lconst_sub (kr, k, d, x) -> (
                set regs kr (of_int k);
                match regs.%(x) with
                | Value.Vint v when !budget >= 2 && !steps < max_steps ->
                    set regs d (of_int (v - k));
                    pc := !pc + 2;
                    incr steps;
                    2
                | _ ->
                    incr pc;
                    1)
            | Llt_if (d, l, r, tl, fl) ->
                let c = to_int regs.%(l) < to_int regs.%(r) in
                set regs d (of_bool c);
                (* The [if] spends no budget, but the slice must not end
                   at the [lt] before it. *)
                if !budget >= 2 && !steps < max_steps then begin
                  incr steps;
                  pc := if c then tl else fl
                end
                else incr pc;
                1
            | op ->
                st.ready_fresh <- false;
                if exec_rare st t frame regs op !pc then begin
                  incr pc;
                  1
                end
                else begin
                  (* Blocked: retry this slot when rescheduled. *)
                  continue_ := false;
                  inner := false;
                  0
                end
          in
          if spent > 0 then begin
            budget := !budget - spent;
            if !budget <= 0 then
              if !continue_ && st.ready_fresh then begin
                (* The slice ended on its budget and no thread's
                   readiness can have changed since the last scan. *)
                st.steps <- !steps;
                reschedule st t ~yielded:false ~same_list:true;
                if st.next = t.t_id then budget := st.next_n
                else begin
                  ended := Decided;
                  continue_ := false;
                  inner := false
                end
              end
              else inner := false
          end
        done;
        frame.f_pc <- !pc;
        st.steps <- !steps
  done;
  !ended

(* A resettable run context: every array and table one execution needs,
   allocated once and reused across runs.  [run_ctx] resets it at the
   {e start} of each run, so the previous run's [r_heap] stays readable
   until the next run begins on the same context.  The initial sizes
   below must match what [run] historically allocated per run — a reused
   context must grow (and therefore behave) exactly like a fresh one. *)
type ctx = {
  cx_image : image;
  cx_templates : Value.t array array; (* class id -> default field values *)
  cx_globals0 : Value.t array; (* pristine static slots, blitted on reset *)
  cx_globals : Value.t array;
  cx_heap : Heap.t;
  cx_pseudo : Pseudo_lock.t;
  cx_class_obj_ids : int array;
  mutable cx_threads : thread array;
  mutable cx_monitors : monitor option array;
  mutable cx_obj_cls : int array;
  mutable cx_thread_of_obj : int array;
  mutable cx_ready_buf : int array;
  mutable cx_prio : int array; (* PCT priorities, tid-indexed *)
  cx_frame_pool : frame list array; (* free frames, by register count *)
  mutable cx_used : bool; (* a run has touched the context since reset *)
}

let create_ctx (image : image) : ctx =
  let tprog = image.i_prog.Ir.p_tprog in
  let globals0 =
    Array.map
      (fun (sf : Tast.sfield_info) -> Value.default_of sf.Tast.sf_ty)
      tprog.Tast.statics
  in
  {
    cx_image = image;
    cx_templates =
      Array.map
        (fun fields ->
          Array.map
            (fun (f : Tast.field_info) -> Value.default_of f.Tast.fld_ty)
            fields)
        image.i_class_fields;
    cx_globals0 = globals0;
    cx_globals = Array.copy globals0;
    cx_heap = Heap.create ();
    (* Join pseudo-locks live in the heap id space, so they can never
       collide with real lock (object) identities. *)
    cx_pseudo = Pseudo_lock.create ();
    cx_class_obj_ids = Array.make (max (class_count image) 1) (-1);
    cx_threads = Array.make 8 dummy_thread;
    cx_monitors = Array.make 1024 None;
    cx_obj_cls = Array.make 1024 (-1);
    cx_thread_of_obj = Array.make 1024 (-1);
    cx_ready_buf = Array.make 8 0;
    cx_prio = Array.make 8 min_int;
    cx_frame_pool =
      (let max_nregs =
         Array.fold_left
           (fun acc (m : lmethod) -> max acc m.m_nregs)
           0 image.i_methods
       in
       Array.make (max_nregs + 1) []);
    cx_used = false;
  }

(* Whole-array fills rather than tracked dirty extents: the arrays are
   a few thousand words, two orders of magnitude below what rebuilding
   them allocated, and a full fill cannot miss a stale slot. *)
let reset_ctx cx =
  if cx.cx_used then begin
    cx.cx_used <- false;
    Array.blit cx.cx_globals0 0 cx.cx_globals 0 (Array.length cx.cx_globals);
    Heap.clear cx.cx_heap;
    Pseudo_lock.reset cx.cx_pseudo;
    Array.fill cx.cx_class_obj_ids 0 (Array.length cx.cx_class_obj_ids) (-1);
    Array.fill cx.cx_threads 0 (Array.length cx.cx_threads) dummy_thread;
    Array.fill cx.cx_monitors 0 (Array.length cx.cx_monitors) None;
    Array.fill cx.cx_obj_cls 0 (Array.length cx.cx_obj_cls) (-1);
    Array.fill cx.cx_thread_of_obj 0 (Array.length cx.cx_thread_of_obj) (-1);
    Array.fill cx.cx_prio 0 (Array.length cx.cx_prio) min_int
  end

let run_ctx ?(config = default_config) ~sink (cx : ctx) : result =
  reset_ctx cx;
  cx.cx_used <- true;
  let image = cx.cx_image in
  let rng = Random.State.make [| config.seed |] in
  let st =
    {
      image;
      cfg = config;
      sink;
      spec =
        (if config.all_accesses || config.granularity <> Memloc.Per_field then
           None
         else sink.Sink.spec);
      heap = cx.cx_heap;
      globals = cx.cx_globals;
      threads = cx.cx_threads;
      nthreads = 0;
      monitors = cx.cx_monitors;
      obj_cls = cx.cx_obj_cls;
      thread_of_obj = cx.cx_thread_of_obj;
      class_obj_ids = cx.cx_class_obj_ids;
      templates = cx.cx_templates;
      ready_buf = cx.cx_ready_buf;
      nready = 0;
      ready_fresh = false;
      next = -1;
      next_n = 0;
      prio = cx.cx_prio;
      pct_floor = 0;
      (* Drawn before the first decision, the order the RNG has always
         been consumed in. *)
      pct_points =
        (match config.policy with
        | Random_walk -> []
        | Pct { depth; horizon } ->
            List.init depth (fun rank ->
                (1 + Random.State.int rng (max horizon 1), rank))
            |> List.sort compare);
      (* Survives resets on purpose: parked frames carry no state a
         reuse does not overwrite, and their registers are refilled with
         [Vnull] before handing them out. *)
      frame_pool = cx.cx_frame_pool;
      pseudo = cx.cx_pseudo;
      rng;
      steps = 0;
      prints = [];
    }
  in
  let main = image.i_methods.(image.i_main) in
  ignore (new_thread st [ alloc_frame st main None ]);
  (* [t] is the thread whose slice just ended.  A [Decided] slice has
     already picked its successor; any other end closes it here, over a
     ready list rescanned if a rare op or a final return made it stale. *)
  let rec loop t ended =
    match ended with
    | Decided ->
        let t = st.threads.(st.next) in
        loop t (run_slice st t st.next_n)
    | Ended | Yielded ->
        if not st.ready_fresh then scan st;
        if st.nready > 0 then begin
          let yielded = match ended with Yielded -> true | _ -> false in
          reschedule st t ~yielded ~same_list:false;
          let t = st.threads.(st.next) in
          loop t (run_slice st t st.next_n)
        end
  in
  (* The run may replace the growable arrays ([ensure], [new_thread],
     [prio_slot] all reallocate on demand); write them back to the
     context on BOTH exits — normal completion and a [Runtime_error]
     escape — so that resetting after an aborted run clears the arrays
     the run actually used, never a stale pre-growth copy. *)
  Fun.protect
    ~finally:(fun () ->
      cx.cx_threads <- st.threads;
      cx.cx_monitors <- st.monitors;
      cx.cx_obj_cls <- st.obj_cls;
      cx.cx_thread_of_obj <- st.thread_of_obj;
      cx.cx_ready_buf <- st.ready_buf;
      cx.cx_prio <- st.prio)
    (fun () -> loop dummy_thread Ended);
  {
    r_prints = List.rev st.prints;
    r_steps = st.steps;
    r_max_threads = st.nthreads;
    r_heap = st.heap;
  }

let run ?config ~sink (image : image) : result =
  run_ctx ?config ~sink (create_ctx image)
