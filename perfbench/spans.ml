(* In-memory span recorder for the traced run.

   A span is recorded around each call the benchmark makes into a
   layer's public functions: its name, start and end on the monotonic
   clock, the span that was open around it (its parent) and the
   operation it belongs to.  Spans stay in memory until the run ends.
   A recorder belongs to one domain (its lane); the ladder and the
   workload loop each have their own, concatenated at the end. *)

type span = {
  id : int;
  name : string;
  op : int;  (** Spans of one operation share this id. *)
  parent : int;  (** Id of the enclosing span, or [-1]. *)
  lane : int;  (** Recorder (domain or connection) the span ran on. *)
  start_ns : int64;
  stop_ns : int64;
}

type t = { lane : int; mutable open_ : int list; mutable spans : span list }

let next_id = Atomic.make 0

let create ~lane = { lane; open_ = []; spans = [] }

let record t ~op name f =
  let id = Atomic.fetch_and_add next_id 1 in
  let parent = match t.open_ with p :: _ -> p | [] -> -1 in
  t.open_ <- id :: t.open_;
  let start_ns = Clock.now () in
  let finish () =
    let stop_ns = Clock.now () in
    t.open_ <- List.tl t.open_;
    t.spans <-
      { id; name; op; parent; lane = t.lane; start_ns; stop_ns } :: t.spans
  in
  Fun.protect ~finally:finish f

(* [with_span r ~op name f] records when [r] is a recorder and costs
   nothing more than the match when it is [None]. *)
let with_span r ~op name f =
  match r with None -> f () | Some t -> record t ~op name f

let spans t = List.rev t.spans

let duration_ns s = Int64.sub s.stop_ns s.start_ns

(* Total length of the union of [intervals] clipped to [lo, hi]:
   overlapping children (concurrent lanes, or a child that outlives its
   parent) are covered once. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = max a lo and b = min b hi in
        if Int64.compare a b < 0 then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
            if Int64.compare a cb <= 0 then (total, Some (ca, max cb b))
            else (Int64.add total (Int64.sub cb ca), Some (a, b)))
      (0L, None) clipped
  in
  match last with None -> total | Some (a, b) -> Int64.add total (Int64.sub b a)

(* Each span with its self time: its duration minus the part of its
   interval that its children cover. *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          ((s.start_ns, s.stop_ns)
          :: Option.value ~default:[] (Hashtbl.find_opt children s.parent)))
    spans;
  List.map
    (fun s ->
      let kids = Option.value ~default:[] (Hashtbl.find_opt children s.id) in
      (s, Int64.sub (duration_ns s) (covered ~lo:s.start_ns ~hi:s.stop_ns kids)))
    spans

type row = { r_name : string; r_count : int; r_total_ms : float; r_self_ms : float }

(* Per span name: count, total and self time, in first-seen order. *)
let by_name spans =
  let tbl = Hashtbl.create 64 and order = ref [] in
  List.iter
    (fun (s, self) ->
      let c, tot, slf =
        match Hashtbl.find_opt tbl s.name with
        | Some v -> v
        | None ->
            order := s.name :: !order;
            (0, 0L, 0L)
      in
      Hashtbl.replace tbl s.name
        (c + 1, Int64.add tot (duration_ns s), Int64.add slf self))
    (self_times spans);
  List.rev_map
    (fun name ->
      let c, tot, slf = Hashtbl.find tbl name in
      {
        r_name = name;
        r_count = c;
        r_total_ms = Int64.to_float tot /. 1e6;
        r_self_ms = Int64.to_float slf /. 1e6;
      })
    !order

(* Chrome trace-event JSON ("X" complete events, microseconds), which
   Perfetto and chrome://tracing open. *)
let to_trace_json spans =
  let b = Buffer.create 4096 in
  let t0 =
    List.fold_left (fun m s -> if Int64.compare s.start_ns m < 0 then s.start_ns else m)
      Int64.max_int spans
  in
  let us x = Int64.to_float (Int64.sub x t0) /. 1e3 in
  Buffer.add_string b "{\"traceEvents\": [\n";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string b ",\n";
      Printf.bprintf b
        "{\"name\": %S, \"ph\": \"X\", \"pid\": 1, \"tid\": %d, \"ts\": %.3f, \
         \"dur\": %.3f, \"args\": {\"id\": %d, \"parent\": %d, \"op\": %d}}"
        s.name s.lane (us s.start_ns)
        (Int64.to_float (duration_ns s) /. 1e3)
        s.id s.parent s.op)
    spans;
  Buffer.add_string b "\n]}\n";
  Buffer.contents b

(* [timed t ~op name f] records a span and also returns its duration in
   ms, so per-layer figures are read off the spans themselves. *)
let timed t ~op name f =
  let r = record t ~op name f in
  (r, Int64.to_float (duration_ns (List.hd t.spans)) /. 1e6)
