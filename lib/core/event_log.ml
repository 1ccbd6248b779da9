type entry =
  | Access of Event.t
  | Acquire of Event.thread_id * Event.lock_id
  | Release of Event.thread_id * Event.lock_id
  | Thread_start of Event.thread_id * Event.thread_id
  | Thread_join of Event.thread_id * Event.thread_id
  | Thread_exit of Event.thread_id

(* Array-backed storage: recording is an amortized store, and replay
   iterates in place — the old reversed-list representation rebuilt the
   whole log as a fresh list (one cons per entry) on every [entries]
   call, which sat inside the timed region of the replay benchmarks. *)
type t = { mutable arr : entry array; mutable n : int }

let dummy = Thread_exit (-1)

let create () = { arr = [||]; n = 0 }

let record t e =
  let cap = Array.length t.arr in
  if t.n = cap then begin
    let arr = Array.make (max 1024 (cap * 2)) dummy in
    Array.blit t.arr 0 arr 0 cap;
    t.arr <- arr
  end;
  t.arr.(t.n) <- e;
  t.n <- t.n + 1

let length t = t.n

let iter f t =
  for i = 0 to t.n - 1 do
    f t.arr.(i)
  done

let entries t = Array.to_list (Array.sub t.arr 0 t.n)

(* The one place a log entry becomes detector calls: post-mortem
   replay, the serve daemon and the baselines' replay all feed through
   here. *)
let feed (type d) (module D : Detector_intf.S with type t = d) (d : d) =
  function
  | Access e ->
      D.on_access d ~loc:e.Event.loc ~thread:e.Event.thread ~locks:e.Event.locks
        ~kind:e.Event.kind ~site:e.Event.site
  | Acquire (thread, lock) -> D.on_acquire d ~thread ~lock
  | Release (thread, lock) -> D.on_release d ~thread ~lock
  | Thread_start (parent, child) -> D.on_thread_start d ~parent ~child
  | Thread_join (joiner, joinee) -> D.on_thread_join d ~joiner ~joinee
  | Thread_exit thread -> D.on_thread_exit d ~thread

let replay t det = iter (feed (module Detector.Standard) det) t

(* Text serialization: one entry per line.
     A <loc> <thread> <R|W> <site> <lock>*      access
     L <thread> <lock>                          acquire
     U <thread> <lock>                          release
     S <parent> <child>                         thread start
     J <joiner> <joinee>                        thread join
     X <thread>                                 thread exit *)

let entry_to_line e =
  let b = Buffer.create 32 in
  (match e with
  | Access e ->
      Printf.bprintf b "A %d %d %c %d" e.Event.loc e.Event.thread
        (match e.Event.kind with Event.Read -> 'R' | Event.Write -> 'W')
        e.Event.site;
      List.iter (Printf.bprintf b " %d")
        (Lockset_id.to_sorted_list e.Event.locks)
  | Acquire (t, l) -> Printf.bprintf b "L %d %d" t l
  | Release (t, l) -> Printf.bprintf b "U %d %d" t l
  | Thread_start (p, c) -> Printf.bprintf b "S %d %d" p c
  | Thread_join (j, e) -> Printf.bprintf b "J %d %d" j e
  | Thread_exit t -> Printf.bprintf b "X %d" t);
  Buffer.contents b

let to_channel oc t =
  iter
    (fun e ->
      output_string oc (entry_to_line e);
      output_char oc '\n')
    t

(* Quote a piece of an offending line for an error message, at most
   [quote_limit] bytes of it: the daemon sends the message back as a
   frame, so a huge junk line must not come back whole (and twice). *)
let quote_limit = 64

let quote s =
  let n = String.length s in
  if n <= quote_limit then Printf.sprintf "%S" s
  else Printf.sprintf "%S... (%d bytes)" (String.sub s 0 quote_limit) n

(* The single-line decoder every consumer shares: the whole-file parser
   below and the streaming daemon, which feeds one line at a time as it
   arrives on a socket and must never buffer the stream. *)
let entry_of_line line =
  if String.trim line = "" then Ok None
  else begin
    let exception Bad of string in
    let fail reason =
      raise (Bad (Printf.sprintf "%s in %s" reason (quote line)))
    in
    let int_field name s =
      match int_of_string_opt s with
      | Some n -> n
      | None -> fail (Printf.sprintf "%s %s is not an integer" name (quote s))
    in
    let parts = String.split_on_char ' ' (String.trim line) in
    match
      match parts with
      | "A" :: loc :: thread :: kind :: site :: locks ->
          let kind =
            match kind with
            | "R" -> Event.Read
            | "W" -> Event.Write
            | k -> fail (Printf.sprintf "access kind %s is not R or W" (quote k))
          in
          (* Intern at the parse boundary: replaying a parsed log
             hits exactly the same interned-id hot path as the
             online pipeline. *)
          Access
            (Event.make_interned
               ~loc:(int_field "location" loc)
               ~thread:(int_field "thread" thread)
               ~locks:
                 (Lockset_id.of_list (List.map (int_field "lock") locks))
               ~kind
               ~site:(int_field "site" site))
      | [ "L"; t; l ] -> Acquire (int_field "thread" t, int_field "lock" l)
      | [ "U"; t; l ] -> Release (int_field "thread" t, int_field "lock" l)
      | [ "S"; p; c ] ->
          Thread_start (int_field "parent" p, int_field "child" c)
      | [ "J"; j; e ] ->
          Thread_join (int_field "joiner" j, int_field "joinee" e)
      | [ "X"; t ] -> Thread_exit (int_field "thread" t)
      | tag :: _ ->
          fail
            (Printf.sprintf
               "unknown entry tag %s (expected A, L, U, S, J or X) or \
                wrong field count"
               (quote tag))
      | [] -> fail "empty entry"
    with
    | entry -> Ok (Some entry)
    | exception Bad m -> Error m
  end

let of_channel ic =
  let t = create () in
  let lineno = ref 0 in
  (try
     while true do
       let line = input_line ic in
       incr lineno;
       match entry_of_line line with
       | Ok None -> ()
       | Ok (Some entry) -> record t entry
       | Error m ->
           failwith (Printf.sprintf "Event_log: line %d: %s" !lineno m)
     done
   with End_of_file -> ());
  t

let equal_entry a b =
  match (a, b) with
  | Access x, Access y -> Event.equal x y
  | x, y -> x = y

let pp_entry ppf = function
  | Access e -> Fmt.pf ppf "access %a" Event.pp e
  | Acquire (t, l) -> Fmt.pf ppf "T%d acquires %d" t l
  | Release (t, l) -> Fmt.pf ppf "T%d releases %d" t l
  | Thread_start (p, c) -> Fmt.pf ppf "T%d starts T%d" p c
  | Thread_join (j, e) -> Fmt.pf ppf "T%d joins T%d" j e
  | Thread_exit t -> Fmt.pf ppf "T%d exits" t
