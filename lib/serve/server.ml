module Config = Drd_harness.Config
module Wire = Drd_explore.Wire

type conf = {
  sv_config : Config.t;
  sv_eviction : Drd_core.Detector.eviction option;
  sv_stats_every : float;
}

(* ---- one connection's protocol state, transport-agnostic ---- *)

type conn = {
  c_send : string -> unit;
  mutable c_session : Session.t option;
  c_pool : Session.pool;
      (* connection-lifetime detector state, reset per session *)
}

(* What one inbound line did to the connection. *)
type outcome =
  | Continue
  | Shutdown_req
  | Fatal of string  (** input error: error frame sent, drop the peer *)

let chomp_cr line =
  let n = String.length line in
  if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line

let absorb metrics s =
  Metrics.absorb_session metrics ~events:(Session.events s)
    ~races:(Session.races s) ~evictions:(Session.evictions s)

(* Abandon an open session without a report (error paths). *)
let abandon metrics conn =
  match conn.c_session with
  | None -> ()
  | Some s ->
      conn.c_session <- None;
      ignore (Session.close s : (string, string) result);
      absorb metrics s

(* Close the open session and send its report frame.  [Ok false] when
   there was nothing to close. *)
let close_session metrics conn =
  match conn.c_session with
  | None -> Ok false
  | Some s -> (
      conn.c_session <- None;
      let r = Session.close s in
      (* Obs races are only known after [close]. *)
      absorb metrics s;
      match r with
      | Ok body ->
          conn.c_send (Protocol.report_frame ~session:(Session.id s) ~body);
          Ok true
      | Error m ->
          Metrics.on_error metrics;
          conn.c_send (Protocol.error_frame ~msg:m);
          Error m)

let stats_json_now metrics ~live =
  let locs, races, evs = live () in
  Metrics.stats_json metrics ~now:(Unix.gettimeofday ()) ~live_locations:locs
    ~live_races:races ~live_evictions:evs

(* The periodic observability line: the stats snapshot tagged like a
   frame, but on stderr — never interleaved with the protocol stream. *)
let emit_stats_stderr metrics ~live =
  let j =
    match stats_json_now metrics ~live with
    | Wire.Obj fields -> Wire.Obj (("t", Wire.String "stats") :: fields)
    | j -> j
  in
  Printf.eprintf "%s\n%!" (Wire.json_to_string j)

let fatal metrics conn msg =
  Metrics.on_error metrics;
  conn.c_send (Protocol.error_frame ~msg);
  abandon metrics conn;
  Fatal msg

let handle_control conf metrics conn ~live = function
  | Protocol.Hello { c_session; c_kind; c_config } -> (
      match conn.c_session with
      | Some s ->
          fatal metrics conn
            (Printf.sprintf "session %S already open; close it first"
               (Session.id s))
      | None -> (
          let config =
            if c_config = "" then Some conf.sv_config
            else Config.by_name c_config
          in
          match config with
          | None ->
              fatal metrics conn
                (Printf.sprintf "unknown detector configuration %S" c_config)
          | Some config ->
              let id = if c_session = "" then "default" else c_session in
              Metrics.on_session_open metrics;
              conn.c_session <-
                Some
                  (Session.create ~pool:conn.c_pool ~id ~kind:c_kind ~config
                     ~eviction:conf.sv_eviction ());
              conn.c_send (Protocol.hello_frame ~session:id ~kind:c_kind);
              Continue))
  | Protocol.Stats_req ->
      conn.c_send (Protocol.stats_frame (stats_json_now metrics ~live));
      Continue
  | Protocol.Close -> (
      match close_session metrics conn with
      | Ok true -> Continue
      | Ok false -> fatal metrics conn "no open session to close"
      | Error m -> Fatal m)
  | Protocol.Shutdown -> Shutdown_req

let handle_line conf metrics conn ~live line =
  Metrics.on_line metrics;
  match Protocol.classify_line line with
  | Error m -> fatal metrics conn m
  | Ok (Protocol.Control c) -> handle_control conf metrics conn ~live c
  | Ok Protocol.Payload -> (
      let s =
        match conn.c_session with
        | Some s -> s
        | None ->
            (* Payload before any hello: implicitly open the default
               events session, so [cat events.log | racedet serve]
               needs no framing at all. *)
            Metrics.on_session_open metrics;
            let s =
              Session.create ~pool:conn.c_pool ~id:"default"
                ~kind:Protocol.Events ~config:conf.sv_config
                ~eviction:conf.sv_eviction ()
            in
            conn.c_session <- Some s;
            s
      in
      let before = Session.events s in
      match Session.feed_line s line with
      | Ok frames ->
          Metrics.on_events metrics (Session.events s - before);
          List.iter conn.c_send frames;
          Continue
      | Error m -> fatal metrics conn m)

let live_of_conn conn () =
  match conn.c_session with
  | None -> (0, 0, 0)
  | Some s -> (Session.live_locations s, Session.races s, Session.evictions s)

(* ---- line input, shared by both transports ---- *)

(* The longest line a client may send, newline excluded.  A client
   whose pending bytes pass it gets an error frame and is dropped (on
   stdin, the daemon ends with an error), so a client that never sends
   a newline holds at most this much plus one read ([read_chunk]) of
   the daemon's memory. *)
let max_line_bytes = 1 lsl 20

let read_chunk = 65536
let line_too_long = Printf.sprintf "line longer than %d bytes" max_line_bytes

(* [input_line] on [ic] with the [max_line_bytes] cap: a line that
   passes it is refused as soon as its bytes do, never read whole.  A
   last line without a newline is returned as a line, as [input_line]
   does. *)
let line_reader ic =
  let chunk = Bytes.create read_chunk in
  let pos = ref 0 and len = ref 0 in
  let partial = Buffer.create 256 in
  let rec next () =
    if !pos >= !len then begin
      pos := 0;
      len := input ic chunk 0 read_chunk
    end;
    if !len = 0 then
      if Buffer.length partial = 0 then `Eof
      else begin
        let line = Buffer.contents partial in
        Buffer.clear partial;
        `Line line
      end
    else begin
      let i = ref !pos in
      while !i < !len && Bytes.unsafe_get chunk !i <> '\n' do
        incr i
      done;
      let n = !i - !pos in
      if Buffer.length partial + n > max_line_bytes then `Too_long
      else if !i = !len then begin
        Buffer.add_subbytes partial chunk !pos n;
        pos := !len;
        next ()
      end
      else begin
        let line =
          if Buffer.length partial = 0 then Bytes.sub_string chunk !pos n
          else begin
            Buffer.add_subbytes partial chunk !pos n;
            let line = Buffer.contents partial in
            Buffer.clear partial;
            line
          end
        in
        pos := !i + 1;
        `Line line
      end
    end
  in
  next

(* ---- stdin/stdout transport ---- *)

let serve_channels conf ic oc =
  let metrics = Metrics.create ~now:(Unix.gettimeofday ()) in
  let send frame =
    output_string oc frame;
    output_char oc '\n';
    flush oc
  in
  let conn = { c_send = send; c_session = None; c_pool = Session.pool () } in
  let live = live_of_conn conn in
  let next_stats =
    ref
      (if conf.sv_stats_every > 0. then
         Unix.gettimeofday () +. conf.sv_stats_every
       else infinity)
  in
  let since_check = ref 0 in
  let result = ref (Ok ()) in
  let continue = ref true in
  let read_line = line_reader ic in
  while !continue do
    match read_line () with
    | `Eof -> continue := false
    | `Too_long ->
        ignore (fatal metrics conn line_too_long : outcome);
        result := Error line_too_long;
        continue := false
    | `Line line ->
        (match handle_line conf metrics conn ~live (chomp_cr line) with
        | Continue -> ()
        | Shutdown_req -> continue := false
        | Fatal m ->
            result := Error m;
            continue := false);
        incr since_check;
        (* The time check is a syscall; amortize it over the hot loop. *)
        if !since_check >= 4096 then begin
          since_check := 0;
          Metrics.sample_heap metrics;
          let now = Unix.gettimeofday () in
          if now >= !next_stats then begin
            emit_stats_stderr metrics ~live;
            next_stats := now +. conf.sv_stats_every
          end
        end
  done;
  (match !result with
  | Ok () -> (
      (* EOF closes the open session, exactly like a close frame. *)
      match close_session metrics conn with
      | Ok _ -> ()
      | Error m -> result := Error m)
  | Error _ -> ());
  if conf.sv_stats_every > 0. then emit_stats_stderr metrics ~live;
  !result

(* ---- Unix-socket transport ---- *)

type sconn = {
  sc_fd : Unix.file_descr;
  mutable sc_buf : Bytes.t;
      (** [0, sc_len) holds bytes read but not yet split into lines;
          none of them is a newline *)
  mutable sc_len : int;
  sc_alive : bool ref;  (** cleared when a write hits a gone peer *)
  sc_conn : conn;
}

let rec write_all fd s pos len =
  if len > 0 then
    let n = Unix.write_substring fd s pos len in
    write_all fd s (pos + n) (len - n)

let make_sconn fd =
  let alive = ref true in
  let send frame =
    if !alive then
      try
        let line = frame ^ "\n" in
        write_all fd line 0 (String.length line)
      with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
        alive := false
  in
  {
    sc_fd = fd;
    sc_buf = Bytes.create read_chunk;
    sc_len = 0;
    sc_alive = alive;
    sc_conn = { c_send = send; c_session = None; c_pool = Session.pool () };
  }

let serve_socket conf ~path ?ready () =
  match
    (try Unix.unlink path with Unix.Unix_error _ -> ());
    let srv = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind srv (Unix.ADDR_UNIX path);
    Unix.listen srv 64;
    srv
  with
  | exception Unix.Unix_error (e, _, _) ->
      Error
        (Printf.sprintf "cannot listen on %s: %s" path (Unix.error_message e))
  | srv ->
      (* A peer may hang up at any moment; writing to it must raise the
         EPIPE that [send] handles, not kill the daemon with SIGPIPE. *)
      Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
      (match ready with Some f -> f () | None -> ());
      let metrics = Metrics.create ~now:(Unix.gettimeofday ()) in
      let conns : (Unix.file_descr, sconn) Hashtbl.t = Hashtbl.create 16 in
      let live () =
        Hashtbl.fold
          (fun _ sc (l, r, e) ->
            match sc.sc_conn.c_session with
            | None -> (l, r, e)
            | Some s ->
                ( l + Session.live_locations s,
                  r + Session.races s,
                  e + Session.evictions s ))
          conns (0, 0, 0)
      in
      let running = ref true in
      let finish_conn sc ~report =
        if Hashtbl.mem conns sc.sc_fd then begin
          Hashtbl.remove conns sc.sc_fd;
          if report then
            (* EOF ≡ close: emit the report; the send silently no-ops
               if the peer is fully gone. *)
            ignore (close_session metrics sc.sc_conn : (bool, string) result)
          else abandon metrics sc.sc_conn;
          try Unix.close sc.sc_fd with Unix.Unix_error _ -> ()
        end
      in
      let too_long sc =
        ignore (fatal metrics sc.sc_conn line_too_long : outcome);
        finish_conn sc ~report:false
      in
      (* Split off and handle the complete lines in [0, len), where only
         [from, len) was read since the last call: the bytes before it
         were scanned then and hold no newline. *)
      let process_buffer sc ~from len =
        let buf = sc.sc_buf in
        let start = ref 0 and i = ref from and stop = ref false in
        while (not !stop) && !i < len do
          if Bytes.unsafe_get buf !i <> '\n' then incr i
          else if !i - !start > max_line_bytes then begin
            too_long sc;
            stop := true
          end
          else begin
            let line = chomp_cr (Bytes.sub_string buf !start (!i - !start)) in
            incr i;
            start := !i;
            match handle_line conf metrics sc.sc_conn ~live line with
            | Continue -> ()
            | Shutdown_req ->
                running := false;
                stop := true
            | Fatal _ ->
                finish_conn sc ~report:false;
                stop := true
          end
        done;
        if Hashtbl.mem conns sc.sc_fd then begin
          let rest = len - !start in
          if !running && rest > max_line_bytes then too_long sc
          else begin
            if !start > 0 then Bytes.blit buf !start buf 0 rest;
            sc.sc_len <- rest
          end
        end
      in
      let read_conn sc =
        let len = sc.sc_len in
        if Bytes.length sc.sc_buf - len < read_chunk then begin
          (* [len] is at most [max_line_bytes] here, so the buffer never
             outgrows one capped line and one read. *)
          let cap =
            min
              (max (2 * Bytes.length sc.sc_buf) (len + read_chunk))
              (max_line_bytes + read_chunk)
          in
          let b = Bytes.create cap in
          Bytes.blit sc.sc_buf 0 b 0 len;
          sc.sc_buf <- b
        end;
        match Unix.read sc.sc_fd sc.sc_buf len read_chunk with
        | exception Unix.Unix_error (Unix.ECONNRESET, _, _) ->
            finish_conn sc ~report:false
        | 0 -> finish_conn sc ~report:true
        | n -> process_buffer sc ~from:len (len + n)
      in
      let next_stats =
        ref
          (if conf.sv_stats_every > 0. then
             Unix.gettimeofday () +. conf.sv_stats_every
           else infinity)
      in
      while !running do
        let fds = srv :: Hashtbl.fold (fun fd _ acc -> fd :: acc) conns [] in
        let timeout =
          if conf.sv_stats_every > 0. then
            Float.max 0.05 (!next_stats -. Unix.gettimeofday ())
          else -1.
        in
        let readable, _, _ =
          try Unix.select fds [] [] timeout
          with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
        in
        List.iter
          (fun fd ->
            if fd == srv then (
              match Unix.accept srv with
              | exception Unix.Unix_error _ -> ()
              | cfd, _ -> Hashtbl.replace conns cfd (make_sconn cfd))
            else
              match Hashtbl.find_opt conns fd with
              | None -> () (* dropped earlier in this round *)
              | Some sc -> read_conn sc)
          readable;
        Metrics.sample_heap metrics;
        if conf.sv_stats_every > 0. then begin
          let now = Unix.gettimeofday () in
          if now >= !next_stats then begin
            emit_stats_stderr metrics ~live;
            next_stats := now +. conf.sv_stats_every
          end
        end
      done;
      (* Shutdown: finish every connection as if its stream ended. *)
      let all = Hashtbl.fold (fun _ sc acc -> sc :: acc) conns [] in
      List.iter (fun sc -> finish_conn sc ~report:true) all;
      (try Unix.close srv with Unix.Unix_error _ -> ());
      (try Unix.unlink path with Unix.Unix_error _ -> ());
      if conf.sv_stats_every > 0. then emit_stats_stderr metrics ~live;
      Ok ()
