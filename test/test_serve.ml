(* The serve daemon: protocol framing, session semantics (byte-identity
   with the one-shot replay, incremental race frames, streaming obs
   merge), the stdin transport and the Unix-socket transport: a smoke
   test, clients that hang up early, and a bounded-memory soak. *)

module H = Drd_harness
module E = Drd_explore
module S = Drd_serve
module W = Drd_explore.Wire
open Drd_core

let contains = Astring_contains.contains

(* ---- protocol framing ---- *)

let test_classify () =
  let payload l =
    match S.Protocol.classify_line l with
    | Ok S.Protocol.Payload -> ()
    | Ok (S.Protocol.Control _) -> Alcotest.fail (l ^ ": classified control")
    | Error m -> Alcotest.fail (l ^ ": " ^ m)
  in
  (* Event-log lines and blank lines are payload without JSON parsing. *)
  payload "A 1 2 W 3 4";
  payload "L 1 5";
  payload "";
  (* Observation wire lines are JSON payload. *)
  payload "{\"v\":2,\"t\":\"run\",\"index\":0}";
  payload "{\"v\":2,\"t\":\"spec\"}";
  payload "{\"v\":2,\"t\":\"failure\"}";
  (* Control frames round-trip through their encoder. *)
  List.iter
    (fun c ->
      match S.Protocol.classify_line (S.Protocol.control_to_line c) with
      | Ok (S.Protocol.Control c') when c = c' -> ()
      | Ok (S.Protocol.Control _) -> Alcotest.fail "control decoded differently"
      | Ok S.Protocol.Payload -> Alcotest.fail "control classified as payload"
      | Error m -> Alcotest.fail m)
    [
      S.Protocol.Hello
        { c_session = "s1"; c_kind = S.Protocol.Events; c_config = "Full" };
      S.Protocol.Hello
        { c_session = ""; c_kind = S.Protocol.Obs; c_config = "" };
      S.Protocol.Stats_req;
      S.Protocol.Close;
      S.Protocol.Shutdown;
    ];
  let err l =
    match S.Protocol.classify_line l with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (l ^ ": should be rejected")
  in
  err "{not json";
  err "{\"v\":1,\"t\":\"frobnicate\"}";
  err "{\"v\":99,\"t\":\"hello\"}";
  (* future protocol version *)
  err "{\"t\":\"hello\"}" (* control without a version *)

(* ---- events sessions ---- *)

let feed_ok s line =
  match S.Session.feed_line s line with
  | Ok frames -> frames
  | Error m -> Alcotest.fail ("feed: " ^ m)

let log_lines log =
  let acc = ref [] in
  Event_log.iter (fun e -> acc := Event_log.entry_to_line e :: !acc) log;
  List.rev !acc

let test_session_byte_identity () =
  let compiled =
    H.Pipeline.compile H.Config.full ~source:(H.Programs.figure2 ())
  in
  let log, _ = H.Pipeline.record_log compiled in
  let coll, stats = H.Pipeline.detect_post_mortem H.Config.full log in
  let expected =
    S.Protocol.events_report_body ~races:(Report.races coll) ~stats
      ~evictions:0
  in
  let run ~eviction =
    let s =
      S.Session.create ~id:"t" ~kind:S.Protocol.Events ~config:H.Config.full
        ~eviction ()
    in
    List.iter (fun l -> ignore (feed_ok s l)) (log_lines log);
    match S.Session.close s with
    | Ok body -> body
    | Error m -> Alcotest.fail ("close: " ^ m)
  in
  Alcotest.(check string) "no eviction: identical to one-shot" expected
    (run ~eviction:None);
  (* An eviction policy whose watermark is never reached must not
     perturb a single byte either. *)
  Alcotest.(check string) "idle eviction policy: still identical" expected
    (run ~eviction:(Some (Detector.eviction ~high:100_000 ())))

let test_incremental_race_frames () =
  let s =
    S.Session.create ~id:"inc" ~kind:S.Protocol.Events ~config:H.Config.full
      ~eviction:None ()
  in
  Alcotest.(check (list string)) "owned write: quiet" [] (feed_ok s "A 1 1 W 5");
  Alcotest.(check (list string)) "sharing read: quiet" [] (feed_ok s "A 1 2 R 6");
  (match feed_ok s "A 1 1 W 5" with
  | [ frame ] ->
      Alcotest.(check bool) "race frame" true (contains frame "\"t\":\"race\"");
      Alcotest.(check bool) "session id" true (contains frame "\"session\":\"inc\"");
      Alcotest.(check bool) "seq 0" true (contains frame "\"seq\":0")
  | frames ->
      Alcotest.failf "expected exactly one race frame, got %d"
        (List.length frames));
  (* The same location racing again is deduped, like the collector. *)
  Alcotest.(check (list string)) "dedup per location" []
    (feed_ok s "A 1 2 W 6");
  Alcotest.(check int) "one distinct race" 1 (S.Session.races s);
  Alcotest.(check int) "events counted" 4 (S.Session.events s)

let test_session_feed_errors () =
  let s =
    S.Session.create ~id:"bad" ~kind:S.Protocol.Events ~config:H.Config.full
      ~eviction:None ()
  in
  (match S.Session.feed_line s "A nope" with
  | Error m ->
      Alcotest.(check bool) "names the line" true (contains m "A nope")
  | Ok _ -> Alcotest.fail "malformed entry accepted")

(* ---- obs sessions: a streaming merge ---- *)

let needle_campaign () =
  let b = Option.get (H.Programs.find "needle") in
  let sp =
    E.Explore.spec ~strategy:(E.Strategy.Pct 3)
      ~budget:(E.Explore.runs_budget 6) H.Config.full
  in
  let r = E.Explore.run_campaign sp ~source:b.H.Programs.b_source in
  (sp, r)

let test_obs_session_matches_merge () =
  let sp, r = needle_campaign () in
  let rows = E.Explore.rows_of_report r in
  let expected =
    match E.Explore.merge [ ("obs", sp, rows) ] with
    | Ok (merged, _) -> E.Explore.report_json ~timing:false merged
    | Error m -> Alcotest.fail ("merge: " ^ m)
  in
  let s =
    S.Session.create ~id:"obs" ~kind:S.Protocol.Obs ~config:H.Config.full
      ~eviction:None ()
  in
  ignore (feed_ok s (E.Explore.spec_to_json ~target:"-b needle" sp));
  List.iter (fun row -> ignore (feed_ok s (E.Explore.row_to_json row))) rows;
  (match S.Session.close s with
  | Ok body ->
      Alcotest.(check string) "streamed fold = racedet merge" expected body
  | Error m -> Alcotest.fail ("close: " ^ m));
  ()

let test_obs_session_errors () =
  (* Closing before the header is refused. *)
  let s =
    S.Session.create ~id:"o1" ~kind:S.Protocol.Obs ~config:H.Config.full
      ~eviction:None ()
  in
  (match S.Session.close s with
  | Error m -> Alcotest.(check bool) "names the header" true (contains m "header")
  | Ok _ -> Alcotest.fail "headerless close accepted");
  (* A truncated stream under a purely runs-based budget, and a
     repeated run index, are refused in the words racedet merge uses:
     both go through the one checked Explore.merge. *)
  let sp, r = needle_campaign () in
  let rows = E.Explore.rows_of_report r in
  let refusal what rows =
    let s =
      S.Session.create ~id:"o2" ~kind:S.Protocol.Obs ~config:H.Config.full
        ~eviction:None ()
    in
    ignore (feed_ok s (E.Explore.spec_to_json sp));
    List.iter (fun row -> ignore (feed_ok s (E.Explore.row_to_json row))) rows;
    let expected =
      match E.Explore.merge [ ("o2", sp, rows) ] with
      | Error m -> m
      | Ok _ -> Alcotest.failf "%s: Explore.merge accepted" what
    in
    match S.Session.close s with
    | Error m ->
        Alcotest.(check string)
          (what ^ " refused like racedet merge") expected m
    | Ok _ -> Alcotest.failf "%s: obs stream folded" what
  in
  (match rows with
  | row :: _ -> refusal "truncation" [ row ]
  | [] -> Alcotest.fail "campaign produced no rows");
  refusal "duplicate index" (rows @ rows)

(* ---- the stdin/stdout transport ---- *)

let serve_string conf input =
  let in_path = Filename.temp_file "drd_serve_in" ".txt" in
  let out_path = Filename.temp_file "drd_serve_out" ".txt" in
  let oc = open_out in_path in
  output_string oc input;
  close_out oc;
  let ic = open_in in_path and oc = open_out out_path in
  let r = S.Server.serve_channels conf ic oc in
  close_in ic;
  close_out oc;
  let ic = open_in out_path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove in_path;
  Sys.remove out_path;
  (r, List.rev !lines)

let default_conf =
  {
    S.Server.sv_config = H.Config.full;
    sv_eviction = None;
    sv_stats_every = 0.;
  }

let test_serve_channels_implicit_session () =
  let compiled =
    H.Pipeline.compile H.Config.full ~source:(H.Programs.figure2 ())
  in
  let log, _ = H.Pipeline.record_log compiled in
  let input = String.concat "\n" (log_lines log) ^ "\n" in
  let r, out = serve_string default_conf input in
  Alcotest.(check bool) "clean exit" true (r = Ok ());
  match List.rev out with
  | last :: _ ->
      Alcotest.(check bool) "final frame is the report" true
        (contains last "\"t\":\"report\"");
      Alcotest.(check bool) "implicit session is 'default'" true
        (contains last "\"session\":\"default\"")
  | [] -> Alcotest.fail "no output frames"

let test_serve_channels_framed_sessions () =
  (* Two sequential sessions on one connection; stats in between. *)
  let hello id =
    S.Protocol.control_to_line
      (S.Protocol.Hello
         { c_session = id; c_kind = S.Protocol.Events; c_config = "" })
  in
  let close = S.Protocol.control_to_line S.Protocol.Close in
  let stats = S.Protocol.control_to_line S.Protocol.Stats_req in
  let input =
    String.concat "\n"
      [
        hello "one"; "A 1 1 W 0"; stats; close;
        hello "two"; "A 2 1 W 0"; close;
      ]
    ^ "\n"
  in
  let r, out = serve_string default_conf input in
  Alcotest.(check bool) "clean exit" true (r = Ok ());
  let count p = List.length (List.filter (fun l -> contains l p) out) in
  Alcotest.(check int) "two hello acks" 2 (count "\"t\":\"hello\"");
  Alcotest.(check int) "one stats frame" 1 (count "\"t\":\"stats\"");
  Alcotest.(check int) "two reports" 2 (count "\"t\":\"report\"");
  Alcotest.(check bool) "sessions named" true
    (count "\"session\":\"one\"" >= 1 && count "\"session\":\"two\"" >= 1)

let test_serve_channels_errors () =
  (* Malformed payload: error frame, Error result (exit code 2 at the
     CLI). *)
  let r, out = serve_string default_conf "A bogus line\n" in
  (match r with
  | Error m -> Alcotest.(check bool) "error names the tag" true (contains m "bogus")
  | Ok () -> Alcotest.fail "malformed payload accepted");
  Alcotest.(check bool) "error frame emitted" true
    (List.exists (fun l -> contains l "\"t\":\"error\"") out);
  (* Unknown config in hello. *)
  let hello =
    S.Protocol.control_to_line
      (S.Protocol.Hello
         { c_session = "x"; c_kind = S.Protocol.Events; c_config = "NoSuch" })
  in
  let r, _ = serve_string default_conf (hello ^ "\n") in
  (match r with
  | Error m -> Alcotest.(check bool) "unknown config refused" true (contains m "NoSuch")
  | Ok () -> Alcotest.fail "unknown config accepted");
  (* Double hello. *)
  let h =
    S.Protocol.control_to_line
      (S.Protocol.Hello
         { c_session = "x"; c_kind = S.Protocol.Events; c_config = "" })
  in
  let r, _ = serve_string default_conf (h ^ "\n" ^ h ^ "\n") in
  match r with
  | Error m -> Alcotest.(check bool) "double hello refused" true (contains m "already open")
  | Ok () -> Alcotest.fail "double hello accepted"

(* A newline-free line past the cap, piped in: one short error frame,
   an [Error] result, and the transport stops reading at the cap instead
   of buffering the line whole.  A line of exactly the cap is not too
   long; it is refused as a malformed payload, with a short message. *)
let test_serve_channels_line_cap () =
  let cap = S.Server.max_line_bytes in
  let serve_piped input =
    let r_fd, w_fd = Unix.pipe ~cloexec:true () in
    let writer =
      Domain.spawn (fun () ->
          let oc = Unix.out_channel_of_descr w_fd in
          output_string oc input;
          close_out oc)
    in
    let ic = Unix.in_channel_of_descr r_fd in
    let out_path = Filename.temp_file "drd_serve_out" ".txt" in
    let oc = open_out out_path in
    let r = S.Server.serve_channels default_conf ic oc in
    close_out oc;
    (* Drain what the daemon left unread so the writer can finish. *)
    let unread = ref 0 in
    (try
       while true do
         ignore (input_char ic);
         incr unread
       done
     with End_of_file -> ());
    Domain.join writer;
    close_in ic;
    let frames = In_channel.with_open_bin out_path In_channel.input_all in
    Sys.remove out_path;
    (r, String.split_on_char '\n' frames |> List.filter (( <> ) ""), !unread)
  in
  let junk = String.make (4 * cap) 'A' in
  let r, frames, unread = serve_piped ("A 1 1 W 0\n" ^ junk) in
  let msg = Printf.sprintf "line longer than %d bytes" cap in
  Alcotest.(check bool) "error result" true (r = Error msg);
  (match frames with
  | [ f ] ->
      Alcotest.(check bool) "the error frame names the cap" true (contains f msg);
      Alcotest.(check bool) "the error frame is short" true (String.length f < 1024)
  | _ -> Alcotest.failf "%d frames, expected one error frame" (List.length frames));
  Alcotest.(check bool)
    (Printf.sprintf "reading stopped near the cap (%d of %d bytes unread)"
       unread (String.length junk))
    true
    (unread >= String.length junk - cap - 2 * 65536);
  let r, frames, _ = serve_piped (String.make cap 'A' ^ "\n") in
  (match r with
  | Error m ->
      Alcotest.(check bool) "a line of exactly the cap is read" false (m = msg);
      Alcotest.(check bool) "its error is short" true (String.length m < 1024)
  | Ok () -> Alcotest.fail "junk line accepted");
  Alcotest.(check bool) "one short error frame" true
    (match frames with [ f ] -> String.length f < 1024 | _ -> false)

(* ---- the Unix-socket transport ---- *)

let send oc lines =
  List.iter
    (fun l ->
      output_string oc l;
      output_char oc '\n')
    lines;
  flush oc

let hello id =
  S.Protocol.control_to_line
    (S.Protocol.Hello
       { c_session = id; c_kind = S.Protocol.Events; c_config = "" })

let close_frame = S.Protocol.control_to_line S.Protocol.Close

(* Run [f connect] against an in-process socket daemon, then shut it
   down and check that it exits cleanly and unlinks its socket. *)
let with_daemon conf f =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "drd-serve-test-%d.sock" (Unix.getpid ()))
  in
  let ready = Atomic.make false in
  let server =
    Domain.spawn (fun () ->
        S.Server.serve_socket conf ~path
          ~ready:(fun () -> Atomic.set ready true)
          ())
  in
  while not (Atomic.get ready) do
    Domain.cpu_relax ()
  done;
  let connect () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX path);
    (Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)
  in
  f connect;
  let _, oc = connect () in
  send oc [ S.Protocol.control_to_line S.Protocol.Shutdown ];
  (match Domain.join server with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("server: " ^ m));
  close_out oc;
  Alcotest.(check bool) "socket unlinked" false (Sys.file_exists path)

(* Send one session and return its report frame. *)
let session_report connect id payload =
  let ic, oc = connect () in
  send oc ((hello id :: payload) @ [ close_frame ]);
  let rec find_report () =
    let l = input_line ic in
    if contains l "\"t\":\"report\"" then l else find_report ()
  in
  let report = find_report () in
  close_out oc;
  report

let racy_payload = [ "A 1 1 W 0"; "A 1 2 R 0"; "A 1 1 W 0" ]

let test_socket_smoke () =
  with_daemon default_conf (fun connect ->
      (* Two client connections, each with its own session and race. *)
      let r1 = session_report connect "a" racy_payload
      and r2 = session_report connect "b" racy_payload in
      Alcotest.(check bool) "session a reported" true
        (contains r1 "\"session\":\"a\"");
      Alcotest.(check bool) "session b reported" true
        (contains r2 "\"session\":\"b\"");
      Alcotest.(check bool) "a found its race" true (contains r1 "\"races\":[{"))

(* Clients that hang up without reading their frames: the daemon's
   writes to them fail, and that must cost only their connections. *)
let test_socket_early_close () =
  with_daemon default_conf (fun connect ->
      let _, oc = connect () in
      send oc ((hello "closed" :: racy_payload) @ [ close_frame ]);
      close_out oc;
      (* No close frame: the daemon writes the report only after it
         sees EOF, so that write always meets a closed peer. *)
      let _, oc = connect () in
      send oc (hello "eof" :: racy_payload);
      close_out oc;
      let r = session_report connect "after" racy_payload in
      Alcotest.(check bool) "next client still served" true
        (contains r "\"session\":\"after\""))

(* A client that streams one line past the cap, newline or not, gets an
   error frame and loses its connection, and the daemon's other clients
   are unaffected.  The cap is checked as bytes arrive, so the error
   comes before the line ends. *)
let test_socket_giant_line () =
  with_daemon default_conf (fun connect ->
      let before = session_report connect "x" racy_payload in
      let giant ~newline =
        let ic, oc = connect () in
        (* A daemon without the cap would never answer: fail, not hang. *)
        Unix.setsockopt_float (Unix.descr_of_in_channel ic) Unix.SO_RCVTIMEO
          30.;
        let fill = String.make 65536 'A' in
        (try
           send oc [ hello "giant" ];
           for _ = 1 to (S.Server.max_line_bytes / 65536) + 1 do
             output_string oc fill
           done;
           if newline then output_char oc '\n';
           flush oc
         with Sys_error _ -> () (* the daemon may hang up mid-write *));
        let rec error_frame () =
          let l = input_line ic in
          if contains l "\"t\":\"error\"" then l else error_frame ()
        in
        let e = error_frame () in
        Alcotest.(check bool)
          "error frame names the cap" true
          (contains e
             (Printf.sprintf "line longer than %d bytes"
                S.Server.max_line_bytes));
        Alcotest.(check bool)
          "connection dropped" true
          (match input_line ic with
          | exception (End_of_file | Sys_error _) -> true
          | _ -> false);
        close_in_noerr ic
      in
      giant ~newline:false;
      giant ~newline:true;
      Alcotest.(check string)
        "another client's report is unchanged" before
        (session_report connect "x" racy_payload))

let int_field path j =
  match
    List.fold_left (fun j k -> Option.bind j (W.member k)) (Some j) path
  with
  | Some (W.Int n) -> n
  | _ -> Alcotest.failf "frame lacks %s" (String.concat "." path)

(* A scaled-down soak: concurrent clients each stream one recorded tsp
   session, whose report must be byte-identical to the one-shot replay
   (tsp stays under the watermark, so nothing is evicted), then
   race-free churn sessions over a location space far larger than the
   watermark, which must evict while keeping live locations bounded. *)
let test_socket_soak () =
  let clients = 2 and evict_high = 4096 in
  let churn_sessions = 2 and churn_window = 20_000 in
  let compiled =
    H.Pipeline.compile H.Config.full
      ~source:(Option.get (H.Programs.find "tsp")).H.Programs.b_source
  in
  let log, _ = H.Pipeline.record_log compiled in
  let expected_body =
    let coll, stats = H.Pipeline.detect_post_mortem H.Config.full log in
    S.Protocol.events_report_body ~races:(Report.races coll) ~stats
      ~evictions:0
  in
  (* Rendered here: interned lockset ids only mean something in the
     domain that recorded them, not in the client domains. *)
  let tsp = log_lines log in
  (* Every churn location is written by thread 1, then read by thread 2
     under a common lock: the tries fill without reporting a race. *)
  let churn =
    List.init (2 * churn_window) (fun i ->
        let loc = 1 + (i mod churn_window) in
        if i < churn_window then Printf.sprintf "A %d 1 W 7 5" loc
        else Printf.sprintf "A %d 2 R 7 5" loc)
  in
  let stats_frame = S.Protocol.control_to_line S.Protocol.Stats_req in
  (* One client: returns its identity report frame, the daemon-wide live
     locations sampled before each churn close, and its evictions. *)
  let client connect cid =
    let ic, oc = connect () in
    let rec until_report live =
      let line = input_line ic in
      let j =
        match W.json_of_string line with
        | Ok j -> j
        | Error m -> Alcotest.failf "bad frame %S: %s" line m
      in
      match W.member "t" j with
      | Some (W.String "report") -> (line, j, live)
      | Some (W.String "stats") ->
          until_report (int_field [ "stats"; "live_locations" ] j)
      | Some (W.String "error") -> Alcotest.failf "error frame: %s" line
      | _ -> until_report live
    in
    let id = Printf.sprintf "c%d-tsp" cid in
    send oc ((hello id :: tsp) @ [ close_frame ]);
    let identity, _, _ = until_report 0 in
    let churned =
      List.init churn_sessions (fun k ->
          send oc
            ((hello (Printf.sprintf "c%d-churn%d" cid k) :: churn)
            @ [ stats_frame; close_frame ]);
          let _, j, live = until_report 0 in
          (live, int_field [ "report"; "evictions" ] j))
    in
    close_out oc;
    (id, identity, churned)
  in
  with_daemon
    {
      default_conf with
      sv_eviction = Some (Detector.eviction ~high:evict_high ());
    }
    (fun connect ->
      let results =
        List.init clients (fun cid ->
            Domain.spawn (fun () -> client connect cid))
        |> List.map Domain.join
      in
      List.iter
        (fun (id, identity, _) ->
          Alcotest.(check string)
            (id ^ " report is byte-identical to the one-shot replay")
            (S.Protocol.report_frame ~session:id ~body:expected_body)
            identity)
        results;
      let churned = List.concat_map (fun (_, _, c) -> c) results in
      (* At most [clients] sessions are open at once, each bounded by
         the watermark. *)
      let max_live =
        List.fold_left (fun m (live, _) -> max m live) 0 churned
      in
      if max_live > clients * evict_high then
        Alcotest.failf "%d live locations exceed the bound %d" max_live
          (clients * evict_high);
      Alcotest.(check bool) "churn sessions evict" true
        (List.exists (fun (_, ev) -> ev > 0) churned))

let suite =
  [
    Alcotest.test_case "protocol classify and round-trip" `Quick (fun () ->
        test_classify ());
    Alcotest.test_case "events session is byte-identical to one-shot" `Quick
      (fun () -> test_session_byte_identity ());
    Alcotest.test_case "incremental race frames" `Quick (fun () ->
        test_incremental_race_frames ());
    Alcotest.test_case "malformed payload is an error" `Quick (fun () ->
        test_session_feed_errors ());
    Alcotest.test_case "obs session equals racedet merge" `Quick (fun () ->
        test_obs_session_matches_merge ());
    Alcotest.test_case "obs session refusals" `Quick (fun () ->
        test_obs_session_errors ());
    Alcotest.test_case "stdin transport: implicit session" `Quick (fun () ->
        test_serve_channels_implicit_session ());
    Alcotest.test_case "stdin transport: framed sessions" `Quick (fun () ->
        test_serve_channels_framed_sessions ());
    Alcotest.test_case "stdin transport: input errors" `Quick (fun () ->
        test_serve_channels_errors ());
    Alcotest.test_case "unix socket smoke" `Quick (fun () ->
        test_socket_smoke ());
    Alcotest.test_case "unix socket: early-closing clients" `Quick (fun () ->
        test_socket_early_close ());
    Alcotest.test_case "unix socket: giant line is refused" `Quick (fun () ->
        test_socket_giant_line ());
    Alcotest.test_case "unix socket soak: bounded and byte-identical" `Quick
      (fun () -> test_socket_soak ());
    Alcotest.test_case "stdin transport: line cap" `Quick (fun () ->
        test_serve_channels_line_cap ());
  ]
