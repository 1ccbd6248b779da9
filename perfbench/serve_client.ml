(* Client side of the traced ladder's serve layer: the daemon process
   and the connection that drives it. *)

module SP = Drd_serve.Protocol
module W = Drd_explore.Wire

type daemon = { pid : int; path : string }

(* Daemons still running; killed at exit if the benchmark dies early. *)
let running : daemon list ref = ref []

let reap d =
  running := List.filter (fun x -> x.pid <> d.pid) !running;
  ignore (Unix.waitpid [] d.pid);
  try Unix.unlink d.path with Unix.Unix_error _ -> ()

let () =
  at_exit (fun () ->
      List.iter
        (fun d ->
          (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
          reap d)
        !running)

type conn = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }
  | exception e ->
      Unix.close fd;
      raise e

let disconnect c = close_out_noerr c.oc

(* Start [racedet serve] on a Unix socket and wait until it accepts. *)
let spawn ~racedet ~path ~evict_high =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process racedet
      [|
        racedet; "serve"; "--socket"; path; "--evict-high"; string_of_int evict_high;
        "--stats-every"; "0";
      |]
      null null null
  in
  Unix.close null;
  let d = { pid; path } in
  running := d :: !running;
  let t0 = Perfbench.Clock.now () in
  let rec wait () =
    match connect path with
    | c -> disconnect c
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ ->
            running := List.filter (fun x -> x.pid <> pid) !running;
            failwith "serve daemon exited during start-up");
        if Perfbench.Clock.ms_since t0 > 30_000. then
          failwith "serve daemon did not start listening";
        Unix.sleepf 0.001;
        wait ()
  in
  wait ();
  d

let send c line =
  output_string c.oc line;
  output_char c.oc '\n'

(* Ask the daemon for its stats frame (on a connection of its own). *)
let daemon_stats d =
  let c = connect d.path in
  send c (SP.control_to_line SP.Stats_req);
  flush c.oc;
  let line = input_line c.ic in
  disconnect c;
  match W.json_of_string line with
  | Ok j -> Option.value ~default:W.Null (W.member "stats" j)
  | Error m -> failwith ("serve stats frame: " ^ m)

let stat_int j key =
  match W.member key j with Some (W.Int n) -> n | _ -> 0

let shutdown d =
  let c = connect d.path in
  send c (SP.control_to_line SP.Shutdown);
  flush c.oc;
  disconnect c;
  reap d

type reply = {
  body : string;  (** The report frame's raw body. *)
  evictions : int;
  live : int;  (** Daemon-wide live locations from the stats frame, if asked. *)
  errors : string list;  (** Error frames received. *)
}

let report_prefix id =
  Printf.sprintf "{\"v\":%d,\"t\":\"report\",\"session\":%s,\"report\":"
    SP.protocol_version
    (W.json_to_string (W.String id))

let send_session c ~id ~stats payload =
  send c
    (SP.control_to_line
       (SP.Hello { c_session = id; c_kind = SP.Events; c_config = "" }));
  output_string c.oc payload;
  if stats then send c (SP.control_to_line SP.Stats_req);
  send c (SP.control_to_line SP.Close);
  flush c.oc

(* Read frames up to and including the session's report. *)
let await_report c ~id =
  let prefix = report_prefix id in
  let plen = String.length prefix in
  let rec go live errors =
    let line = input_line c.ic in
    if String.length line > plen && String.sub line 0 plen = prefix then
      let body = String.sub line plen (String.length line - plen - 1) in
      let evictions =
        match W.json_of_string body with
        | Ok j -> stat_int j "evictions"
        | Error _ -> -1
      in
      { body; evictions; live; errors = List.rev errors }
    else
      match W.json_of_string line with
      | Error m -> go live (("unparsable frame: " ^ m) :: errors)
      | Ok j -> (
          match W.member "t" j with
          | Some (W.String "stats") ->
              let st = Option.value ~default:W.Null (W.member "stats" j) in
              go (max live (stat_int st "live_locations")) errors
          | Some (W.String "error") -> go live (line :: errors)
          | _ -> go live errors)
  in
  go 0 []
