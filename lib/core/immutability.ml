type cls = Thread_local | Shared_immutable | Shared_mutable

type state =
  | Local of Event.thread_id (* single thread so far *)
  | Shared of bool (* true = written after publication *)

type t = { tbl : (Event.loc_id, state) Hashtbl.t }

let create () = { tbl = Hashtbl.create 1024 }

(* The one entry point, on scalars; [find] + [Not_found] avoids the
   [Some] allocation of [find_opt] on every access. *)
let record t ~thread ~loc ~(kind : Event.kind) =
  match Hashtbl.find t.tbl loc with
  | Local owner when owner = thread -> ()
  | Local _ ->
      (* Publication: the access that shares the location counts as a
         post-publication access. *)
      Hashtbl.replace t.tbl loc (Shared (kind = Event.Write))
  | Shared true -> ()
  | Shared false ->
      if kind = Event.Write then Hashtbl.replace t.tbl loc (Shared true)
  | exception Not_found -> Hashtbl.replace t.tbl loc (Local thread)

let classify t loc =
  match Hashtbl.find_opt t.tbl loc with
  | None -> None
  | Some (Local _) -> Some Thread_local
  | Some (Shared false) -> Some Shared_immutable
  | Some (Shared true) -> Some Shared_mutable

type summary = {
  thread_local : int;
  shared_immutable : int;
  shared_mutable : int;
}

let summary t =
  let local = ref 0 and imm = ref 0 and mut = ref 0 in
  Hashtbl.iter
    (fun _ st ->
      match st with
      | Local _ -> incr local
      | Shared false -> incr imm
      | Shared true -> incr mut)
    t.tbl;
  { thread_local = !local; shared_immutable = !imm; shared_mutable = !mut }

let shared_mutable_locs t =
  Hashtbl.fold
    (fun loc st acc -> match st with Shared true -> loc :: acc | _ -> acc)
    t.tbl []
  |> List.sort compare

let pp_summary ppf s =
  Fmt.pf ppf
    "thread-local: %d, shared-immutable: %d, shared-mutable: %d"
    s.thread_local s.shared_immutable s.shared_mutable
