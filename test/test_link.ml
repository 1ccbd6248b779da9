(* The link phase must be a pure function of the program, not of the
   [p_methods] hash table's internal layout: method ids, vtable rows,
   slot numbering and the call-site ids embedded in linked code have to
   come out identical whatever order the methods were inserted in
   (equivalently, whatever order [iter_mirs] would enumerate).  Plus the
   unlinkable-program diagnostics. *)

module H = Drd_harness
module Pipeline = H.Pipeline
module Config = H.Config
module Programs = H.Programs
module Ir = Drd_ir.Ir
module Link = Drd_ir.Link

let prog_of source = (Pipeline.compile Config.full ~source).Pipeline.prog

let benchmark name =
  match Programs.find name with
  | Some b -> b.Programs.b_source
  | None -> Alcotest.failf "no benchmark named %S" name

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  n = 0 || at 0

(* Everything observable about an image except [i_prog] (which holds the
   hash table itself). *)
type skeleton = {
  k_methods : (int * string * int * int * int * Link.lop array * int array) array;
  k_main : int;
  k_classes : string array;
  k_vtables : int array array;
  k_slot_names : string array;
  k_run_slot : int;
}

let skeleton (img : Link.image) =
  {
    k_methods =
      Array.map
        (fun (m : Link.lmethod) ->
          ( m.Link.m_id,
            m.Link.m_key,
            m.Link.m_nregs,
            m.Link.m_nparams,
            m.Link.m_entry,
            m.Link.m_code,
            m.Link.m_lines ))
        img.Link.i_methods;
    k_main = img.Link.i_main;
    k_classes = img.Link.i_classes;
    k_vtables = img.Link.i_vtables;
    k_slot_names = img.Link.i_slot_names;
    k_run_slot = img.Link.i_run_slot;
  }

(* Deterministic Fisher-Yates driven by a little xorshift stream, so a
   QCheck-supplied salt names one insertion order exactly. *)
let shuffle salt arr =
  let state = ref (salt lxor 0x9E3779B9) in
  let next bound =
    let s = !state in
    let s = s lxor (s lsl 13) in
    let s = s lxor (s lsr 7) in
    let s = s lxor (s lsl 17) in
    state := s;
    abs s mod bound
  in
  for i = Array.length arr - 1 downto 1 do
    let j = next (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let reinserted salt (prog : Ir.program) =
  let bindings =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) prog.Ir.p_methods []
    |> List.sort compare |> Array.of_list
  in
  shuffle salt bindings;
  let h = Hashtbl.create (Array.length bindings) in
  Array.iter (fun (k, v) -> Hashtbl.replace h k v) bindings;
  { prog with Ir.p_methods = h }

let stability_prop =
  let prog = prog_of (benchmark "tsp") in
  let baseline = skeleton (Link.link prog) in
  QCheck.Test.make ~count:50
    ~name:"linked image is stable under method-table insertion order"
    QCheck.small_int
    (fun salt ->
      let relinked = skeleton (Link.link (reinserted salt prog)) in
      relinked = baseline)

let test_method_ids_sorted () =
  (* Ids follow sorted-key order, so they are recoverable by name. *)
  let img = Link.link (prog_of (Programs.figure2 ())) in
  Array.iteri
    (fun i (m : Link.lmethod) ->
      Alcotest.(check int) (m.Link.m_key ^ " id") i m.Link.m_id;
      Alcotest.(check (option int))
        (m.Link.m_key ^ " lookup") (Some i)
        (Link.find_method_id img m.Link.m_key))
    img.Link.i_methods;
  Alcotest.(check (option int))
    "unknown key" None
    (Link.find_method_id img "No.such");
  let keys =
    Array.to_list (Array.map (fun m -> m.Link.m_key) img.Link.i_methods)
  in
  Alcotest.(check (list string)) "keys sorted" (List.sort compare keys) keys

let test_vtable_rows () =
  (* Every vtable entry either is -1 or points at a method of that slot's
     name whose key starts with some class name. *)
  let img = Link.link (prog_of (benchmark "elevator")) in
  Array.iteri
    (fun cid row ->
      Alcotest.(check int)
        (img.Link.i_classes.(cid) ^ " vtable width")
        (Array.length img.Link.i_slot_names)
        (Array.length row);
      Array.iteri
        (fun slot mid ->
          if mid >= 0 then begin
            let m = img.Link.i_methods.(mid) in
            let name = img.Link.i_slot_names.(slot) in
            let suffix = "." ^ name in
            let ok =
              String.length m.Link.m_key > String.length suffix
              && String.sub m.Link.m_key
                   (String.length m.Link.m_key - String.length suffix)
                   (String.length suffix)
                 = suffix
            in
            if not ok then
              Alcotest.failf "slot %S of %s resolves to %s" name
                img.Link.i_classes.(cid) m.Link.m_key
          end)
        row)
    img.Link.i_vtables

let test_missing_main () =
  let prog = prog_of (Programs.figure2 ()) in
  let broken = { prog with Ir.p_main = "Nope.main" } in
  match Link.link broken with
  | _ -> Alcotest.fail "linking without a main method must fail"
  | exception Link.Link_error msg ->
      if not (contains ~sub:"no main method" msg && contains ~sub:"Nope.main" msg)
      then Alcotest.failf "unhelpful Link_error: %S" msg

let superinstruction_kind = function
  | Link.Laload_checked _ -> "checked aload"
  | Link.Lastore_checked _ -> "checked astore"
  | Link.Lconst_add _ -> "const+add"
  | Link.Lconst_sub _ -> "const+sub"
  | Link.Llt_if _ -> "lt+if"
  | _ -> "single op"

(* Fusion rewrites only the first slot of each fused run: undoing it
   (each slot back to the head of its [expand]) and fusing again gives
   the linked method back, with code length, lines and entry untouched
   and every covered slot still holding its own single op. *)
let test_fusion_in_place () =
  let seen = Hashtbl.create 8 in
  List.iter
    (fun name ->
      let img = Link.link (prog_of (benchmark name)) in
      Array.iter
        (fun (m : Link.lmethod) ->
          let unfused =
            Array.map (fun op -> List.hd (Link.expand op)) m.Link.m_code
          in
          let plain = { m with Link.m_code = Array.copy unfused } in
          let fused = Link.fuse plain in
          let where pc = Printf.sprintf "%s %s pc %d" name m.Link.m_key pc in
          Alcotest.(check int)
            (m.Link.m_key ^ " code length")
            (Array.length unfused)
            (Array.length fused.Link.m_code);
          Alcotest.(check (array int))
            (m.Link.m_key ^ " lines") plain.Link.m_lines fused.Link.m_lines;
          Alcotest.(check int)
            (m.Link.m_key ^ " entry") plain.Link.m_entry fused.Link.m_entry;
          if fused.Link.m_code <> m.Link.m_code then
            Alcotest.failf "%s %s: re-fusing the unfused code differs from the \
                            linked code" name m.Link.m_key;
          Array.iteri
            (fun pc op ->
              match Link.expand op with
              | [ single ] ->
                  if single <> unfused.(pc) then
                    Alcotest.failf "%s: single op rewritten" (where pc)
              | singles ->
                  Hashtbl.replace seen (superinstruction_kind op) ();
                  List.iteri
                    (fun k single ->
                      if single <> unfused.(pc + k) then
                        Alcotest.failf "%s: covered slot %d does not hold its \
                                        single op" (where pc) (pc + k);
                      if k > 0 && fused.Link.m_code.(pc + k) <> single then
                        Alcotest.failf "%s: covered slot %d was rewritten"
                          (where pc) (pc + k))
                    singles)
            fused.Link.m_code)
        img.Link.i_methods)
    [ "sor2"; "mtrt"; "tsp" ];
  (* All five superinstructions occur in the Table 2 programs. *)
  Alcotest.(check int) "superinstruction kinds linked" 5 (Hashtbl.length seen)

let method_of code nregs =
  {
    Link.m_id = 0;
    m_key = "T.m";
    m_nregs = nregs;
    m_nparams = 0;
    m_entry = 0;
    m_code = code;
    m_lines = Array.make (Array.length code) 1;
  }

let expect_link_error label sub m =
  match Link.validate m with
  | _ -> Alcotest.failf "%s: validate accepted the method" label
  | exception Link.Link_error msg ->
      if not (contains ~sub msg) then
        Alcotest.failf "%s: unhelpful Link_error %S" label msg

let test_validate_superinstructions () =
  (* Well-formed: k := 1; d := x + k, then return. *)
  ignore
    (Link.validate
       (method_of
          [| Link.Lconst_add (0, 1, 1, 1); Link.Ladd (1, 1, 0); Link.Lret None |]
          2));
  (* The covered add reads r7, outside a 2-register file. *)
  expect_link_error "covered operand out of range" "register r7"
    (method_of
       [| Link.Lconst_add (0, 1, 1, 7); Link.Ladd (1, 7, 0); Link.Lret None |]
       2);
  (* The array op's covered index register r5 is out of range. *)
  expect_link_error "covered index out of range" "register r5"
    (method_of
       [|
         Link.Laload_checked (0, 1, 5);
         Link.Lboundscheck (1, 5);
         Link.Laload (0, 1, 5);
         Link.Lret None;
       |]
       2);
  (* A covered slot that does not hold the op the superinstruction
     stands for. *)
  expect_link_error "covered slot mismatch" "superinstruction at pc 0"
    (method_of
       [|
         Link.Laload_checked (0, 1, 0);
         Link.Lboundscheck (1, 0);
         Link.Lastore (1, 0, 0);
         Link.Lret None;
       |]
       2);
  (* A superinstruction whose covered slots run off the end. *)
  expect_link_error "covered slots past the end" "superinstruction at pc 0"
    (method_of [| Link.Llt_if (0, 1, 1, 0, 0) |] 2)

let suite =
  [
    QCheck_alcotest.to_alcotest stability_prop;
    Alcotest.test_case "method ids follow sorted keys" `Quick
      test_method_ids_sorted;
    Alcotest.test_case "vtable rows resolve to same-name methods" `Quick
      test_vtable_rows;
    Alcotest.test_case "missing p_main is rejected with a clear error" `Quick
      test_missing_main;
    Alcotest.test_case "fusion keeps length, lines, entry and covered slots"
      `Quick test_fusion_in_place;
    Alcotest.test_case "validate checks every superinstruction operand" `Quick
      test_validate_superinstructions;
  ]
