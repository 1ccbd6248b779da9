(* Runtime values of the MiniJava VM. *)

type obj_id = int

type t = Vint of int | Vbool of bool | Vnull | Vref of obj_id

let default_of (ty : Drd_lang.Ast.ty) =
  match ty with
  | Drd_lang.Ast.Tint -> Vint 0
  | Drd_lang.Ast.Tbool -> Vbool false
  | _ -> Vnull

let pp ppf = function
  | Vint n -> Fmt.int ppf n
  | Vbool b -> Fmt.bool ppf b
  | Vnull -> Fmt.string ppf "null"
  | Vref o -> Fmt.pf ppf "#%d" o

let to_int = function Vint n -> n | _ -> invalid_arg "expected int"
let to_bool = function Vbool b -> b | _ -> invalid_arg "expected boolean"

(* The allocation-free constructors and the inline decoders the
   interpreter's hot path uses live in [Interp], their one user, where
   they inline into the slice loop (see its header).  [to_int] and
   [to_bool] above serve the reference interpreter. *)
