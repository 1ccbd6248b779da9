module Memloc = Drd_vm.Memloc

(* Named detector configurations: the rows and columns of the paper's
   Tables 2 and 3, plus the three related-work baselines of Section 9. *)

type detector =
  | Ours (* the trie-based detector of Section 3 *)
  | Eraser
  | ObjRace
  | HappensBefore
  | NoDetect (* uninstrumented "Base" *)

type t = {
  name : string;
  static_analysis : bool; (* Section 5: static datarace set filtering *)
  weaker_elim : bool; (* Section 6.1: static weaker-than elimination *)
  loop_peel : bool; (* Section 6.3 *)
  use_cache : bool; (* Section 4 *)
  use_ownership : bool; (* Section 7 *)
  granularity : Memloc.granularity; (* Table 3 "FieldsMerged" variant *)
  detector : detector;
  pseudo_locks : bool; (* Section 2.3 join modeling *)
  ir_optimize : bool;
      (* the surrounding compiler's classical optimizations (copy/const
         propagation, branch folding, DCE) — traces survive them, as the
         paper requires in Section 6.2 *)
  seed : int;
  quantum : int;
  policy : Drd_vm.Interp.policy;
      (* thread-choice discipline of the VM scheduler; the exploration
         engine swaps this per run *)
}

let full =
  {
    name = "Full";
    static_analysis = true;
    weaker_elim = true;
    loop_peel = true;
    use_cache = true;
    use_ownership = true;
    granularity = Memloc.Per_field;
    detector = Ours;
    pseudo_locks = true;
    ir_optimize = true;
    seed = 42;
    quantum = 20;
    policy = Drd_vm.Interp.Random_walk;
  }

(* The paper's Base is "without any instrumentation (and without loop
   peeling)". *)
let base =
  { full with name = "Base"; detector = NoDetect; loop_peel = false }

let no_static = { full with name = "NoStatic"; static_analysis = false }

(* Disabling the dominator-based elimination also disables peeling,
   which is useless without it (Section 8.2). *)
let no_dominators =
  { full with name = "NoDominators"; weaker_elim = false; loop_peel = false }

let no_peeling = { full with name = "NoPeeling"; loop_peel = false }

let no_cache = { full with name = "NoCache"; use_cache = false }

let fields_merged =
  { full with name = "FieldsMerged"; granularity = Memloc.Per_object }

let no_ownership = { full with name = "NoOwnership"; use_ownership = false }

(* Baselines monitor everything and have no join modeling. *)
let baseline name detector =
  {
    full with
    name;
    detector;
    static_analysis = false;
    weaker_elim = false;
    loop_peel = false;
    pseudo_locks = false;
    granularity =
      (if detector = ObjRace then Memloc.Per_object else Memloc.Per_field);
  }

let eraser = baseline "Eraser" Eraser

let objrace = baseline "ObjRace" ObjRace

let happens_before = baseline "HappensBefore" HappensBefore

let table2_configs =
  [ base; full; no_static; no_dominators; no_peeling; no_cache ]

let table3_configs = [ full; fields_merged; no_ownership ]

let all =
  [
    base;
    full;
    no_static;
    no_dominators;
    no_peeling;
    no_cache;
    fields_merged;
    no_ownership;
    eraser;
    objrace;
    happens_before;
  ]

let by_name name =
  List.find_opt (fun c -> String.lowercase_ascii c.name = String.lowercase_ascii name) all

let detector_config c =
  {
    Drd_core.Detector.default_config with
    use_cache = c.use_cache;
    use_ownership = c.use_ownership;
  }
