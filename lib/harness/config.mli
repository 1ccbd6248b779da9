(** Named detector configurations: the rows/columns of the paper's
    Tables 2 and 3 plus the Section 9 baselines.  Each toggles one
    pipeline stage relative to {!full}. *)

module Memloc = Drd_vm.Memloc

type detector =
  | Ours  (** The trie-based detector of Section 3. *)
  | Eraser
  | ObjRace
  | HappensBefore
  | NoDetect  (** Uninstrumented — the "Base" timing reference. *)

type t = {
  name : string;
  static_analysis : bool;  (** Section 5 static datarace set filtering. *)
  weaker_elim : bool;  (** Section 6.1 static weaker-than elimination. *)
  loop_peel : bool;  (** Section 6.3 loop peeling. *)
  use_cache : bool;  (** Section 4 runtime caches. *)
  use_ownership : bool;  (** Section 7 ownership model. *)
  granularity : Memloc.granularity;  (** Table 3's "FieldsMerged" switch. *)
  detector : detector;
  pseudo_locks : bool;  (** Section 2.3 join modeling. *)
  ir_optimize : bool;
      (** Classical scalar optimizations of the surrounding compiler
          (constant/copy propagation, branch folding, DCE); traces are
          never removed by them (Section 6.2). *)
  seed : int;  (** Scheduler seed. *)
  quantum : int;  (** Scheduler slice bound. *)
  policy : Drd_vm.Interp.policy;
      (** Thread-choice discipline of the VM scheduler; the exploration
          engine swaps this per run. *)
}

val full : t
(** Everything on — the paper's headline configuration. *)

val base : t
(** No instrumentation, no detection. *)

val no_static : t

val no_dominators : t
(** Disables the static weaker-than elimination {e and} loop peeling
    (useless without it), as in the paper's Table 2. *)

val no_peeling : t

val no_cache : t

val fields_merged : t
(** Object-granularity locations (statics stay distinguished). *)

val no_ownership : t

val eraser : t
(** Full-stream instrumentation, no join pseudo-locks. *)

val objrace : t
(** Object granularity + call-as-write events, no join pseudo-locks. *)

val happens_before : t

val table2_configs : t list
(** [Base; Full; NoStatic; NoDominators; NoPeeling; NoCache]. *)

val table3_configs : t list
(** [Full; FieldsMerged; NoOwnership]. *)

val all : t list

val by_name : string -> t option
(** Case-insensitive lookup. *)

val detector_config : t -> Drd_core.Detector.config
(** The paper detector's knobs this configuration selects (cache and
    ownership on or off, every other knob at its default). *)
