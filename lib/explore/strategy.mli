(** Schedule-diversity strategies for the exploration engine.

    A strategy maps a run index to a {!run_spec} — the VM scheduling
    knobs for that run — purely as a function of the campaign's base
    configuration, so a campaign is a deterministic set of runs however
    they are distributed over workers. *)

module Interp = Drd_vm.Interp
module Config = Drd_harness.Config

type t =
  | Sweep  (** Plain seed sweep: seed [base + index], fixed quantum. *)
  | Jitter
      (** Random-walk with per-run randomized seed {e and} slice bound
          (1..4× the base quantum): varies both thread choice and
          preemption density. *)
  | Pct of int
      (** PCT-style priority scheduling with the given number of
          priority-change points (see {!Interp.policy}). *)

val name : t -> string

val of_string : string -> (t, string) result
(** Parse a CLI strategy name ([sweep]/[jitter]/[pct]); [pct] defaults
    to 3 change points. *)

type run_spec = {
  sp_index : int;
  sp_seed : int;
  sp_quantum : int;
  sp_policy : Interp.policy;
}

val spec : t -> base:Config.t -> pct_horizon:int -> int -> run_spec
(** [spec s ~base ~pct_horizon i] is the schedule of run [i]. *)

val specs :
  t ->
  base:Config.t ->
  pct_horizon:int ->
  first:int ->
  stride:int ->
  count:int ->
  run_spec list
(** One batched work-queue claim's worth of {!spec}s: run indices
    [first], [first+stride], …, [first+(count-1)*stride] in order.  The
    stride is the shard modulus (1 for unsharded campaigns). *)

val mix : int -> int -> int
(** The SplitMix-style (seed, index) → derived-seed finalizer; exposed
    for fingerprinting and tests. *)

val describe_policy : Interp.policy -> string

val describe : run_spec -> string

val repro_flags : run_spec -> string
(** The [racedet run] flags that replay this spec as a single run, e.g.
    ["--seed 7 --quantum 20 --pct 3 --pct-horizon 20000"]. *)
