(** Dynamic immutability analysis — the second item of the paper's
    future work (Section 10: "other problems such as deadlock detection
    and immutability analysis").

    Each memory location is classified by its observed access pattern:

    - {e thread-local}: touched by a single thread only;
    - {e shared-immutable}: written only during its initialization phase
      (before a second thread touched it) and read-only afterwards — the
      initialize-then-publish pattern that needs no locking;
    - {e shared-mutable}: written after publication.

    Shared-immutable locations are exactly the ones a programmer could
    annotate as final/immutable; shared-mutable ones are where locking
    discipline matters. *)

type cls = Thread_local | Shared_immutable | Shared_mutable

type t

val create : unit -> t

val record :
  t -> thread:Event.thread_id -> loc:Event.loc_id -> kind:Event.kind -> unit
(** Classify one access; allocation-free once the location is known. *)

val classify : t -> Event.loc_id -> cls option
(** [None] if the location was never accessed. *)

type summary = {
  thread_local : int;
  shared_immutable : int;
  shared_mutable : int;
}

val summary : t -> summary

val shared_mutable_locs : t -> Event.loc_id list
(** The locations where synchronization discipline actually matters. *)

val pp_summary : summary Fmt.t
