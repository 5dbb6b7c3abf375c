(** Buffered durable linearizability, generalised to partial crashes
    (the paper's §7 open question; see the implementation header for the
    definition we adopt: a happens-after-closed set of pre-crash
    completed operations may be dropped — a *consistent cut* — leaving a
    linearizable history). *)

type verdict = {
  buffered_durable : bool;
  dropped : History.op list;
      (** a witness drop set, size-minimal among the drop sets the
          search could decide *)
  subsets_tried : int;
  skipped : Check.error option;
      (** [Some _] when no drop set was a witness and the kept history of
          some drop set was too long for the search;
          [buffered_durable = false] then means "undecided", not
          "violation". *)
}

val popcount : int -> int

val check : Spec.t -> History.t -> verdict
(** Enumerates happens-after-closed drop-candidate subsets (operations
    completed before the last crash) in increasing size and reuses the
    Wing–Gong search.  With no crashes this degenerates to plain
    linearizability.  Raises [Invalid_argument] beyond 16 candidates. *)

val pp_verdict : verdict Fmt.t
