(** Buffered durable linearizability, generalised to partial crashes
    (the paper's §7 open question; see the implementation header for the
    definition we adopt: a happens-after-closed set of pre-crash
    completed operations may be dropped — a *consistent cut* — leaving a
    linearizable history). *)

type verdict = {
  buffered_durable : bool;
  dropped : History.op list;
      (** a size-minimal witness drop set, in invocation order *)
  budgets_searched : int;
      (** drop budgets 0, 1, … the search ran before it stopped *)
  skipped : Check.error option;
      (** [Some _] when the history was too long for the search (more
          than {!Check.max_ops} operations, as for {!Durable.check});
          [buffered_durable = false] then means "undecided", not
          "violation". *)
}

val check : Spec.t -> History.t -> verdict
(** Runs {!Check.search} with drop budgets 0, 1, 2, … over the
    operations completed before the last crash, until one finds a
    witness or a budget is not exhausted, so the witness is
    size-minimal.  With no crashes this is plain linearizability. *)

val pp_verdict : verdict Fmt.t
