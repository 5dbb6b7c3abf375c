(** Linearizability checking: Wing–Gong search with memoisation.

    Finds a total order of the operations respecting real-time order
    (an operation that responded before another was invoked linearizes
    first) and the sequential specification.  Pending operations may be
    completed with any legal result or omitted, as linearizability
    allows.  The same search decides buffered durability: given a
    budget, it may also drop completed operations that responded before
    the last crash, keeping the drop set a consistent cut. *)

type outcome = {
  ok : bool;
  witness : (History.op * int) list;
      (** a valid linearization with chosen results, when [ok] *)
  dropped : History.op list;
      (** the operations dropped beside [witness], in invocation order,
          when [ok] *)
  cut_off : bool;
      (** some drop was refused for want of budget: a larger budget may
          succeed where this one failed *)
  explored : int;  (** search nodes visited *)
}

val max_ops : int
(** Operations are tracked in an int bitmask; histories beyond this are
    rejected, whatever the budget. *)

type error = History_too_long of { length : int; max_ops : int }
(** The search cannot represent the history (more than {!max_ops}
    operations in the bitmask). *)

val pp_error : error Fmt.t

val search :
  Spec.t -> budget:int -> crash:int -> History.op list ->
  (outcome, error) result
(** [search spec ~budget ~crash ops] — a linearization of [ops] after
    dropping at most [budget] completed operations that responded before
    event index [crash].  A droppable operation linearizes only if no
    dropped operation responded before its invocation, so every drop set
    the search returns is closed under happens-after among the droppable
    operations.  Fault-aborted operations are pending, never dropped.
    [Error] iff the history has more than {!max_ops} operations. *)

val linearizable : Spec.t -> History.op list -> (outcome, error) result
(** {!search} with no budget.  Passing {!History.ops} of a crashed
    history checks *durable* linearizability (Remark 1: the crash-free
    projection with the unmodified happens-before order). *)

val pp_witness : (History.op * int) list Fmt.t
