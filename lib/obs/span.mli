(** Per-request spans assembled from {!Event.Mark} phase marks.

    The serving engine emits a handful of marks per request — dispatch
    (carrying the arrival stamp), one per replica apply, a terminal
    ack/timeout/fault — each tagged with cumulative wait/retry counters
    for the serving fibre.  A span stitches one request's marks back
    together and attributes every cycle between arrival and completion
    to exactly one of five components; for a complete span the
    decomposition sums to the end-to-end latency cycle for cycle. *)

type outcome =
  | Acked
  | Timed_out
  | Faulted
  | Incomplete
      (** no terminal mark: the serving fibre died mid-request, or the
          run ended or the tracer was cleared before it completed *)

val outcome_name : outcome -> string

type mark = {
  phase : Event.span_phase;
  replica : int;
  cycle : int;
  wait_lock : int;
  wait_degraded : int;
  retry : int;
}

type t = {
  session : int;
  seq : int;
  op : int;       (** serving op index (0 read, 1 update, 2 insert) *)
  arrival : int;
  marks : mark list;  (** cycle order; head is the dispatch mark *)
}

val completion : t -> int
val latency : t -> int
val outcome : t -> outcome
val complete : t -> bool

type component = Queue | Service | Replication | Retry | Failover_wait

val n_components : int
val component_index : component -> int
val component_name : component -> string
val all_components : component list

(** The cycles from the previous mark (arrival, for the dispatch mark)
    to [mark]: counter deltas plus a [residual] that is queue for
    dispatch, replication for a backup apply and service otherwise. *)
type segment = {
  mark : mark;
  start : int;
  lock_wait : int;
  failover_wait : int;
  backoff : int;
  residual : int;
}

val segments : t -> segment list
(** One per mark, in order: the one decomposition that {!components},
    {!pp} and the Perfetto export read. *)

val components : t -> int array
(** Cycles per component, indexed by {!component_index}.  For a complete
    span the array sums exactly to [latency t]. *)

val assemble : Tracer.t -> t list
(** Group the tracer's mark log ({!Tracer.iter_mark_log}) into spans,
    sorted by (arrival, session, seq): every claimed request of the run,
    whatever the ring capacity.  Marks of a request dispatched before
    the last clear are dropped; spans missing only their terminal mark
    are returned as {!Incomplete}. *)

val digest : t list -> string
(** Order-sensitive digest ["<count>:<hex>"] over identity, timing and
    components of every span; folds into [--sig] lines. *)

val op_name : int -> string

val pp : t Fmt.t
(** Annotated span tree: one line per mark with residual and wait deltas
    labelled, then the component summary. *)
