(** Typed runtime events for the observability layer.

    Events carry only plain integers (machine/location/thread indices and
    simulated-cycle timestamps), never fabric or scheduler values, so
    this library sits below [lib/fabric] in the dependency order.
    Timestamps are simulated cycles, not wall clock (DESIGN.md decision
    11). *)

type prim =
  | Load
  | Lstore
  | Rstore
  | Mstore
  | Lflush
  | Rflush
  | Faa
  | Cas
  | Meta_faa   (** FliT counter increment/decrement (atomic RMW) *)
  | Meta_read  (** FliT counter read (rides with the data access) *)

val n_prims : int
val prim_index : prim -> int
(** A dense index in [0, n_prims); keys the report's histogram array. *)

val prim_name : prim -> string
val all_prims : prim list

type evict_kind =
  | Horizontal  (** line moved to the owner's cache *)
  | Vertical    (** owner wrote the line back to physical memory *)

val evict_kind_name : evict_kind -> string

type fault_kind =
  | Nack        (** link NACK: the message bounced *)
  | Timeout     (** down link: completion timeout *)
  | Delay       (** degraded link: delivery delayed, then proceeded *)
  | Poison_hit  (** a load/RMW observed a poisoned line *)
  | Poison_set  (** fault injection: a line was marked poisoned *)

val fault_kind_name : fault_kind -> string

(** Request-lifecycle phase marks for the serving stack (assembled into
    spans by {!Span}).  Waiting time is never marked pointwise: the
    cumulative [wait_lock]/[wait_degraded]/[retry] counters ride on every
    mark, so a span costs a handful of events however long it waited. *)
type span_phase =
  | P_dispatch      (** a server claimed the request; [t0] = arrival stamp *)
  | P_apply_backup  (** backup replica [replica] applied the write *)
  | P_apply_acting  (** the primary (replica 0) applied the write, last *)
  | P_ack           (** terminal: the request completed successfully *)
  | P_timeout       (** terminal: deadline exhausted ([Kv.Unavailable]) *)
  | P_fault         (** terminal: a RAS fault surfaced past the retry policy *)

val span_phase_name : span_phase -> string

(** One runtime event.  [machine]/[to_machine]/[loc] are [-1] when not
    applicable. *)
type t =
  | Prim of { prim : prim; machine : int; loc : int; t0 : int; t1 : int }
      (** primitive issued at cycle [t0], completed at [t1] *)
  | Evict of { kind : evict_kind; machine : int; loc : int; cycle : int }
  | Crash of { machine : int; cycle : int }
  | Restart of { machine : int; cycle : int; step : int }
  | Fault of {
      kind : fault_kind;
      machine : int;
      to_machine : int;
      loc : int;
      cycle : int;
    }
  | Retry of { machine : int; attempt : int; backoff : int; cycle : int }
  | Fallback of { machine : int; loc : int; cycle : int }
      (** degraded-mode LFlush→RFlush substitution *)
  | Counter of { machine : int; loc : int; value : int; cycle : int }
      (** FliT counter transition: the counter for [loc] became [value] *)
  | Switch of { step : int; tid : int; machine : int; cycle : int }
      (** the scheduler switched thread [tid] in at decision [step] *)
  | Failover of { shard : int; from_machine : int; to_machine : int; cycle : int }
      (** the replicated KV's read rule moved shard [shard]'s reads from
          the replica on [from_machine] to the one on [to_machine] (to a
          trusted backup, or back to the re-synced primary) *)
  | Rejoin of { shard : int; machine : int; cycle : int }
      (** a stale replica of [shard] on [machine] finished re-syncing *)
  | Unavail of { shard : int; cycles : int; cycle : int }
      (** shard [shard] came back after [cycles] cycles with no replica
          the read rule could read *)
  | Mark of {
      session : int;        (** request identity: generating session… *)
      seq : int;            (** …and sequence number within it *)
      op : int;             (** serving op index (0 read, 1 update, 2 insert) *)
      phase : span_phase;
      replica : int;        (** replica index for apply phases; [-1] otherwise *)
      t0 : int;             (** arrival stamp on [P_dispatch]; [-1] otherwise *)
      wait_lock : int;      (** cumulative cycles spent waiting on shard locks *)
      wait_degraded : int;  (** cumulative cycles waiting out failovers/resyncs *)
      retry : int;          (** cumulative retry-backoff cycles for this fibre *)
      cycle : int;
    }  (** a request passed lifecycle phase [phase] (see {!Span}) *)
  | Trust of { trusted : int; cycle : int }
      (** the total trusted-replica count across all shards changed *)

val cycle : t -> int
(** The simulated cycle at which the event was recorded (a primitive's
    completion time); nondecreasing in emission order. *)

val pp : t Fmt.t
(** Compact one-line sexp rendering; the sexp dump is one of these per
    line. *)
