(** Typed runtime events for the observability layer.

    Events carry only plain integers — machine indices, location indices,
    thread ids, simulated-cycle timestamps — never fabric or scheduler
    values, so this library sits *below* [lib/fabric] in the dependency
    order (the fabric takes an optional tracer at creation; a tracer
    cannot, in turn, depend on the fabric).

    All timestamps are simulated cycles from the fabric's latency model,
    not wall-clock time: the simulator is deterministic in its seed, so a
    trace is a reproducible artefact, and wall-clock time would only
    measure the simulator itself (see DESIGN.md decision 11). *)

(** The CXL0 primitives (plus the FliT-counter metadata accesses, which
    are real fabric traffic charged through the accounting hooks). *)
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

let n_prims = 10

let prim_index = function
  | Load -> 0
  | Lstore -> 1
  | Rstore -> 2
  | Mstore -> 3
  | Lflush -> 4
  | Rflush -> 5
  | Faa -> 6
  | Cas -> 7
  | Meta_faa -> 8
  | Meta_read -> 9

let prim_name = function
  | Load -> "load"
  | Lstore -> "lstore"
  | Rstore -> "rstore"
  | Mstore -> "mstore"
  | Lflush -> "lflush"
  | Rflush -> "rflush"
  | Faa -> "faa"
  | Cas -> "cas"
  | Meta_faa -> "meta-faa"
  | Meta_read -> "meta-read"

let all_prims =
  [ Load; Lstore; Rstore; Mstore; Lflush; Rflush; Faa; Cas; Meta_faa;
    Meta_read ]

(** Request-lifecycle phase marks for the serving stack (see
    {!Span}): every mark names the point a request just passed.
    Waiting time is not marked pointwise — the cumulative
    [wait_lock]/[wait_degraded]/[retry] counters ride on every mark, so
    a span needs only a handful of events however long it waited. *)
type span_phase =
  | P_dispatch      (** a server claimed the request; [t0] = arrival stamp *)
  | P_apply_backup  (** backup replica [replica] applied the write *)
  | P_apply_acting  (** the primary (replica 0) applied the write, last *)
  | P_ack           (** terminal: the request completed successfully *)
  | P_timeout       (** terminal: deadline exhausted ([Kv.Unavailable]) *)
  | P_fault         (** terminal: a RAS fault surfaced past the retry policy *)

let span_phase_name = function
  | P_dispatch -> "dispatch"
  | P_apply_backup -> "apply-backup"
  | P_apply_acting -> "apply-acting"
  | P_ack -> "ack"
  | P_timeout -> "timeout"
  | P_fault -> "fault"

type evict_kind =
  | Horizontal  (** line moved to the owner's cache *)
  | Vertical    (** owner wrote the line back to physical memory *)

let evict_kind_name = function
  | Horizontal -> "horizontal"
  | Vertical -> "vertical"

type fault_kind =
  | Nack        (** link NACK: the message bounced *)
  | Timeout     (** down link: completion timeout *)
  | Delay       (** degraded link: delivery delayed, then proceeded *)
  | Poison_hit  (** a load/RMW observed a poisoned line *)
  | Poison_set  (** fault injection: a line was marked poisoned *)

let fault_kind_name = function
  | Nack -> "nack"
  | Timeout -> "timeout"
  | Delay -> "delay"
  | Poison_hit -> "poison-hit"
  | Poison_set -> "poison-set"

(** One runtime event.  [machine]/[to_machine]/[loc] are [-1] when not
    applicable (e.g. a poison injection has no issuing machine). *)
type t =
  | Prim of { prim : prim; machine : int; loc : int; t0 : int; t1 : int }
      (** primitive issued at cycle [t0], completed at [t1] *)
  | Evict of { kind : evict_kind; machine : int; loc : int; cycle : int }
  | Crash of { machine : int; cycle : int }
  | Restart of { machine : int; cycle : int; step : int }
  | Fault of {
      kind : fault_kind;
      machine : int;     (** issuer; [-1] for injections *)
      to_machine : int;  (** link target; [-1] for poison events *)
      loc : int;         (** poisoned location; [-1] for link faults *)
      cycle : int;
    }
  | Retry of { machine : int; attempt : int; backoff : int; cycle : int }
      (** the retry engine re-issuing after a transient fault *)
  | Fallback of { machine : int; loc : int; cycle : int }
      (** degraded-mode LFlush→RFlush substitution *)
  | Counter of { machine : int; loc : int; value : int; cycle : int }
      (** FliT counter transition: the counter for [loc] became [value] *)
  | Switch of { step : int; tid : int; machine : int; cycle : int }
      (** the scheduler switched thread [tid] in at decision [step] *)
  | Failover of { shard : int; from_machine : int; to_machine : int; cycle : int }
      (** the replicated KV's read rule moved shard [shard]'s reads from
          the replica on [from_machine] to the one on [to_machine]: to
          a trusted backup when the primary stopped being servable, and
          back once it was re-synced *)
  | Rejoin of { shard : int; machine : int; cycle : int }
      (** a stale replica of [shard] homed on [machine] finished
          re-syncing and is trusted again *)
  | Unavail of { shard : int; cycles : int; cycle : int }
      (** shard [shard] came back after [cycles] simulated cycles during
          which the read rule had no replica to read: the primary was
          not servable and no replica was trusted *)
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

(** [cycle e] — the simulated cycle at which [e] was recorded (for a
    primitive, its completion time); nondecreasing in emission order. *)
let cycle = function
  | Prim { t1; _ } -> t1
  | Evict { cycle; _ }
  | Crash { cycle; _ }
  | Restart { cycle; _ }
  | Fault { cycle; _ }
  | Retry { cycle; _ }
  | Fallback { cycle; _ }
  | Counter { cycle; _ }
  | Switch { cycle; _ }
  | Failover { cycle; _ }
  | Rejoin { cycle; _ }
  | Unavail { cycle; _ }
  | Mark { cycle; _ }
  | Trust { cycle; _ } -> cycle

(* The compact sexp rendering (one event per line in the sexp dump). *)
let pp ppf = function
  | Prim { prim; machine; loc; t0; t1 } ->
      Fmt.pf ppf "(prim %s (m %d) (loc %d) (t0 %d) (t1 %d))"
        (prim_name prim) machine loc t0 t1
  | Evict { kind; machine; loc; cycle } ->
      Fmt.pf ppf "(evict %s (m %d) (loc %d) (at %d))" (evict_kind_name kind)
        machine loc cycle
  | Crash { machine; cycle } ->
      Fmt.pf ppf "(crash (m %d) (at %d))" machine cycle
  | Restart { machine; cycle; step } ->
      Fmt.pf ppf "(restart (m %d) (at %d) (step %d))" machine cycle step
  | Fault { kind; machine; to_machine; loc; cycle } ->
      Fmt.pf ppf "(fault %s (m %d) (to %d) (loc %d) (at %d))"
        (fault_kind_name kind) machine to_machine loc cycle
  | Retry { machine; attempt; backoff; cycle } ->
      Fmt.pf ppf "(retry (m %d) (attempt %d) (backoff %d) (at %d))" machine
        attempt backoff cycle
  | Fallback { machine; loc; cycle } ->
      Fmt.pf ppf "(fallback lf->rf (m %d) (loc %d) (at %d))" machine loc cycle
  | Counter { machine; loc; value; cycle } ->
      Fmt.pf ppf "(counter (m %d) (loc %d) (value %d) (at %d))" machine loc
        value cycle
  | Switch { step; tid; machine; cycle } ->
      Fmt.pf ppf "(switch (step %d) (tid %d) (m %d) (at %d))" step tid machine
        cycle
  | Failover { shard; from_machine; to_machine; cycle } ->
      Fmt.pf ppf "(failover (shard %d) (from %d) (to %d) (at %d))" shard
        from_machine to_machine cycle
  | Rejoin { shard; machine; cycle } ->
      Fmt.pf ppf "(rejoin (shard %d) (m %d) (at %d))" shard machine cycle
  | Unavail { shard; cycles; cycle } ->
      Fmt.pf ppf "(unavail (shard %d) (cycles %d) (at %d))" shard cycles cycle
  | Mark { session; seq; op; phase; replica; t0; wait_lock; wait_degraded;
           retry; cycle } ->
      Fmt.pf ppf
        "(mark %s (s %d) (q %d) (op %d) (rep %d) (t0 %d) (wl %d) (wd %d) \
         (rt %d) (at %d))"
        (span_phase_name phase) session seq op replica t0 wait_lock
        wait_degraded retry cycle
  | Trust { trusted; cycle } ->
      Fmt.pf ppf "(trust (n %d) (at %d))" trusted cycle
