(** Sharded durable KV service: {!Dstruct.Hmap} shards homed round-robin
    across machines, every operation going through a FliT transformation
    instance — plus optional primary/backup replication, and the
    open-loop serving engine that drives it with {!Traffic} schedules.

    Correctness, unreplicated: the shards partition the keyspace, each
    shard is durably linearizable under the map specification, and
    durable linearizability is local — so the composite is durably
    linearizable against the same map spec, and the durability checker
    can consume a serving history unchanged.

    Correctness, replicated ([replicas > 1]): writes are *write-all*
    under a per-shard lock — an operation acknowledges only when every
    replica applied it and no replica home crashed while it was in
    flight — so every acknowledged write lives on [replicas] distinct
    machines, all holding identical logical content.  A failure detector
    (per-machine crash epochs, {!Runtime.Sched.crash_epoch}) distrusts
    any replica whose home has crashed since it was last validated —
    even though its non-volatile map survives, the crash may have eaten
    completed-but-unflushed stores (Finding F1) — until a re-sync
    replays the shard's write log from a trusted peer.

    Reads follow one fixed rule.  While the primary (replica 0) is
    servable — up, and validated at its home's current crash epoch — it
    is read lock-free, with the epoch re-checked around the read; the
    primary applies every write last, so a value visible there is
    already on every backup.  Otherwise the read takes the shard lock,
    re-syncs what it can, and reads the lowest-index *trusted* replica,
    polling until the deadline when there is none.  A backup that is
    servable but not trusted is never read: a write that faulted on it
    left its copy stale.  Because reads come only from the crash-
    validated primary or from replicas holding every logged write,
    acknowledged writes come from all of them, and shards with no
    trusted replica left simply stop answering (deadline expiry,
    {!Unavailable} → [Faulted]), the composite stays durably
    linearizable against the map spec under *any* storm of single-home
    crashes — availability degrades, correctness does not.
    The {!Objects.Kv} kind puts exactly this composite under the
    fuzzer's crash + RAS envelopes. *)

exception Unavailable
(** Raised by an operation that exhausted its per-request deadline
    without finding a servable/trusted replica set.  The op is
    *pending*: it may or may not have reached a backup, so harnesses
    record it as [Faulted] (the checker decides). *)

type t

val create :
  Runtime.Sched.ctx ->
  ?pflag:bool ->
  ?shards:int ->
  ?buckets:int ->
  ?replicas:int ->
  ?deadline:int ->
  flit:Flit.Flit_intf.instance ->
  home:int ->
  unit ->
  t
(** [shards] (default 4) hash maps; replica [r] of shard [i] is homed on
    machine [(home + i + r) mod n_machines] — round-robin from the
    object's nominal home, every replica of a shard on a distinct
    machine.  [replicas] defaults to 1 (no replication: byte-identical
    behaviour to the pre-replication service).  [deadline] (default
    4000) is the per-request cycle budget — accounted in waiting
    heartbeats (16 cycles each), so a request that never waits never
    times out and the open-loop engine's idle fast-forwards cannot
    expire in-flight requests; it only matters when [replicas > 1].
    Must run inside a scheduled thread.  [buckets] per shard as in
    {!Dstruct.Hmap.create}.
    @raise Invalid_argument when [shards <= 0], [replicas <= 0],
    [replicas] exceeds the machine count, or [deadline <= 0]. *)

val n_shards : t -> int

val failovers : t -> int
(** Read-path switches so far: changes of the replica reads are served
    from (the primary to a trusted backup while the primary is not
    servable, and back once it is re-synced). *)

val rejoins : t -> int
(** Completed replica re-syncs (write-log replays from a trusted
    peer). *)

val timed_out : t -> int
(** Operations that raised {!Unavailable}, including any preload puts
    made through this object. *)

val shard_of_key : t -> int -> int
(** Multiplicative-hash shard mapping (Knuth 2654435761), so the
    Zipf-hot low ranks scatter across shards instead of piling onto
    shard 0. *)

val put : t -> Runtime.Sched.ctx -> int -> int -> int
val get : t -> Runtime.Sched.ctx -> int -> int
val del : t -> Runtime.Sched.ctx -> int -> int

val dispatch : t -> Runtime.Sched.ctx -> string -> int list -> int
(** ["put" [k; v]], ["get" [k]], ["del" [k]] — the map-spec op surface,
    routed to the owning shard (and, when replicated, through the read
    rule or the write-all path).
    @raise Unavailable when the per-request deadline expires. *)

val heal : t -> Runtime.Sched.ctx -> unit
(** Opportunistically re-sync every distrusted-but-up replica from a
    trusted peer (no-op when [replicas = 1]).  Run from restart recovery
    hooks so replication factor recovers promptly after a crash instead
    of waiting for the next write.  Best-effort and bounded by the
    per-request deadline per shard. *)

(** {1 Open-loop serving} *)

(** One serving run: fabric/crash/fault environment + offered traffic +
    service shape. *)
type serve_config = {
  env : Runcore.env;        (** machines, crashes, faults, seed *)
  transform : Flit.Flit_intf.t;
  traffic : Traffic.spec;
  shards : int;
  buckets : int option;
  pflag : bool;
  servers_per_machine : int;  (** serving threads spawned per up machine *)
  replicas : int;           (** replicas per shard; 1 = unreplicated *)
  deadline : int;           (** per-request cycle budget when replicated *)
  record_history : bool;
      (** record every op (and the preload) for the durability checker —
          keep domains small when set *)
}

val default_serve_config :
  transform:Flit.Flit_intf.t -> traffic:Traffic.spec -> serve_config
(** 3 machines (home 2), no crashes/faults, seed from the traffic spec,
    4 shards, 2 servers per machine, 1 replica, deadline 4000, history
    off. *)

type serve_result = {
  history : Lincheck.History.t;  (** [[]] unless [record_history] *)
  stats : Fabric.Stats.t;
  cycles : int;                  (** fabric clock when serving finished *)
  served : int array;            (** completions, indexed by {!op_index} *)
  latencies : Obs.Hist.t array;  (** completion − arrival, by {!op_index} *)
  faulted : int;       (** ops aborted by a RAS fault past the retry policy *)
  timed_out : int;     (** requests that exhausted their deadline budget *)
  claimed : int;       (** requests a server took off the schedule *)
  killed : int;
      (** claimed requests whose server a crash killed in flight,
          counted when the crash fires; every claim ends exactly once,
          so [claimed = served + faulted + timed_out + killed] (checked) *)
  dropped : int;
      (** requests lost: never claimed, plus killed in flight —
          [(offered − claimed) + killed] *)
  failovers : int;     (** read-path switches during the run ({!failovers}) *)
  rejoins : int;       (** completed replica re-syncs during the run *)
  availability : float;  (** served / offered, in [0, 1] *)
}

val op_index : Traffic.op_type -> int
(** [Read] = 0, [Update] = 1, [Insert] = 2 — the index into [served]
    and [latencies]. *)

val serve : ?tracer:Obs.Tracer.t -> serve_config -> serve_result
(** Run the service: preload the keyspace, spawn [servers_per_machine]
    serving threads on every up machine, drain the {!Traffic.cursor}
    schedule open-loop (a server behind schedule serves immediately, and
    the request's latency — completion minus *arrival* — shows the
    queueing delay; a request not yet arrived is claimed only when no op
    is in flight, advancing the fabric clock to its arrival; an idle
    server polls its claim test inside the scheduler via
    {!Runtime.Sched.wait}), crash/restart per the env plan (restarted machines
    get fresh serving threads, and — when replicated — a healer fibre
    that re-syncs the replicas homed there), and return throughput
    counters, per-op-type latency histograms, failover counts and
    availability.  Deterministic in the config.
    @raise Failure if the request counts do not balance or a request is
    still in flight after the run (a bug).
    @raise Invalid_argument when the traffic spec fails
    {!Traffic.validate} or [replicas] is out of range. *)

val check_run : serve_config -> serve_result -> Lincheck.Durable.verdict
(** [check_run c r] — the durability checker against the map spec over
    [r.history], where [r] is a run of [c] with [record_history] set. *)

val check : serve_config -> Lincheck.Durable.verdict
(** {!serve} with history recording forced on, then {!check_run}. *)
