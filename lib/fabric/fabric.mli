(** The simulated CXL fabric: an executable, mutable implementation of
    the CXL0 abstract machine.

    Exploits the coherence invariant (all caches holding a line hold the
    same value) so every primitive is O(1); nondeterministic propagation
    becomes bounded caches with FIFO replacement plus seeded spontaneous
    evictions; flushes *force* the propagation the formal model's
    blocking preconditions wait for.  Cross-validated step by step
    against {!Cxl0.Semantics} (see [test/test_fabric.ml]).

    The data plane is flat-memory (DESIGN.md decision 12): line state is
    struct-of-arrays unboxed [int array]s, remote-access charging is a
    load from per-pair cost tables precomputed at {!create}, and FIFO
    replacement runs on preallocated ring buffers.  All
    behaviour-preserving: same charges, stats and RNG stream as the
    record-based plane it replaced. *)

module Stats = Stats
module Latency = Latency
module Topology = Topology
module Faults = Faults

type machine_conf = {
  name : string;
  volatile : bool;       (** shared memory lost on crash *)
  cache_capacity : int;  (** max lines cached; >= 1 *)
}

val machine : ?volatile:bool -> ?cache_capacity:int -> string -> machine_conf
(** Defaults: non-volatile, capacity 1024. *)

type loc = int
(** Locations are dense indices into the fabric's location table. *)

type t

val create :
  ?model:Latency.t -> ?topology:Topology.t -> ?seed:int ->
  ?evict_prob:float -> ?faults:Faults.t -> ?tracer:Obs.Tracer.t ->
  machine_conf array -> t
(** Defaults: {!Latency.default}, a flat (single-switch) topology, seed
    0, 5% spontaneous-eviction probability per scheduler tick, no fault
    plan, no tracer.  With a tracer attached, every primitive, eviction,
    crash and fault injection is emitted as a typed {!Obs.Event.t};
    without one, the fabric performs zero observability work (no
    allocation, no RNG draws, no cycles).  Raises on an empty machine
    array, more than 62 machines, a topology of the wrong size, an
    [evict_prob] outside [0,1] (NaN included), or a fault plan
    referencing a machine index out of range. *)

val max_machines : int
(** The largest fabric {!create} accepts: 62 machines. *)

val uniform :
  ?model:Latency.t -> ?topology:Topology.t -> ?seed:int ->
  ?evict_prob:float -> ?faults:Faults.t -> ?tracer:Obs.Tracer.t ->
  ?volatile:bool -> ?cache_capacity:int -> int -> t
(** [uniform n] — [n] identical machines named ["M1" .. "Mn"]. *)

val default_name : int -> string
(** [default_name i] — the default name of machine index [i] (["M1"] for
    0, and so on).  Memoized: harnesses that build many fabrics should
    use this instead of formatting names per creation. *)

(** {1 Introspection} *)

val uid : t -> int
(** Unique per fabric instance; labels traces and diagnostics. *)

val n_machines : t -> int
val stats : t -> Stats.t
val cycles : t -> int
val n_locs : t -> int
val is_volatile : t -> int -> bool
val owner : t -> loc -> int
val topology : t -> Topology.t
val visible : t -> loc -> int
(** The value a coherent load would observe, without performing one. *)

val set_evict_prob : t -> float -> unit
(** Raises [Invalid_argument] outside [0,1] (NaN included). *)

val charge : t -> int -> unit
(** Account extra simulated cycles (the runtime's retry backoff). *)

(** {1 Allocation} *)

val alloc : t -> owner:int -> loc
(** Fresh zero-initialised location on [owner]'s memory.  A
    fabric-management operation: no cycles charged. *)

val alloc_n : t -> owner:int -> int -> loc list
(** [n] consecutive locations (no scheduling point in between, so
    adjacency is guaranteed — linked structures rely on it). *)

(** {1 The CXL0 primitives} *)

val load : t -> int -> loc -> int
(** Coherent load by the machine: the unique cached value if any cache
    holds the line (copying it into the loader's cache), else the
    owner's memory value. *)

val lstore : t -> int -> loc -> int -> unit
val rstore : t -> int -> loc -> int -> unit
val mstore : t -> int -> loc -> int -> unit

val lflush : t -> int -> loc -> unit
(** Forcing LFlush: if the issuer holds the line, write it back one
    level (vertical when the issuer is the owner, horizontal
    otherwise). *)

val rflush : t -> int -> loc -> unit
(** Forcing RFlush: the latest value (wherever cached) reaches the
    owner's physical memory; all caches drop the line. *)

(** {1 Atomics} *)

val faa : t -> int -> loc -> int -> int
(** Fetch-and-add; deposits at the owner's cache; returns the previous
    value. *)

type store_kind = Cxl0.Label.store_kind

val cas : t -> int -> loc -> expected:int -> desired:int -> kind:store_kind -> bool
(** Compare-and-swap whose successful store has strength [kind]. *)

(** {1 The faultable attempt and the RAS plan}

    {!attempt} is the one fault-aware entry point: any data primitive,
    by its {!Obs.Event.prim} code, with the plain one's effects and
    costs, except that a message crossing a faulted link or a load/RMW
    observing a poisoned line leaves a fault outcome instead of
    performing/delivering.  With no plan it is the plain primitive.  The
    plain primitives never consult the link table (tests and internal
    traffic stay un-faultable); {!Runtime.Ops} is the retry-aware
    caller. *)

val faults : t -> Faults.t option

val tracer : t -> Obs.Tracer.t option
(** The event tracer attached at creation, if any; the scheduler, retry
    engine and FliT instances emit their events through this. *)

val attempt :
  t -> Obs.Event.prim -> int -> loc -> int -> int -> store_kind -> int
(** [attempt t prim i x a b kind] — machine [i] issues [prim] on [x]
    under the plan and leaves the {!outcome}.  [a] is the stored value,
    FAA delta or CAS expected value, [b] the CAS desired value, [kind]
    its store's strength (ignored by the rest).  Returns the loaded
    value, the FAA's previous value, 1/0 for a CAS that did/did not
    swap, else 0.  A poisoned load still executes (the data travels and
    caches); an RMW that observes poison charges the crossing and aborts
    before mutating.  Raises [Invalid_argument] on a bad location and
    on [Meta_faa]/[Meta_read]. *)

val outcome : t -> int
(** The last {!attempt}'s outcome: {!Faults.ok}, {!Faults.nack},
    {!Faults.timeout} or {!Faults.poison_hit}. *)

val fault : t -> int -> loc -> Faults.fault
(** [fault t i x] — the fault machine [i]'s last {!attempt} on [x] left,
    with its endpoints or line.  Raises [Invalid_argument] when its
    outcome is {!Faults.ok}. *)

val poison : t -> loc -> unit
(** Mark the line poisoned.  Raises [Invalid_argument] without a fault
    plan or on a bad location.  Healed by any store of fresh data, an
    [rflush] write-back, or a volatile owner's crash re-initialising
    it. *)

val poisoned : t -> loc -> bool

val link_degraded : t -> int -> int -> bool
(** Standing fault on the link between the two machines right now
    (degraded always, down only inside its window); always [false]
    without a plan.  FliT's degraded mode keys off this. *)

(** {1 Metadata accounting} *)

val account_meta_faa : t -> int -> loc -> unit
(** Charge an atomic RMW on volatile metadata co-located with the
    location (FliT counters). *)

val account_meta_read : t -> int -> loc -> unit
(** Charge a metadata read (rides along with the data access). *)

(** {1 Propagation and crashes} *)

val evict_loc : t -> int -> loc -> unit
(** Deterministically perform one propagation step of the line out of
    the machine's cache (no-op if not held); for tests that stage
    specific configurations. *)

val maybe_evict : t -> unit
(** With probability [evict_prob], evict the oldest line of a random
    caching machine — the runtime counterpart of the formal τ-steps;
    called by the scheduler between primitives. *)

val maybe_evict_n : t -> int -> unit
(** [maybe_evict_n t g] — equal in law to [g] calls of {!maybe_evict}:
    it jumps geometrically from one eviction to the next (a gap not used
    up carries over to the next call), so it draws per eviction, not per
    chance, and stops once no cache holds a line.  It draws nothing when
    [evict_prob] is 0 or no line is cached.  The scheduler uses it for
    the decisions it skips over parked waiters. *)

val drain : t -> unit
(** Propagate everything into physical memory (fixpoint over all
    machines). *)

val crash : t -> int -> unit
(** The machine's cache contents vanish; locations it owns re-initialise
    to zero iff its memory is volatile.  Killing its threads is the
    scheduler's job. *)

(** {1 Cross-validation with the formal model} *)

val to_loc : t -> loc -> Cxl0.Loc.t
val to_config : t -> Cxl0.Config.t
val to_system : t -> Cxl0.Machine.system

val check_coherence : t -> bool
(** Validates the holder/live-count bookkeeping. *)

val pp : t Fmt.t
