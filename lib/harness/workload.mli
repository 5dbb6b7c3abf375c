(** Concurrent workload runner with crash injection and history
    recording (experiments E6/E7): build a fabric, create one transformed
    object, run recorded random operations from worker threads, crash and
    restart machines per plan (killed threads leave pending invocations),
    spawn recovery workers, and hand the history to the durability
    checker.  Fully deterministic in [seed].  Crash and fault plans are
    {!Runcore.crash_spec}s and {!Runcore.fault_spec}s, wired by
    {!Runcore}. *)

type config = {
  kind : Objects.kind;
  transform : Flit.Flit_intf.t;
  n_machines : int;
  home : int;                 (** machine hosting the object's memory *)
  volatile_home : bool;
  worker_machines : int list; (** machine of each initial worker *)
  ops_per_thread : int;
  crashes : Runcore.crash_spec list;
  faults : Runcore.fault_spec list;
      (** [] = no fault plan: byte-identical runs *)
  seed : int;
  evict_prob : float;
  cache_capacity : int;
  value_range : int;          (** operation payloads drawn from [1, range] *)
  pflag : bool;
  replicas : int;
      (** {!Objects.Kv} shard replicas (1 = unreplicated; ignored by
          every other kind).  Replicated cells tolerate shard-home
          crashes: writes acknowledge on all replicas, reads come only
          from crash-validated ones, and deadline expiry surfaces as a
          pending [Faulted] op ({!Kv.Unavailable}). *)
}

val default_config : Objects.kind -> Flit.Flit_intf.t -> config
(** 3 machines, object on machine 2, workers on 0/1, 3 ops each, values
    in [1, 3], no crashes, no faults, 1 replica, seed 1. *)

val describe : config -> string
(** One-line summary, used as the verdict's provenance label. *)

(** Per-phase {!Fabric.Stats.diff}s of one run: [setup] covers fabric
    traffic up to the object's creation, [measured] the worker
    operations until the first crash (or the end, crash-free),
    [recovery] everything after the first crash — where degraded-mode
    runs show their retries and fallbacks landing. *)
type phases = {
  setup : Fabric.Stats.t;
  measured : Fabric.Stats.t;
  recovery : Fabric.Stats.t;
}

type result = {
  history : Lincheck.History.t;
  stats : Fabric.Stats.t;
  phases : phases;
}

val run : ?tracer:Obs.Tracer.t -> config -> result
(** Workers whose machine is down at spawn time (felled by a crash plan
    before the init thread ran) are skipped.  Operations aborted by a
    fault that survived the retry policy record a [Faulted] response.
    With [?tracer], every fabric/scheduler/FliT event of the run is
    emitted into it; without, the run is byte-identical to the untraced
    harness (phase snapshots are pure copies). *)

val check : ?tracer:Obs.Tracer.t -> config -> Lincheck.Durable.verdict
(** Run and decide durable linearizability; the verdict's provenance is
    [describe c]. *)
