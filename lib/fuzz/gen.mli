(** Random {!Harness.Workload.config} generation inside each transform's
    *guarantee envelope* — the failure model under which the paper claims
    durability (e.g. Alg 3 never crash-tests the home machine, Finding
    F1; [weakest-lflush] never crashes a volatile machine, Prop 2, nor
    any worker machine, Finding F2).  Violations found inside the
    envelope are genuine counterexamples. *)

type oracle =
  | Durable  (** {!Lincheck.Durable.check} *)
  | Buffered_cut  (** {!Lincheck.Buffered.check}, consistent cuts *)

type worker_crashes =
  | Workers_crash  (** crash plans may hit worker machines *)
  | Workers_spared
      (** only bystander machines (neither home nor any worker) crash,
          and restarted machines host no recovery threads — Finding F2:
          [weakest-lflush] loses a completed store when a concurrent
          writer's machine crashes holding the migrated dirty line *)
  | Workers_spared_if_volatile_home
      (** [adaptive]: its volatile-home (LFlush) path shares Finding
          F2, its NV (RFlush) path does not *)

type fault_env =
  | Fault_free
      (** no fault specs, and no generator RNG draws: configs are
          byte-identical to the pre-fault fuzzer's *)
  | Transient_only
      (** mildly degraded links — NACKs/delays the retry policy should
          absorb (or surface as clean [Faulted] aborts) *)
  | Degraded_env
      (** heavy degradation plus a down window: exhausted retries,
          completion timeouts, FliT's LF→RF fallback *)
  | Poison_env
      (** poisoned lines (plus an occasional mild degrade): typed
          [Poisoned] aborts and store/rflush healing *)
(** The RAS fault-envelope dimension, orthogonal to the crash
    envelope. *)

type profile = {
  transform : Flit.Flit_intf.t;
  kinds : Harness.Objects.kind list;  (** object kinds to sample from *)
  crash_home : bool;       (** whether the home machine may crash *)
  worker_crashes : worker_crashes;
  allow_volatile_home : bool;  (** whether to sample volatile homes *)
  oracle : oracle;
  fault_env : fault_env;  (** all built-in profiles say [Fault_free];
                              campaigns override via [--fault-env] *)
}

val profile_of_transform : Flit.Flit_intf.t -> profile
(** The transform's envelope (see the implementation header for the
    per-transform table); unknown transforms get the weakest envelope. *)

val gen : profile -> Random.State.t -> Harness.Workload.config
(** Sample a whole config — kind, machine count, worker placement, crash
    plan (volatile-home and crash-before-init included), eviction noise,
    cache size, value domain — bounded so the checker stays tractable. *)

(** {1 Fixed schedules}

    The per-seed crash and fault plans behind the binaries' [--crash]
    regimes and [--faults] envelopes.  Closed-loop and serving plans
    have the same shapes on different time constants. *)

val closed_loop_config :
  Harness.Objects.kind -> Flit.Flit_intf.t -> crash:int option ->
  faults:fault_env -> int -> Harness.Workload.config
(** [closed_loop_config kind t ~crash ~faults seed] is
    {!Harness.Workload.default_config} at [seed], with machine [crash]
    (if any) crashed and restarted early in the run, and [faults]'s plan
    on the links to the home. *)

val serving_env :
  Harness.Runcore.env -> crash:int option -> storm:int ->
  faults:fault_env -> Harness.Runcore.env
(** The env's crash and fault plans replaced by the serving schedules at
    its seed: machine [crash] (if any) crashed and restarted, [storm]
    crash/restart cycles rotating over the machines, and [faults]'s plan
    on the links to the home. *)
