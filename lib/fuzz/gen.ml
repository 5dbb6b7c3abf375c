(** Random {!Harness.Workload.config} generation for the crash-fault
    fuzzer.

    A campaign does not throw arbitrary crashes at arbitrary transforms:
    each transformation comes with a *guarantee envelope* — the failure
    model under which the paper (or our extensions) claims durability —
    and the fuzzer samples configs inside that envelope.  A violation
    found inside the envelope is a genuine counterexample; crashes
    outside it (e.g. crashing the home machine under Alg 3, Finding F1)
    are known-lost territory and would drown the signal.

    Envelopes, per transform:
    - [noflush-control] (the broken control): no restrictions — any
      machine may crash, the home may be volatile.  The campaign must
      find violations here.
    - [simple], [alg2-mstore]: the general failure model of §5 — any
      machine may crash; home memory non-volatile.
    - [alg3-rstore], [alg3'-weakest], [ablation-noflit-counter]: as
      above, except
      the home machine never crashes — Finding F1 shows Algs 3/3' lose
      completed stores when the location's owner crashes between the
      store and its flush.
    - [weakest-lflush]: Prop 2 — durable provided volatile-memory
      machines never crash; we let the home be volatile but never crash
      it.  Additionally (Finding F2, discovered by this fuzzer): a
      *concurrent writer's* store migrates the dirty line to its own
      machine, making the first writer's LFlush vacuous (LFlush is
      local-only); if that co-writer's machine then crashes before its
      own flush, a completed store dies even with an NV home.  Alg 3'
      (RFlush) survives the identical schedule.  So the envelope also
      spares every worker machine: only bystanders crash, with no
      recovery threads.
    - [adaptive]: per-address choice, so the intersection of the above
      envelopes: home never crashes, volatile home allowed; its
      volatile-home path is LFlush-based and shares Finding F2, so
      worker machines are spared exactly when the home is volatile.
    - [buffered-sync]: not durably linearizable by design; checked
      against the *buffered* (consistent-cut) criterion instead, which
      our E11 experiments support only for single-location objects —
      kinds restricted to register and counter.  Also bystander-only
      crashes (Finding F3): when a machine hosting writers crashes, its
      un-synced completed suffix dies while completed operations on the
      surviving machines live on, so no happens-after-closed drop set
      exists and even the buffered criterion is violated.

    Orthogonal to all of the above: the sharded [Kv] kind is homed on
    *every* machine (shard [i] lives at [(home + i) mod n_machines]), so
    under any home-sparing envelope there is no bystander left to
    crash.  Replication restores the crash dimension: Kv cells for
    home-sparing transforms sample with [replicas = 2] and a
    *chaos-storm* plan — sequential crash/restart cycles that are all
    shard-home crashes by construction — because the replicated service
    acknowledges a write only once every replica holds it and serves
    reads only from crash-validated replicas, so strict durable
    linearizability is back inside the envelope for any storm shape
    (shards that lose every trusted replica stop answering instead of
    guessing; see {!Harness.Kv}).  A volatile home is still never
    crashed (the wipe destroys that machine's shard structure itself,
    not just unflushed stores), and spared-worker envelopes keep sparing
    worker machines. *)

type oracle =
  | Durable  (** {!Lincheck.Durable.check} *)
  | Buffered_cut  (** {!Lincheck.Buffered.check}, consistent cuts *)

type worker_crashes =
  | Workers_crash
  | Workers_spared
  | Workers_spared_if_volatile_home

(** The RAS fault-envelope dimension, orthogonal to the crash envelope:
    which partial-failure schedules ride along with the sampled crash
    plan.  [Fault_free] adds no fault specs {e and draws nothing from
    the generator's RNG}, so fault-free campaigns sample byte-identical
    configs to the pre-fault fuzzer. *)
type fault_env =
  | Fault_free
  | Transient_only
      (** mildly degraded links — NACKs/delays the retry policy should
          absorb (or surface as clean [Faulted] aborts) *)
  | Degraded_env
      (** heavy degradation plus a down window: exercises exhausted
          retries, completion timeouts, and FliT's LF→RF fallback *)
  | Poison_env
      (** poisoned lines (plus an occasional mild degrade): exercises
          typed [Poisoned] aborts and store/rflush healing *)

type profile = {
  transform : Flit.Flit_intf.t;
  kinds : Harness.Objects.kind list;  (** object kinds to sample from *)
  crash_home : bool;       (** whether the home machine may crash *)
  worker_crashes : worker_crashes;
  allow_volatile_home : bool;  (** whether to sample volatile homes *)
  oracle : oracle;
  fault_env : fault_env;
}

let profile_of_transform (t : Flit.Flit_intf.t) : profile =
  let all = Harness.Objects.all_kinds in
  match Flit.Flit_intf.name t with
  | "noflush-control" ->
      { transform = t; kinds = all; crash_home = true;
        worker_crashes = Workers_crash; allow_volatile_home = true;
        oracle = Durable; fault_env = Fault_free }
  | "simple" | "alg2-mstore" ->
      { transform = t; kinds = all; crash_home = true;
        worker_crashes = Workers_crash; allow_volatile_home = false;
        oracle = Durable; fault_env = Fault_free }
  | "alg3-rstore" | "alg3'-weakest" | "ablation-noflit-counter" ->
      { transform = t; kinds = all; crash_home = false;
        worker_crashes = Workers_crash; allow_volatile_home = false;
        oracle = Durable; fault_env = Fault_free }
  | "weakest-lflush" ->
      { transform = t; kinds = all; crash_home = false;
        worker_crashes = Workers_spared; allow_volatile_home = true;
        oracle = Durable; fault_env = Fault_free }
  | "adaptive" ->
      { transform = t; kinds = all; crash_home = false;
        worker_crashes = Workers_spared_if_volatile_home;
        allow_volatile_home = true; oracle = Durable; fault_env = Fault_free }
  | "buffered-sync" ->
      { transform = t;
        kinds = [ Harness.Objects.Register; Harness.Objects.Counter ];
        crash_home = false; worker_crashes = Workers_spared;
        allow_volatile_home = false; oracle = Buffered_cut;
        fault_env = Fault_free }
  | _ ->
      (* unknown transform: assume nothing beyond the weakest envelope *)
      { transform = t; kinds = all; crash_home = false;
        worker_crashes = Workers_spared; allow_volatile_home = false;
        oracle = Durable; fault_env = Fault_free }

let pick rng l = List.nth l (Random.State.int rng (List.length l))

(* The transient envelope's mild link degradation, also the occasional
   degrade that rides along with sampled poison. *)
let mild_degrade ~m1 ~m2 =
  Harness.Runcore.Degrade_link
    { m1; m2; nack_prob = 0.1; delay_prob = 0.1; delay_cycles = 40 }

(* Fault-envelope sampling.  Called strictly *after* the base config
   record is built: the record literal's field initialisers draw from
   [rng] in an order the OCaml spec leaves to the compiler, so inserting
   draws among them would be fragile — and [Fault_free] must draw
   nothing at all, keeping fault-free campaigns byte-identical to the
   pre-fault fuzzer (the corpus replay gate checks exactly this). *)
let sample_faults (p : profile) rng (c : Harness.Workload.config) :
    Harness.Runcore.fault_spec list =
  let n = c.Harness.Workload.n_machines in
  (* two distinct endpoints; [gen] guarantees n >= 2 *)
  let pick_link () =
    let m1 = Random.State.int rng n in
    let m2 = (m1 + 1 + Random.State.int rng (n - 1)) mod n in
    (m1, m2)
  in
  match p.fault_env with
  | Fault_free -> []
  | Transient_only ->
      List.init
        (1 + Random.State.int rng 2)
        (fun _ ->
          let m1, m2 = pick_link () in
          Harness.Runcore.Degrade_link
            {
              m1;
              m2;
              nack_prob = pick rng [ 0.05; 0.1; 0.2 ];
              delay_prob = pick rng [ 0.0; 0.1; 0.3 ];
              delay_cycles = pick rng [ 20; 40; 80 ];
            })
  | Degraded_env ->
      let m1, m2 = pick_link () in
      let degrade =
        Harness.Runcore.Degrade_link
          {
            m1;
            m2;
            nack_prob = pick rng [ 0.3; 0.5 ];
            delay_prob = pick rng [ 0.2; 0.4 ];
            delay_cycles = pick rng [ 50; 100 ];
          }
      in
      let m1, m2 = pick_link () in
      let from_cycle = Random.State.int rng 2_000 in
      let down =
        Harness.Runcore.Down_link
          {
            m1;
            m2;
            from_cycle;
            until_cycle = from_cycle + 1 + Random.State.int rng 4_000;
          }
      in
      [ degrade; down ]
  | Poison_env ->
      let poisons =
        List.init
          (1 + Random.State.int rng 2)
          (fun _ ->
            Harness.Runcore.Poison_at
              {
                at = 1 + Random.State.int rng 40;
                loc_seed = Random.State.int rng 64;
              })
      in
      if Random.State.int rng 2 = 0 then
        let m1, m2 = pick_link () in
        mild_degrade ~m1 ~m2 :: poisons
      else poisons

(* Bounds chosen to keep the Wing–Gong search tractable on every sampled
   cell: ≤ 3 workers × ≤ 4 ops + ≤ 2 crashes × ≤ 2 recovery threads × ≤ 2
   ops ≈ 16 operations worst case, well under {!Lincheck.Check.max_ops}
   and cheap to memoise. *)
let gen (p : profile) (rng : Random.State.t) : Harness.Workload.config =
  let n_machines = 2 + Random.State.int rng 3 in
  let home = Random.State.int rng n_machines in
  let volatile_home = p.allow_volatile_home && Random.State.int rng 3 = 0 in
  let n_workers = 1 + Random.State.int rng 3 in
  let ops_per_thread = 1 + Random.State.int rng (max 1 (8 / n_workers)) in
  let worker_machines =
    List.init n_workers (fun _ -> Random.State.int rng n_machines)
  in
  let workers_may_crash =
    match p.worker_crashes with
    | Workers_crash -> true
    | Workers_spared -> false
    | Workers_spared_if_volatile_home -> not volatile_home
  in
  let crashable =
    List.filter
      (fun m ->
        (p.crash_home || m <> home)
        && (workers_may_crash || not (List.mem m worker_machines)))
      (List.init n_machines Fun.id)
  in
  let n_crashes =
    if crashable = [] then 0 else Random.State.int rng 3
  in
  let crashes =
    List.init n_crashes (fun _ ->
        let at = 1 + Random.State.int rng 40 in
        (* When workers are spared (Finding F2), recovery threads would
           turn the restarted bystander into a worker machine that a
           later crash spec may legally hit — so spare those too. *)
        let recovery_threads =
          if workers_may_crash then Random.State.int rng 3 else 0
        in
        {
          Harness.Runcore.at;
          machine = pick rng crashable;
          restart_at = at + Random.State.int rng 20;
          recovery_threads;
          recovery_ops =
            (if recovery_threads = 0 then 0 else 1 + Random.State.int rng 2);
        })
  in
  let base =
    {
      Harness.Workload.kind = pick rng p.kinds;
      transform = p.transform;
      n_machines;
      home;
      volatile_home;
      worker_machines;
      ops_per_thread;
      crashes;
      faults = [];
      seed = 1 + Random.State.int rng 1_000_000;
      evict_prob = pick rng [ 0.0; 0.05; 0.15; 0.3 ];
      cache_capacity = pick rng [ 1; 2; 4 ];
      value_range = 1 + Random.State.int rng 3;
      pflag = true;
      replicas = 1;
    }
  in
  (* The sharded KV is homed on *every* machine ((home + i) mod n for
     each shard), so for home-crash-sensitive envelopes every crash is a
     shard-home crash and lands in the Finding-F1/F2 window (the fuzzer
     rediscovered this — weakest-lflush lost completed stores to
     "bystander" crashes the moment the Kv kind appeared).  Replication
     puts those crashes back in the envelope: with [replicas = 2] the
     service acknowledges writes on every replica and distrusts crashed
     homes, so we resample the crash plan as a chaos storm — sequential
     non-overlapping crash/restart cycles, recovery-thread-free, never
     hitting a volatile home (the wipe kills the shard structure, not
     just unflushed stores) and respecting spared workers.  All the
     extra [rng] draws happen inside this branch, after the base record:
     every other kind still samples byte-identically to the pre-storm
     fuzzer (the corpus replay gate pins this). *)
  let base =
    if base.kind = Harness.Objects.Kv && not p.crash_home then begin
      let stormable =
        List.filter
          (fun m ->
            (workers_may_crash || not (List.mem m worker_machines))
            && not (volatile_home && m = home))
          (List.init n_machines Fun.id)
      in
      let crashes =
        if stormable = [] then []
        else
          let step = ref (1 + Random.State.int rng 8) in
          List.init
            (1 + Random.State.int rng 3)
            (fun _ ->
              let at = !step in
              let restart_at = at + 1 + Random.State.int rng 12 in
              step := restart_at + 1 + Random.State.int rng 8;
              {
                Harness.Runcore.at;
                machine = pick rng stormable;
                restart_at;
                recovery_threads = 0;
                recovery_ops = 0;
              })
      in
      { base with crashes; replicas = 2 }
    end
    else base
  in
  (* sampled after the base record so [Fault_free] draws nothing — see
     [sample_faults] *)
  { base with faults = sample_faults p rng base }

(* Fixed schedules: the crash regimes and fault envelopes of flit_run,
   cxl0_kv and bench/main.exe, one plan per seed.  Closed-loop and
   serving plans share their shapes; only the time constants differ, as
   a closed-loop run lasts a few dozen scheduler steps and a serving run
   ~total_ops/rate kilocycles.  The crash lands at step
   [crash_at + seed mod jitter] and restarts [outage] steps later; the
   degraded down window is [down_from, down_until) shifted by
   [seed mod 7 * down_step] cycles; poison fires at step
   [poison_at + seed mod 23]. *)
type timing = {
  crash_at : int; jitter : int; outage : int; recovery_ops : int;
  down_from : int; down_until : int; down_step : int; poison_at : int;
}

let closed_loop =
  { crash_at = 15; jitter = 17; outage = 7; recovery_ops = 2;
    down_from = 500; down_until = 2_500; down_step = 100; poison_at = 5 }

let serving =
  { crash_at = 400; jitter = 29; outage = 500; recovery_ops = 0;
    down_from = 2_000; down_until = 6_000; down_step = 200; poison_at = 150 }

let fixed_crashes tm ~crash seed : Harness.Runcore.crash_spec list =
  match crash with
  | None -> []
  | Some machine ->
      let at = tm.crash_at + (seed mod tm.jitter) in
      [ { Harness.Runcore.at; machine; restart_at = at + tm.outage;
          recovery_threads = 1; recovery_ops = tm.recovery_ops } ]

(* Faulted links run from worker machine 0 or 1 to [home]. *)
let fixed_faults tm ~faults ~home seed : Harness.Runcore.fault_spec list =
  match faults with
  | Fault_free -> []
  | Transient_only -> [ mild_degrade ~m1:(seed mod 2) ~m2:home ]
  | Degraded_env ->
      let shift = seed mod 7 * tm.down_step in
      [
        Harness.Runcore.Degrade_link
          { m1 = seed mod 2; m2 = home; nack_prob = 0.4; delay_prob = 0.3;
            delay_cycles = 80 };
        Harness.Runcore.Down_link
          { m1 = (seed + 1) mod 2; m2 = home; from_cycle = tm.down_from + shift;
            until_cycle = tm.down_until + shift };
      ]
  | Poison_env ->
      [ Harness.Runcore.Poison_at
          { at = tm.poison_at + (seed mod 23); loc_seed = seed } ]

let closed_loop_config kind transform ~crash ~faults seed =
  let c = Harness.Workload.default_config kind transform in
  { c with
    Harness.Workload.seed;
    crashes = fixed_crashes closed_loop ~crash seed;
    faults = fixed_faults closed_loop ~faults ~home:c.home seed }

(* Chaos storm: sequential crash/restart cycles rotating over the
   machines, spaced so each cycle sees serving traffic on both sides of
   the outage. *)
let storm_crashes ~storm ~machines seed : Harness.Runcore.crash_spec list =
  List.init storm (fun i ->
      let at = 150 + (i * 450) + (seed mod 13) in
      { Harness.Runcore.at; machine = i mod machines; restart_at = at + 200;
        recovery_threads = 0; recovery_ops = 0 })

let serving_env (e : Harness.Runcore.env) ~crash ~storm ~faults =
  { e with
    Harness.Runcore.crashes =
      fixed_crashes serving ~crash e.seed
      @ storm_crashes ~storm ~machines:e.n_machines e.seed;
    faults = fixed_faults serving ~faults ~home:e.home e.seed }
