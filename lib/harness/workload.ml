(** Closed-loop concurrent workload runner with crash injection and
    history recording (experiments E6/E7).

    A run builds a fabric, creates one transformed object, spawns worker
    threads that perform random operations on it (each invocation and
    response recorded), executes a crash plan (crash events recorded;
    threads on crashed machines die mid-operation, leaving pending
    invocations), optionally restarts machines and spawns recovery
    workers, and finally returns the recorded {!Lincheck.History.t} for
    the durability checker.

    The run is fully deterministic in [seed] (scheduling, operation
    choice, spontaneous evictions).

    This module is the *traffic shape* — "n workers × k random ops on one
    object" — layered over the generic run machinery in {!Runcore}
    (fabric construction, crash-plan and fault-plan wiring), which the
    open-loop serving engine ({!Kv.serve}) shares.  The split is
    behaviour-preserving: crash and fault plans are {!Runcore}'s own
    types, every seed-derivation formula is unchanged, and the corpus
    replay gate pins byte-identical histories. *)

type config = {
  kind : Objects.kind;
  transform : Flit.Flit_intf.t;
  n_machines : int;
  home : int;                (** machine hosting the object's memory *)
  volatile_home : bool;      (** whether [home]'s memory is volatile *)
  worker_machines : int list;  (** machine of each initial worker *)
  ops_per_thread : int;
  crashes : Runcore.crash_spec list;
  faults : Runcore.fault_spec list;
      (** [] = no fault plan: byte-identical runs *)
  seed : int;
  evict_prob : float;
  cache_capacity : int;
  value_range : int;         (** operation payloads drawn from [1, range] *)
  pflag : bool;
  replicas : int;            (** Kv shard replicas; 1 = unreplicated *)
}

let default_config kind transform =
  {
    kind;
    transform;
    n_machines = 3;
    home = 2;
    volatile_home = false;
    worker_machines = [ 0; 1 ];
    ops_per_thread = 3;
    crashes = [];
    faults = [];
    seed = 1;
    evict_prob = 0.15;
    cache_capacity = 4;
    value_range = 3;
    pflag = true;
    replicas = 1;
  }

(** The {!Runcore.env} slice of a config — everything but the traffic
    shape (object kind, transform, workers, op counts, value range). *)
let env_of_config (c : config) : Runcore.env =
  {
    Runcore.n_machines = c.n_machines;
    home = c.home;
    volatile_home = c.volatile_home;
    crashes = c.crashes;
    faults = c.faults;
    seed = c.seed;
    evict_prob = c.evict_prob;
    cache_capacity = c.cache_capacity;
  }

(** [describe c] — a one-line summary used as verdict provenance (the
    corpus file carries the full config; this is the human-readable
    pointer attached to every verdict). *)
let describe (c : config) =
  Printf.sprintf "%s/%s seed=%d machines=%d%s workers=%d ops=%d crashes=%d%s"
    (Objects.kind_name c.kind)
    (Flit.Flit_intf.name c.transform)
    c.seed c.n_machines
    (if c.volatile_home then " volatile-home" else "")
    (List.length c.worker_machines)
    c.ops_per_thread
    (List.length c.crashes)
    (* appended only when present, so fault-free provenance strings —
       and therefore every blessed corpus verdict — are unchanged *)
    ((if c.faults = [] then ""
      else Printf.sprintf " faults=%d" (List.length c.faults))
    ^
    if c.replicas <= 1 then ""
    else Printf.sprintf " replicas=%d" c.replicas)

(** Per-phase {!Fabric.Stats.diff}s of one run: [setup] covers fabric
    traffic up to the object's creation, [measured] the worker operations
    until the first crash (or the end, crash-free), [recovery] everything
    after the first crash — where degraded-mode runs show their retries
    and fallbacks landing. *)
type phases = {
  setup : Fabric.Stats.t;
  measured : Fabric.Stats.t;
  recovery : Fabric.Stats.t;
}

type result = {
  history : Lincheck.History.t;
  stats : Fabric.Stats.t;  (** snapshot after the run *)
  phases : phases;
}

(* The body shared by initial and recovery workers: [ops] recorded random
   operations.  A broken transformation (the noflush control) can leave
   the object structurally corrupt after a crash — e.g. a recovered queue
   head reading as null; surface that as a typed [Corrupt] response so
   the durability checker reports the violation instead of the harness
   dying. *)
let worker (c : config) ~record ~ops ~rng_seed (instance : Objects.instance)
    ctx =
  let rng = Random.State.make [| rng_seed |] in
  for _ = 1 to ops do
    let op = Objects.random_op ~range:c.value_range c.kind rng in
    record (Lincheck.History.Inv { tid = ctx.Runtime.Sched.tid; op });
    let ret =
      try Lincheck.History.Ret (instance.Objects.apply ctx op)
      with
      | Invalid_argument _ -> Lincheck.History.Corrupt
      | Runtime.Ops.Fault _ ->
          (* a fault survived the retry policy mid-operation: the op may
             have taken partial effect — record the typed abort, which
             the checkers treat as a pending invocation *)
          Lincheck.History.Faulted
      | Kv.Unavailable ->
          (* a replicated KV op exhausted its deadline with no trusted
             replica set: it may have reached a backup, so it is pending
             exactly like a faulted op *)
          Lincheck.History.Faulted
    in
    record (Lincheck.History.Res { tid = ctx.Runtime.Sched.tid; ret })
  done

(** [install_crash_plan sched c env ~record ~instance] — register [c]'s
    crash plan on [sched] via {!Runcore.install_crash_plan}; the recovery hook
    spawns [recovery_threads] recovery workers of [recovery_ops]
    operations each — provided the object existed by then
    ([instance () = None] means the init thread died before creation
    finished, so there is nothing to recover). *)
let install_crash_plan sched (c : config) env ~record
    ~(instance : unit -> Objects.instance option) =
  Runcore.install_crash_plan sched env ~record
    ~recovery:(fun ~ci spec s ->
      match instance () with
      | None -> () (* crashed before creation finished *)
      | Some inst ->
          for r = 0 to spec.recovery_threads - 1 do
            ignore
              (Runtime.Sched.spawn s ~machine:spec.machine
                 ~name:(Printf.sprintf "r%d.%d" ci r)
                 (worker c ~record ~ops:spec.recovery_ops
                    ~rng_seed:((c.seed * 733) + (100 * ci) + r)
                    inst))
          done)

(* Eager for the same reason as [Fabric.default_names]: campaign workers
   on several domains share it. *)
let worker_names = Array.init 16 (fun i -> Printf.sprintf "w%d" i)

let worker_name i =
  if i < 16 then worker_names.(i) else Printf.sprintf "w%d" i

let run ?tracer (c : config) : result =
  let env = env_of_config c in
  let fab = Runcore.build_fabric ?tracer env in
  (* the transformation instance is minted once per run and closed over
     by the object's dispatch closures — its auxiliary state (FliT
     counters, dirty sets) survives machine crashes because the run
     outlives them, and dies with the run (instance creation is pure, so
     its placement here cannot perturb the deterministic schedule) *)
  let flit = Flit.Flit_intf.instantiate c.transform fab in
  let sched = Runtime.Sched.create ~seed:(c.seed * 7919 + 1) fab in
  let events = ref [] in
  (* phase boundaries: a snapshot once the object exists (end of setup)
     and one at the first crash (start of recovery).  Snapshots are pure
     copies — no fabric traffic, no scheduling point — so recording them
     cannot perturb the deterministic schedule. *)
  let setup_snap = ref None in
  let crash_snap = ref None in
  let record e =
    (match e with
    | Lincheck.History.Crash _
      when !setup_snap <> None && !crash_snap = None ->
        crash_snap := Some (Fabric.Stats.copy (Fabric.stats fab))
    | _ -> ());
    events := e :: !events
  in
  (* the init thread creates the object, then spawns the workers; a
     worker whose machine is down at spawn time (a crash plan can fell a
     machine before the init thread runs) is skipped — the machine has no
     one to start it.  Worker names come from a static table (the
     fuzzer's cells spawn at most a handful) so per-run spawning formats
     nothing. *)
  let instance_ref = ref None in
  let _init =
    Runtime.Sched.spawn sched ~machine:c.home ~name:"init" (fun ctx ->
        match
          Objects.create c.kind flit ~replicas:c.replicas ctx ~home:c.home
            ~pflag:c.pflag
        with
        | exception Runtime.Ops.Fault _ ->
            (* object creation itself hit a persistent fault (e.g. an
               early poison landed on a line creation reads): no object,
               no workers — the empty history is trivially durable *)
            ()
        | instance ->
            instance_ref := Some instance;
            setup_snap := Some (Fabric.Stats.copy (Fabric.stats fab));
            List.iteri
              (fun i machine ->
                if Runtime.Sched.machine_is_up sched machine then
                  ignore
                    (Runtime.Sched.spawn sched ~machine ~name:(worker_name i)
                       (worker c ~record ~ops:c.ops_per_thread
                          ~rng_seed:((c.seed * 131) + i)
                          instance)))
              c.worker_machines)
  in
  install_crash_plan sched c env ~record ~instance:(fun () -> !instance_ref);
  Runcore.install_fault_plan sched env;
  ignore (Runtime.Sched.run sched);
  let final = Fabric.Stats.copy (Fabric.stats fab) in
  (* creation never finished -> the whole run was setup; no crash (or a
     crash before creation) -> no recovery phase *)
  let setup_end = Option.value !setup_snap ~default:final in
  let recovery_start = Option.value !crash_snap ~default:final in
  let phases =
    {
      setup = setup_end;
      measured = Fabric.Stats.diff recovery_start setup_end;
      recovery = Fabric.Stats.diff final recovery_start;
    }
  in
  { history = List.rev !events; stats = final; phases }

(** [check c] — run the workload and decide durable linearizability of the
    recorded history; the verdict carries [describe c] as provenance. *)
let check ?tracer (c : config) : Lincheck.Durable.verdict =
  let r = run ?tracer c in
  Lincheck.Durable.check ~provenance:(describe c) (Objects.spec c.kind)
    r.history
