(** Cooperative scheduler for programs on the simulated fabric.

    Threads are OCaml 5 effect-handler fibres.  Every memory primitive
    ({!Ops}) yields to the scheduler, which:

    - picks the next runnable thread pseudo-randomly (seeded, so every
      interleaving is reproducible);
    - may trigger a spontaneous cache eviction ({!Fabric.maybe_evict}) —
      the runtime counterpart of the formal model's τ-steps;
    - executes any crash-plan actions that are due.

    Crashing machine [i] wipes its fabric state and *kills* every thread
    running on it: their fibres are dropped and never resumed, leaving any
    in-flight high-level operation pending — exactly the paper's failure
    model (§3.1: "the local state of any thread or process currently
    executing on it is lost", §4.2: replacement processes get fresh
    identifiers).  Recovery code (spawning replacement threads) is
    expressed as a crash-plan callback.

    The run loop is allocation-free in steady state (DESIGN.md decision
    12): tasks live in a flat array compacted in place (stable, so the
    seeded selection draw sees live tasks in spawn order — exactly the
    set the list-based loop saw), the crash-plan is an array scanned in
    registration order, and crashed machines are an int bitmask.  Only a
    suspension allocates (the fresh continuation's one-word wrapper); a
    failed {!wait} poll allocates nothing, and dead tasks are compacted
    only after one has died. *)

type ctx = {
  sched : t;
  fab : Fabric.t;
  machine : int;  (** machine this thread runs on *)
  tid : int;      (** globally unique thread id (never reused) *)
}

(* A task's state, which is also what its fibre hands back when it
   stops: run the fibre from the start, continue a suspended
   continuation, poll a waiting one (continuing it only once its poll
   holds), or nothing — a finished fibre returns [Dead], and
   finished/killed tasks stay [Dead] until the next in-place compaction
   drops them. *)
and tstate =
  | Start of (unit -> tstate)
  | Cont of (unit, tstate) Effect.Deep.continuation
  | Poll of (unit -> bool) * (unit, tstate) Effect.Deep.continuation
  | Dead

and task = {
  task_tid : int;
  task_machine : int;
  name : string;
  mutable state : tstate;
}

and action =
  | Crash of int  (** crash machine [i] (fabric wipe + thread kill) *)
  | Call of (t -> unit)  (** arbitrary hook, e.g. recovery spawning *)

(* Plan entries are never removed, only marked done: the array scan in
   registration order reproduces the list-partition semantics (entries
   appended by a running action have index past the captured length, so
   they run on the next call — as the partitioned-off list did). *)
and plan_entry = {
  pstep : int;
  paction : action;
  mutable pdone : bool;
}

and t = {
  fabric : Fabric.t;
  mutable tasks : task array;  (** [0, n_tasks) in spawn order *)
  mutable n_tasks : int;
  mutable n_dead : int;
      (** tasks that died since the last compaction; the run loop
          compacts only when it is non-zero *)
  mutable next_tid : int;
  mutable step : int;          (** scheduling decisions taken so far *)
  mutable plan : plan_entry array;
  mutable n_plan : int;
  mutable plan_pending : int;  (** entries not yet run *)
  rng : Random.State.t;
  retry_rng : Random.State.t;
      (** dedicated stream for {!Ops} retry-backoff jitter, derived from
          the same seed — drawing jitter must not perturb the
          interleaving stream *)
  mutable crashed : int;       (** bitmask of machines currently down *)
  crash_epochs : int array;
      (** per-machine crash counter; lets failure detectors distinguish
          "still the machine I validated" from "crashed and restarted
          while I wasn't looking" without observing the down window *)
  retry_cycles : (int, int) Hashtbl.t;
      (** per-tid cumulative retry-backoff cycles; written only by the
          {!Ops} retry engine's *traced* arm (untraced runs never touch
          it), read by span phase marks to attribute retry time *)
}

type _ Effect.t +=
  | Yield : unit Effect.t
  | Wait : (unit -> bool) -> unit Effect.t

let dummy_task = { task_tid = -1; task_machine = 0; name = ""; state = Dead }
let dummy_entry = { pstep = 0; paction = Crash 0; pdone = true }

let create ?(seed = 42) fabric =
  {
    fabric;
    tasks = Array.make 8 dummy_task;
    n_tasks = 0;
    n_dead = 0;
    next_tid = 0;
    step = 0;
    plan = Array.make 4 dummy_entry;
    n_plan = 0;
    plan_pending = 0;
    rng = Random.State.make [| seed |];
    retry_rng = Random.State.make [| seed; 0x4e7431 |];
    crashed = 0;
    crash_epochs = Array.make (Fabric.n_machines fabric) 0;
    retry_cycles = Hashtbl.create 16;
  }

let fabric t = t.fabric

let push_task t task =
  if t.n_tasks = Array.length t.tasks then begin
    let bigger = Array.make (2 * t.n_tasks) dummy_task in
    Array.blit t.tasks 0 bigger 0 t.n_tasks;
    t.tasks <- bigger
  end;
  t.tasks.(t.n_tasks) <- task;
  t.n_tasks <- t.n_tasks + 1

(** [at_step t n action] schedules [action] to run when the scheduler has
    taken [n] scheduling decisions.  Actions at the same step run in
    registration order. *)
let at_step t n action =
  if t.n_plan = Array.length t.plan then begin
    let bigger = Array.make (2 * t.n_plan) dummy_entry in
    Array.blit t.plan 0 bigger 0 t.n_plan;
    t.plan <- bigger
  end;
  t.plan.(t.n_plan) <- { pstep = n; paction = action; pdone = false };
  t.n_plan <- t.n_plan + 1;
  t.plan_pending <- t.plan_pending + 1

let machine_is_up t i = t.crashed land (1 lsl i) = 0

(** [crash_epoch t i] — how many times machine [i] has crashed so far.
    Monotone; incremented by {!crash_now} before the fabric wipe, so any
    state validated under an older epoch is known to predate the wipe. *)
let crash_epoch t i = t.crash_epochs.(i)

(** [restart t i] marks a crashed machine as recovered, allowing new
    threads to be spawned on it.  Its fabric state was already wiped at
    crash time; non-volatile memory contents survived. *)
let restart t i =
  t.crashed <- t.crashed land lnot (1 lsl i);
  match Fabric.tracer t.fabric with
  | None -> ()
  | Some tr ->
      Obs.Tracer.emit tr
        (Obs.Event.Restart
           { machine = i; cycle = Fabric.cycles t.fabric; step = t.step })

(* Wrap a thread body as an effect-handled fibre. *)
let fiber (body : unit -> unit) : unit -> tstate =
 fun () ->
  Effect.Deep.match_with body ()
    {
      retc = (fun () -> Dead);
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Yield ->
              Some (fun (k : (a, tstate) Effect.Deep.continuation) -> Cont k)
          | Wait p ->
              Some
                (fun (k : (a, tstate) Effect.Deep.continuation) -> Poll (p, k))
          | _ -> None);
    }

(** [spawn t ~machine ~name body] creates a thread on [machine]; it will
    start running at some future scheduling decision.  Raises if the
    machine is currently crashed. *)
let spawn t ~machine ~name (body : ctx -> unit) =
  if machine < 0 || machine >= Fabric.n_machines t.fabric then
    invalid_arg "Sched.spawn: bad machine";
  if not (machine_is_up t machine) then
    invalid_arg
      (Printf.sprintf "Sched.spawn: machine %d is crashed" machine);
  let tid = t.next_tid in
  t.next_tid <- tid + 1;
  let ctx = { sched = t; fab = t.fabric; machine; tid } in
  push_task t
    {
      task_tid = tid;
      task_machine = machine;
      name;
      state = Start (fiber (fun () -> body ctx));
    };
  tid

(** [yield ctx] — a scheduling point; every {!Ops} primitive calls this. *)
let yield _ctx = Effect.perform Yield

(** [wait ctx p] — [yield; while not (p ()) do yield done], with the
    polling done by the scheduler: every failed poll is still a full
    scheduling decision, but the fibre is resumed (and a continuation
    captured) only once.  [p] must be exactly what the fibre would
    compute between resuming and its next yield, with no fabric access
    and no side effect on the simulation. *)
let wait _ctx p = Effect.perform (Wait p)

(** [jitter ctx n] — a retry-backoff jitter draw in [\[0, max 1 n)], from
    the scheduler's dedicated retry stream (seeded alongside the
    interleaving stream but independent of it). *)
let jitter ctx n = Random.State.int ctx.sched.retry_rng (max 1 n)

(** [note_retry_cycles ctx n] — account [n] retry-backoff cycles to this
    fibre.  Called only from the {!Ops} retry engine's traced arm, so an
    untraced run never allocates in the table. *)
let note_retry_cycles ctx n =
  let tbl = ctx.sched.retry_cycles in
  Hashtbl.replace tbl ctx.tid
    (n + Option.value ~default:0 (Hashtbl.find_opt tbl ctx.tid))

(** [retry_cycles t tid] — cumulative retry-backoff cycles charged by
    fibre [tid] so far (0 when untraced: the table is never written). *)
let retry_cycles t tid =
  Option.value ~default:0 (Hashtbl.find_opt t.retry_cycles tid)

(** [crash_now t i] — immediately crash machine [i]: wipe its fabric
    state and kill its threads (their fibres are dropped). *)
let crash_now t i =
  t.crash_epochs.(i) <- t.crash_epochs.(i) + 1;
  Fabric.crash t.fabric i;
  t.crashed <- t.crashed lor (1 lsl i);
  for k = 0 to t.n_tasks - 1 do
    let task = t.tasks.(k) in
    if task.task_machine = i then
      match task.state with
      | Dead -> ()
      | Start _ | Cont _ | Poll _ ->
          task.state <- Dead;
          t.n_dead <- t.n_dead + 1
  done

let run_action t = function
  | Crash i -> crash_now t i
  | Call f -> f t

(* Run every plan action due at or before the current step, in
   registration order.  Entries appended by a running action land past
   the captured length and run on the next call. *)
let run_due_actions t =
  if t.plan_pending > 0 then begin
    let len = t.n_plan in
    for k = 0 to len - 1 do
      let e = t.plan.(k) in
      if (not e.pdone) && e.pstep <= t.step then begin
        e.pdone <- true;
        t.plan_pending <- t.plan_pending - 1;
        run_action t e.paction
      end
    done
  end

(* Drop dead tasks, in place and stably: live tasks keep their spawn
   order, so the selection draw below indexes the same set the
   list-based filter produced. *)
let prune_dead t =
  t.n_dead <- 0;
  let w = ref 0 in
  for r = 0 to t.n_tasks - 1 do
    let task = t.tasks.(r) in
    match task.state with
    | Dead -> ()
    | Start _ | Cont _ | Poll _ ->
        if !w <> r then t.tasks.(!w) <- task;
        incr w
  done;
  for k = !w to t.n_tasks - 1 do
    t.tasks.(k) <- dummy_task (* don't retain dead fibres *)
  done;
  t.n_tasks <- !w

(** [run t] — schedule until no runnable threads remain and no plan
    actions are pending.  Returns the number of scheduling decisions
    taken. *)
let run t =
  let rec loop () =
    run_due_actions t;
    if t.n_dead > 0 then prune_dead t;
    if t.n_tasks = 0 then
      if t.plan_pending = 0 then t.step
      else begin
        (* idle until the next planned action *)
        let next = ref max_int in
        for k = 0 to t.n_plan - 1 do
          let e = t.plan.(k) in
          if (not e.pdone) && e.pstep < !next then next := e.pstep
        done;
        t.step <- max t.step !next;
        loop ()
      end
    else begin
      t.step <- t.step + 1;
      Fabric.maybe_evict t.fabric;
      let chosen = t.tasks.(Random.State.int t.rng t.n_tasks) in
      (match Fabric.tracer t.fabric with
      | None -> ()
      | Some tr ->
          (* every event emitted until the next switch belongs to this
             thread — the exporters attribute tracks this way *)
          Obs.Tracer.emit tr
            (Obs.Event.Switch
               {
                 step = t.step;
                 tid = chosen.task_tid;
                 machine = chosen.task_machine;
                 cycle = Fabric.cycles t.fabric;
               }));
      (match chosen.state with
      | Poll (p, _) when not (p ()) -> () (* still waiting: stays queued *)
      | st -> (
          chosen.state <- Dead;
          match
            match st with
            | Start f -> f ()
            | Cont k | Poll (_, k) -> Effect.Deep.continue k ()
            | Dead -> Dead (* unreachable: pruned above *)
          with
          | Dead -> t.n_dead <- t.n_dead + 1
          | next ->
              (* The task's machine may have crashed while it ran (a
                 thread can call {!crash_now} directly); if so the task
                 is already marked dead — drop the continuation. *)
              if machine_is_up t chosen.task_machine then chosen.state <- next
              else t.n_dead <- t.n_dead + 1));
      loop ()
    end
  in
  loop ()

(** [alive t] — number of runnable threads. *)
let alive t =
  let n = ref 0 in
  for k = 0 to t.n_tasks - 1 do
    match t.tasks.(k).state with
    | Dead -> ()
    | Start _ | Cont _ | Poll _ -> incr n
  done;
  !n
