(** Cooperative scheduler for programs on the simulated fabric.

    Threads are OCaml 5 effect-handler fibres.  Every memory primitive
    ({!Ops}) yields to the scheduler, which:

    - picks the next runnable thread pseudo-randomly (seeded, so every
      interleaving is reproducible);
    - may trigger a spontaneous cache eviction ({!Fabric.maybe_evict}) —
      the runtime counterpart of the formal model's τ-steps;
    - executes any crash-plan actions that are due.

    A waiting thread ({!wait}) whose poll failed is *parked*: it leaves
    the selection draw, and its poll runs again only after a decision
    that resumed a fibre or ran a plan action, since nothing else
    changes what a poll reads.  The decisions a uniform draw over all
    live tasks would have spent on parked ones are taken in one
    geometric draw, with their eviction chances in one
    {!Fabric.maybe_evict_n}: the run keeps its law (step counts,
    evictions, where step-indexed plans land) but not its per-seed
    realisation.  With no waiting thread the draws are exactly those of
    one uniform pick per decision.  When every thread waits, only a plan
    action can change a poll: the run idles to the next plan step, and
    raises if none is pending.

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
    registration order (the earliest pending step is cached), and
    crashed machines are an int bitmask.  A failed {!wait} poll
    allocates nothing, and dead tasks are compacted only after one has
    died.

    A {!yield} takes the next decision itself, inside the fibre, in the
    run loop's exact order (wake the polls, compact, draw).  When the
    draw picks the calling fibre it returns in place: no effect, no
    continuation, no allocation.  Only a handoff to another task (or a
    fallback to a plain suspension) performs an effect and allocates:
    the continuation and its one-word wrapper.  A handoff's decision
    rides in the scheduler ([picked]), not in the effect. *)

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
   drops them.  The one task whose fibre is executing is [Running]:
   compaction keeps it, since its inline {!yield}s draw over it. *)
and tstate =
  | Start of (unit -> tstate)
  | Cont of (unit, tstate) Effect.Deep.continuation
  | Poll of (unit -> bool) * (unit, tstate) Effect.Deep.continuation
  | Running
  | Dead

and task = {
  task_tid : int;
  task_machine : int;
  name : string;
  mutable state : tstate;
  mutable parked : bool;
      (** a [Poll] task whose poll failed when last run; it is out of
          the selection draw *)
}

(* What a fibre's {!yield} leaves for the run loop: nothing (the loop
   takes the next decision itself), a decision already taken — the task
   it picked, held in [picked] so that a handoff allocates nothing of
   its own, or [dummy_task] when the idle skip stopped at a plan step —
   or the exception a poll raised while the fibre woke the polls. *)
and handoff =
  | Draw
  | Picked
  | Raised of exn

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
  mutable next_plan : int;
      (** earliest step of an entry not yet run ([max_int] if none) *)
  mutable n_polls : int;  (** tasks in state [Poll] *)
  mutable n_parked : int;  (** parked tasks *)
  mutable running : int;
      (** tid of the task whose fibre is executing (-1 between
          fibres) *)
  mutable handoff : handoff;
  mutable picked : task;  (** the decision a [Picked] handoff carries *)
  mutable inline_yields : int;  (** yields that returned in place *)
  mutable skip_key : int;  (** [(u, n)] of the cached [skip_log] *)
  mutable skip_log : float;  (** [log (1 - u/n)] *)
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

let dummy_task =
  { task_tid = -1; task_machine = 0; name = ""; state = Dead; parked = false }
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
    next_plan = max_int;
    n_polls = 0;
    n_parked = 0;
    running = -1;
    handoff = Draw;
    picked = dummy_task;
    inline_yields = 0;
    skip_key = 0;
    skip_log = 0.0;
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
  t.next_plan <- min t.next_plan n

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

(* The [Yield] arm's answer, built once: a [Some] built in the arm
   allocated on every suspension. *)
let suspend : ((unit, tstate) Effect.Deep.continuation -> tstate) option =
  Some (fun k -> Cont k)

(* One handler serves every fibre: a suspension carries nothing but its
   continuation (a handoff's decision is already in the scheduler's
   [handoff] and [picked]). *)
let handler : (unit, tstate) Effect.Deep.handler =
  {
    retc = (fun () -> Dead);
    exnc = raise;
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Yield ->
            (suspend : ((a, tstate) Effect.Deep.continuation -> tstate) option)
        | Wait p ->
            Some
              (fun (k : (a, tstate) Effect.Deep.continuation) -> Poll (p, k))
        | _ -> None);
  }

(* Wrap a thread body as an effect-handled fibre. *)
let fiber (body : unit -> unit) () = Effect.Deep.match_with body () handler

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
      parked = false;
    };
  tid

(** [wait ctx p] — [yield; while not (p ()) do yield done] in law, with
    the polling done by the scheduler: the fibre is resumed (and a
    continuation captured) only once, and a failed poll parks the task
    until a fibre resumes or a plan action runs.  [p] must be exactly
    what the fibre would compute between resuming and its next yield,
    with no fabric access and no side effect on the simulation, and may
    read only state that a resumed fibre or a plan action changes. *)
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

(* No task's poll: the "poll run just before" at the start of a wake. *)
let no_poll () = false

(* After a decision that resumed a fibre or ran a plan action, run
   every poll once: a task is parked until its poll holds.  Until the
   next such decision nothing a poll reads changes, so an unparked
   waiting task is resumed when picked without polling again.  Within
   one wake nothing changes between two polls either (a poll has no
   side effect on the simulation), so a poll physically equal to the
   one run just before it is not run again: its result is reused. *)
let wake t =
  if t.n_polls > 0 then begin
    t.n_parked <- 0;
    let last = ref no_poll and held = ref false in
    for k = 0 to t.n_tasks - 1 do
      let task = t.tasks.(k) in
      match task.state with
      | Poll (p, _) ->
          if p != !last then begin
            last := p;
            held := p ()
          end;
          task.parked <- not !held;
          if task.parked then t.n_parked <- t.n_parked + 1
      | Start _ | Cont _ | Running | Dead -> ()
    done
  end

(* [task] leaves state [Poll]. *)
let unpoll t task =
  t.n_polls <- t.n_polls - 1;
  if task.parked then begin
    task.parked <- false;
    t.n_parked <- t.n_parked - 1
  end

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
      | Dead | Running -> () (* the fibre's next stop drops it *)
      | Poll _ ->
          unpoll t task;
          task.state <- Dead;
          t.n_dead <- t.n_dead + 1
      | Start _ | Cont _ ->
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
  if t.step >= t.next_plan then begin
    let len = t.n_plan in
    for k = 0 to len - 1 do
      let e = t.plan.(k) in
      if (not e.pdone) && e.pstep <= t.step then begin
        e.pdone <- true;
        run_action t e.paction
      end
    done;
    let next = ref max_int in
    for k = 0 to t.n_plan - 1 do
      let e = t.plan.(k) in
      if (not e.pdone) && e.pstep < !next then next := e.pstep
    done;
    t.next_plan <- !next;
    wake t
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
    | Start _ | Cont _ | Poll _ | Running ->
        if !w <> r then t.tasks.(!w) <- task;
        incr w
  done;
  for k = !w to t.n_tasks - 1 do
    t.tasks.(k) <- dummy_task (* don't retain dead fibres *)
  done;
  t.n_tasks <- !w

(* The traced switch to [task]: every event emitted until the next
   switch belongs to this thread (the exporters attribute tracks this
   way). *)
let switch t task =
  match Fabric.tracer t.fabric with
  | None -> ()
  | Some tr ->
      Obs.Tracer.emit tr
        (Obs.Event.Switch
           {
             step = t.step;
             tid = task.task_tid;
             machine = task.task_machine;
             cycle = Fabric.cycles t.fabric;
           })

(* Resume [task] from state [st] until its fibre stops, then run every
   poll again ({!wake}) — unless the fibre handed off a decision, whose
   inline {!yield} has woken the polls already. *)
let resume t task st =
  switch t task;
  task.state <- Running;
  t.running <- task.task_tid;
  (match
     match st with
     | Start f -> f ()
     | Cont k -> Effect.Deep.continue k ()
     | Poll (_, k) ->
         unpoll t task;
         Effect.Deep.continue k ()
     | Running | Dead -> Dead (* unreachable: pruned before the pick *)
   with
  | exception e ->
      (* the fibre raised: the exception escapes {!run}, and no fibre is
         left running to take an inline decision *)
      task.state <- Dead;
      t.running <- -1;
      raise e
  | Dead ->
      task.state <- Dead;
      t.n_dead <- t.n_dead + 1
  | next ->
      (* The task's machine may have crashed while it ran (a thread can
         call {!crash_now} directly); if so drop the continuation. *)
      if machine_is_up t task.task_machine then begin
        task.state <- next;
        match next with
        | Poll _ -> t.n_polls <- t.n_polls + 1
        | Start _ | Cont _ | Running | Dead -> ()
      end
      else begin
        task.state <- Dead;
        t.n_dead <- t.n_dead + 1
      end);
  t.running <- -1;
  match t.handoff with Draw -> wake t | Picked | Raised _ -> ()

(* Carry out a decision: resume the task it picked (never a parked
   one), or nothing for [dummy_task] (the idle skip stopped at a plan
   step). *)
let dispatch t task = if task != dummy_task then resume t task task.state

(* The [j]-th unparked task, in spawn order (a loop, not a closure: the
   pick must not allocate). *)
let nth_unparked t j =
  let k = ref 0 and j = ref j in
  while
    t.tasks.(!k).parked
    ||
    (decr j;
     !j >= 0)
  do
    incr k
  done;
  t.tasks.(!k)

(* Decisions a uniform draw over [n] tasks takes before it first picks
   one of [u] (0 < u < n): geometric, by inversion of one uniform in
   (0, 1] made from 30 random bits (exact to 2^-30, and no boxed float).
   [log (1 - u/n)] is cached, since [(u, n)] rarely changes. *)
let idle_decisions t ~u ~n =
  let key = (u lsl 32) lor n in
  if t.skip_key <> key then begin
    t.skip_key <- key;
    t.skip_log <- Float.log1p (-.(float_of_int u /. float_of_int n))
  end;
  let uniform = float_of_int (Random.State.bits t.rng + 1) *. 0x1p-30 in
  int_of_float (Float.log uniform /. t.skip_log)

(* One decision's draw over the [n > 0] tasks: the task it picks, or
   [dummy_task] when the idle skip stopped at a plan step (the next
   decision runs the due action). *)
let draw t =
  let n = t.n_tasks in
  let u = n - t.n_parked in
  if u = n then begin
    (* one decision, uniform over every task *)
    t.step <- t.step + 1;
    Fabric.maybe_evict t.fabric;
    t.tasks.(Random.State.int t.rng n)
  end
  else begin
    (* The uniform draw would pick a parked task (whose poll fails
       again) a geometric number of times, success [u/n], before it
       picks one of the [u] others — forever when [u = 0], since only
       a plan action can then change what a poll reads; take those idle
       decisions at once, stopping after the decision a pending plan
       action follows. *)
    if u = 0 && t.next_plan = max_int then
      failwith "Sched.run: every task waits and no plan action is pending";
    let stop = max t.next_plan (t.step + 1) in
    let idle = if u = 0 then stop - t.step else idle_decisions t ~u ~n in
    if t.step + idle >= stop then begin
      Fabric.maybe_evict_n t.fabric (stop - t.step);
      t.step <- stop;
      dummy_task
    end
    else begin
      Fabric.maybe_evict_n t.fabric (idle + 1);
      t.step <- t.step + idle + 1;
      nth_unparked t (if u = 1 then 0 else Random.State.int t.rng u)
    end
  end

(** [yield ctx] — a scheduling point; every {!Ops} primitive calls this.
    The calling fibre takes the decision the run loop would take next,
    in its order: the wake that follows a resumed fibre, the compaction,
    the draw.  If the draw picks this fibre again it continues in place;
    otherwise it hands the decision to the run loop, which carries it
    out without waking or drawing again.  A poll's exception rides the
    handoff out of {!run}.  A due plan action, the fibre's machine being
    down, or [ctx] not being the running fibre's own suspends it plainly
    before anything is drawn, and {!run} decides as it always did. *)
let yield ctx =
  let t = ctx.sched in
  if
    t.running <> ctx.tid
    || t.step >= t.next_plan
    || not (machine_is_up t ctx.machine)
  then Effect.perform Yield
  else
    match
      wake t;
      if t.n_dead > 0 then prune_dead t;
      draw t
    with
    | exception e ->
        t.handoff <- Raised e;
        Effect.perform Yield
    | task when task.task_tid = ctx.tid ->
        switch t task;
        t.inline_yields <- t.inline_yields + 1
    | task ->
        t.picked <- task;
        t.handoff <- Picked;
        Effect.perform Yield

(** [run t] — schedule until no runnable threads remain and no plan
    actions are pending.  Returns the number of scheduling decisions
    taken. *)
let run t =
  let rec loop () =
    match t.handoff with
    | Raised e ->
        t.handoff <- Draw;
        raise e
    | Picked ->
        t.handoff <- Draw;
        dispatch t t.picked;
        loop ()
    | Draw ->
        run_due_actions t;
        if t.n_dead > 0 then prune_dead t;
        if t.n_tasks = 0 then
          if t.next_plan = max_int then t.step
          else begin
            (* idle until the next planned action *)
            t.step <- max t.step t.next_plan;
            loop ()
          end
        else begin
          dispatch t (draw t);
          loop ()
        end
  in
  loop ()

let inline_yields t = t.inline_yields

(** [alive t] — number of runnable threads, not counting the one whose
    fibre calls it. *)
let alive t =
  let n = ref 0 in
  for k = 0 to t.n_tasks - 1 do
    match t.tasks.(k).state with
    | Running | Dead -> ()
    | Start _ | Cont _ | Poll _ -> incr n
  done;
  !n
