(** Cooperative scheduler for programs on the simulated fabric.

    Threads are OCaml 5 effect-handler fibres; every {!Ops} primitive
    yields, so the (seeded, reproducible) scheduler chooses an
    interleaving at primitive granularity and may trigger spontaneous
    evictions between steps.  Crashing a machine wipes its fabric state
    and kills its threads mid-operation — the paper's failure model;
    recovery code is expressed as crash-plan callbacks. *)

type ctx = private {
  sched : t;
  fab : Fabric.t;
  machine : int;  (** machine this thread runs on *)
  tid : int;      (** globally unique thread id (never reused) *)
}

and action =
  | Crash of int          (** crash machine [i] *)
  | Call of (t -> unit)   (** arbitrary hook, e.g. recovery spawning *)

and t

val create : ?seed:int -> Fabric.t -> t

val fabric : t -> Fabric.t

val at_step : t -> int -> action -> unit
(** Schedule an action for when the scheduler has taken [n] decisions;
    same-step actions run in registration order.  Actions due beyond the
    last runnable step still fire. *)

val machine_is_up : t -> int -> bool

val crash_epoch : t -> int -> int
(** [crash_epoch t i] — how many times machine [i] has crashed so far
    (monotone, bumped by {!crash_now} before the fabric wipe).  A
    failure detector that records the epoch when it validates a
    machine's state can later tell "still valid" from "crashed and
    restarted unobserved" — the down window itself need never be
    witnessed. *)

val restart : t -> int -> unit
(** Mark a crashed machine recovered (its non-volatile memory contents
    survived; everything else was wiped at crash time). *)

val spawn : t -> machine:int -> name:string -> (ctx -> unit) -> int
(** Create a thread; it starts at some future scheduling decision.
    Returns its tid.  Raises if the machine is currently crashed. *)

val yield : ctx -> unit
(** A scheduling point; every memory primitive calls this.  The calling
    fibre takes the decision {!run} would take next, with the same draws
    in the same order (wake the parked polls, compact, draw).  If the draw
    picks the caller, [yield] emits the traced [Switch] and returns in
    place, with no effect performed and nothing allocated; otherwise the
    fibre suspends and hands the decision to {!run}, which carries it out
    without waking or drawing again.  The caller suspends plainly, before
    any draw, when a plan action is due, when its machine is down, or
    when [ctx] is not the running fibre's own; outside a fibre that
    raises [Effect.Unhandled] and draws nothing.  An exception from a poll
    run by the caller's wake escapes {!run}; the caller never sees it. *)

val inline_yields : t -> int
(** Yields so far that returned in place (the draw picked the caller);
    every other {!yield} suspended its fibre. *)

val wait : ctx -> (unit -> bool) -> unit
(** [wait ctx p] equals [yield ctx; while not (p ()) do yield ctx done]
    in law, not per seed.  The scheduler runs the poll itself and
    resumes the fibre only once [p ()] holds.  A task whose poll failed
    is parked, out of the selection draw; after every decision that
    resumed a fibre or ran a plan action each parked poll runs once
    more.  The decisions a uniform draw would have spent on parked
    tasks still count — in step numbers, eviction chances and where
    plan actions land — but are taken in one geometric draw and traced
    as a step jump, with no [Switch].  When every task waits, the run
    idles to the next plan step (see {!run}).

    Contract: [p] is exactly what the fibre would compute between
    resuming and its next yield.  It makes no fabric access (reading the
    clock is fine; a primitive, a charge or a scheduler call is not),
    has no side effect on the simulation, and reads only state that a
    resumed fibre or a plan action changes.  It may update state private
    to the waiting fibre, but runs at most once per wake, not once per
    decision.  Waiters may share one closure: within a wake, a poll
    physically equal to the one run just before it (the previous waiting
    task in spawn order) is not run again, and its result goes to every
    task that holds it.  By the contract nothing a poll reads changes
    between the two, so this is exact; a poll whose result depends on
    which fibre runs it must be a closure of its own per fibre.
    An exception from [p] escapes {!run}. *)

val jitter : ctx -> int -> int
(** [jitter ctx n] — a retry-backoff jitter draw in [\[0, max 1 n)] from
    a dedicated stream derived from the sched seed; drawing it never
    perturbs the interleaving stream. *)

val note_retry_cycles : ctx -> int -> unit
(** Account retry-backoff cycles to the calling fibre.  Called only from
    the {!Ops} retry engine's traced arm — untraced runs never write the
    underlying table. *)

val retry_cycles : t -> int -> int
(** [retry_cycles t tid] — cumulative retry-backoff cycles charged by
    fibre [tid]; the serving engine stamps this onto span phase marks so
    spans can attribute retry time exactly. *)

val crash_now : t -> int -> unit
(** Immediately crash the machine: wipe fabric state, kill its threads
    (their fibres are dropped, leaving in-flight operations pending). *)

val run : t -> int
(** Schedule until no runnable threads remain and no plan actions are
    pending; returns the number of scheduling decisions taken.  Each
    decision is one uniform pick among the live tasks and one
    {!Fabric.maybe_evict} chance; runs of decisions that would only pick
    parked waiters (see {!wait}) are drawn at once, equal in law.  With
    no waiting thread the draws are exactly one pick per decision.  When
    every task waits, no poll can hold before a plan action runs: the
    run idles to the next plan step, and raises [Failure] if no plan
    action is pending. *)

val alive : t -> int
(** Number of runnable threads.  A fibre calling it does not count
    itself. *)
