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
(** A scheduling point; every memory primitive calls this. *)

val wait : ctx -> (unit -> bool) -> unit
(** [wait ctx p] behaves exactly like
    [yield ctx; while not (p ()) do yield ctx done], but the scheduler
    runs the poll itself when it picks the waiting thread and resumes the
    fibre only once [p ()] holds.  Each failed poll is still one full
    scheduling decision (step count, eviction chance, selection draw,
    traced [Switch], due plan actions), so a run is step-for-step
    identical to the [yield] loop; only the per-poll fibre round trip and
    continuation allocation are saved.

    Contract: [p] is exactly what the fibre would compute between
    resuming and its next yield.  It makes no fabric access (reading the
    clock is fine; a primitive, a charge or a scheduler call is not) and
    has no side effect on the simulation — it may update state private
    to the waiting fibre.  An exception from [p] escapes {!run}. *)

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
    pending; returns the number of scheduling decisions taken. *)

val alive : t -> int
(** Number of runnable threads. *)
