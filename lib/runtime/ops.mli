(** Thread-level CXL0 primitives — the high-level load/store/flush
    binding the paper assumes (§3.5).  Each primitive executes atomically
    on the fabric and then yields, so any two primitives of different
    threads can interleave.

    When the fabric carries a {!Fabric.Faults} plan, every primitive
    transparently retries transient link faults (NACKs, completion
    timeouts) under the plan's policy — exponential backoff charged in
    simulated cycles, jitter from the sched seed — and each attempt ends
    in one scheduling point.  Only exhausted retries and poison surface,
    as {!Fault}.  Without a plan, behaviour is byte-identical to the
    pre-fault runtime. *)

type loc = Fabric.loc

val yield : Sched.ctx -> unit

exception Fault of Fabric.Faults.fault
(** Raised by every primitive when a fault survives the retry policy
    (or is not retryable, like poison). *)

(** {1 Primitives} *)

val load : Sched.ctx -> loc -> int
(** The model's single coherent [Load]. *)

val lstore : Sched.ctx -> loc -> int -> unit
val rstore : Sched.ctx -> loc -> int -> unit
val mstore : Sched.ctx -> loc -> int -> unit

val lflush : Sched.ctx -> loc -> unit
val rflush : Sched.ctx -> loc -> unit

val store : Sched.ctx -> Cxl0.Label.store_kind -> loc -> int -> unit
val flush : Sched.ctx -> Cxl0.Label.flush_kind -> loc -> unit

val faa : Sched.ctx -> loc -> int -> int
(** Atomic fetch-and-add; returns the previous value. *)

val cas :
  Sched.ctx -> loc -> expected:int -> desired:int ->
  kind:Cxl0.Label.store_kind -> bool
(** Atomic compare-and-swap; a successful store has strength [kind]. *)

val rflush_all : Sched.ctx -> loc list -> unit
(** RFlush every location in order, as one multi-line sweep: without a
    fault plan the flushes run back to back and end in a single
    scheduling point (none for an empty list).  With a plan each flush
    goes through the retry engine and yields on its own; a surviving
    fault raises {!Fault}, leaving later locations unflushed. *)

val alloc : Sched.ctx -> owner:int -> loc
val alloc_local : Sched.ctx -> loc
