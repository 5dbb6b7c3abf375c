(** The event tracer: a fixed-capacity ring buffer of {!Event.t} plus an
    online {!Report.t}.

    Attached optionally at [Fabric.create ?tracer].  When full, the
    *oldest* events are overwritten (the tail of a run explains its
    outcome); {!dropped} counts overwrites, and the report still covers
    every primitive ever emitted.

    {b Ring layout.}  Events are stored packed, not as boxed records:
    one slot is 4 unboxed ints in its chunk's [int array].  Word 0 holds
    the constructor tag (bits 0-3), a sub-kind (bits 4-7: the prim
    index, evict kind or fault kind) and one small field stored plus one
    (bits 8 and up: the event's [machine], or [shard] for
    [Failover]/[Rejoin]/[Unavail]); words 1-3 hold the remaining fields
    unchanged.  [Mark], with ten fields, is the one exception: the
    emitted record is appended once to a mark log that the ring never
    overwrites, and its slot holds the log index in word 1.  So other
    retained events are not heap blocks the minor GC must promote, and
    {!Span.assemble} sees every mark of the run.

    Memory: slots come in chunks of {!chunk} events, 4 words per slot
    (128 KB a chunk on a 64-bit host), each allocated the first time the
    ring reaches it and dropped by {!clear}: the default 65,536-event
    ring takes 2 MB once full.  The mark log is not bounded by the
    capacity: about 12 words per mark emitted since the last {!clear}. *)

type t

val default_capacity : int
(** 65536 events. *)

val chunk : int
(** 4096 events: the unit in which a ring allocates its slots. *)

val create : ?capacity:int -> ?series:Series.t -> unit -> t
(** Raises [Invalid_argument] on a capacity below 1.  An attached
    [series] is fed on every emit (online, so it survives ring wrap). *)

val emit : t -> Event.t -> unit
(** Append an event; a primitive event also feeds the report, and every
    event feeds the attached series (if any).  A ring-wrap overwrite
    bumps both {!dropped} and the report's dropped counter.

    The packed small field — [machine] ([-1] when not applicable), or
    [shard] for [Failover]/[Rejoin]/[Unavail] — must lie in
    [-1 .. 2{^54} - 2] (the fabric's machines are [0 .. 61]); a value
    outside raises [Invalid_argument] after the report and series have
    seen the event.  Every other field is stored as a full [int]. *)

val length : t -> int
(** Events currently retained. *)

val dropped : t -> int
val emitted : t -> int
(** Total ever emitted: [length + dropped]. *)

val capacity : t -> int
val report : t -> Report.t
val series : t -> Series.t option

val iter : (Event.t -> unit) -> t -> unit
(** Oldest to newest over the retained events.  Every event but a
    [Mark] is decoded into a fresh record, structurally equal to the one
    emitted; a [Mark] is physically the record that was emitted. *)

val iter_mark_log : (Event.t -> unit) -> t -> unit
(** [iter_mark_log f t] — [f] on every [Mark] emitted since the last
    {!clear}, in emission order, including those the ring has since
    overwritten: physically the records that were emitted.  [f] never
    sees another constructor. *)

val events : t -> Event.t list
(** Oldest to newest. *)

val clear : t -> unit
(** Empty the buffer, releasing its chunks and the mark log, and the
    report (and the attached series). *)
