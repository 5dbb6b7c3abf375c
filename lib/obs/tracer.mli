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
    unchanged.  [Mark], with ten fields, is the one exception: its slot
    holds only the tag, and the emitted record is kept as is in the
    chunk's parallel [Event.t array] (reset to a static filler when a
    non-mark event reuses the slot).  Retained events are therefore not
    heap blocks, so the minor GC never promotes them and storing one
    passes no write barrier.

    Memory: slots come in chunks of {!chunk} events, 4 words plus 1
    pointer per slot (160 KB a chunk on a 64-bit host).  [create]
    allocates only a directory with one entry per chunk of capacity; a
    chunk is allocated the first time the ring reaches it, and {!clear}
    drops them all.  So a ring costs what it retains, rounded up to a
    chunk: the [1 lsl 20]-event ring that [cxl0_kv]'s span features and
    the perfbench [kv-storm] workload use takes 4 KB when created and
    ≈40 MB only once full (plus the [Mark] records it retains). *)

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
(** Oldest to newest.  Every event but a [Mark] is decoded into a fresh
    record, structurally equal to the one emitted. *)

val iter_marks : (Event.t -> unit) -> t -> unit
(** [iter_marks f t] — [f] on every retained [Mark], oldest to newest:
    exactly the [Mark]s {!iter} would pass, in the same order, but
    physically the records that were emitted, and without decoding (or
    allocating) anything for the other slots.  [f] never sees another
    constructor. *)

val events : t -> Event.t list
(** Oldest to newest. *)

val clear : t -> unit
(** Empty the buffer, releasing its chunks, and the report (and the
    attached series). *)
