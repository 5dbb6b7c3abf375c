(** Aggregated metrics of a traced run: per-primitive latency histograms
    in simulated cycles, per-machine and per-line traffic accounting.
    Updated online by {!Tracer.emit}, so it survives ring-buffer wrap. *)

type t

val create : unit -> t
val clear : t -> unit

val observe : t -> prim:Event.prim -> machine:int -> loc:int -> cycles:int -> unit
(** Record one completed primitive.  Called by {!Tracer.emit}; exposed
    for tests. *)

val observe_failover : t -> unit
val observe_rejoin : t -> unit
val observe_unavail : t -> cycles:int -> unit
(** Record replicated-KV events (a read-path switch / replica re-sync /
    a completed unavailability window).  Called by
    {!Tracer.emit} on the corresponding {!Event.t} variants. *)

val observe_dropped : t -> unit
(** Record one event overwritten by the tracer's ring wrap.  Called by
    {!Tracer.emit}; the aggregate tables above still cover the
    overwritten event, only its raw record is gone. *)

val failovers : t -> int
val rejoins : t -> int

val dropped : t -> int
(** Events lost to ring wrap; printed in trace summaries when nonzero. *)

val unavail : t -> Hist.t
(** Lengths (simulated cycles) of completed shard unavailability
    windows. *)

val merge : into:t -> t -> unit
(** Fold a report into another: histograms merge bucket-exactly
    ({!Hist.merge}), machine counters add, line traffic adds per
    location.  The source is unchanged. *)

val hist : t -> Event.prim -> Hist.t
val total_ops : t -> int

val machines : t -> (int * int * int) list
(** Per-machine [(machine, ops, cycles)] for every machine that issued
    anything, in machine order. *)

val lines : t -> (int * int) list
(** Per-line [(loc, ops)] sorted by descending traffic then ascending
    location. *)

val pp : t Fmt.t
(** The latency table (count/p50/p90/p99/max per primitive) plus the
    traffic rows. *)
