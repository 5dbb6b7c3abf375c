(** Tail-latency attribution: per-op-type decomposition of end-to-end
    latency into {!Span.component} histograms plus the p99 critical
    path.  Built from assembled spans; incomplete spans are excluded
    from the histograms but counted in {!incomplete}. *)

type t

val of_spans : Span.t list -> t

val e2e : t -> op:int -> Hist.t
(** End-to-end latency histogram of one op type. *)

val component : t -> op:int -> Span.component -> Hist.t
(** Per-component latency histogram (only spans where the component is
    nonzero contribute a sample). *)

val totals : t -> op:int -> int array
(** Exact per-component cycle totals, by {!Span.component_index}; sums
    across components equal the summed end-to-end latencies. *)

val incomplete : t -> int

val tail : t -> op:int -> Span.t list
(** The op's p99 tail: its ceil(n/100) slowest complete spans, slowest
    first, deterministically tie-broken. *)

val dominant : t -> op:int -> (Span.component * int * int) option
(** [(component, cycles, tail_size)] — the component with the most
    cycles across the p99 tail; the phase to attack to move p99. *)

val slowest : t -> int -> Span.t list
(** The [n] slowest complete spans across all op types, slowest first
    (the [--explain-tail N] set). *)

val pp : t Fmt.t
(** The attribution table: per op type — count, mean, p99, exact
    per-component totals, and the dominant p99 component. *)
