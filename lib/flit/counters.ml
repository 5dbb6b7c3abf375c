(** FliT counters: one shared counter per tracked location (§4.3).

    The counter signals to readers that a store to the location has been
    made visible but is not yet guaranteed persistent; a positive value
    makes readers help by flushing.

    Placement: FliT keeps counters in *volatile* shared memory next to
    the object.  We model them as an always-available table owned by the
    transformation *instance* rather than as fabric locations, for a
    reason the correctness argument depends on: if a writer crashes
    between its increment and decrement, the counter must remain
    positive so that readers keep flushing the possibly-unpersisted
    value — a stale positive counter is safe (extra flushes), a lost
    counter is not.  The instance is created once per fabric and closed
    over by the object's dispatch closures, so it lives exactly as long
    as the run and is untouched by the crash-wipe path: machine crashes
    wipe caches and volatile memory, never the instance.  That realises
    the "conservatively sticky" behaviour the proof needs, while the
    fabric accounting hooks ({!Fabric.account_meta_faa}/[_read]) still
    charge the traffic the counter accesses would generate.

    Accesses are atomic: the cooperative scheduler never interleaves
    inside a primitive, and the table operations below perform no yield —
    the caller yields afterwards, mirroring FAA's atomicity.  A counter
    table is confined to the domain running its fabric's scheduler, so
    no locking is needed anywhere. *)

type t = { mutable values : int array }
(* location -> counter value, indexed by the dense fabric location;
   beyond the array's length = 0.  FliT keeps its counters in a flat
   array the same way (Wei et al., PPoPP '22). *)

(** [create ()] — a fresh, empty counter table.  Pure: no fabric
    traffic, no scheduling point. *)
let create () : t = { values = [||] }

let peek (t : t) x = if x < Array.length t.values then t.values.(x) else 0

(* Grow (doubling, at least 64 slots) so that [x] is an index. *)
let ensure (t : t) x =
  let n = Array.length t.values in
  if x >= n then begin
    let bigger = Array.make (max (x + 1) (max 64 (2 * n))) 0 in
    Array.blit t.values 0 bigger 0 n;
    t.values <- bigger
  end

(* A counter transition (the new value after an incr/decr) is a traced
   event: a positive-counter window on the timeline is exactly the span
   in which readers must help by flushing. *)
let trace_transition (ctx : Runtime.Sched.ctx) x v =
  match Fabric.tracer ctx.fab with
  | None -> ()
  | Some tr ->
      Obs.Tracer.emit tr
        (Obs.Event.Counter
           {
             machine = ctx.machine;
             loc = x;
             value = v;
             cycle = Fabric.cycles ctx.fab;
           })

(** [incr t ctx x] — FAA(+1) on [x]'s FliT counter (a scheduling
    point). *)
let incr (t : t) (ctx : Runtime.Sched.ctx) x =
  ensure t x;
  let v = t.values.(x) + 1 in
  t.values.(x) <- v;
  Fabric.account_meta_faa ctx.fab ctx.machine x;
  trace_transition ctx x v;
  Runtime.Sched.yield ctx

(** [decr t ctx x] — FAA(-1); callers only decrement after incrementing,
    so the value never goes negative (asserted). *)
let decr (t : t) (ctx : Runtime.Sched.ctx) x =
  let v = peek t x in
  assert (v > 0);
  t.values.(x) <- v - 1;
  Fabric.account_meta_faa ctx.fab ctx.machine x;
  trace_transition ctx x (v - 1);
  Runtime.Sched.yield ctx

(** [read t ctx x] — current counter value (a scheduling point). *)
let read (t : t) (ctx : Runtime.Sched.ctx) x =
  let v = peek t x in
  Fabric.account_meta_read ctx.fab ctx.machine x;
  Runtime.Sched.yield ctx;
  v
