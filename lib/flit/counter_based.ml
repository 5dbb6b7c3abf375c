(** The counter-based FliT adaptation, parameterised by primitive choice.

    Algorithm 3, the weakest transformation (Algorithm 3′), the
    Proposition 2 LFlush variant and §4.4's address-adaptive flushing
    differ only in which store and flush primitives carry persistence:

    - Algorithm 3:        store = RStore, flush = RFlush
    - Algorithm 3′:       store = LStore, flush = RFlush
    - Prop. 2 variant:    store = LStore, flush = LFlush
    - adaptive (§4.4):    store = LStore, flush = RFlush for NV-homed
                          locations, LFlush for volatile-homed ones

    The flush is chosen per access ([flush_kind ctx x]), so the
    address-adaptive variant is just another row.  Everything else — the
    FliT counter protocol around shared stores, the help-by-flushing
    shared load, the plain [LStore] for unflagged accesses — is common
    and implemented once here (mirroring how the paper presents
    Algorithm 3′ as Algorithm 3 with framed lines replaced).  [make]
    returns a descriptor whose [create] mints a fresh counter table per
    instance. *)

open Runtime

(* Degraded mode (CXL RAS): an [LFlush] leaves persistence to the
   line's onward propagation toward home — exactly the path a standing
   link fault makes unreliable.  When the issuer-to-owner link is
   degraded or down, fall back to the stronger [RFlush], which either
   reaches physical memory or faults visibly; the latency cost is
   recorded in [Stats.degraded_ops].  [link_degraded] is a pure check
   (no RNG draw, no scheduling point), so fault-free runs are
   byte-identical. *)
let lflush_unless_degraded (ctx : Sched.ctx) x : Cxl0.Label.flush_kind =
  let owner = Fabric.owner ctx.fab x in
  if Fabric.link_degraded ctx.fab ctx.machine owner then begin
    let st = Fabric.stats ctx.fab in
    st.Fabric.Stats.degraded_ops <- st.Fabric.Stats.degraded_ops + 1;
    (match Fabric.tracer ctx.fab with
    | None -> ()
    | Some tr ->
        Obs.Tracer.emit tr
          (Obs.Event.Fallback
             {
               machine = ctx.machine;
               loc = x;
               cycle = Fabric.cycles ctx.fab;
             }));
    Cxl0.Label.RF
  end
  else Cxl0.Label.LF

let make ~name ~durable ~store_kind ~flush_kind : Flit_intf.t =
  let create _fab =
    let counters = Counters.create () in
    let flush ctx x = Ops.flush ctx (flush_kind ctx x) x in
    let private_load ctx x = Ops.load ctx x in
    (* Alg. 3 lines 58-64: a flagged private store persists in place —
       store with the chosen strength, then flush; no counter needed
       since private data is race-free. *)
    let private_store ctx x v ~pflag =
      if pflag then begin
        Ops.store ctx store_kind x v;
        flush ctx x
      end
      else Ops.lstore ctx x v
    in
    (* Alg. 3 lines 65-70: load, and if some store to [x] may still be
       unpersisted (counter positive), help by flushing — without a
       fence, which completeOp would provide on a weak-memory host. *)
    let shared_load ctx x ~pflag =
      let v = Ops.load ctx x in
      if pflag && Counters.read counters ctx x > 0 then flush ctx x;
      v
    in
    (* Alg. 3 lines 71-79: announce the in-flight store (counter++),
       make it visible (store), make it persistent (flush), then retract
       the announcement (counter--). *)
    let shared_store ctx x v ~pflag =
      if pflag then begin
        Counters.incr counters ctx x;
        Ops.store ctx store_kind x v;
        flush ctx x;
        Counters.decr counters ctx x
      end
      else Ops.lstore ctx x v
    in
    (* CAS publishes exactly like a shared store when it succeeds; a
       failed CAS wrote nothing, so nothing needs persisting.  The
       counter is incremented before the attempt — a reader that
       observes the new value between the CAS and the flush must see a
       positive counter. *)
    let shared_cas ctx x ~expected ~desired ~pflag =
      if pflag then begin
        Counters.incr counters ctx x;
        let ok = Ops.cas ctx x ~expected ~desired ~kind:store_kind in
        if ok then flush ctx x;
        Counters.decr counters ctx x;
        ok
      end
      else Ops.cas ctx x ~expected ~desired ~kind:Cxl0.Label.L
    in
    (* §4.4: completeOp is empty — in-order execution plus synchronous
       flushes make the original FliT fence unnecessary. *)
    let complete_op _ctx = () in
    {
      Flit_intf.private_load;
      private_store;
      shared_load;
      shared_store;
      shared_cas;
      complete_op;
      counters = Some counters;
      sync = None;
      dirty_count = None;
    }
  in
  { Flit_intf.name; durable; create }
