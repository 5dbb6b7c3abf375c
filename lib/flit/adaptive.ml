(** Address-based adaptive transformation (§4.4, implementation notes).

    The paper observes that, unlike the original FliT, the CXL0
    adaptations can be instrumented *per address*: "When target memory is
    volatile, there is no need in using RFlush after an RStore, and also
    it suffices to use an LFlush after an LStore."  This transformation
    does exactly that — it inspects the persistence of the location's
    owner at access time and picks the flush strength:

    - owner has {e non-volatile} memory → Algorithm 3′ path
      (LStore + RFlush): full durable linearizability;
    - owner has {e volatile} memory → the Proposition 2 path
      (LStore + LFlush): flushing to physical memory buys nothing, but
      pushing the line out of the (crash-prone) writer's cache preserves
      the Prop-2 guarantee when memory nodes are reliable.

    One binary, both deployments, no manual tuning — each address pays
    only for the durability its memory can deliver. *)

(* The volatile-owner LFlush additionally degrades to RFlush when the
   link toward the owner carries a standing fault (CXL RAS degraded
   mode) — the LFlush path relies on onward propagation across exactly
   that link.  Conditionally durable: full DL only for NV-homed data. *)
let t : Flit_intf.t =
  Counter_based.make ~name:"adaptive" ~durable:false ~store_kind:Cxl0.Label.L
    ~flush_kind:(fun ctx x ->
      if Fabric.is_volatile ctx.fab (Fabric.owner ctx.fab x) then
        Counter_based.lflush_unless_degraded ctx x
      else Cxl0.Label.RF)
