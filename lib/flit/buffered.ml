(** A buffered-durability transformation with an explicit global [sync]
    — exploring the paper's §7 future work.

    The paper (after Izraelevitz et al. and Montage) asks whether relaxed
    durability pays in the disaggregated model and whether a global sync
    operation is implementable.  This transformation is the natural
    attempt:

    - flagged stores are plain [LStore]s, with the written location
      recorded in a per-instance *dirty set* (volatile metadata, like
      the FliT counters);
    - loads never flush;
    - [sync] (the instance's {!Flit_intf.instance.sync}) RFlushes every
      dirty location and clears the set — after a completed sync,
      everything written before it is persistent.

    What this buys and what it does not (experiment E11):
    - it is {e not} durably linearizable: writes since the last sync die
      with a crash even though they completed;
    - for {e single-location} objects it is *buffered* durably
      linearizable ({!Lincheck.Buffered}): per-location persistence
      order follows coherence order, so the recovered value is always a
      consistent cut;
    - for multi-location objects it is not even buffered-durable in
      general: cache replacement persists locations out of
      happens-before order, which is precisely why the paper calls
      buffered durability in this model an open problem.

    [durable] is [false]; the durability suite exercises it only through
    the buffered checker.  The dirty set lives in the instance — it
    survives machine crashes (like the FliT counters, it is
    conservatively sticky: re-flushing an already-persistent location is
    safe, forgetting a dirty one is not) and dies with the instance. *)

open Runtime

let t : Flit_intf.t =
  {
    name = "buffered-sync";
    durable = false;
    create =
      (fun _fab ->
        let dirty : (int, unit) Hashtbl.t = Hashtbl.create 64 in
        let mark_dirty x = Hashtbl.replace dirty x () in
        (* persist every write buffered so far: RFlush each dirty
           location in one {!Ops.rflush_all} sweep, then forget it.  The
           sweep completes before the dirty set is cleared, so a fault
           aborting it mid-way conservatively keeps every location dirty
           (re-flushing is safe; forgetting is not).  The sync is still
           not atomic with respect to crashes (a crash at its scheduling
           point persists the flushed lines only); making it atomic is
           exactly the hard part the paper anticipates. *)
        let sync ctx =
          let locs =
            List.sort compare (Hashtbl.fold (fun x () acc -> x :: acc) dirty [])
          in
          Ops.rflush_all ctx locs;
          List.iter (Hashtbl.remove dirty) locs
        in
        let private_load ctx x = Ops.load ctx x in
        let private_store ctx x v ~pflag =
          Ops.lstore ctx x v;
          if pflag then mark_dirty x
        in
        let shared_load ctx x ~pflag:_ = Ops.load ctx x in
        let shared_store ctx x v ~pflag =
          Ops.lstore ctx x v;
          if pflag then mark_dirty x
        in
        let shared_cas ctx x ~expected ~desired ~pflag =
          let ok = Ops.cas ctx x ~expected ~desired ~kind:Cxl0.Label.L in
          if ok && pflag then mark_dirty x;
          ok
        in
        {
          Flit_intf.private_load;
          private_store;
          shared_load;
          shared_store;
          shared_cas;
          complete_op = (fun _ctx -> ());
          counters = None;
          sync = Some sync;
          dirty_count = Some (fun () -> Hashtbl.length dirty);
        });
  }
