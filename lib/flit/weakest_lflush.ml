(** The LFlush-based weakest transformation (Proposition 2).

    When the shared memory is *volatile*, flushing all the way to physical
    memory buys nothing — data dies with the hosting machine either way.
    The LFlush variant only pushes stored values out of the (crash-prone)
    writer's cache into the owner's cache.  Proposition 2: this guarantees
    durable linearizability provided machines hosting the (volatile)
    shared memory never crash — e.g. dedicated, replicated memory nodes —
    because a value that reached the owner's side can no longer be lost to
    a *compute-node* crash.

    [durable] is [false]: the guarantee is conditional, and the durability
    test-suite exercises it only under the Proposition 2 crash
    restriction (experiment E6). *)

let t : Flit_intf.t =
  Counter_based.make ~name:"weakest-lflush" ~durable:false
    ~store_kind:Cxl0.Label.L ~flush_kind:Counter_based.lflush_unless_degraded
