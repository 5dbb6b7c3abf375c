(** Algorithm 3′ — the *weakest transformation*.

    Algorithm 3 with the framed [RStore]s replaced by CXL0's weakest store
    primitive, [LStore]: a stored value must now cross two hierarchies
    (remote cache, then remote memory) before persisting, which the
    [RFlush] in the store and load paths forces.  §5 proves this
    transformation satisfies the P–V interface, and derives Algorithms 2
    and 3 from it. *)

let t : Flit_intf.t =
  Counter_based.make ~name:"alg3'-weakest" ~durable:true
    ~store_kind:Cxl0.Label.L ~flush_kind:(fun _ _ -> Cxl0.Label.RF)
