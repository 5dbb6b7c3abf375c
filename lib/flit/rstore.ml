(** Algorithm 3 — the RStore-based FliT adaptation.

    A one-to-one translation of the original FliT: [Store] ↦ [RStore]
    (deposits at the owner's cache), [Flush] ↦ [RFlush] (forces the line
    into the owner's physical memory), with the FliT counter protocol
    intact. *)

let t : Flit_intf.t =
  Counter_based.make ~name:"alg3-rstore" ~durable:true
    ~store_kind:Cxl0.Label.R ~flush_kind:(fun _ _ -> Cxl0.Label.RF)
