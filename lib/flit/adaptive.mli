(** Address-based adaptive transformation (§4.4 implementation
    notes): picks the flush strength per address from the owner's
    persistence — RFlush for NV-homed data (full durability), LFlush
    for volatile-homed data (the Proposition 2 guarantee), degraded to
    RFlush over a faulted link.  One {!Counter_based.make} row (store
    LStore, flush chosen per access), not a protocol of its own. *)

val t : Flit_intf.t
