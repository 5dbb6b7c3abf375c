(** FliT counters: one shared counter per tracked location (§4.3),
    signalling to readers that a store may still be unpersisted.

    Modelled as always-available volatile metadata owned by the
    transformation instance (see the implementation for why
    crash-stickiness is the safe direction); accesses are atomic and
    charged to the fabric via the metadata accounting hooks.  A table is
    confined to the domain running its fabric's scheduler — no locks. *)

type t
(** location -> counter value, a growable array indexed by the fabric's
    dense location numbers; a location never incremented reads 0. *)

val create : unit -> t
(** A fresh, empty counter table.  Pure: no fabric traffic, no
    scheduling point. *)

val incr : t -> Runtime.Sched.ctx -> int -> unit
(** FAA(+1); a scheduling point. *)

val decr : t -> Runtime.Sched.ctx -> int -> unit
(** FAA(-1); asserts the counter was positive. *)

val read : t -> Runtime.Sched.ctx -> int -> int
(** Current counter value; a scheduling point. *)

val peek : t -> int -> int
(** Current counter value, read outside any fibre: no scheduling point,
    no fabric accounting (tests and diagnostics). *)
