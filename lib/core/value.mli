(** Values stored in shared memory.

    The paper takes values from an abstract set [Val] with a
    distinguished initial value 0; we use machine integers. *)

type t = int

val zero : t
(** The initial value of every location; also what volatile memory
    re-initialises to on crash. *)

val of_int : int -> t
val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
val pp : t Fmt.t
