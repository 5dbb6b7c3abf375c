(** Values stored in shared memory.

    The paper takes values from an abstract set [Val] containing a
    distinguished initial value [0].  We use machine integers; [zero] is
    the initial value of every location (§3.3: memories start
    zero-initialised, and volatile memories are re-initialised to [zero]
    on crash). *)

type t = int

let zero = 0
let of_int = Fun.id
let equal = Int.equal
let compare = Int.compare
let hash = Hashtbl.hash
let pp = Fmt.int
