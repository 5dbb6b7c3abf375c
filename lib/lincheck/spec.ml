(** Sequential specifications for linearizability checking.

    A specification is a deterministic transition system: [step state
    op] is the one legal [(result, state')] pair, if any (no object here
    has a second).  Operations always return an [int]; unit-returning
    operations return 0 by convention, and "absent/empty" results use
    the sentinel {!absent} (-1) — generators therefore draw payload
    values from positive integers. *)

let absent = -1
(** sentinel for pop-from-empty / get-missing-key / etc. *)

module type S = sig
  type state

  val name : string
  val init : state
  val step : state -> Op.t -> (int * state) option
  (** the legal [(result, next-state)] pair; [None] = [op] is never legal
      in [state] (checker prunes the branch) *)

  val equal : state -> state -> bool

  val hash : state -> int
  (** equal states hash equally: the checker's memo relies on it *)
end

type t = (module S)

(** [conforms (module S) ops] — does the *sequential* trace [ops] (as
    [(op, ret)] pairs, in order) follow the spec?  Used to sanity-check
    the data-structure implementations single-threaded. *)
let conforms (module M : S) trace =
  let rec go state = function
    | [] -> true
    | (op, ret) :: rest -> (
        match M.step state op with
        | Some (r, state') when r = ret -> go state' rest
        | _ -> false)
  in
  go M.init trace
