(** Sequential specifications for linearizability checking.

    A specification is a deterministic-state transition system:
    [step state op args] enumerates every legal [(result, state')] pair.
    Operations always return an [int]; unit-returning operations return 0
    by convention, and "absent/empty" results use the sentinel
    {!absent} (-1) — generators therefore draw payload values from
    positive integers. *)

let absent = -1
(** sentinel for pop-from-empty / get-missing-key / etc. *)

module type S = sig
  type state

  val name : string
  val init : state
  val step : state -> string -> int list -> (int * state) list
  (** all legal [(result, next-state)] pairs; empty list = [op] with these
      [args] is never legal in [state] (checker prunes the branch) *)

  val equal : state -> state -> bool

  val hash : state -> int
  (** equal states hash equally: the checker's memo relies on it *)
end

type t = (module S)

(** [conforms (module S) ops] — does the *sequential* trace [ops] (as
    [(name, args, ret)] triples, in order) follow the spec?  Used to
    sanity-check the data-structure implementations single-threaded. *)
let conforms (module M : S) trace =
  let rec go state = function
    | [] -> true
    | (name, args, ret) :: rest ->
        (match
           List.find_opt (fun (r, _) -> r = ret) (M.step state name args)
         with
        | Some (_, state') -> go state' rest
        | None -> false)
  in
  go M.init trace
