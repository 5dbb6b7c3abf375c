(** Buffered durable linearizability — the §7 future-work criterion,
    generalised to partial crashes.

    Izraelevitz et al. define *buffered* durable linearizability for the
    full-system-crash model: the state observed after a crash need not
    reflect every completed operation, as long as it is a *consistent
    cut* of the pre-crash execution — some operations (typically the most
    recent ones, still buffered in caches) may be dropped, but an
    operation may only be dropped together with everything that
    happens-after it.

    The paper poses the partial-crash generalisation as an open question
    ("What is considered a consistent cut with respect to a single
    machine's crash?").  We implement the natural candidate:

    A history [h] with crash events is buffered durably linearizable iff
    there exists a set [D] of *dropped* operations such that
    - every member of [D] completed before some crash event
      (an operation that responded after the last crash reflects
      recovered state and cannot be dropped);
    - [D] is closed under happens-after within the candidates: if
      [a ∈ D], [b] is a candidate, and [a] happens-before [b]
      (a's response precedes b's invocation), then [b ∈ D] — dropping a
      cut, not holes;
    - [h] minus [D] minus crash events is linearizable.

    Dropping is a move of {!Check.search}, the Wing–Gong search that
    {!Durable.check} runs: a candidate may linearize only if no dropped
    candidate responded before its invocation, so the drop set is closed
    by construction.  Searching budgets 0, 1, 2, … in turn makes the
    first witness size-minimal.  With [D = ∅] this is plain durable
    linearizability, so buffered-DL is (as it must be) weaker than DL,
    and both checkers share one bound, {!Check.max_ops}. *)

type verdict = {
  buffered_durable : bool;
  dropped : History.op list;  (** a witness drop set, when satisfiable *)
  budgets_searched : int;
  skipped : Check.error option;
      (** the history was too long for the search: [buffered_durable =
          false] is then "undecided", not "violation" *)
}

(* the event index of the last crash; 0 (nothing droppable) without one *)
let last_crash (h : History.t) =
  let last = ref 0 in
  List.iteri (fun i e -> match e with History.Crash _ -> last := i | _ -> ()) h;
  !last

(** [check spec h] — decide buffered durable linearizability by
    iterative deepening on the drop budget, stopping at the first
    witness or at the first budget the search did not exhaust. *)
let check spec (h : History.t) : verdict =
  let fail = { buffered_durable = false; dropped = []; budgets_searched = 0;
               skipped = None } in
  if not (History.well_formed h) then fail
  else begin
    let ops = History.ops h and crash = last_crash h in
    let rec deepen budget =
      let searched = budget + 1 in
      match Check.search spec ~budget ~crash ops with
      | Error e -> { fail with budgets_searched = searched; skipped = Some e }
      | Ok o when o.Check.ok ->
          { buffered_durable = true; dropped = o.Check.dropped;
            budgets_searched = searched; skipped = None }
      | Ok o when o.Check.cut_off -> deepen searched
      | Ok _ -> { fail with budgets_searched = searched }
    in
    deepen 0
  end

let pp_verdict ppf v =
  match v.skipped with
  | Some e ->
      Fmt.pf ppf "buffered durability undecided (%d budget(s) searched): %a"
        v.budgets_searched Check.pp_error e
  | None when v.buffered_durable ->
      Fmt.pf ppf "buffered durably linearizable (dropping %d op(s): %a)"
        (List.length v.dropped)
        Fmt.(list ~sep:comma History.pp_op)
        v.dropped
  | None -> Fmt.pf ppf "NOT buffered durably linearizable"
