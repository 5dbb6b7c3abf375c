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

    The checker enumerates happens-after-closed candidate subsets (the
    candidate sets are small in crash-injection histories) and reuses the
    Wing–Gong search.  With [D = ∅] this degenerates to plain durable
    linearizability, so buffered-DL is (as it must be) weaker than DL. *)

type verdict = {
  buffered_durable : bool;
  dropped : History.op list;  (** a witness drop set, when satisfiable *)
  subsets_tried : int;
  skipped : Check.error option;
      (** the error of a drop set whose kept history was too long for the
          search, when no drop set was a witness: [buffered_durable =
          false] is then "undecided", not "violation" *)
}

(* candidate = completed before some crash *)
let candidates (h : History.t) : History.op list =
  let crash_times =
    List.filteri (fun _ _ -> true) h
    |> List.mapi (fun i e -> (i, e))
    |> List.filter_map (fun (i, e) ->
           match e with History.Crash _ -> Some i | _ -> None)
  in
  match crash_times with
  | [] -> []
  | _ ->
      let last_crash = List.fold_left max 0 crash_times in
      List.filter
        (fun (o : History.op) ->
          match o.History.res_at with
          | Some r -> r < last_crash
          | None -> false)
        (History.demote_faulted (History.ops h))

(* a happens-before b: a responded before b was invoked *)
let hb (a : History.op) (b : History.op) =
  match a.History.res_at with
  | Some r -> r < b.History.inv_at
  | None -> false

let popcount n =
  let rec go n acc = if n = 0 then acc else go (n lsr 1) (acc + (n land 1)) in
  go n 0

(** [check spec h] — decide buffered durable linearizability.  Cost is
    O(2^c) linearizability checks where [c] is the number of candidates;
    intended for the same small crash-injection histories as
    {!Durable.check}. *)
let check spec (h : History.t) : verdict =
  if not (History.well_formed h) then
    {
      buffered_durable = false;
      dropped = [];
      subsets_tried = 0;
      skipped = None;
    }
  else begin
    let cands = Array.of_list (candidates h) in
    let n = Array.length cands in
    if n > 16 then
      invalid_arg "Buffered.check: too many droppable operations";
    (* fault-aborted ops count as pending (may-complete-or-omit) *)
    let all_ops = History.demote_faulted (History.ops h) in
    let tried = ref 0 in
    (* enumerate drop sets in increasing size so the witness is minimal *)
    let by_size =
      List.sort
        (fun a b -> compare (popcount a) (popcount b))
        (List.init (1 lsl n) Fun.id)
    in
    let closed mask =
      (* drop set must be happens-after-closed within the candidates *)
      let dropped i = mask land (1 lsl i) <> 0 in
      let ok = ref true in
      for i = 0 to n - 1 do
        if dropped i then
          for j = 0 to n - 1 do
            if (not (dropped j)) && hb cands.(i) cands.(j) then ok := false
          done
      done;
      !ok
    in
    let result = ref None and undecided = ref None in
    List.iter
      (fun mask ->
        if !result = None && closed mask then begin
          incr tried;
          let dropped_ids =
            List.filteri (fun i _ -> mask land (1 lsl i) <> 0)
              (Array.to_list cands)
            |> List.map (fun o -> o.History.id)
          in
          let kept =
            List.filter
              (fun (o : History.op) -> not (List.mem o.History.id dropped_ids))
              all_ops
          in
          let kept_ok =
            match Check.linearizable spec kept with
            | Ok o -> o.Check.ok
            | Error e ->
                if !undecided = None then undecided := Some e;
                false
          in
          if kept_ok then
            result :=
              Some
                (List.filter
                   (fun (o : History.op) -> List.mem o.History.id dropped_ids)
                   all_ops)
        end)
      by_size;
    match !result with
    | Some dropped ->
        {
          buffered_durable = true;
          dropped;
          subsets_tried = !tried;
          skipped = None;
        }
    | None ->
        {
          buffered_durable = false;
          dropped = [];
          subsets_tried = !tried;
          skipped = !undecided;
        }
  end

let pp_verdict ppf v =
  match v.skipped with
  | Some e ->
      Fmt.pf ppf "buffered durability undecided (tried %d): %a" v.subsets_tried
        Check.pp_error e
  | None when v.buffered_durable ->
      Fmt.pf ppf "buffered durably linearizable (dropping %d op(s): %a)"
        (List.length v.dropped)
        Fmt.(list ~sep:comma History.pp_op)
        v.dropped
  | None -> Fmt.pf ppf "NOT buffered durably linearizable"
