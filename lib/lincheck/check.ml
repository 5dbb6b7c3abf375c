(** Linearizability checking (Wing–Gong search with memoisation), with
    a budget of dropped operations for buffered durability.

    Given a sequential specification and the operations of a history, the
    checker searches for a linearization: a total order of the operations
    that (a) respects the real-time order — an operation that responded
    before another was invoked must linearize first — and (b) follows the
    specification.

    Pending operations (invocations without responses — threads killed by
    a crash, per §4.2) may be *completed* with any specification-legal
    result or *omitted* entirely, exactly as the definition of
    linearizability allows.

    {!search} adds one move for consistent cuts: a completed operation
    that responded before the last crash may be *dropped* (resolved
    without a specification step), at most [budget] times.  A droppable
    operation may linearize only if no dropped operation responded before
    its invocation, so the drop set is closed under happens-after among
    the droppable operations by construction (see {!Buffered}).

    The search memoises visited (resolved-set, cut, spec-state) triples,
    the standard Wing–Gong/Lowe optimisation; histories of up to ~20
    operations check instantly. *)

type outcome = {
  ok : bool;
  witness : (History.op * int) list;
      (** a valid linearization with chosen results, when [ok] *)
  dropped : History.op list;
      (** the operations dropped beside [witness], in invocation order *)
  cut_off : bool;
      (** some drop was refused for want of budget *)
  explored : int;  (** search nodes visited (diagnostics) *)
}

let max_ops = 62 (* operations tracked in an int bitmask *)

type error = History_too_long of { length : int; max_ops : int }

let pp_error ppf (History_too_long { length; max_ops }) =
  Fmt.pf ppf "history too long for the bitmask search (%d ops, max %d)"
    length max_ops

(* The drops so far, folded into one int [cut]: the earliest dropped
   response time above [drop_bits] bits of drop count (at most
   [max_ops] < 64).  [no_cut] drops nothing, and its earliest time is
   beyond every event. *)
let drop_bits = 6
let no_cut = (max_int lsr drop_bits) lsl drop_bits
let drops cut = cut land ((1 lsl drop_bits) - 1)
let earliest cut = cut lsr drop_bits

(** [search spec ~budget ~crash ops] — is there a linearization of [ops]
    once at most [budget] of the completed operations that responded
    before event [crash] are dropped?  Fault-aborted operations are
    pending, never droppable.  Histories beyond {!max_ops} operations are
    rejected with a typed error — the search's bitmask cannot represent
    them. *)
let search (module M : Spec.S) ~budget ~crash (ops : History.op list) :
    (outcome, error) result =
  (* fault-aborted ops are pending (may-complete-or-omit): demote here
     so every caller gets the sound treatment *)
  let ops = Array.of_list (History.demote_faulted ops) in
  let n = Array.length ops in
  if n > max_ops then Error (History_too_long { length = n; max_ops })
  else begin
  let explored = ref 0 and cut_off = ref false in
  (* completed_mask: ops that must eventually be resolved;
     droppable: the completed ops that responded before [crash] *)
  let completed_mask = ref 0 and droppable = ref 0 in
  Array.iteri
    (fun idx o ->
      if o.History.ret <> None then completed_mask := !completed_mask lor (1 lsl idx);
      match o.History.res_at with
      | Some r when r < crash -> droppable := !droppable lor (1 lsl idx)
      | _ -> ())
    ops;
  let completed_mask = !completed_mask and droppable = !droppable in
  (* precedes.(j) = bitmask of ops that must be resolved before op j *)
  let precedes =
    Array.init n (fun j ->
        let oj = ops.(j) in
        let mask = ref 0 in
        Array.iteri
          (fun i oi ->
            match oi.History.res_at with
            | Some r when r < oj.History.inv_at -> mask := !mask lor (1 lsl i)
            | _ -> ())
          ops;
        !mask)
  in
  (* memo: (mask, state-hash + cut) -> states already explored there.
     Equal states hash equally, so a state found equal under a key was
     explored with the same cut: the sum is as exact as a third field,
     and the key stays a pair. *)
  (* start small: fuzz histories visit a few hundred nodes at most, and
     the table doubles as needed — a 1024-bucket table per check was
     measurable allocation across a campaign *)
  let memo : (int * int, M.state list) Hashtbl.t = Hashtbl.create 64 in
  let seen mask cut state =
    let key = (mask, M.hash state + cut) in
    let states = Option.value ~default:[] (Hashtbl.find_opt memo key) in
    if List.exists (M.equal state) states then true
    else begin
      Hashtbl.replace memo key (state :: states);
      false
    end
  in
  let exception Found of (History.op * int) list * History.op list in
  let rec dfs mask cut state acc dropped =
    incr explored;
    if mask land completed_mask = completed_mask then
      raise (Found (List.rev acc, dropped))
    else if not (seen mask cut state) then
      for j = 0 to n - 1 do
        let bit = 1 lsl j in
        if mask land bit = 0 && precedes.(j) land mask = precedes.(j)
        then begin
          let o = ops.(j) and mask' = mask lor bit in
          (* a dropped op that responded before [o] was invoked drags
             [o] into the cut *)
          if droppable land bit = 0 || earliest cut > o.History.inv_at
          then begin
            let results = M.step state o.History.name o.History.args in
            match o.History.ret with
            | Some History.Corrupt | Some History.Faulted ->
                (* a corrupted response matches no specification result:
                   this branch is dead, so the op can only be dropped.
                   Faulted responses were demoted to pending at entry,
                   so that case is unreachable. *)
                ()
            | Some (History.Ret r) ->
                (* completed op: its recorded result must be legal *)
                List.iter
                  (fun (r', state') ->
                    if r' = r then
                      dfs mask' cut state' ((o, r) :: acc) dropped)
                  results
            | None ->
                (* pending op: completing it with any legal result is one
                   branch; omitting it is simply never choosing j *)
                List.iter
                  (fun (r', state') ->
                    dfs mask' cut state' ((o, r') :: acc) dropped)
                  results
          end;
          if droppable land bit <> 0 then
            if drops cut >= budget then cut_off := true
            else
              let r = min (Option.get o.History.res_at) (earliest cut) in
              dfs mask' ((r lsl drop_bits) lor (drops cut + 1)) state acc
                (o :: dropped)
        end
      done
  in
  try
    dfs 0 no_cut M.init [] [];
    Ok
      { ok = false; witness = []; dropped = []; cut_off = !cut_off;
        explored = !explored }
  with Found (w, d) ->
    Ok
      { ok = true; witness = w;
        dropped = List.sort (fun a b -> compare a.History.inv_at b.History.inv_at) d;
        cut_off = !cut_off; explored = !explored }
  end

let linearizable spec ops = search spec ~budget:0 ~crash:0 ops

let pp_witness ppf w =
  Fmt.pf ppf "@[<v>%a@]"
    Fmt.(
      list ~sep:cut (fun ppf (o, r) ->
          Fmt.pf ppf "%a := %d" History.pp_op o r))
    w
