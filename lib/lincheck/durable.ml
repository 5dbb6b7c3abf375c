(** Durable linearizability (§4.2, after Izraelevitz et al.).

    A history is durably linearizable iff it is well formed and its
    crash-free projection is linearizable.  Following the paper's
    Remark 1, the happens-before order needs no crash-aware redefinition:
    we simply check the operations of the original history (crash events
    produce no operations, and removing them does not reorder anything)
    with the standard checker.

    Threads killed by a crash leave pending invocations, which the
    checker may complete or omit — so e.g. a push whose thread died
    mid-operation may legitimately either have taken effect or not, but a
    *completed* operation's effect must be explained by every later
    observation, across crashes. *)

type verdict = {
  durable : bool;
  history : History.t;
  crash_events : int;
  outcome : Check.outcome;
  skipped : Check.error option;
      (** [Some _] when the checker could not decide the history (too
          long for the search); [durable] is [false] but means
          "undecided", not "violation". *)
  provenance : string option;
      (** which workload config/seed produced the history, when the
          caller knows — so a verdict surfaced by a seed sweep or a fuzz
          campaign can be traced back to its origin *)
}

let no_outcome =
  { Check.ok = false; witness = []; dropped = []; cut_off = false; explored = 0 }

(** [check ?provenance spec h] — decide durable linearizability of [h].
    [provenance] labels the verdict with the config/seed that produced
    the history. *)
let check ?provenance spec (h : History.t) : verdict =
  let crash_events = History.crash_count h in
  if not (History.well_formed h) then
    { durable = false; history = h; crash_events; outcome = no_outcome;
      skipped = None; provenance }
  else
    (* fault-aborted ops count as pending (may-complete-or-omit);
       [Check.linearizable] demotes them itself *)
    match Check.linearizable spec (History.ops h) with
    | Ok outcome ->
        { durable = outcome.Check.ok; history = h; crash_events; outcome;
          skipped = None; provenance }
    | Error e ->
        { durable = false; history = h; crash_events; outcome = no_outcome;
          skipped = Some e; provenance }

let pp_provenance ppf = function
  | None -> ()
  | Some p -> Fmt.pf ppf " [%s]" p

let pp_verdict ppf v =
  match v.skipped with
  | Some e ->
      Fmt.pf ppf "durability undecided (%d crash(es)): %a%a" v.crash_events
        Check.pp_error e pp_provenance v.provenance
  | None ->
      if v.durable then
        Fmt.pf ppf "durably linearizable (%d crash(es), %d nodes explored)%a"
          v.crash_events v.outcome.Check.explored pp_provenance v.provenance
      else
        Fmt.pf ppf
          "@[<v>NOT durably linearizable (%d crash(es), %d nodes explored)%a@,\
           history:@,%a@]"
          v.crash_events v.outcome.Check.explored pp_provenance v.provenance
          History.pp v.history
