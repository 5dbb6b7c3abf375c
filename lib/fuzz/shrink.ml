(** Greedy fixpoint shrinking of failing {!Harness.Workload.config}s.

    [minimize ~still_failing c] repeatedly replaces [c] with the first
    candidate that still fails, until no candidate does.  Every accepted
    step strictly decreases a well-founded measure — a count drops, or a
    crash's [at] moves later bounded by its (fixed) [restart_at] — so the
    loop terminates without relying on the fuel cap.

    Candidates are ordered by expected payoff: structural deletions
    (workers, crashes) first, then count decrements, then the
    fine-grained moves. *)

module W = Harness.Workload
module R = Harness.Runcore

let remove_nth l n = List.filteri (fun i _ -> i <> n) l
let mapi_nth l n f = List.mapi (fun i x -> if i = n then f x else x) l
let sum f l = List.fold_left (fun a x -> a + f x) 0 l

(** [candidates c] — every one-step-smaller variant of [c], most
    aggressive first.  Each candidate is strictly below [c] in {!leq}'s
    order (or equal on the aggregate measures for crash-[at] moves,
    which are bounded separately). *)
let candidates (c : W.config) : W.config list =
  let workers =
    if List.length c.worker_machines <= 1 then []
    else
      List.mapi
        (fun i _ -> { c with worker_machines = remove_nth c.worker_machines i })
        c.worker_machines
  in
  let crashes_dropped =
    List.mapi (fun i _ -> { c with crashes = remove_nth c.crashes i }) c.crashes
  in
  let faults_dropped =
    List.mapi (fun i _ -> { c with faults = remove_nth c.faults i }) c.faults
  in
  let ops =
    if c.ops_per_thread > 1 then
      [ { c with ops_per_thread = c.ops_per_thread - 1 } ]
    else []
  in
  let recovery =
    List.concat
      (List.mapi
         (fun i (s : R.crash_spec) ->
           (if s.recovery_threads > 0 then
              [ { c with
                  crashes =
                    mapi_nth c.crashes i (fun s ->
                        let recovery_threads = s.R.recovery_threads - 1 in
                        { s with
                          R.recovery_threads;
                          recovery_ops =
                            (if recovery_threads = 0 then 0 else s.R.recovery_ops);
                        }) } ]
            else [])
           @
           if s.recovery_threads > 0 && s.recovery_ops > 1 then
             [ { c with
                 crashes =
                   mapi_nth c.crashes i (fun s ->
                       { s with R.recovery_ops = s.R.recovery_ops - 1 }) } ]
           else [])
         c.crashes)
  in
  let values =
    if c.value_range > 1 then [ { c with value_range = c.value_range - 1 } ]
    else []
  in
  let evict = if c.evict_prob > 0. then [ { c with evict_prob = 0. } ] else [] in
  let volatile =
    if c.volatile_home then [ { c with volatile_home = false } ] else []
  in
  (* dropping a replica, like unsharding below, is only envelope-safe on
     a crash-free cell: a chaos-storm plan is all shard-home crashes,
     which are *inside* the envelope only because of replication — the
     dereplicated (or unsharded) variant would fail for the known-lost
     Finding-F1 reason and the shrinker would latch onto that
     counterfeit minimum *)
  let dereplicate =
    if c.replicas > 1 && c.crashes = [] then
      [ { c with replicas = c.replicas - 1 } ]
    else []
  in
  (* a failing sharded KV cell usually fails for the same reason on one
     unsharded map — same op surface and spec, fewer moving parts *)
  let unshard =
    if c.kind = Harness.Objects.Kv && (c.replicas <= 1 || c.crashes = []) then
      [ { c with kind = Harness.Objects.Map; replicas = 1 } ]
    else []
  in
  let machines =
    let last = c.n_machines - 1 in
    if
      c.n_machines > 1 && c.home < last
      && (c.kind <> Harness.Objects.Kv || c.replicas <= last)
      && List.for_all (fun m -> m < last) c.worker_machines
      && List.for_all (fun (s : R.crash_spec) -> s.machine < last) c.crashes
      && List.for_all
           (function
             | R.Degrade_link { m1; m2; _ } | R.Down_link { m1; m2; _ } ->
                 m1 < last && m2 < last
             | R.Poison_at _ -> true)
           c.faults
    then [ { c with n_machines = last } ]
    else []
  in
  (* crash later: a narrower failure window around the same crash.  [at]
     only moves toward [restart_at], so total slack strictly shrinks. *)
  let crash_later =
    List.concat
      (List.mapi
         (fun i (s : R.crash_spec) ->
           if s.at >= s.restart_at then []
           else
             let move at =
               { c with
                 crashes = mapi_nth c.crashes i (fun s -> { s with R.at }) }
             in
             let mid = s.at + ((s.restart_at - s.at + 1) / 2) in
             (if mid > s.at + 1 then [ move mid ] else []) @ [ move (s.at + 1) ])
         c.crashes)
  in
  workers @ crashes_dropped @ faults_dropped @ ops @ recovery @ values @ evict
  @ volatile @ dereplicate @ unshard @ machines @ crash_later

(* aggregate shrink measures; every candidate is <= on all of them *)
let measures (c : W.config) =
  [
    List.length c.worker_machines;
    c.ops_per_thread;
    List.length c.crashes;
    List.length c.faults;
    sum (fun (s : R.crash_spec) -> s.recovery_threads) c.crashes;
    sum (fun (s : R.crash_spec) -> s.recovery_threads * s.recovery_ops) c.crashes;
    c.value_range;
    c.n_machines;
    (if c.volatile_home then 1 else 0);
    (* Kv shrinks to Map (the unsharded special case), never back *)
    (if c.kind = Harness.Objects.Kv then 1 else 0);
    c.replicas;
  ]

(** [leq a b] — [a] is no larger than [b] in every shrinkable dimension
    (worker count, ops per thread, crash count, fault count, recovery
    totals, value range, machine count, volatile-home flag, replica
    count, eviction noise). *)
let leq (a : W.config) (b : W.config) =
  List.for_all2 ( <= ) (measures a) (measures b) && a.evict_prob <= b.evict_prob

(** [minimize ~still_failing c] — greedy fixpoint: take the first
    still-failing candidate, repeat; return the local minimum.  [c]
    itself must be failing for the result to mean anything. *)
let minimize ~(still_failing : W.config -> bool) (c : W.config) : W.config =
  let rec go c fuel =
    if fuel <= 0 then c
    else
      match List.find_opt still_failing (candidates c) with
      | Some c' -> go c' (fuel - 1)
      | None -> c
  in
  go c 10_000
