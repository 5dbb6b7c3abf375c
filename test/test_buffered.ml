(* Buffered durable linearizability (§7 future work): the consistent-cut
   checker on hand-crafted histories and against a brute-force reference
   on random ones, and the buffered-sync transformation end to end
   (experiment E11).

   Empirical structure this suite pins down:
   - buffered-DL is strictly weaker than DL (histories exist that are
     buffered but not plain durable);
   - the buffered-sync transformation IS buffered-durable on
     single-location objects (per-location persistence follows coherence
     order, so the recovered value is always a cut);
   - it is NOT buffered-durable in general on multi-location objects
     (cache replacement persists locations out of happens-before order)
     — the precise reason the paper calls this model's buffered
     durability an open problem;
   - an explicit sync() upgrades everything before it to full
     durability. *)

module W = Harness.Workload
module R = Harness.Runcore
module O = Harness.Objects
module S = Runtime.Sched

let inv tid op = Lincheck.History.Inv { tid; op }
let res tid r = Lincheck.History.Res { tid; ret = Lincheck.History.Ret r }
let crash m = Lincheck.History.Crash { machine = m }

let buffered spec h =
  (Lincheck.Buffered.check spec h).Lincheck.Buffered.buffered_durable

(* ------------------------------------------------------------------ *)
(* Checker unit tests                                                  *)
(* ------------------------------------------------------------------ *)

let test_dl_implies_buffered () =
  (* a durably linearizable history needs no drops *)
  let h =
    [ inv 0 (Lincheck.Op.Write 1); res 0 0; crash 1; inv 0 Lincheck.Op.Read; res 0 1 ]
  in
  let v = Lincheck.Buffered.check Lincheck.Specs.register h in
  Alcotest.(check bool) "buffered" true v.Lincheck.Buffered.buffered_durable;
  Alcotest.(check int) "empty drop set" 0 (List.length v.Lincheck.Buffered.dropped)

let test_drop_lost_write () =
  (* completed write lost across the crash: NOT durable, but buffered
     (drop the write) *)
  let h =
    [ inv 0 (Lincheck.Op.Write 1); res 0 0; crash 1; inv 1 Lincheck.Op.Read; res 1 0 ]
  in
  Alcotest.(check bool) "not plain durable" false
    (Lincheck.Durable.check Lincheck.Specs.register h).Lincheck.Durable.durable;
  let v = Lincheck.Buffered.check Lincheck.Specs.register h in
  Alcotest.(check bool) "buffered" true v.Lincheck.Buffered.buffered_durable;
  Alcotest.(check int) "exactly the write dropped" 1
    (List.length v.Lincheck.Buffered.dropped)

let test_drop_must_be_suffix () =
  (* w(1); w(2); crash; read 1 — dropping only w(2) is a legal cut *)
  let h =
    [
      inv 0 (Lincheck.Op.Write 1); res 0 0;
      inv 0 (Lincheck.Op.Write 2); res 0 0;
      crash 1;
      inv 1 Lincheck.Op.Read; res 1 1;
    ]
  in
  Alcotest.(check bool) "suffix drop ok" true
    (buffered Lincheck.Specs.register h)

let test_cut_violation_rejected () =
  (* put(1,5) hb put(2,6) on one thread; after the crash key 1 is gone
     but key 2 survives: any cut dropping put(1,5) must drop put(2,6)
     too, yet get(2)=6 requires it — no consistent cut exists *)
  let h =
    [
      inv 0 (Lincheck.Op.Put (1, 5)); res 0 0;
      inv 0 (Lincheck.Op.Put (2, 6)); res 0 0;
      crash 1;
      inv 1 (Lincheck.Op.Get_key 1); res 1 Lincheck.Spec.absent;
      inv 1 (Lincheck.Op.Get_key 2); res 1 6;
    ]
  in
  Alcotest.(check bool) "hole in the cut rejected" false
    (buffered Lincheck.Specs.map h)

let test_cut_violation_concurrent_ok () =
  (* same shape but the two puts are CONCURRENT (no hb): dropping just
     put(1,5) is now a legal cut *)
  let h =
    [
      inv 0 (Lincheck.Op.Put (1, 5));
      inv 1 (Lincheck.Op.Put (2, 6));
      res 0 0;
      res 1 0;
      crash 1;
      inv 2 (Lincheck.Op.Get_key 1); res 2 Lincheck.Spec.absent;
      inv 2 (Lincheck.Op.Get_key 2); res 2 6;
    ]
  in
  Alcotest.(check bool) "concurrent ops cut independently" true
    (buffered Lincheck.Specs.map h)

let test_post_crash_ops_not_droppable () =
  (* an impossible post-crash result cannot be "dropped" away *)
  let h = [ crash 1; inv 0 Lincheck.Op.Read; res 0 7 ] in
  Alcotest.(check bool) "post-crash garbage rejected" false
    (buffered Lincheck.Specs.register h)

let test_no_crash_equals_linearizability () =
  (* without crashes there are no candidates: buffered = plain *)
  let h = [ inv 0 (Lincheck.Op.Write 1); res 0 0; inv 0 Lincheck.Op.Read; res 0 0 ] in
  Alcotest.(check bool) "no crash, no drops" false
    (buffered Lincheck.Specs.register h)

let test_dropped_reads_allowed () =
  (* reads that observed soon-lost state may be dropped as well:
     w(1); r=1; crash; r=0 — drop {w(1), r=1} *)
  let h =
    [
      inv 0 (Lincheck.Op.Write 1); res 0 0;
      inv 0 Lincheck.Op.Read; res 0 1;
      crash 1;
      inv 1 Lincheck.Op.Read; res 1 0;
    ]
  in
  Alcotest.(check bool) "observer dropped with its write" true
    (buffered Lincheck.Specs.register h)

let test_many_candidates_decided () =
  (* 20 sequential writes, a crash, then a read of the 10th value: the
     minimal cut drops the last 10 writes.  Every write is a candidate;
     the search is bounded by the history's length, not by how many of
     its ops could be dropped. *)
  let h =
    List.concat_map
      (fun v -> [ inv 0 (Lincheck.Op.Write v); res 0 0 ])
      (List.init 20 (fun i -> i + 1))
    @ [ crash 1; inv 1 Lincheck.Op.Read; res 1 10 ]
  in
  let v = Lincheck.Buffered.check Lincheck.Specs.register h in
  Alcotest.(check bool) "buffered" true v.Lincheck.Buffered.buffered_durable;
  Alcotest.(check int) "the last 10 writes dropped" 10
    (List.length v.Lincheck.Buffered.dropped);
  Alcotest.(check (list int)) "exactly writes 11..20"
    (List.init 10 (fun i -> i + 11))
    (List.concat_map
       (fun (o : Lincheck.History.op) -> Lincheck.Op.args o.op)
       v.Lincheck.Buffered.dropped)

let test_too_long_is_undecided () =
  (* 10 sequential writes, a crash, then 60 reads: 70 ops.  Both
     checkers share one bound, [Check.max_ops] = 62, on the whole
     history, so the verdict is undecided whatever the reads observed,
     as the durable checker's is — never a violation. *)
  let probe read =
    List.concat_map
      (fun v -> [ inv 0 (Lincheck.Op.Write v); res 0 0 ])
      (List.init 10 (fun i -> i + 1))
    @ [ crash 1 ]
    @ List.concat_map
        (fun _ -> [ inv 0 Lincheck.Op.Read; res 0 read ])
        (List.init 60 Fun.id)
  in
  let h = probe 10 in
  let d = Lincheck.Durable.check Lincheck.Specs.register h in
  Alcotest.(check bool) "durable checker: undecided" true
    (d.Lincheck.Durable.skipped <> None);
  let v = Lincheck.Buffered.check Lincheck.Specs.register h in
  Alcotest.(check int) "only the zero budget searched" 1
    v.Lincheck.Buffered.budgets_searched;
  Alcotest.(check bool) "no witness" false v.Lincheck.Buffered.buffered_durable;
  Alcotest.(check bool) "buffered checker: undecided" true
    (v.Lincheck.Buffered.skipped
    = Some (Lincheck.Check.History_too_long { length = 70; max_ops = 62 }));
  let c =
    Harness.Workload.default_config O.Register Flit.Registry.buffered
  in
  let status, _ =
    Fuzz.Campaign.judge (Fuzz.Gen.profile_of_transform Flit.Registry.buffered)
      c h
  in
  Alcotest.(check bool) "the campaign counts it as skipped" true
    (match status with `Skipped _ -> true | `Ok | `Violation -> false);
  (* dropping all 10 writes would leave 60 ops, but the bound is on the
     history, not on a kept part of it *)
  let v' = Lincheck.Buffered.check Lincheck.Specs.register (probe 0) in
  Alcotest.(check bool) "no witness claimed" false
    v'.Lincheck.Buffered.buffered_durable;
  Alcotest.(check bool) "undecided too" true (v'.Lincheck.Buffered.skipped <> None)

(* The consistent-cut definition by brute force, the reference for the
   search's drop move: every drop set of ops completed before the last
   crash that is closed under happens-after within those ops, in
   increasing size, each kept history through [Check.linearizable].
   The size of the first witness, if any. *)
let reference_cut spec h =
  let open Lincheck.History in
  let ops = demote_faulted (ops h) in
  let last =
    List.fold_left max 0
      (List.mapi (fun i e -> match e with Crash _ -> i | _ -> 0) h)
  in
  let cands =
    List.filter
      (fun o -> match o.res_at with Some r -> r < last | None -> false)
      ops
  in
  let hb a b = match a.res_at with Some r -> r < b.inv_at | None -> false in
  let closed d =
    List.for_all
      (fun a ->
        List.for_all (fun b -> List.memq b d || not (hb a b)) cands)
      d
  in
  let rec subsets = function
    | [] -> [ [] ]
    | x :: xs ->
        let s = subsets xs in
        s @ List.map (fun d -> x :: d) s
  in
  subsets cands
  |> List.filter closed
  |> List.stable_sort (fun a b -> compare (List.length a) (List.length b))
  |> List.find_opt (fun d ->
         match
           Lincheck.Check.linearizable spec
             (List.filter (fun o -> not (List.memq o d)) ops)
         with
         | Ok o -> o.Lincheck.Check.ok
         | Error _ -> false)
  |> Option.map List.length

(* A random well-formed history of at most 16 events over 1–3 threads:
   register writes of 1–3 and reads, or counter incs and gets, with
   results drawn from 0–3 (so some histories are linearizable, some
   only after a cut, some not at all), crash events that may kill a
   thread mid-operation, and an occasional faulted or corrupt
   response. *)
let random_history rng ~register =
  let threads = 1 + Random.State.int rng 3 in
  let open_op = Array.make threads false and dead = Array.make threads false in
  let small () = Random.State.int rng 4 in
  let events = ref [] in
  for _ = 1 to Random.State.int rng 17 do
    let live = List.filter (fun t -> not dead.(t)) (List.init threads Fun.id) in
    if live = [] || Random.State.int rng 8 = 0 then begin
      events := crash 1 :: !events;
      Array.iteri
        (fun t o -> if o && Random.State.bool rng then dead.(t) <- true)
        open_op
    end
    else begin
      let t = List.nth live (Random.State.int rng (List.length live)) in
      if open_op.(t) then begin
        let ret =
          match Random.State.int rng 40 with
          | 0 -> Lincheck.History.Faulted
          | 1 -> Lincheck.History.Corrupt
          | _ -> Lincheck.History.Ret (small ())
        in
        events := Lincheck.History.Res { tid = t; ret } :: !events;
        open_op.(t) <- false
      end
      else begin
        let op =
          match (register, Random.State.bool rng) with
          | true, true -> Lincheck.Op.Write (1 + Random.State.int rng 3)
          | true, false -> Read
          | false, true -> Inc
          | false, false -> Get
        in
        events := inv t op :: !events;
        open_op.(t) <- true
      end
    end
  done;
  List.rev !events

let test_matches_reference_cut () =
  let rng = Random.State.make [| 2026 |] in
  let cut_witnesses = ref 0 and violations = ref 0 in
  for i = 1 to 20_000 do
    let register = i mod 2 = 0 in
    let spec =
      if register then Lincheck.Specs.register else Lincheck.Specs.counter
    in
    let h = random_history rng ~register in
    let v = Lincheck.Buffered.check spec h in
    let got =
      if v.Lincheck.Buffered.buffered_durable then
        Some (List.length v.Lincheck.Buffered.dropped)
      else None
    in
    let want = reference_cut spec h in
    if got <> want || v.Lincheck.Buffered.skipped <> None then
      Alcotest.failf "history %d: search %s, reference %s@.%a" i
        (match got with Some k -> Fmt.str "drops %d" k | None -> "no cut")
        (match want with Some k -> Fmt.str "drops %d" k | None -> "no cut")
        Lincheck.History.pp h;
    match want with
    | Some k when k > 0 -> incr cut_witnesses
    | Some _ -> ()
    | None -> incr violations
  done;
  (* the sample exercises both non-trivial outcomes *)
  Alcotest.(check bool) "witnesses that need a cut" true (!cut_witnesses > 500);
  Alcotest.(check bool) "histories with no cut" true (!violations > 500)

(* ------------------------------------------------------------------ *)
(* The buffered-sync transformation, end to end                        *)
(* ------------------------------------------------------------------ *)

let home_crash seed : R.crash_spec =
  {
    R.at = 15 + (seed mod 13);
    machine = 2;
    restart_at = 22 + (seed mod 13);
    recovery_threads = 1;
    recovery_ops = 2;
  }

let run_buffered kind seed =
  let c = W.default_config kind Flit.Registry.buffered in
  let c = { c with W.seed; crashes = [ home_crash seed ] } in
  W.run c

let test_single_loc_always_buffered () =
  (* register and counter: buffered-DL on every seed *)
  List.iter
    (fun kind ->
      for seed = 1 to 25 do
        let r = run_buffered kind seed in
        if not (buffered (O.spec kind) r.W.history) then
          Alcotest.failf "%s seed %d: single-location object broke buffered-DL"
            (O.kind_name kind) seed
      done)
    [ O.Register; O.Counter ]

let test_strictly_weaker_than_dl () =
  (* within the same seeds, plain DL must fail somewhere (otherwise the
     buffered criterion would not be doing any work here) *)
  let dl_failures = ref 0 in
  for seed = 1 to 40 do
    let r = run_buffered O.Register seed in
    if
      not
        (Lincheck.Durable.check (O.spec O.Register) r.W.history)
          .Lincheck.Durable.durable
    then incr dl_failures
  done;
  Alcotest.(check bool) "plain DL fails for some seed" true (!dl_failures > 0)

let test_multi_loc_violates_buffered () =
  (* the queue persists its locations out of hb order under cache
     replacement: some seed must violate even buffered-DL *)
  let violations = ref 0 in
  for seed = 1 to 25 do
    let r = run_buffered O.Queue seed in
    if not (buffered (O.spec O.Queue) r.W.history) then incr violations
  done;
  Alcotest.(check bool) "consistent-cut violation found" true (!violations > 0)

let test_sync_upgrades_to_durable () =
  (* write; sync; crash home; read — the synced value must survive.
     One instance serves both schedulers: its dirty set and sync hook
     live on the instance, not in any global table *)
  let fab = Fabric.uniform ~seed:3 ~evict_prob:0.1 2 in
  let flit = Flit.Flit_intf.instantiate Flit.Registry.buffered fab in
  let dirty_count () = (Option.get flit.Flit.Flit_intf.dirty_count) () in
  let sync ctx = (Option.get flit.Flit.Flit_intf.sync) ctx in
  let sched = S.create ~seed:3 fab in
  let module R = Dstruct.Dreg in
  let reg = ref None in
  ignore
    (S.spawn sched ~machine:0 ~name:"writer" (fun ctx ->
         let r = R.create ctx ~flit ~home:1 () in
         reg := Some r;
         R.write r ctx 42;
         Alcotest.(check bool) "dirty before sync" true (dirty_count () > 0);
         sync ctx;
         Alcotest.(check int) "clean after sync" 0 (dirty_count ())));
  ignore (S.run sched);
  Fabric.crash fab 1;
  let sched2 = S.create ~seed:4 fab in
  ignore
    (S.spawn sched2 ~machine:0 ~name:"reader" (fun ctx ->
         match !reg with
         | Some r -> Alcotest.(check int) "synced write survived" 42 (R.read r ctx)
         | None -> ()));
  ignore (S.run sched2)

let test_unsynced_write_can_die () =
  (* without the sync, the same scenario loses the write: force the
     eviction path deterministically *)
  let fab = Fabric.uniform ~seed:3 ~evict_prob:0.0 2 in
  let flit = Flit.Flit_intf.instantiate Flit.Registry.buffered fab in
  let sched = S.create ~seed:3 fab in
  let module R = Dstruct.Dreg in
  let reg = ref None in
  ignore
    (S.spawn sched ~machine:0 ~name:"writer" (fun ctx ->
         let r = R.create ctx ~flit ~home:1 () in
         reg := Some r;
         R.write r ctx 42));
  ignore (S.run sched);
  (match !reg with
  | Some r -> Fabric.evict_loc fab 0 (R.root r) (* to the home's cache *)
  | None -> ());
  Fabric.crash fab 1;
  let sched2 = S.create ~seed:4 fab in
  ignore
    (S.spawn sched2 ~machine:0 ~name:"reader" (fun ctx ->
         match !reg with
         | Some r ->
             Alcotest.(check int) "unsynced write lost" 0 (R.read r ctx)
         | None -> ()));
  ignore (S.run sched2)

(* [sync]'s sweep contract.  Fault-free it RFlushes every dirty line back
   to back and ends in one scheduling point, however many lines are
   dirty; under a fault plan each line goes through the retry engine,
   and a fault that survives it aborts the sweep with every line still
   dirty (re-flushing is safe; forgetting is not).  The step counts and
   stats were recorded at the commit before the sweep became
   [Ops.rflush_all]. *)

let dirty_lines = 4

(* Dirty [dirty_lines] fresh lines homed on machine 1. *)
let write_dirty flit ctx =
  for v = 1 to dirty_lines do
    let x = Runtime.Ops.alloc ctx ~owner:1 in
    flit.Flit.Flit_intf.shared_store ctx x v ~pflag:true
  done

(* One writer on machine 0 dirties the lines, then optionally syncs;
   returns the run's step count, stats and the dirty count left. *)
let sweep_run ~sync =
  let fab = Fabric.uniform ~seed:3 ~evict_prob:0.0 2 in
  let flit = Flit.Flit_intf.instantiate Flit.Registry.buffered fab in
  let sched = S.create ~seed:3 fab in
  ignore
    (S.spawn sched ~machine:0 ~name:"writer" (fun ctx ->
         write_dirty flit ctx;
         if sync then (Option.get flit.Flit.Flit_intf.sync) ctx));
  let steps = S.run sched in
  ( steps,
    Fabric.Stats.to_json (Fabric.stats fab),
    (Option.get flit.Flit.Flit_intf.dirty_count) () )

let test_sync_one_scheduling_point () =
  let steps0, _, dirty0 = sweep_run ~sync:false in
  let steps, stats, dirty = sweep_run ~sync:true in
  Alcotest.(check int) "all lines dirty before the sweep" dirty_lines dirty0;
  Alcotest.(check int) "sweep leaves nothing dirty" 0 dirty;
  Alcotest.(check int) "the sweep is one scheduling decision" (steps0 + 1)
    steps;
  Alcotest.(check int) "pinned step count" 6 steps;
  Alcotest.(check string) "pinned stats"
    ("{\"loads_local_cache\":0,\"loads_remote_cache\":0,"
    ^ "\"loads_mem\":0,\"lstores\":4,\"rstores\":0,\"mstores\":0,"
    ^ "\"lflushes\":0,\"rflushes\":4,\"faas\":0,\"cass\":0,"
    ^ "\"evictions_horizontal\":0,\"evictions_vertical\":0,"
    ^ "\"crashes\":0,\"faults_injected\":0,\"retries\":0,"
    ^ "\"degraded_ops\":0,\"cycles\":1004}")
    stats

let test_sync_fault_keeps_dirty () =
  let plan = Fabric.Faults.plan ~seed:11 () in
  let fab = Fabric.uniform ~seed:5 ~evict_prob:0.0 ~faults:plan 2 in
  let flit = Flit.Flit_intf.instantiate Flit.Registry.buffered fab in
  let dirty_count = Option.get flit.Flit.Flit_intf.dirty_count in
  let sched = S.create ~seed:3 fab in
  ignore (S.spawn sched ~machine:0 ~name:"writer" (write_dirty flit));
  ignore (S.run sched);
  Alcotest.(check int) "all lines dirty" dirty_lines (dirty_count ());
  Fabric.Faults.degrade_link plan 0 1 ~nack_prob:1.0 ~delay_prob:0.0
    ~delay_cycles:0;
  let st = Fabric.stats fab in
  let retries0 = st.Fabric.Stats.retries
  and faults0 = st.Fabric.Stats.faults_injected in
  let raised = ref None in
  let sched2 = S.create ~seed:4 fab in
  ignore
    (S.spawn sched2 ~machine:0 ~name:"syncer" (fun ctx ->
         match (Option.get flit.Flit.Flit_intf.sync) ctx with
         | () -> ()
         | exception Runtime.Ops.Fault f -> raised := Some f));
  ignore (S.run sched2);
  (match !raised with
  | Some (Fabric.Faults.Nack { from_m = 0; to_m = 1 }) -> ()
  | Some _ | None -> Alcotest.fail "expected Ops.Fault (Nack 0->1)");
  let pol = Fabric.Faults.default_retry in
  Alcotest.(check int) "only the first line's retries spent"
    pol.Fabric.Faults.retries (st.Fabric.Stats.retries - retries0);
  Alcotest.(check int) "only the first line's attempts faulted"
    (pol.Fabric.Faults.retries + 1)
    (st.Fabric.Stats.faults_injected - faults0);
  Alcotest.(check int) "every line still dirty" dirty_lines (dirty_count ())

let () =
  Alcotest.run "buffered"
    [
      ( "checker",
        [
          Alcotest.test_case "DL implies buffered" `Quick
            test_dl_implies_buffered;
          Alcotest.test_case "drop lost write" `Quick test_drop_lost_write;
          Alcotest.test_case "suffix drop" `Quick test_drop_must_be_suffix;
          Alcotest.test_case "cut violation rejected" `Quick
            test_cut_violation_rejected;
          Alcotest.test_case "concurrent cut ok" `Quick
            test_cut_violation_concurrent_ok;
          Alcotest.test_case "post-crash not droppable" `Quick
            test_post_crash_ops_not_droppable;
          Alcotest.test_case "no crash = plain lin" `Quick
            test_no_crash_equals_linearizability;
          Alcotest.test_case "dropped reads" `Quick test_dropped_reads_allowed;
          Alcotest.test_case "many candidates are decided" `Quick
            test_many_candidates_decided;
          Alcotest.test_case "too long is undecided" `Quick
            test_too_long_is_undecided;
          Alcotest.test_case "matches the brute-force cut" `Slow
            test_matches_reference_cut;
        ] );
      ( "transformation (E11)",
        [
          Alcotest.test_case "single-loc always buffered" `Slow
            test_single_loc_always_buffered;
          Alcotest.test_case "strictly weaker than DL" `Slow
            test_strictly_weaker_than_dl;
          Alcotest.test_case "multi-loc violates buffered" `Slow
            test_multi_loc_violates_buffered;
          Alcotest.test_case "sync upgrades to durable" `Quick
            test_sync_upgrades_to_durable;
          Alcotest.test_case "unsynced write can die" `Quick
            test_unsynced_write_can_die;
          Alcotest.test_case "sync is one scheduling point" `Quick
            test_sync_one_scheduling_point;
          Alcotest.test_case "faulted sync keeps lines dirty" `Quick
            test_sync_fault_keeps_dirty;
        ] );
    ]
