(* End-to-end durability (experiments E6/E7): random concurrent workloads
   with crash injection, checked for durable linearizability.

   The matrix follows DESIGN.md's Finding F1:
   - compute-node (worker) crashes: all four durable transformations must
     always produce durably linearizable histories;
   - home-node (data owner) crashes: the MStore-based transformations
     must always pass; Algorithm 3 has the F1 window, which we *pin* by
     asserting the violation is found within a seed sweep;
   - the noflush control must fail a crafted deterministic scenario
     (negative control for the whole harness);
   - Proposition 2: the LFlush-weakest variant is durable when volatile
     memory nodes never crash — and demonstrably not when they do. *)

module W = Harness.Workload
module R = Harness.Runcore
module O = Harness.Objects
module S = Runtime.Sched

let worker_crash seed : R.crash_spec =
  {
    R.at = 15 + (seed mod 17);
    machine = 0;
    restart_at = 22 + (seed mod 17);
    recovery_threads = 1;
    recovery_ops = 2;
  }

let home_crash seed : R.crash_spec =
  { (worker_crash seed) with R.machine = 2 }

let sweep ?(seeds = 12) kind transform ~crash_of ~volatile_home =
  let failures = ref [] in
  for seed = 1 to seeds do
    let c = W.default_config kind transform in
    let c = { c with W.seed; volatile_home; crashes = [ crash_of seed ] } in
    let v = W.check c in
    if not v.Lincheck.Durable.durable then failures := seed :: !failures
  done;
  List.rev !failures

(* ------------------------------------------------------------------ *)
(* E7b: worker crashes — everything durable must pass                  *)
(* ------------------------------------------------------------------ *)

let worker_crash_cases =
  List.concat_map
    (fun t ->
      List.map
        (fun kind ->
          Alcotest.test_case
            (Fmt.str "%s/%s" (O.kind_name kind) (Flit.Flit_intf.name t))
            `Quick
            (fun () ->
              let fails =
                sweep kind t ~crash_of:worker_crash ~volatile_home:false
              in
              Alcotest.(check (list int)) "no failing seeds" [] fails))
        O.all_kinds)
    [ Flit.Registry.simple; Flit.Registry.alg2_mstore;
      Flit.Registry.alg3_rstore; Flit.Registry.alg3'_weakest ]

(* ------------------------------------------------------------------ *)
(* E7a: home crashes — MStore-based transformations are immune         *)
(* ------------------------------------------------------------------ *)

let home_crash_mstore_cases =
  List.concat_map
    (fun t ->
      List.map
        (fun kind ->
          Alcotest.test_case
            (Fmt.str "%s/%s" (O.kind_name kind) (Flit.Flit_intf.name t))
            `Quick
            (fun () ->
              let fails =
                sweep kind t ~crash_of:home_crash ~volatile_home:false
              in
              Alcotest.(check (list int)) "no failing seeds" [] fails))
        O.all_kinds)
    [ Flit.Registry.simple; Flit.Registry.alg2_mstore ]

(* ------------------------------------------------------------------ *)
(* F1: Algorithm 3's owner-crash window, pinned                        *)
(* ------------------------------------------------------------------ *)

let test_f1_alg3_violation_found () =
  (* the violation is timing-dependent; a 40-seed sweep over the queue
     reliably exposes it (DESIGN.md measured ~10%) *)
  let fails =
    sweep ~seeds:40 O.Queue Flit.Registry.alg3_rstore ~crash_of:home_crash
      ~volatile_home:false
  in
  Alcotest.(check bool)
    "Alg 3 owner-crash violation reproduced (Finding F1)" true (fails <> [])

let test_f1_alg2_contrast () =
  (* identical sweep with Algorithm 2: no violation — the contrast is
     the point of F1 *)
  let fails =
    sweep ~seeds:40 O.Queue Flit.Registry.alg2_mstore ~crash_of:home_crash
      ~volatile_home:false
  in
  Alcotest.(check (list int)) "Alg 2 immune" [] fails

(* ------------------------------------------------------------------ *)
(* Negative control: crafted noflush violation                         *)
(* ------------------------------------------------------------------ *)

let test_noflush_crafted_violation () =
  (* Deterministic Fig. 5 scenario: a completed unflushed write is
     evicted to the home machine's cache, the home crashes, and a
     post-crash read observes the initial value. *)
  let fab = Fabric.uniform ~seed:1 ~evict_prob:0.0 2 in
  let flit = Flit.Flit_intf.instantiate Flit.Registry.noflush fab in
  let sched = S.create ~seed:1 fab in
  let module R = Dstruct.Dreg in
  let events = ref [] in
  let record e = events := e :: !events in
  let reg = ref None in
  ignore
    (S.spawn sched ~machine:0 ~name:"writer" (fun ctx ->
         let r = R.create ctx ~flit ~home:1 () in
         reg := Some r;
         record (Lincheck.History.Inv { tid = ctx.S.tid; op = Lincheck.Op.Write 1 });
         R.write r ctx 1;
         record (Lincheck.History.Res { tid = ctx.S.tid; ret = Lincheck.History.Ret 0 })));
  S.at_step sched 50
    (S.Call
       (fun s ->
         (* evict the register line out of the writer's cache, then
            crash the home: the value dies in transit *)
         (match !reg with
         | Some r -> Fabric.evict_loc fab 0 (R.root r)
         | None -> ());
         record (Lincheck.History.Crash { machine = 1 });
         S.crash_now s 1));
  S.at_step sched 51
    (S.Call
       (fun s ->
         S.restart s 1;
         ignore
           (S.spawn s ~machine:0 ~name:"reader" (fun ctx ->
                match !reg with
                | Some r ->
                    record
                      (Lincheck.History.Inv { tid = ctx.S.tid; op = Lincheck.Op.Read });
                    let v = R.read r ctx in
                    record (Lincheck.History.Res { tid = ctx.S.tid; ret = Lincheck.History.Ret v })
                | None -> ()))));
  ignore (S.run sched);
  let h = List.rev !events in
  let v = Lincheck.Durable.check Lincheck.Specs.register h in
  Alcotest.(check bool) "noflush violation detected" false v.Lincheck.Durable.durable

let test_weakest_same_scenario_survives () =
  (* the same crafted scenario with Algorithm 3': the write's RFlush ran
     before the eviction/crash, so the read must see 1 and the history
     checks out *)
  let fab = Fabric.uniform ~seed:1 ~evict_prob:0.0 2 in
  let flit = Flit.Flit_intf.instantiate Flit.Registry.alg3'_weakest fab in
  let sched = S.create ~seed:1 fab in
  let module R = Dstruct.Dreg in
  let events = ref [] in
  let record e = events := e :: !events in
  let reg = ref None in
  ignore
    (S.spawn sched ~machine:0 ~name:"writer" (fun ctx ->
         let r = R.create ctx ~flit ~home:1 () in
         reg := Some r;
         record (Lincheck.History.Inv { tid = ctx.S.tid; op = Lincheck.Op.Write 1 });
         R.write r ctx 1;
         record (Lincheck.History.Res { tid = ctx.S.tid; ret = Lincheck.History.Ret 0 })));
  S.at_step sched 50
    (S.Call
       (fun s ->
         (match !reg with
         | Some r -> Fabric.evict_loc fab 0 (R.root r)
         | None -> ());
         record (Lincheck.History.Crash { machine = 1 });
         S.crash_now s 1));
  S.at_step sched 51
    (S.Call
       (fun s ->
         S.restart s 1;
         ignore
           (S.spawn s ~machine:0 ~name:"reader" (fun ctx ->
                match !reg with
                | Some r ->
                    let v = R.read r ctx in
                    record
                      (Lincheck.History.Inv { tid = ctx.S.tid; op = Lincheck.Op.Read });
                    record (Lincheck.History.Res { tid = ctx.S.tid; ret = Lincheck.History.Ret v });
                    Alcotest.(check int) "read the persisted value" 1 v
                | None -> ()))));
  ignore (S.run sched);
  let v = Lincheck.Durable.check Lincheck.Specs.register (List.rev !events) in
  Alcotest.(check bool) "durable" true v.Lincheck.Durable.durable

(* ------------------------------------------------------------------ *)
(* E6: Proposition 2                                                   *)
(* ------------------------------------------------------------------ *)

let prop2_cases =
  (* volatile home that never crashes + compute crashes: the LFlush
     variant guarantees durable linearizability *)
  List.map
    (fun kind ->
      Alcotest.test_case
        (Fmt.str "%s/weakest-lflush volatile-home" (O.kind_name kind))
        `Quick
        (fun () ->
          let fails =
            sweep kind Flit.Registry.weakest_lflush ~crash_of:worker_crash
              ~volatile_home:true
          in
          Alcotest.(check (list int)) "no failing seeds" [] fails))
    O.all_kinds

let test_prop2_condition_is_necessary () =
  (* when the volatile memory node itself crashes, the guarantee is
     gone: every completed write lived at the home's cache/memory only,
     so a home crash loses it — a seed sweep must expose a violation *)
  let fails =
    sweep ~seeds:20 O.Register Flit.Registry.weakest_lflush
      ~crash_of:home_crash ~volatile_home:true
  in
  Alcotest.(check bool) "violation without the Prop-2 assumption" true
    (fails <> [])

(* ------------------------------------------------------------------ *)
(* Robustness scenarios                                                *)
(* ------------------------------------------------------------------ *)

let test_double_crash () =
  (* two different machines crash during the run *)
  List.iter
    (fun t ->
      for seed = 1 to 6 do
        let c = W.default_config O.Stack t in
        let c =
          {
            c with
            W.seed;
            crashes =
              [
                { R.at = 12; machine = 0; restart_at = 18; recovery_threads = 1;
                  recovery_ops = 2 };
                { R.at = 25; machine = 1; restart_at = 31; recovery_threads = 1;
                  recovery_ops = 1 };
              ];
          }
        in
        let v = W.check c in
        if not v.Lincheck.Durable.durable then
          Alcotest.failf "%s seed %d: double worker crash broke durability"
            (Flit.Flit_intf.name t) seed
      done)
    [ Flit.Registry.simple; Flit.Registry.alg2_mstore ]

let test_crash_before_creation () =
  (* home crashes at step 0, before the object exists: the run must
     terminate cleanly with an empty (vacuously durable) history *)
  let c = W.default_config O.Queue Flit.Registry.alg2_mstore in
  let c =
    {
      c with
      W.crashes =
        [ { R.at = 0; machine = 2; restart_at = 2; recovery_threads = 0;
            recovery_ops = 0 } ];
    }
  in
  let r = W.run c in
  Alcotest.(check bool) "well-formed" true
    (Lincheck.History.well_formed r.W.history)

let test_crash_before_creation_with_recovery () =
  (* same, but the crash plan *asks* for recovery workers: there is no
     object to recover, so none may be spawned — the run must terminate
     with only the crash on record, not die trying to dispatch on a
     missing instance *)
  let c = W.default_config O.Queue Flit.Registry.alg2_mstore in
  let c =
    {
      c with
      W.crashes =
        [ { R.at = 0; machine = 2; restart_at = 2; recovery_threads = 1;
            recovery_ops = 2 } ];
    }
  in
  let r = W.run c in
  Alcotest.(check int) "crash recorded" 1
    (Lincheck.History.crash_count r.W.history);
  Alcotest.(check int) "no recovery ops" 0
    (List.length (Lincheck.History.ops r.W.history));
  Alcotest.(check bool) "vacuously durable" true
    (W.check c).Lincheck.Durable.durable

let test_volatile_home_crash_mstore_violation () =
  (* the envelope boundary is tight even for the MStore algorithms:
     when the home's memory is volatile and the home itself crashes,
     completed writes die with it — a seed sweep must find a violation
     (which is exactly why the fuzzer's profiles keep volatile homes
     crash-free for every transform but the noflush control) *)
  let fails =
    sweep ~seeds:20 O.Register Flit.Registry.alg2_mstore
      ~crash_of:home_crash ~volatile_home:true
  in
  Alcotest.(check bool) "violation found" true (fails <> [])

(* ------------------------------------------------------------------ *)
(* Finding F2 (discovered by the lib/fuzz campaigns)                   *)
(* ------------------------------------------------------------------ *)

(* Shrunk counterexample banked by the campaign (seed=1, cell 154): two
   writers on machines 0 and 1, NV home on machine 3, machine 1 crashes
   mid-workload.  t2's flagged store steals the dirty line from t1's
   machine — invalidating t1's copy — so t1's LFlush (local-only, a
   no-op when the flusher doesn't hold the line) persists nothing;
   machine 1 then crashes before t2's own flush and a *completed*
   write(1) dies, even though the home is non-volatile and never
   crashes.  Prop 2's "volatile machines never crash" condition is not
   enough: the crashed machine must also not host concurrent flagged
   writers.  Alg 3' (RFlush) survives the identical schedule because
   RFlush forces the line home regardless of who holds it. *)
let f2_config transform =
  {
    W.kind = O.Register;
    transform;
    n_machines = 4;
    home = 3;
    volatile_home = false;
    worker_machines = [ 0; 1 ];
    ops_per_thread = 4;
    crashes =
      [ { R.at = 28; machine = 1; restart_at = 36; recovery_threads = 1;
          recovery_ops = 1 } ];
    faults = [];
    seed = 400195;
    evict_prob = 0.0;
    cache_capacity = 1;
    value_range = 1;
    pflag = true;
    replicas = 1;
  }

let test_f2_lflush_violation () =
  let v = W.check (f2_config Flit.Registry.weakest_lflush) in
  Alcotest.(check bool) "search completed" true (v.Lincheck.Durable.skipped = None);
  Alcotest.(check bool) "completed store lost" false v.Lincheck.Durable.durable

let test_f2_rflush_contrast () =
  let v = W.check (f2_config Flit.Registry.alg3'_weakest) in
  Alcotest.(check bool) "alg3' survives the same schedule" true
    v.Lincheck.Durable.durable

let test_f2_adaptive_volatile_home () =
  let c = { (f2_config Flit.Registry.adaptive) with W.volatile_home = true } in
  let v = W.check c in
  Alcotest.(check bool) "search completed" true (v.Lincheck.Durable.skipped = None);
  Alcotest.(check bool) "adaptive volatile-home (LFlush path) shares F2" false
    v.Lincheck.Durable.durable

let test_stats_returned () =
  let c = W.default_config O.Counter Flit.Registry.alg3_rstore in
  let r = W.run c in
  Alcotest.(check bool) "work happened" true
    (Fabric.Stats.stores r.W.stats > 0 && r.W.stats.Fabric.Stats.cycles > 0)

(* ------------------------------------------------------------------ *)
(* Adaptive transformation durability (E12)                            *)
(* ------------------------------------------------------------------ *)

let adaptive_cases =
  (* NV home + worker crashes: full DL, like Alg 3' *)
  List.map
    (fun kind ->
      Alcotest.test_case
        (Fmt.str "%s/adaptive nv-home" (O.kind_name kind))
        `Quick
        (fun () ->
          let fails =
            sweep kind Flit.Registry.adaptive ~crash_of:worker_crash
              ~volatile_home:false
          in
          Alcotest.(check (list int)) "no failing seeds" [] fails))
    O.all_kinds
  @ (* volatile home that never crashes + worker crashes: the Prop-2
       guarantee via the LFlush path it auto-selects.  These 12-seed
       sweeps pass, but the guarantee is NOT universal — see the
       finding-f2 group below for a rarer schedule (found by the
       fuzzer) where a worker crash does lose a completed store on
       this path. *)
  List.map
    (fun kind ->
      Alcotest.test_case
        (Fmt.str "%s/adaptive volatile-home" (O.kind_name kind))
        `Quick
        (fun () ->
          let fails =
            sweep kind Flit.Registry.adaptive ~crash_of:worker_crash
              ~volatile_home:true
          in
          Alcotest.(check (list int)) "no failing seeds" [] fails))
    O.all_kinds

let () =
  Alcotest.run "durable"
    [
      ("worker-crash (E7b)", worker_crash_cases);
      ("home-crash mstore (E7a)", home_crash_mstore_cases);
      ( "finding-f1",
        [
          Alcotest.test_case "alg3 violation reproduced" `Slow
            test_f1_alg3_violation_found;
          Alcotest.test_case "alg2 immune (contrast)" `Slow
            test_f1_alg2_contrast;
        ] );
      ( "negative-control",
        [
          Alcotest.test_case "noflush crafted violation" `Quick
            test_noflush_crafted_violation;
          Alcotest.test_case "alg3' same scenario survives" `Quick
            test_weakest_same_scenario_survives;
        ] );
      ("prop2 (E6)", prop2_cases);
      ("adaptive (E12)", adaptive_cases);
      ( "finding-f2",
        [
          Alcotest.test_case "weakest-lflush loses a completed store" `Quick
            test_f2_lflush_violation;
          Alcotest.test_case "alg3' immune (contrast)" `Quick
            test_f2_rflush_contrast;
          Alcotest.test_case "adaptive volatile-home shares F2" `Quick
            test_f2_adaptive_volatile_home;
        ] );
      ( "prop2-necessity",
        [
          Alcotest.test_case "violation when memory node crashes" `Slow
            test_prop2_condition_is_necessary;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "double crash" `Quick test_double_crash;
          Alcotest.test_case "crash before creation" `Quick
            test_crash_before_creation;
          Alcotest.test_case "crash before creation + recovery" `Quick
            test_crash_before_creation_with_recovery;
          Alcotest.test_case "volatile home crash breaks mstore" `Slow
            test_volatile_home_crash_mstore_violation;
          Alcotest.test_case "stats returned" `Quick test_stats_returned;
        ] );
    ]
