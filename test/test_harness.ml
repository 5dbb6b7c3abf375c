(* The harness itself: object dispatch plumbing, the random-operation
   generators, workload determinism and history well-formedness, and the
   simulated-cycle measurement layer. *)

module O = Harness.Objects
module W = Harness.Workload
module R = Harness.Runcore
module M = Harness.Measure

(* ------------------------------------------------------------------ *)
(* Objects                                                             *)
(* ------------------------------------------------------------------ *)

let test_kind_names_unique () =
  let names = List.map O.kind_name O.all_kinds in
  Alcotest.(check int) "eight kinds" 8 (List.length O.all_kinds);
  Alcotest.(check int) "names unique" (List.length names)
    (List.length (List.sort_uniq compare names))

let test_specs_match_kinds () =
  (* every kind's generator only emits ops its spec accepts from any
     reachable state — checked by replaying random sequential runs in
     test_dstruct; here, cheaply: the op is at least legal from init *)
  List.iter
    (fun kind ->
      let module S = (val O.spec kind : Lincheck.Spec.S) in
      let rng = Random.State.make [| 7 |] in
      for _ = 1 to 50 do
        let op, args = O.random_op kind rng in
        (* queue/stack/map reads from empty are legal; every generated op
           must have at least one legal outcome from the initial state *)
        Alcotest.(check bool)
          (Fmt.str "%s: %s legal from init" (O.kind_name kind) op)
          true
          (S.step S.init op args <> [])
      done)
    O.all_kinds

let prop_ratio_op_extremes =
  QCheck.Test.make ~name:"ratio_op respects 0.0 and 1.0" ~count:100
    QCheck.small_nat
    (fun seed ->
      let writes_of kind ratio =
        let rng = Random.State.make [| seed |] in
        let ops = List.init 30 (fun _ -> O.ratio_op kind rng ~read_ratio:ratio) in
        List.map fst ops
      in
      List.for_all
        (fun kind ->
          let reads k = writes_of k 1.0 in
          let writes k = writes_of k 0.0 in
          let is_write op =
            List.mem op [ "write"; "inc"; "push"; "enq"; "add"; "remove";
                          "put"; "del"; "append" ]
          in
          List.for_all (fun op -> not (is_write op)) (reads kind)
          && List.for_all is_write (writes kind))
        O.all_kinds)

(* ------------------------------------------------------------------ *)
(* Workload                                                            *)
(* ------------------------------------------------------------------ *)

let test_workload_deterministic () =
  let run () =
    let c = W.default_config O.Stack Flit.Registry.alg3_rstore in
    let c =
      {
        c with
        W.seed = 9;
        crashes =
          [ { R.at = 18; machine = 2; restart_at = 25; recovery_threads = 1;
              recovery_ops = 2 } ];
      }
    in
    (W.run c).W.history
  in
  Alcotest.(check bool) "same seed, same history" true (run () = run ())

let test_workload_seed_matters () =
  let hist seed =
    let c = W.default_config O.Stack Flit.Registry.alg3_rstore in
    (W.run { c with W.seed }).W.history
  in
  Alcotest.(check bool) "different seeds diverge somewhere" true
    (List.exists (fun s -> hist s <> hist 1) [ 2; 3; 4 ])

let test_workload_history_well_formed () =
  for seed = 1 to 10 do
    let c = W.default_config O.Map Flit.Registry.alg3'_weakest in
    let c =
      {
        c with
        W.seed;
        crashes =
          [ { R.at = 10 + seed; machine = 0; restart_at = 16 + seed;
              recovery_threads = 2; recovery_ops = 1 } ];
      }
    in
    let r = W.run c in
    Alcotest.(check bool)
      (Fmt.str "seed %d well-formed" seed)
      true
      (Lincheck.History.well_formed r.W.history)
  done

let test_workload_op_counts () =
  (* without crashes, every worker completes exactly ops_per_thread ops *)
  let c = W.default_config O.Counter Flit.Registry.alg2_mstore in
  let c = { c with W.worker_machines = [ 0; 1 ]; ops_per_thread = 4 } in
  let r = W.run c in
  let ops = Lincheck.History.ops r.W.history in
  Alcotest.(check int) "8 ops" 8 (List.length ops);
  Alcotest.(check bool) "all completed" true
    (List.for_all (fun o -> o.Lincheck.History.ret <> None) ops)

let test_workload_crash_recorded () =
  let c = W.default_config O.Register Flit.Registry.alg2_mstore in
  let c =
    {
      c with
      W.crashes =
        [ { R.at = 10; machine = 2; restart_at = 14; recovery_threads = 0;
            recovery_ops = 0 } ];
    }
  in
  let r = W.run c in
  Alcotest.(check int) "one crash event" 1
    (Lincheck.History.crash_count r.W.history)

(* ------------------------------------------------------------------ *)
(* Measure                                                             *)
(* ------------------------------------------------------------------ *)

let test_measure_basic () =
  let c = M.default_config O.Register Flit.Registry.alg2_mstore in
  let c = { c with M.ops_per_thread = 50 } in
  let p = M.run c in
  Alcotest.(check int) "total ops" 100 p.M.total_ops;
  Alcotest.(check bool) "cycles positive" true (p.M.cycles > 0);
  Alcotest.(check bool) "cycles/op consistent" true
    (abs_float
       (p.M.cycles_per_op -. (float_of_int p.M.cycles /. 100.))
    < 1e-9)

let test_measure_deterministic () =
  let c = M.default_config O.Queue Flit.Registry.alg3_rstore in
  let c = { c with M.ops_per_thread = 40 } in
  Alcotest.(check int) "same cycles" (M.run c).M.cycles (M.run c).M.cycles

let test_measure_durability_ordering () =
  (* durable transformations must cost more than no protection *)
  let cost t =
    (M.run { (M.default_config O.Register t) with M.ops_per_thread = 100 })
      .M.cycles_per_op
  in
  Alcotest.(check bool) "noflush cheapest" true
    (cost Flit.Registry.noflush < cost Flit.Registry.weakest_lflush);
  Alcotest.(check bool) "lflush < rflush path" true
    (cost Flit.Registry.weakest_lflush < cost Flit.Registry.alg3'_weakest)

let test_measure_flat_model () =
  (* under the flat latency model primitives all cost ~1: cycles/op
     collapses and transformation differences shrink to op counts *)
  let c =
    {
      (M.default_config O.Register Flit.Registry.alg3_rstore) with
      M.model = Fabric.Latency.flat;
      ops_per_thread = 50;
    }
  in
  let p = M.run c in
  Alcotest.(check bool) "order of magnitude smaller" true
    (p.M.cycles_per_op < 20.)

let test_measure_sync_every () =
  (* syncing less often must not cost more *)
  let cost sync_every =
    (M.run
       {
         (M.default_config O.Register Flit.Registry.buffered) with
         M.sync_every;
         ops_per_thread = 100;
       })
      .M.cycles_per_op
  in
  Alcotest.(check bool) "amortisation monotone-ish" true
    (cost 64 <= cost 1)

let test_measure_topology () =
  let cost topology =
    (M.run
       {
         (M.default_config O.Register Flit.Registry.alg2_mstore) with
         M.n_machines = 4;
         topology;
         ops_per_thread = 60;
       })
      .M.cycles_per_op
  in
  Alcotest.(check bool) "spine crossing costs more" true
    (cost (Some (Fabric.Topology.two_level [ 3; 1 ])) > cost None)

let () =
  Alcotest.run "harness"
    [
      ( "objects",
        [
          Alcotest.test_case "kind names" `Quick test_kind_names_unique;
          Alcotest.test_case "generated ops legal" `Quick
            test_specs_match_kinds;
          QCheck_alcotest.to_alcotest prop_ratio_op_extremes;
        ] );
      ( "workload",
        [
          Alcotest.test_case "deterministic" `Quick test_workload_deterministic;
          Alcotest.test_case "seed matters" `Quick test_workload_seed_matters;
          Alcotest.test_case "well-formed histories" `Quick
            test_workload_history_well_formed;
          Alcotest.test_case "op counts" `Quick test_workload_op_counts;
          Alcotest.test_case "crash recorded" `Quick test_workload_crash_recorded;
        ] );
      ( "measure",
        [
          Alcotest.test_case "basic" `Quick test_measure_basic;
          Alcotest.test_case "deterministic" `Quick test_measure_deterministic;
          Alcotest.test_case "durability ordering" `Quick
            test_measure_durability_ordering;
          Alcotest.test_case "flat model" `Quick test_measure_flat_model;
          Alcotest.test_case "sync amortisation" `Quick test_measure_sync_every;
          Alcotest.test_case "topology" `Quick test_measure_topology;
        ] );
    ]
