(* The paper-table harness: regenerates every table/figure of the paper
   and the simulated-cycle experiments of EXPERIMENTS.md.  Wall-clock
   timing lives in perfbench/; this binary takes no arguments.

   Sections (all printed by `dune exec bench/main.exe`):
     [E2]  Fig. 4 litmus-test table (9 rows) + Fig. 5 variants
     [E4]  Table 1 transaction mapping
     [E5]  Proposition 1 verdicts (exhaustive bounded model checking)
     [E7]  durability matrix: object x transformation x crash regime
     [E8]  simulated-cycles performance: transformation comparison,
           read-ratio sweep, machine-count sweep
     [E9]  FliT-counter ablation
     [E11–E13] buffered durability, address adaptivity, switch topology *)

let hr title = Fmt.pr "@.=== %s ===@." title

(* ------------------------------------------------------------------ *)
(* E2: litmus tables                                                   *)
(* ------------------------------------------------------------------ *)

let litmus_tables () =
  hr "E2: Fig. 4 litmus tests (paper's table, regenerated)";
  Fmt.pr "%a@." Cxl0.Litmus.pp_table Cxl0.Litmus.fig4;
  hr "E3: Fig. 5 motivating example variants";
  Fmt.pr "%a@." Cxl0.Litmus.pp_table Cxl0.Litmus.fig5

(* ------------------------------------------------------------------ *)
(* E4: Table 1                                                         *)
(* ------------------------------------------------------------------ *)

let table1 () =
  hr "E4: Table 1 — CXL 3.1 transactions to CXL0 instructions";
  Fmt.pr "%a" Cxl0.Cxl_txn.pp_table1 ()

(* ------------------------------------------------------------------ *)
(* E5: Proposition 1                                                   *)
(* ------------------------------------------------------------------ *)

let prop1 () =
  hr "E5: Proposition 1 (exhaustive over the default bounded domain)";
  let _sys, failures = Cxl0.Props.check_default () in
  List.iter
    (fun it ->
      let f =
        List.filter (fun f -> f.Cxl0.Props.item_id = it.Cxl0.Props.id) failures
      in
      Fmt.pr "  (%d) %-55s %s@." it.Cxl0.Props.id it.Cxl0.Props.name
        (if f = [] then "HOLDS" else "FAILS"))
    Cxl0.Props.items

(* ------------------------------------------------------------------ *)
(* E7: durability matrix                                               *)
(* ------------------------------------------------------------------ *)

let durability_matrix () =
  hr "E7: durability matrix (12 seeds each; fails/seeds)";
  let sweep kind t ~machine =
    let fails = ref 0 and skips = ref 0 in
    for seed = 1 to 12 do
      let c =
        Fuzz.Gen.closed_loop_config kind t ~crash:(Some machine)
          ~faults:Fault_free seed
      in
      let v = Harness.Workload.check c in
      match v.Lincheck.Durable.skipped with
      | Some _ -> incr skips (* undecidable history, not a violation *)
      | None -> if not v.Lincheck.Durable.durable then incr fails
    done;
    (!fails, !skips)
  in
  Fmt.pr "%-18s" "";
  List.iter
    (fun k -> Fmt.pr "%14s" (Harness.Objects.kind_name k))
    Harness.Objects.all_kinds;
  Fmt.pr "@.";
  List.iter
    (fun regime ->
      let machine = if regime = "worker-crash" then 0 else 2 in
      Fmt.pr "-- %s --@." regime;
      List.iter
        (fun t ->
          Fmt.pr "%-18s" (Flit.Flit_intf.name t);
          List.iter
            (fun kind ->
              let f, s = sweep kind t ~machine in
              Fmt.pr "%14s"
                (if s = 0 then Printf.sprintf "%d/12" f
                 else Printf.sprintf "%d/12 (%d?)" f s))
            Harness.Objects.all_kinds;
          Fmt.pr "@.")
        [ Flit.Registry.simple; Flit.Registry.alg2_mstore;
          Flit.Registry.alg3_rstore; Flit.Registry.alg3'_weakest;
          Flit.Registry.noflush ])
    [ "worker-crash"; "home-crash" ];
  Fmt.pr
    "(expected shape: all durable transformations 0 under worker-crash; \
     Alg 3/3' may be nonzero under home-crash = Finding F1; noflush \
     nonzero in both)@."

(* ------------------------------------------------------------------ *)
(* E7c: fuzz coverage                                                  *)
(* ------------------------------------------------------------------ *)

let e7_fuzz_coverage () =
  hr "E7c: crash-fault fuzz coverage (100 random cells per transform, \
      inside each guarantee envelope)";
  Fmt.pr "%-24s %8s %8s %8s %12s@." "transform" "cells" "ok" "skipped"
    "violations";
  List.iter
    (fun t ->
      let profile = Fuzz.Gen.profile_of_transform t in
      let s =
        Fuzz.Campaign.run ~jobs:(Cxl0.Parallel.default_jobs ())
          ~corpus_dir:(Filename.concat (Filename.get_temp_dir_name ())
                         "cxl0-bench-corpus")
          profile ~cells:100 ~seed:1 ()
      in
      Fmt.pr "%-24s %8d %8d %8d %12d@." s.Fuzz.Campaign.transform_name
        s.Fuzz.Campaign.cells s.Fuzz.Campaign.ok s.Fuzz.Campaign.skipped
        (List.length s.Fuzz.Campaign.violations);
      Fmt.pr "  stats: %s@." (Fabric.Stats.to_json s.Fuzz.Campaign.stats))
    (Flit.Registry.all @ Flit.Registry.extensions);
  Fmt.pr
    "(expected shape: zero violations everywhere except the noflush \
     control — durable transforms fuzzed inside their envelope)@."

(* ------------------------------------------------------------------ *)
(* E8: simulated-cycle performance                                     *)
(* ------------------------------------------------------------------ *)

let transforms_for_perf =
  [
    Flit.Registry.simple; Flit.Registry.alg2_mstore; Flit.Registry.alg3_rstore;
    Flit.Registry.alg3'_weakest; Flit.Registry.weakest_lflush;
    Flit.Registry.noflush;
  ]

let e8_transform_comparison () =
  hr "E8a: cycles/op by transformation (map, 50% reads, 3 machines)";
  List.iter
    (fun t ->
      let c = Harness.Measure.default_config Harness.Objects.Map t in
      let p = Harness.Measure.run c in
      Fmt.pr "  %a@." Harness.Measure.pp_point p)
    transforms_for_perf;
  Fmt.pr
    "(expected shape: noflush < weakest-lflush < the durable \
     transformations; spec's advice that weaker stores help shows up as \
     alg3' <= alg3 on write paths, both paying RFlush)@."

let e8_read_ratio_sweep () =
  hr "E8b: read-ratio sweep (queue-free object: register), cycles/op";
  Fmt.pr "%-22s" "reads ->";
  List.iter (fun r -> Fmt.pr "%8.0f%%" (100. *. r)) [ 0.0; 0.25; 0.5; 0.75; 0.95 ];
  Fmt.pr "@.";
  List.iter
    (fun t ->
      Fmt.pr "%-22s" (Flit.Flit_intf.name t);
      List.iter
        (fun read_ratio ->
          let c =
            {
              (Harness.Measure.default_config Harness.Objects.Register t) with
              Harness.Measure.read_ratio;
            }
          in
          let p = Harness.Measure.run c in
          Fmt.pr "%9.1f" p.Harness.Measure.cycles_per_op)
        [ 0.0; 0.25; 0.5; 0.75; 0.95 ];
      Fmt.pr "@.")
    transforms_for_perf;
  Fmt.pr
    "(expected shape: every transformation converges toward plain-load \
     cost as reads dominate; the gap between transformations is a \
     write-path cost)@."

let e8_machine_sweep () =
  hr "E8c: machine-count sweep (stack, 50% reads), cycles/op";
  List.iter
    (fun t ->
      Fmt.pr "%-22s" (Flit.Flit_intf.name t);
      List.iter
        (fun n_machines ->
          let c =
            {
              (Harness.Measure.default_config Harness.Objects.Stack t) with
              Harness.Measure.n_machines;
              ops_per_thread = 600 / n_machines;
            }
          in
          let p = Harness.Measure.run c in
          Fmt.pr "  n=%d: %8.1f" n_machines p.Harness.Measure.cycles_per_op)
        [ 2; 4; 8 ];
      Fmt.pr "@.")
    [ Flit.Registry.alg2_mstore; Flit.Registry.alg3_rstore;
      Flit.Registry.alg3'_weakest ]

(* ------------------------------------------------------------------ *)
(* E8d: per-primitive latency distributions                            *)
(* ------------------------------------------------------------------ *)

(* The cycles/op averages above hide the shape: a transformation whose
   mean is dominated by a few expensive RFlushes looks like one paying a
   moderate surcharge everywhere.  Rerun two E8a points with the event
   tracer attached and print the per-primitive latency histograms
   (p50/p90/p99/max in simulated cycles) from the tracer's report. *)
let e8_latency_distributions () =
  hr "E8d: per-primitive latency distribution (map, 50% reads, 3 machines)";
  List.iter
    (fun t ->
      let tracer = Obs.Tracer.create () in
      let c = Harness.Measure.default_config Harness.Objects.Map t in
      ignore (Harness.Measure.run ~tracer c);
      Fmt.pr "  -- %s --@." (Flit.Flit_intf.name t);
      Fmt.pr "%a@." Obs.Report.pp (Obs.Tracer.report tracer))
    [ Flit.Registry.alg2_mstore; Flit.Registry.alg3'_weakest ];
  Fmt.pr
    "(expected shape: loads split into a cheap cached mode and an \
     expensive remote mode; Alg 2's mstores sit at the remote-memory \
     cost for every write, while Alg 3's tail is the flush path)@."

(* ------------------------------------------------------------------ *)
(* E9: FliT-counter ablation                                           *)
(* ------------------------------------------------------------------ *)

let e9_ablation () =
  hr "E9: FliT-counter ablation (register, read-heavy), cycles/op";
  let naive = Flit.Registry.naive_flush in
  Fmt.pr "%-26s" "reads ->";
  List.iter (fun r -> Fmt.pr "%8.0f%%" (100. *. r)) [ 0.5; 0.75; 0.9; 0.99 ];
  Fmt.pr "@.";
  List.iter
    (fun t ->
      Fmt.pr "%-26s" (Flit.Flit_intf.name t);
      List.iter
        (fun read_ratio ->
          let c =
            {
              (Harness.Measure.default_config Harness.Objects.Register t) with
              Harness.Measure.read_ratio;
            }
          in
          let p = Harness.Measure.run c in
          Fmt.pr "%9.1f" p.Harness.Measure.cycles_per_op)
        [ 0.5; 0.75; 0.9; 0.99 ];
      Fmt.pr "@.")
    [ Flit.Registry.alg3_rstore; naive ];
  Fmt.pr
    "(expected shape: the counter-less variant pays a flush on every \
     read — expensive (a fabric write-back) whenever the read hits a \
     line some store just cached, cheap-but-wasted otherwise; the \
     counter makes reads flush only while a store is actually in \
     flight.  §4.3: the counter exists 'to avoid naively flushing every \
     location upon read'.)@."

(* ------------------------------------------------------------------ *)
(* E11: buffered durability — sync-period sweep                        *)
(* ------------------------------------------------------------------ *)

let e11_buffered_sync () =
  hr "E11: buffered durability (register, 50% reads), cycles/op";
  Fmt.pr "  %-30s %8.1f cycles/op (full DL baseline)@." "alg3'-weakest"
    (Harness.Measure.run
       (Harness.Measure.default_config Harness.Objects.Register
          Flit.Registry.alg3'_weakest))
      .Harness.Measure.cycles_per_op;
  List.iter
    (fun sync_every ->
      let c =
        {
          (Harness.Measure.default_config Harness.Objects.Register
             Flit.Registry.buffered)
          with
          Harness.Measure.sync_every;
        }
      in
      let p = Harness.Measure.run c in
      Fmt.pr "  %-30s %8.1f cycles/op@."
        (if sync_every = 0 then "buffered-sync (never sync)"
         else Printf.sprintf "buffered-sync (sync every %d)" sync_every)
        p.Harness.Measure.cycles_per_op)
    [ 1; 8; 64; 0 ];
  Fmt.pr
    "(expected shape: amortising flushes across a sync period recovers \
     most of the durability overhead — the performance case for relaxed \
     durability the paper's §7 anticipates; the cost is weaker recovery: \
     buffered-DL on single-location objects only — see \
     test/test_buffered.ml)@."

(* ------------------------------------------------------------------ *)
(* E12: address-based adaptivity (§4.4)                                *)
(* ------------------------------------------------------------------ *)

let e12_adaptive () =
  hr "E12: address-adaptive flushing (register, 50% reads), cycles/op";
  List.iter
    (fun (label, volatile_home) ->
      Fmt.pr "  -- %s --@." label;
      List.iter
        (fun t ->
          (* measure on a hand-built fabric so the home's volatility is
             controlled *)
          let fab =
            Fabric.create ~seed:5 ~evict_prob:0.05
              [|
                Fabric.machine ~cache_capacity:64 "c1";
                Fabric.machine ~cache_capacity:64 "c2";
                Fabric.machine ~volatile:volatile_home ~cache_capacity:64
                  "home";
              |]
          in
          let flit = Flit.Flit_intf.instantiate t fab in
          let sched = Runtime.Sched.create ~seed:6 fab in
          let ops = ref 0 in
          ignore
            (Runtime.Sched.spawn sched ~machine:2 ~name:"init" (fun ctx ->
                 let inst =
                   Harness.Objects.create Harness.Objects.Register flit ctx
                     ~home:2 ~pflag:true
                 in
                 Fabric.Stats.reset (Fabric.stats fab);
                 for m = 0 to 1 do
                   ignore
                     (Runtime.Sched.spawn sched ~machine:m ~name:"w"
                        (fun ctx ->
                          let rng = Random.State.make [| m |] in
                          for _ = 1 to 300 do
                            let op =
                              Harness.Objects.ratio_op Harness.Objects.Register
                                rng ~read_ratio:0.5
                            in
                            ignore (inst.Harness.Objects.apply ctx op);
                            incr ops
                          done))
                 done));
          ignore (Runtime.Sched.run sched);
          let cycles = Fabric.cycles fab in
          Fmt.pr "     %-22s %8.1f cycles/op@."
            (Flit.Flit_intf.name t)
            (float_of_int cycles /. float_of_int (max 1 !ops)))
        [ Flit.Registry.alg3'_weakest; Flit.Registry.adaptive ])
    [ ("non-volatile home", false); ("volatile home", true) ];
  Fmt.pr
    "(expected shape: on NV-homed data the adaptive variant matches Alg \
     3'; on volatile-homed data it automatically drops to the cheap \
     LFlush path — §4.4's address-based instrumentation)@."

(* ------------------------------------------------------------------ *)
(* E13: switch topology / memory placement                             *)
(* ------------------------------------------------------------------ *)

let e13_topology () =
  hr "E13: placement across switches (map, alg2, 3 workers), cycles/op";
  List.iter
    (fun (label, topology) ->
      let c =
        {
          (Harness.Measure.default_config Harness.Objects.Map
             Flit.Registry.alg2_mstore)
          with
          Harness.Measure.n_machines = 4;
          ops_per_thread = 200;
          topology;
        }
      in
      let p = Harness.Measure.run c in
      Fmt.pr "  %-46s %8.1f cycles/op@." label p.Harness.Measure.cycles_per_op)
    [
      ("single switch (flat)", None);
      ( "memory node behind a second switch (two-level)",
        Some (Fabric.Topology.two_level [ 3; 1 ]) );
      ( "memory node sharing a leaf with one worker",
        Some (Fabric.Topology.two_level [ 2; 2 ]) );
    ];
  Fmt.pr
    "(expected shape: every extra switch hop between compute and the \
     object's home adds a fixed surcharge to every remote primitive — \
     placement matters, which is the disaggregation trade-off the \
     paper's introduction describes)@."

let () =
  if Array.length Sys.argv > 1 then begin
    prerr_endline "usage: main.exe (takes no arguments)";
    exit 2
  end;
  Fmt.pr "CXL0 benchmark harness — every paper table/figure + performance \
          experiments@.";
  litmus_tables ();
  table1 ();
  prop1 ();
  durability_matrix ();
  e7_fuzz_coverage ();
  e8_transform_comparison ();
  e8_read_ratio_sweep ();
  e8_machine_sweep ();
  e8_latency_distributions ();
  e9_ablation ();
  e11_buffered_sync ();
  e12_adaptive ();
  e13_topology ();
  Fmt.pr "@.done.@."
