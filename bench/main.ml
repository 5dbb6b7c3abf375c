(* The benchmark harness: regenerates every table/figure of the paper and
   the performance experiments of EXPERIMENTS.md, then times the key
   pipelines with Bechamel.

   Sections (all printed by `dune exec bench/main.exe`):
     [E2]  Fig. 4 litmus-test table (9 rows) + Fig. 5 variants
     [E4]  Table 1 transaction mapping
     [E5]  Proposition 1 verdicts (exhaustive bounded model checking)
     [E7]  durability matrix: object x transformation x crash regime
     [E8]  simulated-cycles performance: transformation comparison,
           read-ratio sweep, machine-count sweep
     [E9]  FliT-counter ablation
     [bechamel] wall-time of the model checker, the durability pipeline
           and the simulator (one Test.make per experiment family) *)

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
  let crash_spec ~machine seed : Harness.Runcore.crash_spec =
    {
      Harness.Runcore.at = 15 + (seed mod 17);
      machine;
      restart_at = 22 + (seed mod 17);
      recovery_threads = 1;
      recovery_ops = 2;
    }
  in
  let sweep kind t ~machine =
    let fails = ref 0 and skips = ref 0 in
    for seed = 1 to 12 do
      let c = Harness.Workload.default_config kind t in
      let c =
        { c with Harness.Workload.seed; crashes = [ crash_spec ~machine seed ] }
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
                            let op, args =
                              Harness.Objects.ratio_op Harness.Objects.Register
                                rng ~read_ratio:0.5
                            in
                            ignore (inst.Harness.Objects.dispatch ctx op args);
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

(* ------------------------------------------------------------------ *)
(* E14: Prop-1 engine trajectory (--prop1-bench)                       *)
(* ------------------------------------------------------------------ *)

(* Times the exhaustive Proposition 1 sweep reduced (sleep-set POR +
   symmetry, the default) against unreduced, checks the failure lists
   are identical, and in [--small] mode additionally against the
   reference map-set engine; records the result in BENCH_prop1.json.
   The default domain (3 machines / 3 locations / 2 values — 27 000
   start configurations) takes the reference engine a long time by
   design, so the oracle leg only runs on the 2-location (900
   configuration) [--small] domain used by smoke runs and CI.
   [--append] appends the JSON line instead of rewriting the file (CI
   keeps a timing history that way). *)
let prop1_time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (Unix.gettimeofday () -. t0, r)

let prop1_json ~append line =
  let oc =
    if append then
      open_out_gen [ Open_append; Open_creat ] 0o644 "BENCH_prop1.json"
    else open_out "BENCH_prop1.json"
  in
  output_string oc line;
  output_char oc '\n';
  close_out oc;
  Fmt.pr "  %s BENCH_prop1.json@." (if append then "appended to" else "wrote")

let prop1_bench ~small ~append ~jobs () =
  let n = 3 in
  let sys = Cxl0.Machine.uniform n in
  let locs = List.init (if small then 2 else 3) (fun i -> Cxl0.Loc.v ~owner:i 0) in
  let vals = [ 0; 1 ] in
  let jobs =
    match jobs with Some j -> max 1 j | None -> Cxl0.Parallel.default_jobs ()
  in
  let configs = Cxl0.Props.enum_configs_count sys ~locs ~vals in
  let domain =
    Printf.sprintf "%d machines, %d locations, %d values" n (List.length locs)
      (List.length vals)
  in
  hr "E14/E16: Prop-1 engine trajectory";
  Fmt.pr "domain: %s — %d start configurations, %d job(s)@." domain configs
    jobs;
  let seconds_red, (red, rstats) =
    prop1_time (fun () ->
        Cxl0.Props.check_exhaustive_stats ~jobs sys ~locs ~vals)
  in
  Fmt.pr
    "  reduced (por+sym), %d job(s): %8.2f s  (%d failure(s), %d starts, %d \
     states)@."
    jobs seconds_red (List.length red) rstats.Cxl0.Props.sweep_starts
    rstats.Cxl0.Props.sweep_states;
  let seconds_unred, (unred, ustats) =
    prop1_time (fun () ->
        Cxl0.Props.check_exhaustive_stats
          ~reduction:Cxl0.Explore.Fast.no_reduction ~jobs sys ~locs ~vals)
  in
  Fmt.pr
    "  unreduced packed, %d job(s):  %8.2f s  (%d failure(s), %d starts, %d \
     states)@."
    jobs seconds_unred (List.length unred) ustats.Cxl0.Props.sweep_starts
    ustats.Cxl0.Props.sweep_states;
  if
    not
      (List.length red = List.length unred
      && List.for_all2 Cxl0.Props.failure_equal red unred)
  then begin
    Fmt.epr "FATAL: reduced and unreduced sweeps disagree@.";
    exit 1
  end;
  let seconds_reference =
    if not small then None
    else begin
      let seconds_ref, reference =
        prop1_time (fun () ->
            Cxl0.Props.check_exhaustive_reference sys ~locs ~vals)
      in
      Fmt.pr "  reference map-set engine:   %8.2f s  (%d failure(s))@."
        seconds_ref (List.length reference);
      if
        not
          (List.length reference = List.length red
          && List.for_all2 Cxl0.Props.failure_equal reference red)
      then begin
        Fmt.epr "FATAL: packed engines disagree with the reference@.";
        exit 1
      end;
      Some seconds_ref
    end
  in
  Fmt.pr
    "  failure lists identical; %.1fx fewer states, %.1fx wall-clock@."
    (float ustats.Cxl0.Props.sweep_states
    /. float (max 1 rstats.Cxl0.Props.sweep_states))
    (seconds_unred /. seconds_red);
  prop1_json ~append
    (Printf.sprintf
       "{ \"domain\": %S, \"configs\": %d, \"jobs\": %d, \
        \"seconds_reduced\": %.3f, \"seconds_unreduced\": %.3f%s, \
        \"starts_reduced\": %d, \"starts_unreduced\": %d, \
        \"states_reduced\": %d, \"states_unreduced\": %d, \
        \"state_ratio\": %.2f, \"failures\": %d }"
       domain configs jobs seconds_red seconds_unred
       (match seconds_reference with
       | None -> ""
       | Some s -> Printf.sprintf ", \"seconds_reference\": %.3f" s)
       rstats.Cxl0.Props.sweep_starts ustats.Cxl0.Props.sweep_starts
       rstats.Cxl0.Props.sweep_states ustats.Cxl0.Props.sweep_states
       (float ustats.Cxl0.Props.sweep_states
       /. float (max 1 rstats.Cxl0.Props.sweep_states))
       (List.length red))

(* The first N=4 Proposition 1 sweep: 4 machines / 3 locations /
   2 values — 238 328 start configurations, tractable only with the
   reductions on (the S3 machine symmetry cuts the starts ~6x and the
   sleep sets the per-start transitions).  Reduced-only by design;
   exactness is covered by the differential gate on smaller domains. *)
let prop1_n4 ~jobs () =
  let sys = Cxl0.Machine.uniform 4 in
  let locs = List.init 3 (fun i -> Cxl0.Loc.v ~owner:i 0) in
  let vals = [ 0; 1 ] in
  let jobs =
    match jobs with Some j -> max 1 j | None -> Cxl0.Parallel.default_jobs ()
  in
  let configs = Cxl0.Props.enum_configs_count sys ~locs ~vals in
  let domain =
    Printf.sprintf "4 machines, %d locations, %d values" (List.length locs)
      (List.length vals)
  in
  hr "E16: first N=4 Prop-1 sweep (reduced)";
  Fmt.pr "domain: %s — %d start configurations, %d job(s)@." domain configs
    jobs;
  let seconds, (failures, stats) =
    prop1_time (fun () ->
        Cxl0.Props.check_exhaustive_stats ~jobs sys ~locs ~vals)
  in
  Fmt.pr "  reduced (por+sym): %8.2f s  (%d failure(s), %d starts, %d states)@."
    seconds (List.length failures) stats.Cxl0.Props.sweep_starts
    stats.Cxl0.Props.sweep_states;
  if failures <> [] then begin
    List.iter (fun f -> Fmt.epr "%a@." Cxl0.Props.pp_failure f) failures;
    Fmt.epr "FATAL: Proposition 1 fails at N=4@.";
    exit 1
  end;
  prop1_json ~append:true
    (Printf.sprintf
       "{ \"domain\": %S, \"configs\": %d, \"jobs\": %d, \
        \"seconds_reduced\": %.3f, \"starts_reduced\": %d, \
        \"states_reduced\": %d, \"failures\": %d }"
       domain configs jobs seconds stats.Cxl0.Props.sweep_starts
       stats.Cxl0.Props.sweep_states (List.length failures))

(* ------------------------------------------------------------------ *)
(* Bechamel wall-time benches                                          *)
(* ------------------------------------------------------------------ *)

open Bechamel
open Toolkit

let bechamel_tests =
  let litmus_fig4 =
    Test.make ~name:"fig4/litmus-table"
      (Staged.stage (fun () ->
           List.iter (fun t -> ignore (Cxl0.Litmus.decide t)) Cxl0.Litmus.fig4))
  in
  let litmus_fig5 =
    Test.make ~name:"fig5/variants"
      (Staged.stage (fun () ->
           List.iter (fun t -> ignore (Cxl0.Litmus.decide t)) Cxl0.Litmus.fig5))
  in
  let table1 =
    Test.make ~name:"table1/mapping"
      (Staged.stage (fun () ->
           List.iter (fun t -> ignore (Cxl0.Cxl_txn.classify t)) Cxl0.Cxl_txn.all))
  in
  let prop1 =
    Test.make ~name:"prop1/exhaustive"
      (Staged.stage (fun () -> ignore (Cxl0.Props.check_default ())))
  in
  let durability_run t =
    Test.make
      ~name:(Printf.sprintf "e7/queue-%s" (Flit.Flit_intf.name t))
      (Staged.stage (fun () ->
           let c = Harness.Workload.default_config Harness.Objects.Queue t in
           let c =
             {
               c with
               Harness.Workload.crashes =
                 [
                   {
                     Harness.Runcore.at = 20;
                     machine = 0;
                     restart_at = 26;
                     recovery_threads = 1;
                     recovery_ops = 2;
                   };
                 ];
             }
           in
           ignore (Harness.Workload.check c)))
  in
  let sim_throughput t =
    Test.make
      ~name:(Printf.sprintf "e8/sim-%s" (Flit.Flit_intf.name t))
      (Staged.stage (fun () ->
           let c =
             {
               (Harness.Measure.default_config Harness.Objects.Map t) with
               Harness.Measure.ops_per_thread = 100;
             }
           in
           ignore (Harness.Measure.run c)))
  in
  Test.make_grouped ~name:"cxl0" ~fmt:"%s %s"
    ([ litmus_fig4; litmus_fig5; table1; prop1 ]
    @ List.map durability_run
        [ Flit.Registry.alg2_mstore; Flit.Registry.alg3_rstore;
          Flit.Registry.alg3'_weakest ]
    @ List.map sim_throughput
        [ Flit.Registry.alg2_mstore; Flit.Registry.alg3'_weakest ])

let run_bechamel () =
  hr "bechamel: wall-time of the pipelines (ns/run, OLS estimate)";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.4) ~stabilize:false ()
  in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] bechamel_tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let names = Hashtbl.fold (fun k _ acc -> k :: acc) results [] in
  List.iter
    (fun name ->
      let r = Hashtbl.find results name in
      match Analyze.OLS.estimates r with
      | Some (est :: _) -> Fmt.pr "  %-28s %12.0f ns/run@." name est
      | _ -> Fmt.pr "  %-28s (no estimate)@." name)
    (List.sort compare names)

let () =
  let argv = Array.to_list Sys.argv in
  let jobs =
    let rec find = function
      | "--jobs" :: j :: _ -> int_of_string_opt j
      | _ :: rest -> find rest
      | [] -> None
    in
    find argv
  in
  if List.mem "--prop1-bench" argv then begin
    let small = List.mem "--small" argv in
    let append = List.mem "--append" argv in
    prop1_bench ~small ~append ~jobs ();
    exit 0
  end;
  if List.mem "--n4" argv then begin
    prop1_n4 ~jobs ();
    exit 0
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
  run_bechamel ();
  Fmt.pr "@.done.@."
