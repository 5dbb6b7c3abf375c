(* The sharded KV service and its open-loop serving engine: shard
   spread, request accounting, run-twice determinism,
   queueing visibility (open-loop latency grows under overload), crash
   behaviour, and end-to-end durability of small serving runs. *)

module K = Harness.Kv
module T = Harness.Traffic
module R = Harness.Runcore

(* ------------------------------------------------------------------ *)
(* Shard mapping                                                       *)
(* ------------------------------------------------------------------ *)

let test_shard_spread () =
  (* the multiplicative hash must scatter the Zipf-hot low keys: on a
     3-machine fabric with 4 shards, keys 1..32 must touch every shard,
     and no shard may own more than half of them *)
  let fab =
    Fabric.create ~seed:1
      (Array.init 3 (fun i -> Fabric.machine (Fabric.default_name i)))
  in
  let flit = Flit.Flit_intf.instantiate Flit.Registry.alg2_mstore fab in
  let sched = Runtime.Sched.create ~seed:1 fab in
  let counts = Array.make 4 0 in
  ignore
    (Runtime.Sched.spawn sched ~machine:0 ~name:"t" (fun ctx ->
         let kv = K.create ctx ~shards:4 ~flit ~home:2 () in
         Alcotest.(check int) "n_shards" 4 (K.n_shards kv);
         for k = 1 to 32 do
           let s = K.shard_of_key kv k in
           Alcotest.(check bool) "shard in range" true (s >= 0 && s < 4);
           counts.(s) <- counts.(s) + 1
         done));
  ignore (Runtime.Sched.run sched);
  Array.iteri
    (fun i c ->
      Alcotest.(check bool) (Fmt.str "shard %d non-empty" i) true (c > 0);
      Alcotest.(check bool) (Fmt.str "shard %d not dominant" i) true (c <= 16))
    counts

(* ------------------------------------------------------------------ *)
(* Serving engine                                                      *)
(* ------------------------------------------------------------------ *)

let small_traffic =
  { T.default_spec with T.sessions = 6; ops_per_session = 4; keyspace = 12;
    rate = 1.0; seed = 3; mix = T.mix_of_string "80:15:5" }

let config ?(traffic = small_traffic) ?(crashes = []) ?(faults = [])
    ?(transform = Flit.Registry.alg2_mstore) () =
  let c = K.default_serve_config ~transform ~traffic in
  { c with K.shards = 3; env = { c.K.env with R.crashes; faults } }

let fingerprint (r : K.serve_result) =
  Fmt.str "served=%d/%d/%d faulted=%d dropped=%d cycles=%d lat=%a/%a/%a"
    r.K.served.(0) r.K.served.(1) r.K.served.(2) r.K.faulted r.K.dropped
    r.K.cycles Obs.Hist.pp r.K.latencies.(0) Obs.Hist.pp r.K.latencies.(1)
    Obs.Hist.pp
    r.K.latencies.(2)

let test_serve_accounting () =
  let r = K.serve (config ()) in
  let total = r.K.served.(0) + r.K.served.(1) + r.K.served.(2) in
  Alcotest.(check int) "all requests served" (T.total_ops small_traffic) total;
  Alcotest.(check int) "no faults" 0 r.K.faulted;
  Alcotest.(check int) "no drops" 0 r.K.dropped;
  (* latency histograms hold exactly the completions, per op type *)
  Array.iteri
    (fun i h ->
      Alcotest.(check int)
        (Fmt.str "hist %d matches served" i)
        r.K.served.(i) (Obs.Hist.count h))
    r.K.latencies;
  Alcotest.(check bool) "clock advanced" true (r.K.cycles > 0)

let test_serve_deterministic () =
  let a = K.serve (config ()) and b = K.serve (config ()) in
  Alcotest.(check string) "run-twice identical" (fingerprint a) (fingerprint b);
  let d =
    K.serve { (config ()) with K.traffic = { small_traffic with T.seed = 4 } }
  in
  Alcotest.(check bool) "seed matters" true (fingerprint a <> fingerprint d)

let test_open_loop_queueing () =
  (* same work at a 100x higher offered rate: arrivals bunch up, the
     service cannot keep pace, and the open-loop latency measure
     (completion - arrival) must blow up; the underloaded run's mean
     latency stays near service time *)
  let mean_lat rate =
    let r =
      K.serve (config ~traffic:{ small_traffic with T.rate } ())
    in
    let h = Obs.Hist.create () in
    Array.iter (fun l -> Obs.Hist.merge ~into:h l) r.K.latencies;
    Obs.Hist.mean h
  in
  let slow = mean_lat 0.2 and fast = mean_lat 20.0 in
  Alcotest.(check bool)
    (Fmt.str "queueing visible (%.0f vs %.0f)" slow fast)
    true
    (fast > 2.0 *. slow)

(* Request conservation through counted terms: every claim ends exactly
   once (served, faulted, timed out, or killed in flight with its
   server), and a request is dropped iff it was never claimed or was
   killed.  [Kv.serve] raises on the first identity; the second pins
   how [dropped] is derived. *)
let check_conservation (traffic : T.spec) (r : K.serve_result) =
  let total = r.K.served.(0) + r.K.served.(1) + r.K.served.(2) in
  Alcotest.(check int) "claimed = served + faulted + timed out + killed"
    r.K.claimed
    (total + r.K.faulted + r.K.timed_out + r.K.killed);
  Alcotest.(check int) "dropped = never claimed + killed"
    (T.total_ops traffic - r.K.claimed + r.K.killed)
    r.K.dropped

let test_serve_crash_accounting () =
  (* crash a serving machine mid-run without restart: every request is
     still accounted for — served, faulted, or dropped *)
  let crashes =
    [ { R.at = 150; machine = 0; restart_at = 150; recovery_threads = 0;
        recovery_ops = 0 } ]
  in
  let traffic = { small_traffic with T.sessions = 8; ops_per_session = 6 } in
  let r = K.serve (config ~traffic ~crashes ()) in
  let total = r.K.served.(0) + r.K.served.(1) + r.K.served.(2) in
  Alcotest.(check int) "conservation" (T.total_ops traffic)
    (total + r.K.faulted + r.K.dropped);
  check_conservation traffic r;
  Alcotest.(check int) "crash recorded in stats" 1 r.K.stats.Fabric.Stats.crashes

let test_crash_kills_busy_server () =
  (* a crash lands while a server on the felled machine is mid-request:
     that request is neither served, faulted nor timed out — it is
     killed in flight, and counted as such.  Its [busy] increment is
     never undone, yet the stall bound keeps the survivors (and the
     restarted machine's fresh servers) claiming: every other request
     is claimed, so the killed ones are all that is dropped *)
  let crashes =
    [ { R.at = 150; machine = 0; restart_at = 400; recovery_threads = 0;
        recovery_ops = 0 } ]
  in
  let traffic = { small_traffic with T.sessions = 8; ops_per_session = 6 } in
  let r = K.serve (config ~traffic ~crashes ()) in
  check_conservation traffic r;
  Alcotest.(check bool)
    (Fmt.str "a busy server was killed (killed=%d)" r.K.killed)
    true (r.K.killed >= 1);
  Alcotest.(check int) "every request claimed" (T.total_ops traffic)
    r.K.claimed;
  Alcotest.(check int) "only killed requests dropped" r.K.killed r.K.dropped

let test_serve_history_checked () =
  (* a small crash+fault serving run through the durability checker,
     end to end, for each durable transformation *)
  let crashes =
    [ { R.at = 120; machine = 0; restart_at = 260; recovery_threads = 1;
        recovery_ops = 0 } ]
  in
  let faults =
    [ R.Degrade_link
        { m1 = 0; m2 = 2; nack_prob = 0.15; delay_prob = 0.1;
          delay_cycles = 30 } ]
  in
  let traffic =
    { small_traffic with T.sessions = 4; ops_per_session = 3; keyspace = 6 }
  in
  List.iter
    (fun transform ->
      let v = K.check (config ~traffic ~crashes ~faults ~transform ()) in
      Alcotest.(check bool)
        (Fmt.str "%s durable" (Flit.Flit_intf.name transform))
        true v.Lincheck.Durable.durable;
      Alcotest.(check bool) "checker did not skip" true
        (v.Lincheck.Durable.skipped = None);
      Alcotest.(check bool) "crash in history" true
        (v.Lincheck.Durable.crash_events > 0))
    [ Flit.Registry.alg2_mstore; Flit.Registry.alg3'_weakest ]

let test_serve_history_matches_counts () =
  let r = K.serve { (config ()) with K.record_history = true } in
  let total = r.K.served.(0) + r.K.served.(1) + r.K.served.(2) in
  (* history = preload puts + served ops, each Inv+Res, crash-free *)
  Alcotest.(check int) "event count"
    (2 * (small_traffic.T.keyspace + total))
    (List.length r.K.history);
  Alcotest.(check bool) "well-formed" true
    (Lincheck.History.well_formed r.K.history)

(* ------------------------------------------------------------------ *)
(* Replication and the read rule                                      *)
(* ------------------------------------------------------------------ *)

let rconfig ?(traffic = small_traffic) ?(crashes = []) ?(faults = [])
    ?(transform = Flit.Registry.alg3'_weakest) ?(replicas = 2) () =
  let c = config ~traffic ~crashes ~faults ~transform () in
  { c with K.replicas }

(* A chaos storm: [cycles] sequential, non-overlapping crash/restart
   cycles rotating over the machines (every machine homes replicas, so
   each hit lands on shard homes). *)
let storm ?(cycles = 5) ?(first = 150) ?(gap = 200) ?(down = 80) () =
  List.init cycles (fun i ->
      {
        R.at = first + (i * gap);
        machine = i mod 3;
        restart_at = first + (i * gap) + down;
        recovery_threads = 0;
        recovery_ops = 0;
      })

let degraded =
  [ R.Degrade_link
      { m1 = 0; m2 = 1; nack_prob = 0.15; delay_prob = 0.1; delay_cycles = 30 }
  ]

let test_replicated_quiet () =
  (* without crashes, replication must not cost any requests: everything
     is served, availability is 1, and reads never leave the primary *)
  let r = K.serve (rconfig ()) in
  let total = r.K.served.(0) + r.K.served.(1) + r.K.served.(2) in
  Alcotest.(check int) "all served" (T.total_ops small_traffic) total;
  Alcotest.(check int) "no timeouts" 0 r.K.timed_out;
  Alcotest.(check int) "no failovers" 0 r.K.failovers;
  Alcotest.(check (float 0.0)) "availability 1" 1.0 r.K.availability;
  let v = K.check (rconfig ()) in
  Alcotest.(check bool) "durable" true v.Lincheck.Durable.durable

let test_unreplicated_unchanged () =
  (* replicas = 1 must be byte-identical to the pre-replication engine:
     pin the fingerprint equality between an explicit replicas = 1 run
     and the default config *)
  let a = K.serve (config ()) in
  let b = K.serve { (config ()) with K.replicas = 1 } in
  Alcotest.(check string) "identical" (fingerprint a) (fingerprint b)

let test_storm_conservation () =
  (* a 5-cycle shard-home crash storm under a degraded link: every
     request still accounted for, the service survives with partial
     availability, and reads demonstrably left the primary or replicas
     were re-synced *)
  let r = K.serve (rconfig ~crashes:(storm ()) ~faults:degraded ()) in
  let total = r.K.served.(0) + r.K.served.(1) + r.K.served.(2) in
  Alcotest.(check int) "conservation" (T.total_ops small_traffic)
    (total + r.K.faulted + r.K.timed_out + r.K.dropped);
  check_conservation small_traffic r;
  Alcotest.(check int) "all crashes landed" 5 r.K.stats.Fabric.Stats.crashes;
  Alcotest.(check bool)
    (Fmt.str "some availability (%.2f)" r.K.availability)
    true
    (r.K.availability > 0.0);
  Alcotest.(check bool) "failover machinery fired" true
    (r.K.failovers + r.K.rejoins > 0)

let test_storm_durable () =
  (* the tentpole claim: under single-home-at-a-time crash storms, the
     replicated service stays *strictly* durably linearizable even for
     transforms whose un-replicated envelope must spare the home
     (Finding F1) — acknowledged writes survive on the backup *)
  List.iter
    (fun transform ->
      let v =
        K.check (rconfig ~transform ~crashes:(storm ()) ~faults:degraded ())
      in
      Alcotest.(check bool)
        (Fmt.str "%s durable under storm" (Flit.Flit_intf.name transform))
        true v.Lincheck.Durable.durable;
      Alcotest.(check bool) "crashes in history" true
        (v.Lincheck.Durable.crash_events > 0))
    [ Flit.Registry.alg2_mstore; Flit.Registry.alg3'_weakest ]

let test_storm_deterministic () =
  let fp r =
    Fmt.str "%s to=%d fo=%d rj=%d" (fingerprint r) r.K.timed_out r.K.failovers
      r.K.rejoins
  in
  let a = K.serve (rconfig ~crashes:(storm ()) ~faults:degraded ()) in
  let b = K.serve (rconfig ~crashes:(storm ()) ~faults:degraded ()) in
  Alcotest.(check string) "storm run-twice identical" (fp a) (fp b)

let test_recovery_interleavings () =
  (* Sched.restart racing the read rule: while the primary's home is
     down, reads go to the trusted backup under the shard lock; a fast
     restart heals the primary almost at once, a slow one only after a
     long stretch of backup reads.  Both must stay durable with every
     request accounted for *)
  List.iter
    (fun (at, restart_at) ->
      let crashes =
        [ { R.at; machine = 2; restart_at; recovery_threads = 0;
            recovery_ops = 0 } ]
      in
      let v = K.check (rconfig ~crashes ()) in
      Alcotest.(check bool)
        (Fmt.str "restart@%d durable" restart_at)
        true v.Lincheck.Durable.durable;
      let r = K.serve (rconfig ~crashes ()) in
      let total = r.K.served.(0) + r.K.served.(1) + r.K.served.(2) in
      Alcotest.(check int) "conservation" (T.total_ops small_traffic)
        (total + r.K.faulted + r.K.timed_out + r.K.dropped);
      check_conservation small_traffic r)
    [ (180, 200); (180, 1200) ]

let test_no_fibre_leak () =
  (* a crash mid-write-chain plus a restart mid-heal: the run must
     terminate (deadlines bound every wait loop) with zero leaked
     fibres, and the scheduler must report no runnable work left *)
  let fab =
    Fabric.create ~seed:7
      (Array.init 3 (fun i -> Fabric.machine (Fabric.default_name i)))
  in
  let flit = Flit.Flit_intf.instantiate Flit.Registry.alg3'_weakest fab in
  let sched = Runtime.Sched.create ~seed:7 fab in
  let kv_ref = ref None in
  ignore
    (Runtime.Sched.spawn sched ~machine:2 ~name:"init" (fun ctx ->
         let kv =
           K.create ctx ~replicas:2 ~deadline:600 ~flit ~home:2 ()
         in
         kv_ref := Some kv;
         for m = 0 to 1 do
           ignore
             (Runtime.Sched.spawn ctx.Runtime.Sched.sched ~machine:m
                ~name:(Fmt.str "w%d" m)
                (fun ctx ->
                  for k = 1 to 6 do
                    (try ignore (K.put kv ctx k (k + 10))
                     with Runtime.Ops.Fault _ | K.Unavailable -> ());
                    try ignore (K.get kv ctx k)
                    with Runtime.Ops.Fault _ | K.Unavailable -> ()
                  done))
         done));
  Runtime.Sched.at_step sched 40 (Runtime.Sched.Crash 2);
  Runtime.Sched.at_step sched 70
    (Runtime.Sched.Call
       (fun s ->
         Runtime.Sched.restart s 2;
         ignore
           (Runtime.Sched.spawn s ~machine:2 ~name:"heal" (fun ctx ->
                match !kv_ref with
                | Some kv -> K.heal kv ctx
                | None -> ()))));
  ignore (Runtime.Sched.run sched);
  Alcotest.(check int) "no leaked fibres" 0 (Runtime.Sched.alive sched)

(* One crash of machine 2 (the primary's home with one shard) and one
   down link between machines 1 and 0 (the backups' homes) on a single
   key: a write that faults on a backup over the link leaves it
   servable but stale.  The tuple is (seed, crash step, restart step,
   link-down cycle, link-up cycle). *)
let stale_backup ~replicas (seed, at, restart_at, from_cycle, until_cycle) =
  let traffic =
    { T.default_spec with T.sessions = 3; ops_per_session = 6; keyspace = 1;
      rate = 3.0; mix = T.mix_of_string "50:50:0"; seed }
  in
  let c =
    K.default_serve_config ~transform:Flit.Registry.alg3'_weakest ~traffic
  in
  { c with
    K.shards = 1;
    replicas;
    env =
      { c.K.env with
        R.seed;
        crashes =
          [ { R.at; machine = 2; restart_at; recovery_threads = 0;
              recovery_ops = 0 } ];
        faults = [ R.Down_link { m1 = 1; m2 = 0; from_cycle; until_cycle } ] } }

let decided_durable name c =
  let v = K.check c in
  Alcotest.(check bool) (name ^ " decided") true
    (v.Lincheck.Durable.skipped = None);
  Alcotest.(check bool) (name ^ " durable") true v.Lincheck.Durable.durable

let test_stale_backup_never_read () =
  (* two runs that were not durable when a heartbeat timeout could
     promote a stale backup to serve reads; reads may only fall back to
     a trusted replica *)
  List.iter
    (fun ((seed, _, _, _, _) as w) ->
      decided_durable (Fmt.str "seed %d" seed) (stale_backup ~replicas:2 w))
    [ (784, 200, 890, 2500, 5300); (897, 150, 350, 2300, 4600) ]

let test_read_rule_sweep () =
  (* random crash and down-link windows of the same shape: every run
     must come back decided and durable *)
  List.iter
    (fun replicas ->
      for seed = 1 to 500 do
        let rng = Random.State.make [| seed; replicas |] in
        let at = 100 + Random.State.int rng 200 in
        let restart_at = at + 100 + Random.State.int rng 800 in
        let from_cycle = 1500 + Random.State.int rng 1500 in
        let until_cycle = from_cycle + 1500 + Random.State.int rng 2500 in
        decided_durable
          (Fmt.str "replicas=%d seed %d" replicas seed)
          (stale_backup ~replicas
             (seed, at, restart_at, from_cycle, until_cycle))
      done)
    [ 2; 3 ]

let test_replica_validation () =
  Alcotest.check_raises "replicas > machines"
    (Invalid_argument "Kv.serve: replicas must not exceed the machine count")
    (fun () -> ignore (K.serve { (config ()) with K.replicas = 4 }));
  Alcotest.check_raises "zero replicas"
    (Invalid_argument "Kv.serve: replicas must be positive") (fun () ->
      ignore (K.serve { (config ()) with K.replicas = 0 }));
  Alcotest.check_raises "bad rate"
    (Invalid_argument "Kv.serve: rate must be positive") (fun () ->
      ignore
        (K.serve
           { (config ()) with K.traffic = { small_traffic with T.rate = 0.0 } }))

(* ------------------------------------------------------------------ *)
(* Request tracing                                                     *)
(* ------------------------------------------------------------------ *)

let traced_serve ?series c =
  let tracer = Obs.Tracer.create ~capacity:(1 lsl 18) ?series () in
  let r = K.serve ~tracer c in
  (r, tracer)

let stormy () = rconfig ~crashes:(storm ()) ~faults:degraded ()

let test_span_conservation () =
  (* every request the engine accounted for has a span with the matching
     terminal mark; requests lost to crashes are at worst Incomplete *)
  let r, tr = traced_serve (stormy ()) in
  Alcotest.(check int) "ring did not wrap" 0 (Obs.Tracer.dropped tr);
  let spans = Obs.Span.assemble tr in
  let count o = List.length (List.filter (fun s -> Obs.Span.outcome s = o) spans) in
  let total = r.K.served.(0) + r.K.served.(1) + r.K.served.(2) in
  Alcotest.(check int) "acked spans = served" total (count Obs.Span.Acked);
  Alcotest.(check int) "timed-out spans" r.K.timed_out
    (count Obs.Span.Timed_out);
  Alcotest.(check int) "faulted spans" r.K.faulted (count Obs.Span.Faulted);
  Alcotest.(check bool) "incomplete within dropped" true
    (count Obs.Span.Incomplete <= r.K.dropped);
  (* per op type, acked span count matches the latency histogram *)
  for op = 0 to 2 do
    let acked =
      List.filter
        (fun s -> s.Obs.Span.op = op && Obs.Span.outcome s = Obs.Span.Acked)
        spans
    in
    Alcotest.(check int)
      (Fmt.str "op %d span count" op)
      (Obs.Hist.count r.K.latencies.(op))
      (List.length acked)
  done

let test_span_components_sum () =
  (* the exact-sum identity on a real storm run: every complete span's
     five components sum to its end-to-end latency, cycle for cycle *)
  let _, tr = traced_serve (stormy ()) in
  let spans = Obs.Span.assemble tr in
  let complete = List.filter Obs.Span.complete spans in
  Alcotest.(check bool) "some complete spans" true (complete <> []);
  List.iter
    (fun s ->
      Alcotest.(check int)
        (Fmt.str "s%d.q%d components sum" s.Obs.Span.session s.Obs.Span.seq)
        (Obs.Span.latency s)
        (Array.fold_left ( + ) 0 (Obs.Span.components s)))
    complete;
  (* the storm must actually exercise the failover/retry components *)
  let totals = Array.make Obs.Span.n_components 0 in
  List.iter
    (fun s ->
      Array.iteri
        (fun i v -> totals.(i) <- totals.(i) + v)
        (Obs.Span.components s))
    complete;
  Alcotest.(check bool) "failover-wait attributed" true
    (totals.(Obs.Span.component_index Obs.Span.Failover_wait) > 0)

let test_span_phase_order () =
  (* phase-mark ordering under crash/restart: dispatch first, cycles and
     cumulative counters nondecreasing, terminal mark last if present *)
  let _, tr = traced_serve (stormy ()) in
  let spans = Obs.Span.assemble tr in
  Alcotest.(check bool) "spans assembled" true (spans <> []);
  List.iter
    (fun s ->
      match s.Obs.Span.marks with
      | [] -> Alcotest.fail "empty span"
      | first :: rest ->
          Alcotest.(check bool) "head is dispatch" true
            (first.Obs.Span.phase = Obs.Event.P_dispatch);
          Alcotest.(check bool) "dispatch after arrival" true
            (first.Obs.Span.cycle >= s.Obs.Span.arrival);
          let prev = ref first in
          List.iteri
            (fun i m ->
              let p = !prev in
              Alcotest.(check bool) "cycles nondecreasing" true
                (m.Obs.Span.cycle >= p.Obs.Span.cycle);
              Alcotest.(check bool) "counters nondecreasing" true
                (m.Obs.Span.wait_lock >= p.Obs.Span.wait_lock
                && m.Obs.Span.wait_degraded >= p.Obs.Span.wait_degraded
                && m.Obs.Span.retry >= p.Obs.Span.retry);
              (match m.Obs.Span.phase with
              | Obs.Event.P_ack | Obs.Event.P_timeout | Obs.Event.P_fault ->
                  Alcotest.(check int) "terminal mark is last"
                    (List.length rest - 1) i
              | _ -> ());
              prev := m)
            rest)
    spans

let test_span_determinism () =
  (* the digest folds into --sig: it must be identical run to run *)
  let digest () =
    let _, tr = traced_serve (stormy ()) in
    Obs.Span.digest (Obs.Span.assemble tr)
  in
  Alcotest.(check string) "run-twice identical" (digest ()) (digest ())

let test_tracer_inert_serving () =
  (* attaching a tracer must not perturb the serving run: identical
     counters, histograms and failover activity *)
  let fp r =
    Fmt.str "%s to=%d fo=%d rj=%d" (fingerprint r) r.K.timed_out r.K.failovers
      r.K.rejoins
  in
  let untraced = K.serve (stormy ()) in
  let traced, _ = traced_serve (stormy ()) in
  Alcotest.(check string) "traced = untraced" (fp untraced) (fp traced)

(* Serving with kv-read's shape (YCSB-b, Zipf 0.99, unreplicated,
   below the knee): a yield almost always picks its own fibre again, so
   almost every yield returns in place.  The scheduler is taken from the
   FliT instance's [complete_op], which is no scheduling point.  Traced
   switches are every fibre start, return from a yield and wake from a
   wait, so [inline / switches] bounds the inline share of yields from
   below. *)
let test_inline_share () =
  let sched = ref None in
  let base = Flit.Registry.alg3'_weakest in
  let transform =
    {
      base with
      Flit.Flit_intf.create =
        (fun fab ->
          let i = base.Flit.Flit_intf.create fab in
          {
            i with
            Flit.Flit_intf.complete_op =
              (fun ctx ->
                sched := Some ctx.Runtime.Sched.sched;
                i.Flit.Flit_intf.complete_op ctx);
          });
    }
  in
  let traffic =
    {
      T.sessions = 16;
      ops_per_session = 20;
      rate = 0.05;
      theta = 0.99;
      keyspace = 256;
      mix = T.mix_of_string "b";
      value_range = 1000;
      seed = 1;
    }
  in
  let tr = Obs.Tracer.create ~capacity:(1 lsl 17) () in
  let r = K.serve ~tracer:tr (K.default_serve_config ~transform ~traffic) in
  Alcotest.(check int) "every request served" (T.total_ops traffic)
    (r.K.served.(0) + r.K.served.(1) + r.K.served.(2));
  Alcotest.(check int) "trace ring kept every event" 0
    (Obs.Tracer.dropped tr);
  let switches = ref 0 in
  Obs.Tracer.iter
    (function Obs.Event.Switch _ -> incr switches | _ -> ())
    tr;
  let inline = Runtime.Sched.inline_yields (Option.get !sched) in
  Alcotest.(check bool)
    (Fmt.str "inline share %d/%d >= 0.9" inline !switches)
    true
    (float_of_int inline >= 0.9 *. float_of_int !switches)

let test_series_conservation () =
  (* the windowed timeline is a partition of the same run: summing the
     windows recovers every engine counter *)
  let series = Obs.Series.create ~window:2000 in
  let r, _ = traced_serve ~series (stormy ()) in
  let rows = Obs.Series.rows series in
  let sum f = List.fold_left (fun acc w -> acc + f w) 0 rows in
  let total = r.K.served.(0) + r.K.served.(1) + r.K.served.(2) in
  Alcotest.(check int) "acked" total (sum (fun w -> w.Obs.Series.acked));
  Alcotest.(check int) "timed out" r.K.timed_out
    (sum (fun w -> w.Obs.Series.timed_out));
  Alcotest.(check int) "faulted" r.K.faulted
    (sum (fun w -> w.Obs.Series.faulted));
  Alcotest.(check int) "crashes" r.K.stats.Fabric.Stats.crashes
    (sum (fun w -> w.Obs.Series.crashes));
  Alcotest.(check int) "failovers" r.K.failovers
    (sum (fun w -> w.Obs.Series.failovers));
  Alcotest.(check int) "rejoins" r.K.rejoins
    (sum (fun w -> w.Obs.Series.rejoins));
  (* dispatched-but-never-terminated = the final in-flight gauge *)
  let dispatches = sum (fun w -> w.Obs.Series.dispatches) in
  let last = List.nth rows (List.length rows - 1) in
  Alcotest.(check int) "inflight balance"
    (dispatches - total - r.K.timed_out - r.K.faulted)
    last.Obs.Series.inflight;
  (* window indices are contiguous from zero *)
  List.iteri
    (fun i w -> Alcotest.(check int) "contiguous" i w.Obs.Series.index)
    rows

let () =
  Alcotest.run "kv"
    [
      ("shards", [ Alcotest.test_case "spread" `Quick test_shard_spread ]);
      ( "serve",
        [
          Alcotest.test_case "accounting" `Quick test_serve_accounting;
          Alcotest.test_case "deterministic" `Quick test_serve_deterministic;
          Alcotest.test_case "open-loop queueing" `Quick
            test_open_loop_queueing;
          Alcotest.test_case "crash accounting" `Quick
            test_serve_crash_accounting;
          Alcotest.test_case "crash kills a busy server" `Quick
            test_crash_kills_busy_server;
          Alcotest.test_case "history well-formed" `Quick
            test_serve_history_matches_counts;
          Alcotest.test_case "kv-read shape: yields return inline" `Quick
            test_inline_share;
        ] );
      ( "durability",
        [
          Alcotest.test_case "crash+fault serving runs durable" `Quick
            test_serve_history_checked;
        ] );
      ( "replication",
        [
          Alcotest.test_case "quiet run costs nothing" `Quick
            test_replicated_quiet;
          Alcotest.test_case "replicas=1 unchanged" `Quick
            test_unreplicated_unchanged;
          Alcotest.test_case "storm conservation" `Quick
            test_storm_conservation;
          Alcotest.test_case "storm durable" `Quick test_storm_durable;
          Alcotest.test_case "storm deterministic" `Quick
            test_storm_deterministic;
          Alcotest.test_case "recovery interleavings" `Quick
            test_recovery_interleavings;
          Alcotest.test_case "no fibre leak" `Quick test_no_fibre_leak;
          Alcotest.test_case "stale backup never read" `Quick
            test_stale_backup_never_read;
          Alcotest.test_case "read-rule sweep" `Quick test_read_rule_sweep;
          Alcotest.test_case "validation" `Quick test_replica_validation;
        ] );
      ( "tracing",
        [
          Alcotest.test_case "span conservation" `Quick
            test_span_conservation;
          Alcotest.test_case "components sum to latency" `Quick
            test_span_components_sum;
          Alcotest.test_case "phase order under storm" `Quick
            test_span_phase_order;
          Alcotest.test_case "span digest deterministic" `Quick
            test_span_determinism;
          Alcotest.test_case "tracer is inert" `Quick
            test_tracer_inert_serving;
          Alcotest.test_case "series conservation" `Quick
            test_series_conservation;
        ] );
    ]
