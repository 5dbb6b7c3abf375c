(* The observability layer: histograms, the ring-buffer tracer, event
   ordering from real fabric runs, fault/fallback events under a
   degraded-link plan, exporter determinism, and the Stats JSON shape. *)

module W = Harness.Workload
module R = Harness.Runcore

let contains s needle =
  let nl = String.length needle and sl = String.length s in
  let rec find i =
    i + nl <= sl && (String.sub s i nl = needle || find (i + 1))
  in
  find 0

(* ------------------------------------------------------------------ *)
(* Histograms                                                          *)
(* ------------------------------------------------------------------ *)

let test_hist_buckets () =
  Alcotest.(check int) "non-positive" 0 (Obs.Hist.bucket 0);
  Alcotest.(check int) "negative" 0 (Obs.Hist.bucket (-5));
  Alcotest.(check int) "one" 1 (Obs.Hist.bucket 1);
  Alcotest.(check int) "boundary 2" 2 (Obs.Hist.bucket 2);
  Alcotest.(check int) "boundary 3" 2 (Obs.Hist.bucket 3);
  Alcotest.(check int) "boundary 4" 3 (Obs.Hist.bucket 4);
  Alcotest.(check int) "1023" 10 (Obs.Hist.bucket 1023);
  Alcotest.(check int) "1024" 11 (Obs.Hist.bucket 1024)

let test_hist_percentiles () =
  let h = Obs.Hist.create () in
  for v = 1 to 100 do
    Obs.Hist.add h v
  done;
  Alcotest.(check int) "count" 100 (Obs.Hist.count h);
  Alcotest.(check int) "total" 5050 (Obs.Hist.total h);
  Alcotest.(check int) "max" 100 (Obs.Hist.max_value h);
  (* rank 50 falls in bucket 6 (values 32..63, cumulative count 63),
     whose recorded max is 63: log-bucketed percentiles answer with the
     bucket's max — an upper bound, never an interpolation *)
  Alcotest.(check int) "p50" 63 (Obs.Hist.p50 h);
  Alcotest.(check int) "p90" 100 (Obs.Hist.p90 h);
  Alcotest.(check int) "p99" 100 (Obs.Hist.p99 h);
  Alcotest.(check (float 1e-9)) "mean" 50.5 (Obs.Hist.mean h);
  Obs.Hist.clear h;
  Alcotest.(check int) "cleared" 0 (Obs.Hist.count h);
  Alcotest.(check int) "empty percentile" 0 (Obs.Hist.p99 h)

let test_hist_single_value () =
  let h = Obs.Hist.create () in
  Obs.Hist.add h 250;
  Alcotest.(check int) "p50 = the value" 250 (Obs.Hist.p50 h);
  Alcotest.(check int) "p99 = the value" 250 (Obs.Hist.p99 h)

let hist_fingerprint h =
  Fmt.str "%d/%d/%d/%d/%d/%d/%d" (Obs.Hist.count h) (Obs.Hist.total h)
    (Obs.Hist.p50 h) (Obs.Hist.p90 h) (Obs.Hist.p99 h) (Obs.Hist.max_value h)
    (Obs.Hist.percentile h 0.25)

let test_hist_merge_exact () =
  (* merging shard histograms must equal one histogram fed both streams
     — including at bucket boundaries (powers of two on both sides) *)
  let split_a = [ 1; 2; 3; 4; 63; 64; 1024 ]
  and split_b = [ 4; 7; 8; 65; 127; 128; 1023; 1025 ] in
  let ha = Obs.Hist.create ()
  and hb = Obs.Hist.create ()
  and whole = Obs.Hist.create () in
  List.iter (fun v -> Obs.Hist.add ha v; Obs.Hist.add whole v) split_a;
  List.iter (fun v -> Obs.Hist.add hb v; Obs.Hist.add whole v) split_b;
  Obs.Hist.merge ~into:ha hb;
  Alcotest.(check string) "merge = single histogram" (hist_fingerprint whole)
    (hist_fingerprint ha);
  Alcotest.(check string) "source untouched"
    (hist_fingerprint hb)
    (let fresh = Obs.Hist.create () in
     List.iter (Obs.Hist.add fresh) split_b;
     hist_fingerprint fresh)

let test_hist_merge_empty () =
  let h = Obs.Hist.create () in
  List.iter (Obs.Hist.add h) [ 5; 9; 300 ];
  let before = hist_fingerprint h in
  (* empty into populated: identity *)
  Obs.Hist.merge ~into:h (Obs.Hist.create ());
  Alcotest.(check string) "empty is identity" before (hist_fingerprint h);
  (* populated into empty: copy *)
  let e = Obs.Hist.create () in
  Obs.Hist.merge ~into:e h;
  Alcotest.(check string) "into empty copies" before (hist_fingerprint e);
  (* empty into empty stays empty *)
  let e2 = Obs.Hist.create () in
  Obs.Hist.merge ~into:e2 (Obs.Hist.create ());
  Alcotest.(check int) "empty+empty" 0 (Obs.Hist.count e2);
  Alcotest.(check int) "empty percentile still 0" 0 (Obs.Hist.p99 e2)

let test_report_merge () =
  (* two reports fed disjoint slices of the same observation stream must
     merge into the report of the whole stream *)
  let obs_a =
    [ (Obs.Event.Load, 0, 3, 10); (Obs.Event.Load, 1, 3, 64);
      (Obs.Event.Lstore, 0, 7, 2) ]
  and obs_b =
    [ (Obs.Event.Load, 0, 3, 1024); (Obs.Event.Rflush, 2, 7, 300);
      (Obs.Event.Lstore, 0, 9, 4) ]
  in
  let feed r l =
    List.iter
      (fun (prim, machine, loc, cycles) ->
        Obs.Report.observe r ~prim ~machine ~loc ~cycles)
      l
  in
  let ra = Obs.Report.create ()
  and rb = Obs.Report.create ()
  and whole = Obs.Report.create () in
  feed ra obs_a;
  feed rb obs_b;
  feed whole (obs_a @ obs_b);
  Obs.Report.merge ~into:ra rb;
  Alcotest.(check string) "rendered tables equal"
    (Fmt.str "%a" Obs.Report.pp whole)
    (Fmt.str "%a" Obs.Report.pp ra);
  Alcotest.(check int) "total ops" (Obs.Report.total_ops whole)
    (Obs.Report.total_ops ra);
  Alcotest.(check bool) "machine rows equal" true
    (Obs.Report.machines whole = Obs.Report.machines ra);
  Alcotest.(check bool) "line rows equal" true
    (Obs.Report.lines whole = Obs.Report.lines ra)

(* ------------------------------------------------------------------ *)
(* Ring buffer                                                         *)
(* ------------------------------------------------------------------ *)

let ev i =
  Obs.Event.Switch { step = i; tid = 0; machine = 0; cycle = i }

let test_ring_wrap () =
  let tr = Obs.Tracer.create ~capacity:4 () in
  for i = 1 to 6 do
    Obs.Tracer.emit tr (ev i)
  done;
  Alcotest.(check int) "length" 4 (Obs.Tracer.length tr);
  Alcotest.(check int) "dropped" 2 (Obs.Tracer.dropped tr);
  Alcotest.(check int) "emitted" 6 (Obs.Tracer.emitted tr);
  (* the oldest events are the ones overwritten: the tail of the run
     survives *)
  let steps =
    List.map
      (function Obs.Event.Switch { step; _ } -> step | _ -> -1)
      (Obs.Tracer.events tr)
  in
  Alcotest.(check (list int)) "oldest overwritten" [ 3; 4; 5; 6 ] steps;
  (* the report mirrors the drop count and surfaces it in the summary *)
  Alcotest.(check int) "report dropped" 2
    (Obs.Report.dropped (Obs.Tracer.report tr));
  Alcotest.(check bool) "dropped printed" true
    (contains (Fmt.str "%a" Obs.Report.pp (Obs.Tracer.report tr)) "dropped");
  Obs.Tracer.clear tr;
  Alcotest.(check int) "cleared" 0 (Obs.Tracer.length tr);
  Alcotest.(check int) "cleared dropped" 0 (Obs.Tracer.dropped tr);
  Alcotest.(check int) "cleared report dropped" 0
    (Obs.Report.dropped (Obs.Tracer.report tr))

let test_ring_report_survives_wrap () =
  (* the report is fed on emit, before ring overwrite: statistics cover
     every emitted event even when the ring kept only the tail *)
  let tr = Obs.Tracer.create ~capacity:2 () in
  for i = 1 to 10 do
    Obs.Tracer.emit tr
      (Obs.Event.Prim
         { prim = Obs.Event.Load; machine = 0; loc = 0; t0 = 0; t1 = i })
  done;
  Alcotest.(check int) "ring kept 2" 2 (Obs.Tracer.length tr);
  Alcotest.(check int) "report saw 10" 10
    (Obs.Hist.count (Obs.Report.hist (Obs.Tracer.report tr) Obs.Event.Load))

let test_ring_allocates_as_it_fills () =
  (* a ring holds memory for what it retains, not for its capacity: a
     flat 1 Mi-slot ring alone is over 5M words *)
  let tr = Obs.Tracer.create ~capacity:(1 lsl 20) () in
  let check what =
    let words = Obj.reachable_words (Obj.repr tr) in
    Alcotest.(check bool) (Fmt.str "%s: %d words < 64k" what words) true
      (words < 65536)
  in
  for i = 1 to 100 do
    Obs.Tracer.emit tr (ev i)
  done;
  check "100 events";
  for i = 101 to 5 * Obs.Tracer.chunk do
    Obs.Tracer.emit tr (ev i)
  done;
  Obs.Tracer.clear tr;
  check "cleared"

let test_tracer_capacity_validation () =
  Alcotest.check_raises "zero capacity"
    (Invalid_argument "Obs.Tracer.create: capacity < 1") (fun () ->
      ignore (Obs.Tracer.create ~capacity:0 ()))

(* ------------------------------------------------------------------ *)
(* Events from real runs                                               *)
(* ------------------------------------------------------------------ *)

let crash_config () =
  let c =
    W.default_config Harness.Objects.Register Flit.Registry.weakest_lflush
  in
  {
    c with
    W.seed = 3;
    ops_per_thread = 4;
    crashes =
      [
        {
          R.at = 12;
          machine = 0;
          restart_at = 18;
          recovery_threads = 1;
          recovery_ops = 2;
        };
      ];
  }

let traced_run c =
  let tracer = Obs.Tracer.create () in
  ignore (W.run ~tracer c);
  tracer

let test_event_order_nondecreasing () =
  let tracer = traced_run (crash_config ()) in
  Alcotest.(check bool) "some events" true (Obs.Tracer.length tracer > 0);
  let last = ref 0 in
  Obs.Tracer.iter
    (fun e ->
      let c = Obs.Event.cycle e in
      if c < !last then
        Alcotest.failf "cycle went backwards: %d after %d (%a)" c !last
          Obs.Event.pp e;
      last := c)
    tracer

let test_crash_restart_events () =
  let tracer = traced_run (crash_config ()) in
  let crashes = ref 0 and restarts = ref 0 and prims = ref 0 in
  Obs.Tracer.iter
    (function
      | Obs.Event.Crash { machine; _ } ->
          Alcotest.(check int) "crash machine" 0 machine;
          incr crashes
      | Obs.Event.Restart { machine; _ } ->
          Alcotest.(check int) "restart machine" 0 machine;
          incr restarts
      | Obs.Event.Prim _ -> incr prims
      | _ -> ())
    tracer;
  Alcotest.(check int) "one crash" 1 !crashes;
  Alcotest.(check int) "one restart" 1 !restarts;
  Alcotest.(check bool) "primitives traced" true (!prims > 0)

let test_flit_counter_events () =
  let tracer = traced_run (crash_config ()) in
  (* weakest-lflush is counter-based: every write brackets the location
     with an incr/decr pair, so transitions must appear and the last
     transition per location from a clean (non-mid-crash) writer pairs
     back to zero eventually for some location *)
  let transitions = ref [] in
  Obs.Tracer.iter
    (function
      | Obs.Event.Counter { value; _ } -> transitions := value :: !transitions
      | _ -> ())
    tracer;
  Alcotest.(check bool) "counter transitions traced" true (!transitions <> []);
  Alcotest.(check bool) "values alternate above/at zero" true
    (List.for_all (fun v -> v >= 0) !transitions);
  Alcotest.(check bool) "some positive window" true
    (List.exists (fun v -> v > 0) !transitions)

(* The ISSUE's acceptance scenario: a degraded link between a worker and
   the home must surface Fault (nack/delay), Retry, and — with the
   counter-based degraded transform — LF->RF Fallback events. *)
let degraded_config () =
  let c =
    W.default_config Harness.Objects.Register Flit.Registry.weakest_lflush
  in
  {
    c with
    W.seed = 5;
    ops_per_thread = 6;
    faults =
      [
        R.Degrade_link
          {
            m1 = 0;
            m2 = 2;
            nack_prob = 0.4;
            delay_prob = 0.3;
            delay_cycles = 50;
          };
      ];
  }

let test_degraded_link_events () =
  let tracer = traced_run (degraded_config ()) in
  let faults = ref 0 and retries = ref 0 in
  Obs.Tracer.iter
    (function
      | Obs.Event.Fault { kind = Obs.Event.Nack | Obs.Event.Delay; _ } ->
          incr faults
      | Obs.Event.Retry { attempt; backoff; _ } ->
          (* attempts are 0-based: the first retry is attempt 0 *)
          Alcotest.(check bool) "attempt non-negative" true (attempt >= 0);
          Alcotest.(check bool) "backoff positive" true (backoff > 0);
          incr retries
      | _ -> ())
    tracer;
  Alcotest.(check bool) "faults traced" true (!faults > 0);
  Alcotest.(check bool) "retries traced" true (!retries > 0)

let test_fallback_events () =
  (* weakest-lflush flushes with LFlush; a degraded worker<->home link
     drives it onto the LF->RF fallback path (mirrors
     test_faults.test_degraded_fallback, which asserts the counter — here
     the event must be on the timeline too) *)
  let c =
    W.default_config Harness.Objects.Register Flit.Registry.weakest_lflush
  in
  let c =
    {
      c with
      W.seed = 3;
      ops_per_thread = 4;
      faults =
        [
          R.Degrade_link
            {
              m1 = 0;
              m2 = 2;
              nack_prob = 0.2;
              delay_prob = 0.0;
              delay_cycles = 0;
            };
        ];
    }
  in
  let tracer = traced_run c in
  let fallbacks = ref 0 in
  Obs.Tracer.iter
    (function Obs.Event.Fallback _ -> incr fallbacks | _ -> ())
    tracer;
  Alcotest.(check bool) "fallbacks traced" true (!fallbacks > 0)

let test_untraced_matches_traced_history () =
  (* attaching a tracer must not perturb the run: same config, with and
     without, must produce the identical history *)
  let c = degraded_config () in
  let r1 = W.run c in
  let tracer = Obs.Tracer.create () in
  let r2 = W.run ~tracer c in
  Alcotest.(check string) "history identical"
    (Fmt.str "%a" Lincheck.History.pp r1.W.history)
    (Fmt.str "%a" Lincheck.History.pp r2.W.history);
  Alcotest.(check string) "stats identical"
    (Fabric.Stats.to_json r1.W.stats)
    (Fabric.Stats.to_json r2.W.stats)

(* ------------------------------------------------------------------ *)
(* Spans and tail attribution                                          *)
(* ------------------------------------------------------------------ *)

let mark ~session ~seq ~op ~phase ?(replica = -1) ?(t0 = -1) ?(wl = 0)
    ?(wd = 0) ?(rt = 0) cycle =
  Obs.Event.Mark
    {
      session;
      seq;
      op;
      phase;
      replica;
      t0;
      wait_lock = wl;
      wait_degraded = wd;
      retry = rt;
      cycle;
    }

(* Two interleaved complete requests, one incomplete (server died before
   the terminal mark), and one orphan whose dispatch was lost to ring
   wrap.  Request s1.q0 exercises every component:
     queue       = (110-100) + lock-wait 5          = 15
     replication = (150-110) - 5                    = 35
     service     = (180-150) - 8 - 2 + (200-180)    = 40
     retry       =                                     2
     failover    =                                     8   — sum 100 *)
let span_tracer () =
  let tr = Obs.Tracer.create () in
  List.iter (Obs.Tracer.emit tr)
    [
      mark ~session:1 ~seq:0 ~op:1 ~phase:Obs.Event.P_dispatch ~t0:100 110;
      mark ~session:2 ~seq:0 ~op:0 ~phase:Obs.Event.P_dispatch ~t0:95 120;
      mark ~session:1 ~seq:0 ~op:1 ~phase:Obs.Event.P_apply_backup ~replica:1
        ~wl:5 150;
      mark ~session:2 ~seq:0 ~op:0 ~phase:Obs.Event.P_ack 160;
      mark ~session:3 ~seq:2 ~op:2 ~phase:Obs.Event.P_dispatch ~t0:130 170;
      mark ~session:4 ~seq:0 ~op:0 ~phase:Obs.Event.P_apply_acting ~replica:0
        175;
      mark ~session:1 ~seq:0 ~op:1 ~phase:Obs.Event.P_apply_acting ~replica:0
        ~wl:5 ~wd:8 ~rt:2 180;
      mark ~session:1 ~seq:0 ~op:1 ~phase:Obs.Event.P_ack ~wl:5 ~wd:8 ~rt:2
        200;
    ];
  tr

let comp_sum s = Array.fold_left ( + ) 0 (Obs.Span.components s)

let test_span_assembly () =
  let spans = Obs.Span.assemble (span_tracer ()) in
  (* the orphan (session 4: no dispatch mark) is dropped; order is by
     arrival, not dispatch *)
  Alcotest.(check (list int)) "sessions by arrival" [ 2; 1; 3 ]
    (List.map (fun s -> s.Obs.Span.session) spans);
  match spans with
  | [ s2; s1; s3 ] ->
      Alcotest.(check bool) "s2 acked" true (Obs.Span.outcome s2 = Obs.Span.Acked);
      Alcotest.(check bool) "s3 incomplete" true
        (Obs.Span.outcome s3 = Obs.Span.Incomplete);
      Alcotest.(check bool) "s3 not complete" false (Obs.Span.complete s3);
      Alcotest.(check int) "s2 latency" 65 (Obs.Span.latency s2);
      Alcotest.(check int) "s1 latency" 100 (Obs.Span.latency s1);
      let c = Obs.Span.components s1 in
      let at comp = c.(Obs.Span.component_index comp) in
      Alcotest.(check int) "queue" 15 (at Obs.Span.Queue);
      Alcotest.(check int) "service" 40 (at Obs.Span.Service);
      Alcotest.(check int) "replication" 35 (at Obs.Span.Replication);
      Alcotest.(check int) "retry" 2 (at Obs.Span.Retry);
      Alcotest.(check int) "failover-wait" 8 (at Obs.Span.Failover_wait);
      (* the exact-sum identity, for every complete span *)
      List.iter
        (fun s -> Alcotest.(check int) "components sum" (Obs.Span.latency s)
            (comp_sum s))
        [ s1; s2 ]
  | _ -> Alcotest.fail "expected 3 spans"

let test_span_digest () =
  let spans = Obs.Span.assemble (span_tracer ()) in
  let d = Obs.Span.digest spans in
  Alcotest.(check string) "stable" d
    (Obs.Span.digest (Obs.Span.assemble (span_tracer ())));
  (match String.split_on_char ':' d with
  | [ n; hex ] ->
      Alcotest.(check string) "count prefix" "3" n;
      Alcotest.(check int) "12 hex digits" 12 (String.length hex)
  | _ -> Alcotest.fail "digest shape");
  Alcotest.(check bool) "order-sensitive" true
    (Obs.Span.digest (List.rev spans) <> d);
  (* the empty fold: count 0, the bare FNV offset basis *)
  Alcotest.(check string) "empty" "0:9ce484222325" (Obs.Span.digest [])

let test_attrib () =
  let a = Obs.Attrib.of_spans (Obs.Span.assemble (span_tracer ())) in
  Alcotest.(check int) "one update" 1
    (Obs.Hist.count (Obs.Attrib.e2e a ~op:1));
  Alcotest.(check int) "one read" 1 (Obs.Hist.count (Obs.Attrib.e2e a ~op:0));
  Alcotest.(check int) "incomplete excluded but counted" 1
    (Obs.Attrib.incomplete a);
  (* per-component totals sum back to the summed end-to-end latency *)
  let totals = Obs.Attrib.totals a ~op:1 in
  Alcotest.(check int) "totals sum to e2e" 100
    (Array.fold_left ( + ) 0 totals);
  Alcotest.(check int) "replication total" 35
    totals.(Obs.Span.component_index Obs.Span.Replication);
  (* component hists only sample spans where the component is nonzero *)
  Alcotest.(check int) "retry hist samples" 1
    (Obs.Hist.count (Obs.Attrib.component a ~op:1 Obs.Span.Retry));
  Alcotest.(check int) "read retry hist empty" 0
    (Obs.Hist.count (Obs.Attrib.component a ~op:0 Obs.Span.Retry));
  (match Obs.Attrib.dominant a ~op:1 with
  | Some (comp, cycles, tail) ->
      Alcotest.(check bool) "dominant is service" true
        (comp = Obs.Span.Service);
      Alcotest.(check int) "dominant cycles" 40 cycles;
      Alcotest.(check int) "tail of one" 1 tail
  | None -> Alcotest.fail "dominant expected");
  Alcotest.(check (option (pair int int)) "no inserts completed") None
    (Option.map
       (fun (_, c, n) -> (c, n))
       (Obs.Attrib.dominant a ~op:2));
  (* slowest across op types: s1 (100) then s2 (65) *)
  Alcotest.(check (list int)) "slowest order" [ 1; 2 ]
    (List.map (fun s -> s.Obs.Span.session) (Obs.Attrib.slowest a 5));
  let table = Fmt.str "%a" Obs.Attrib.pp a in
  Alcotest.(check bool) "table names dominant" true
    (contains table "service");
  Alcotest.(check bool) "table counts incomplete" true
    (contains table "incomplete")

(* ------------------------------------------------------------------ *)
(* Packed ring against a plain list                                    *)
(* ------------------------------------------------------------------ *)

(* Random event streams over every constructor, biased to the packing's
   edge values: -1 ("not applicable"), machine 61, and cycles near
   [max_int / 4].  Mark identities come from a small space so spans
   form, split and lose their heads to ring wrap. *)
module G = QCheck.Gen

let near_big = G.map (fun d -> (max_int / 4) - d) (G.int_bound 1000)
let g_machine = G.oneof [ G.oneofl [ -1; 0; 61 ]; G.int_bound 61 ]

let g_field =
  G.oneof
    [ G.oneofl [ -1; 0; 61; max_int / 4 ]; G.int_range (-1) 1000; near_big ]

let g_cycle = G.oneof [ G.int_bound 1000; near_big ]

let g_event =
  let open G in
  let open Obs.Event in
  oneof
    [
      (let* prim = oneofl all_prims and* machine = g_machine
       and* loc = g_field and* t0 = g_field and* t1 = g_cycle in
       return (Prim { prim; machine; loc; t0; t1 }));
      (let* kind = oneofl [ Horizontal; Vertical ] and* machine = g_machine
       and* loc = g_field and* cycle = g_cycle in
       return (Evict { kind; machine; loc; cycle }));
      (let* machine = g_machine and* cycle = g_cycle in
       return (Crash { machine; cycle }));
      (let* machine = g_machine and* cycle = g_cycle and* step = g_field in
       return (Restart { machine; cycle; step }));
      (let* kind = oneofl [ Nack; Timeout; Delay; Poison_hit; Poison_set ]
       and* machine = g_machine and* to_machine = g_field
       and* loc = g_field and* cycle = g_cycle in
       return (Fault { kind; machine; to_machine; loc; cycle }));
      (let* machine = g_machine and* attempt = g_field
       and* backoff = g_field and* cycle = g_cycle in
       return (Retry { machine; attempt; backoff; cycle }));
      (let* machine = g_machine and* loc = g_field and* cycle = g_cycle in
       return (Fallback { machine; loc; cycle }));
      (let* machine = g_machine and* loc = g_field and* value = g_field
       and* cycle = g_cycle in
       return (Counter { machine; loc; value; cycle }));
      (let* step = g_field and* tid = g_field and* machine = g_machine
       and* cycle = g_cycle in
       return (Switch { step; tid; machine; cycle }));
      (let* shard = g_machine and* from_machine = g_field
       and* to_machine = g_field and* cycle = g_cycle in
       return (Failover { shard; from_machine; to_machine; cycle }));
      (let* shard = g_machine and* machine = g_field and* cycle = g_cycle in
       return (Rejoin { shard; machine; cycle }));
      (let* shard = g_machine and* cycles = g_field and* cycle = g_cycle in
       return (Unavail { shard; cycles; cycle }));
      (let* trusted = g_field and* cycle = g_cycle in
       return (Trust { trusted; cycle }));
      (let* session = int_bound 3 and* seq = int_bound 2 and* op = int_bound 2
       and* phase =
         oneofl
           [ P_dispatch; P_apply_backup; P_apply_acting; P_ack; P_timeout;
             P_fault ]
       and* replica = g_field and* t0 = g_field and* wait_lock = g_field
       and* wait_degraded = g_field and* retry = g_field
       and* cycle = g_cycle in
       return
         (Mark
            { session; seq; op; phase; replica; t0; wait_lock; wait_degraded;
              retry; cycle }));
    ]

(* A run: a capacity and a stream of emits with interleaved clears
   ([None]).  Most runs take a capacity in 1..17 and up to 80 ops, one
   clear in 31.  One in five sits on either side of a chunk boundary,
   with up to [3 * cap] ops and one clear per [2 * cap] or so, so its
   ring often fills its last chunk and wraps. *)
let arb_ring_run =
  let ops ~len ~emits =
    G.list_size (G.int_bound len)
      (G.frequency [ (1, G.return None); (emits, G.map Option.some g_event) ])
  in
  let c = Obs.Tracer.chunk in
  let gen =
    G.frequency
      [
        (4, G.pair (G.int_range 1 17) (ops ~len:80 ~emits:30));
        ( 1,
          G.(
            oneofl [ c - 1; c; c + 1; (2 * c) + 1 ] >>= fun cap ->
            pair (return cap) (ops ~len:(3 * cap) ~emits:(2 * cap))) );
      ]
  in
  QCheck.make gen ~print:(fun (cap, ops) ->
      Fmt.str "cap %d: %a" cap
        Fmt.(list ~sep:sp (option ~none:(any "clear") Obs.Event.pp))
        ops)

(* What the tracer must hold after [ops]: everything emitted since the
   last clear, in order. *)
let since_clear ops =
  List.fold_left
    (fun acc -> function None -> [] | Some e -> e :: acc)
    [] ops
  |> List.rev

let rec drop n l = if n <= 0 then l else drop (n - 1) (List.tl l)

(* The report and series a tracer must have fed, rebuilt from the plain
   list of events emitted since the last clear. *)
let model_report ~dropped evs =
  let r = Obs.Report.create () in
  List.iter
    (function
      | Obs.Event.Prim { prim; machine; loc; t0; t1 } ->
          Obs.Report.observe r ~prim ~machine ~loc ~cycles:(t1 - t0)
      | Obs.Event.Failover _ -> Obs.Report.observe_failover r
      | Obs.Event.Rejoin _ -> Obs.Report.observe_rejoin r
      | Obs.Event.Unavail { cycles; _ } -> Obs.Report.observe_unavail r ~cycles
      | _ -> ())
    evs;
  for _ = 1 to dropped do
    Obs.Report.observe_dropped r
  done;
  r

let report_fingerprint r =
  ( Fmt.str "%a" Obs.Report.pp r,
    Obs.Report.total_ops r,
    Obs.Report.machines r,
    Obs.Report.lines r,
    (Obs.Report.failovers r, Obs.Report.rejoins r, Obs.Report.dropped r),
    hist_fingerprint (Obs.Report.unavail r) )

let series_window = max_int / 64

let prop_ring_matches_list =
  QCheck.Test.make ~name:"packed ring = last cap events of a plain list"
    ~count:500 arb_ring_run (fun (cap, ops) ->
      let series = Obs.Series.create ~window:series_window in
      let tr = Obs.Tracer.create ~capacity:cap ~series () in
      List.iter
        (function None -> Obs.Tracer.clear tr | Some e -> Obs.Tracer.emit tr e)
        ops;
      let all = since_clear ops in
      let n = List.length all in
      let kept = drop (n - cap) all and dropped = max 0 (n - cap) in
      let iterated = ref [] in
      Obs.Tracer.iter (fun e -> iterated := e :: !iterated) tr;
      let marks = ref [] in
      Obs.Tracer.iter_marks (fun e -> marks := e :: !marks) tr;
      let model_series = Obs.Series.create ~window:series_window in
      List.iter (Obs.Series.observe model_series) all;
      Obs.Tracer.events tr = kept
      && List.rev !iterated = kept
      && List.rev !marks
         = List.filter (function Obs.Event.Mark _ -> true | _ -> false) kept
      && Obs.Tracer.length tr = List.length kept
      && Obs.Tracer.dropped tr = dropped
      && Obs.Tracer.emitted tr = n
      && report_fingerprint (Obs.Tracer.report tr)
         = report_fingerprint (model_report ~dropped all)
      && Obs.Series.to_json series = Obs.Series.to_json model_series)

(* [Span.assemble] as it read the ring before the mark-only walk: a full
   {!Obs.Tracer.iter} scan, every slot decoded. *)
let assemble_full_scan tr =
  let tbl = Hashtbl.create 16 and order = ref [] in
  Obs.Tracer.iter
    (function
      | Obs.Event.Mark
          { session; seq; op; phase; replica; t0; wait_lock; wait_degraded;
            retry; cycle } -> (
          let m =
            { Obs.Span.phase; replica; cycle; wait_lock; wait_degraded; retry }
          in
          match Hashtbl.find_opt tbl (session, seq) with
          | Some cell ->
              let op', arr, ms = !cell in
              cell := (op', arr, m :: ms)
          | None ->
              if phase = Obs.Event.P_dispatch then begin
                Hashtbl.replace tbl (session, seq) (ref (op, t0, [ m ]));
                order := (session, seq) :: !order
              end)
      | _ -> ())
    tr;
  List.rev_map
    (fun (session, seq) ->
      let op, arrival, ms = !(Hashtbl.find tbl (session, seq)) in
      { Obs.Span.session; seq; op; arrival; marks = List.rev ms })
    !order
  |> List.sort (fun (a : Obs.Span.t) b ->
         compare (a.arrival, a.session, a.seq) (b.arrival, b.session, b.seq))

let prop_assemble_mark_walk =
  QCheck.Test.make ~name:"mark-only assemble = full-scan assemble"
    ~count:500 arb_ring_run (fun (cap, ops) ->
      let tr = Obs.Tracer.create ~capacity:cap () in
      List.iter
        (function None -> Obs.Tracer.clear tr | Some e -> Obs.Tracer.emit tr e)
        ops;
      Obs.Span.assemble tr = assemble_full_scan tr)

let test_assemble_wrapped () =
  (* the properties above, pinned on one ring that certainly wrapped
     with spans straddling the overwrite point *)
  let tr = Obs.Tracer.create ~capacity:5 () in
  List.iter (Obs.Tracer.emit tr)
    [
      mark ~session:1 ~seq:0 ~op:1 ~phase:Obs.Event.P_dispatch ~t0:1 10;
      ev 11;
      mark ~session:2 ~seq:0 ~op:0 ~phase:Obs.Event.P_dispatch ~t0:5 12;
      mark ~session:1 ~seq:0 ~op:1 ~phase:Obs.Event.P_ack 13;
      ev 14;
      mark ~session:3 ~seq:0 ~op:0 ~phase:Obs.Event.P_dispatch ~t0:9 15;
      ev 16;
      mark ~session:2 ~seq:0 ~op:0 ~phase:Obs.Event.P_ack 17;
    ];
  Alcotest.(check int) "wrapped" 3 (Obs.Tracer.dropped tr);
  let spans = Obs.Span.assemble tr in
  Alcotest.(check bool) "equals full scan" true
    (spans = assemble_full_scan tr);
  (* session 1 lost its dispatch, session 2 kept only its ack *)
  Alcotest.(check (list int)) "surviving spans" [ 3 ]
    (List.map (fun s -> s.Obs.Span.session) spans)

let test_packed_small_field_range () =
  let tr = Obs.Tracer.create ~capacity:2 () in
  Alcotest.check_raises "machine below -1"
    (Invalid_argument "Obs.Tracer.emit: machine or shard out of range")
    (fun () ->
      Obs.Tracer.emit tr
        (Obs.Event.Crash { machine = -2; cycle = 0 }))

(* ------------------------------------------------------------------ *)
(* Windowed series                                                     *)
(* ------------------------------------------------------------------ *)

let test_series_windows () =
  let s = Obs.Series.create ~window:100 in
  let feed = Obs.Series.observe s in
  feed (mark ~session:0 ~seq:0 ~op:0 ~phase:Obs.Event.P_dispatch ~t0:0 0);
  feed (mark ~session:0 ~seq:0 ~op:0 ~phase:Obs.Event.P_ack 99);
  (* cycle 100 closes window 0 *)
  feed (mark ~session:0 ~seq:1 ~op:1 ~phase:Obs.Event.P_dispatch ~t0:90 100);
  feed (Obs.Event.Trust { trusted = 5; cycle = 100 });
  feed (Obs.Event.Crash { machine = 0; cycle = 150 });
  (* cycle 460 closes window 1 and the empty gap windows 2 and 3 *)
  feed (mark ~session:0 ~seq:1 ~op:1 ~phase:Obs.Event.P_ack 460);
  Alcotest.(check int) "n_windows" 5 (Obs.Series.n_windows s);
  let rows = Obs.Series.rows s in
  Alcotest.(check (list int)) "indices contiguous" [ 0; 1; 2; 3; 4 ]
    (List.map (fun r -> r.Obs.Series.index) rows);
  (match rows with
  | [ w0; w1; w2; w3; w4 ] ->
      Alcotest.(check int) "w0 dispatches" 1 w0.Obs.Series.dispatches;
      Alcotest.(check int) "w0 acked (boundary cycle 99 inside)" 1
        w0.Obs.Series.acked;
      Alcotest.(check int) "w0 inflight at close" 0 w0.Obs.Series.inflight;
      Alcotest.(check int) "w0 trusted before first Trust" (-1)
        w0.Obs.Series.trusted;
      Alcotest.(check int) "w1 dispatches (boundary cycle 100 next window)" 1
        w1.Obs.Series.dispatches;
      Alcotest.(check int) "w1 crash" 1 w1.Obs.Series.crashes;
      Alcotest.(check int) "w1 inflight" 1 w1.Obs.Series.inflight;
      Alcotest.(check int) "w1 trusted" 5 w1.Obs.Series.trusted;
      List.iter
        (fun w ->
          Alcotest.(check int) "gap window empty" 0
            (w.Obs.Series.dispatches + w.Obs.Series.acked
           + w.Obs.Series.crashes);
          Alcotest.(check int) "gap carries inflight" 1 w.Obs.Series.inflight;
          Alcotest.(check int) "gap carries trusted" 5 w.Obs.Series.trusted)
        [ w2; w3 ];
      Alcotest.(check int) "open window acked" 1 w4.Obs.Series.acked;
      Alcotest.(check int) "open window inflight drained" 0
        w4.Obs.Series.inflight
  | _ -> Alcotest.fail "expected 5 rows");
  let j = Obs.Series.to_json s in
  Alcotest.(check bool) "json window" true (contains j "\"window\": 100");
  Alcotest.(check bool) "json last row" true (contains j "\"w\": 4");
  Obs.Series.clear s;
  Alcotest.(check int) "cleared" 1 (Obs.Series.n_windows s)

let test_series_validation () =
  Alcotest.check_raises "zero window"
    (Invalid_argument "Obs.Series.create: window < 1") (fun () ->
      ignore (Obs.Series.create ~window:0))

let test_series_survives_ring_wrap () =
  (* the series is fed on emit, before ring overwrite: a capacity-2 ring
     wraps constantly, yet the timeline still counts every request *)
  let series = Obs.Series.create ~window:50 in
  let tr = Obs.Tracer.create ~capacity:2 ~series () in
  for i = 0 to 9 do
    Obs.Tracer.emit tr
      (mark ~session:0 ~seq:i ~op:0 ~phase:Obs.Event.P_dispatch ~t0:(i * 40)
         (i * 40));
    Obs.Tracer.emit tr
      (mark ~session:0 ~seq:i ~op:0 ~phase:Obs.Event.P_ack ((i * 40) + 10))
  done;
  Alcotest.(check int) "ring kept 2" 2 (Obs.Tracer.length tr);
  let rows = Obs.Series.rows series in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 rows in
  Alcotest.(check int) "all dispatches counted" 10
    (sum (fun r -> r.Obs.Series.dispatches));
  Alcotest.(check int) "all acks counted" 10
    (sum (fun r -> r.Obs.Series.acked));
  Obs.Tracer.clear tr;
  Alcotest.(check int) "tracer clear clears series" 1
    (Obs.Series.n_windows series)

(* ------------------------------------------------------------------ *)
(* Exporters                                                           *)
(* ------------------------------------------------------------------ *)

let test_chrome_json_deterministic () =
  let j1 = Obs.Export.to_chrome_json (traced_run (degraded_config ())) in
  let j2 = Obs.Export.to_chrome_json (traced_run (degraded_config ())) in
  Alcotest.(check string) "two traced runs byte-identical" j1 j2;
  Alcotest.(check bool) "well-formed header" true
    (String.length j1 > 2 && String.sub j1 0 15 = "{\"traceEvents\":");
  Alcotest.(check bool) "displayTimeUnit footer" true
    (let needle = "displayTimeUnit" in
     let rec find i =
       i + String.length needle <= String.length j1
       && (String.sub j1 i (String.length needle) = needle || find (i + 1))
     in
     find 0)

let test_sexp_export () =
  let s = Obs.Export.to_sexp (traced_run (crash_config ())) in
  Alcotest.(check bool) "header" true
    (String.length s > 7 && String.sub s 0 7 = "(trace ");
  Alcotest.(check bool) "crash event rendered" true
    (let needle = "(crash" in
     let rec find i =
       i + String.length needle <= String.length s
       && (String.sub s i (String.length needle) = needle || find (i + 1))
     in
     find 0)

(* ------------------------------------------------------------------ *)
(* Stats JSON                                                          *)
(* ------------------------------------------------------------------ *)

let test_stats_json_shape () =
  let s = Fabric.Stats.create () in
  let fields = Fabric.Stats.fields s in
  Alcotest.(check int) "all counters present" 17 (List.length fields);
  let j = Fabric.Stats.to_json s in
  Alcotest.(check bool) "object braces" true
    (j.[0] = '{' && j.[String.length j - 1] = '}');
  List.iter
    (fun (k, _) ->
      let needle = Printf.sprintf "\"%s\":" k in
      let rec find i =
        i + String.length needle <= String.length j
        && (String.sub j i (String.length needle) = needle || find (i + 1))
      in
      Alcotest.(check bool) (k ^ " in json") true (find 0))
    fields

let test_stats_add () =
  let a = Fabric.Stats.create () and b = Fabric.Stats.create () in
  a.Fabric.Stats.cycles <- 10;
  a.Fabric.Stats.lstores <- 2;
  b.Fabric.Stats.cycles <- 5;
  b.Fabric.Stats.crashes <- 1;
  Fabric.Stats.add ~into:a b;
  Alcotest.(check int) "cycles summed" 15 a.Fabric.Stats.cycles;
  Alcotest.(check int) "lstores kept" 2 a.Fabric.Stats.lstores;
  Alcotest.(check int) "crashes added" 1 a.Fabric.Stats.crashes;
  Alcotest.(check int) "source untouched" 5 b.Fabric.Stats.cycles

(* ------------------------------------------------------------------ *)
(* Workload phases                                                     *)
(* ------------------------------------------------------------------ *)

let test_phases_partition () =
  let c = crash_config () in
  let r = W.run c in
  let total (s : Fabric.Stats.t) = s.Fabric.Stats.cycles in
  (* setup + measured + recovery = the whole run, cycle for cycle *)
  Alcotest.(check int) "phases partition the run"
    (total r.W.stats)
    (total r.W.phases.W.setup
    + total r.W.phases.W.measured
    + total r.W.phases.W.recovery);
  (* this config crashes mid-run: recovery must be non-empty *)
  Alcotest.(check bool) "recovery non-empty" true
    (total r.W.phases.W.recovery > 0);
  Alcotest.(check int) "exactly the crash in recovery" 1
    r.W.phases.W.recovery.Fabric.Stats.crashes

let test_phases_crash_free () =
  let c = { (crash_config ()) with W.crashes = [] } in
  let r = W.run c in
  Alcotest.(check int) "no recovery phase" 0
    r.W.phases.W.recovery.Fabric.Stats.cycles;
  Alcotest.(check bool) "measured holds the work" true
    (r.W.phases.W.measured.Fabric.Stats.cycles > 0)

let () =
  Alcotest.run "obs"
    [
      ( "hist",
        [
          Alcotest.test_case "buckets" `Quick test_hist_buckets;
          Alcotest.test_case "percentiles" `Quick test_hist_percentiles;
          Alcotest.test_case "single value" `Quick test_hist_single_value;
          Alcotest.test_case "merge bucket-exact" `Quick test_hist_merge_exact;
          Alcotest.test_case "merge empty cases" `Quick test_hist_merge_empty;
          Alcotest.test_case "report merge" `Quick test_report_merge;
        ] );
      ( "tracer",
        [
          Alcotest.test_case "ring wrap" `Quick test_ring_wrap;
          Alcotest.test_case "report survives wrap" `Quick
            test_ring_report_survives_wrap;
          Alcotest.test_case "allocates as it fills" `Quick
            test_ring_allocates_as_it_fills;
          Alcotest.test_case "capacity validation" `Quick
            test_tracer_capacity_validation;
          Alcotest.test_case "small-field range" `Quick
            test_packed_small_field_range;
          Alcotest.test_case "assemble on a wrapped ring" `Quick
            test_assemble_wrapped;
          QCheck_alcotest.to_alcotest prop_ring_matches_list;
          QCheck_alcotest.to_alcotest prop_assemble_mark_walk;
        ] );
      ( "events",
        [
          Alcotest.test_case "nondecreasing cycles" `Quick
            test_event_order_nondecreasing;
          Alcotest.test_case "crash/restart" `Quick test_crash_restart_events;
          Alcotest.test_case "flit counters" `Quick test_flit_counter_events;
          Alcotest.test_case "degraded link" `Quick test_degraded_link_events;
          Alcotest.test_case "lf->rf fallback" `Quick test_fallback_events;
          Alcotest.test_case "tracer is inert" `Quick
            test_untraced_matches_traced_history;
        ] );
      ( "spans",
        [
          Alcotest.test_case "assembly + exact components" `Quick
            test_span_assembly;
          Alcotest.test_case "digest" `Quick test_span_digest;
          Alcotest.test_case "tail attribution" `Quick test_attrib;
        ] );
      ( "series",
        [
          Alcotest.test_case "window boundaries + gaps" `Quick
            test_series_windows;
          Alcotest.test_case "validation" `Quick test_series_validation;
          Alcotest.test_case "survives ring wrap" `Quick
            test_series_survives_ring_wrap;
        ] );
      ( "export",
        [
          Alcotest.test_case "chrome json deterministic" `Quick
            test_chrome_json_deterministic;
          Alcotest.test_case "sexp" `Quick test_sexp_export;
        ] );
      ( "stats",
        [
          Alcotest.test_case "json shape" `Quick test_stats_json_shape;
          Alcotest.test_case "add" `Quick test_stats_add;
        ] );
      ( "phases",
        [
          Alcotest.test_case "partition" `Quick test_phases_partition;
          Alcotest.test_case "crash free" `Quick test_phases_crash_free;
        ] );
    ]
