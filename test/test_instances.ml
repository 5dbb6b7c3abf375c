(* Cross-instance isolation — the property the instance-based
   transformation API exists to provide.

   Before this refactor, FliT counter tables and buffered-sync dirty
   sets were global Hashtbls keyed by fabric uid, guarded by mutexes.
   Two failure modes were possible in principle: state bleeding between
   fabrics that reuse location numbers, and cross-domain contention on
   the shared tables.  With per-instance state both are impossible by
   construction; these tests pin that down.

   - interleaved: two fabrics driven alternately on ONE domain, same
     location numbering, one instance left with an in-flight counter —
     the other instance's table never sees any of it;
   - domains: the same seeded crash workload run concurrently on
     separate domains produces histories and verdicts identical to a
     sequential run (no shared mutable state anywhere in the stack). *)

module F = Fabric
module S = Runtime.Sched
module FI = Flit.Flit_intf
module W = Harness.Workload
module R = Harness.Runcore
module O = Harness.Objects

let run_thread fab body =
  let s = S.create fab in
  ignore (S.spawn s ~machine:0 ~name:"t" (fun ctx -> body ctx));
  ignore (S.run s)

(* ------------------------------------------------------------------ *)
(* Two fabrics, one domain, interleaved lifetimes                      *)
(* ------------------------------------------------------------------ *)

let test_interleaved_same_domain () =
  let fab_a = F.uniform ~seed:5 ~evict_prob:0.0 2 in
  let fab_b = F.uniform ~seed:5 ~evict_prob:0.0 2 in
  (* both instances exist before either fabric runs; alg3-rstore is the
     transformation that actually keeps a FliT counter table *)
  let ia = FI.instantiate Flit.Registry.alg3_rstore fab_a in
  let ib = FI.instantiate Flit.Registry.alg3_rstore fab_b in
  let ca = Option.get ia.FI.counters in
  let cb = Option.get ib.FI.counters in
  (* A's run completes an op AND leaves a deliberate in-flight
     increment, as if a store were still unpersisted *)
  let xa = ref (-1) in
  run_thread fab_a (fun ctx ->
      let x = Runtime.Ops.alloc ctx ~owner:1 in
      xa := x;
      ia.FI.shared_store ctx x 5 ~pflag:true;
      ia.FI.complete_op ctx;
      Flit.Counters.incr ca ctx x);
  Alcotest.(check int) "A left an in-flight marker" 1
    (Flit.Counters.peek ca !xa);
  (* B runs next on the SAME domain; both fabrics number their first
     allocation identically, so a uid-less global table would collide *)
  run_thread fab_b (fun ctx ->
      let x = Runtime.Ops.alloc ctx ~owner:1 in
      Alcotest.(check int) "same location number on both fabrics" !xa x;
      Alcotest.(check int) "no bleed from A into B's table" 0
        (Flit.Counters.peek cb x);
      Alcotest.(check int) "B's counter reads 0" 0 (Flit.Counters.read cb ctx x);
      ib.FI.shared_store ctx x 7 ~pflag:true;
      ib.FI.complete_op ctx;
      Alcotest.(check int) "B balanced after its op" 0
        (Flit.Counters.read cb ctx x));
  (* ...and B's whole run never touched A's residue *)
  Alcotest.(check int) "A's marker intact after B's run" 1
    (Flit.Counters.peek ca !xa);
  (* back to A: the instance still works after B's lifetime ended *)
  run_thread fab_a (fun ctx ->
      Flit.Counters.decr ca ctx !xa;
      Alcotest.(check int) "A drains its own marker" 0
        (Flit.Counters.read ca ctx !xa))

let test_buffered_dirty_sets_isolated () =
  (* same shape for buffered-sync's per-instance dirty set *)
  let fab_a = F.uniform ~seed:7 ~evict_prob:0.0 2 in
  let fab_b = F.uniform ~seed:7 ~evict_prob:0.0 2 in
  let ia = FI.instantiate Flit.Registry.buffered fab_a in
  let ib = FI.instantiate Flit.Registry.buffered fab_b in
  let dirty i = (Option.get i.FI.dirty_count) () in
  run_thread fab_a (fun ctx ->
      let x = Runtime.Ops.alloc ctx ~owner:1 in
      ia.FI.shared_store ctx x 5 ~pflag:true);
  Alcotest.(check bool) "A buffered a write" true (dirty ia > 0);
  Alcotest.(check int) "B's dirty set untouched" 0 (dirty ib);
  run_thread fab_a (fun ctx -> (Option.get ia.FI.sync) ctx);
  Alcotest.(check int) "A clean after its own sync" 0 (dirty ia)

(* ------------------------------------------------------------------ *)
(* Concurrent fabrics on separate domains                              *)
(* ------------------------------------------------------------------ *)

let crashing_config transform =
  let c = W.default_config O.Register transform in
  {
    c with
    W.seed = 11;
    ops_per_thread = 4;
    crashes =
      [
        {
          R.at = 14;
          machine = 2;
          restart_at = 22;
          recovery_threads = 1;
          recovery_ops = 2;
        };
      ];
  }

let fingerprint transform () =
  let r = W.run (crashing_config transform) in
  let v = Lincheck.Durable.check (O.spec O.Register) r.W.history in
  (Fmt.str "%a" Lincheck.History.pp r.W.history, v.Lincheck.Durable.durable)

let test_parallel_domains_deterministic () =
  (* the same seeded crash workload, once sequentially and twice in
     parallel domains: identical histories and verdicts.  Under the old
     global tables this at least contended on a mutex; with instance
     state the three runs share nothing mutable at all *)
  let t = Flit.Registry.alg2_mstore in
  let h0, v0 = fingerprint t () in
  let d1 = Domain.spawn (fingerprint t) in
  let d2 = Domain.spawn (fingerprint t) in
  let h1, v1 = Domain.join d1 in
  let h2, v2 = Domain.join d2 in
  Alcotest.(check string) "domain 1 history = sequential" h0 h1;
  Alcotest.(check string) "domain 2 history = sequential" h0 h2;
  Alcotest.(check bool) "verdicts agree" true (v0 = v1 && v1 = v2);
  Alcotest.(check bool) "mstore durable under the crash" true v0

let test_parallel_domains_mixed_transforms () =
  (* different transformations racing on different domains: each keeps
     its own verdict — the noflush control still loses writes while
     alg3-rstore stays durable, with no bleed either way *)
  let d_ok = Domain.spawn (fingerprint Flit.Registry.alg3_rstore) in
  let d_ctl = Domain.spawn (fingerprint Flit.Registry.noflush) in
  let _, v_ok = Domain.join d_ok in
  let h_ctl, v_ctl = Domain.join d_ctl in
  let h_ctl_seq, v_ctl_seq = fingerprint Flit.Registry.noflush () in
  Alcotest.(check bool) "rstore durable next to the control" true v_ok;
  Alcotest.(check bool) "control verdict unchanged by company" true
    (v_ctl = v_ctl_seq);
  Alcotest.(check string) "control history unchanged by company" h_ctl_seq h_ctl

(* ------------------------------------------------------------------ *)
(* Name resolution: the alias expansion every binary's --transform uses *)
(* ------------------------------------------------------------------ *)

let resolved names =
  match Flit.Registry.resolve names with
  | Ok ts -> Ok (List.map FI.name ts)
  | Error n -> Error n

let result_names = Alcotest.(result (list string) string)

let test_resolve_aliases () =
  let names ts = Ok (List.map FI.name ts) in
  let durable = names Flit.Registry.durable in
  Alcotest.check result_names "flit" durable (resolved [ "flit" ]);
  Alcotest.check result_names "durable" durable (resolved [ "durable" ]);
  Alcotest.check result_names "all"
    (names (Flit.Registry.all @ Flit.Registry.extensions))
    (resolved [ "all" ]);
  Alcotest.check result_names "noflush" (Ok [ "noflush-control" ])
    (resolved [ "noflush" ]);
  Alcotest.check result_names "plain name" (Ok [ "adaptive" ])
    (resolved [ "adaptive" ])

let test_resolve_first_occurrence () =
  (* noflush first, then the durable four, then what [all] adds; every
     repeat is dropped where it recurs *)
  Alcotest.check result_names "noflush,flit,all"
    (Ok
       [
         "noflush-control"; "simple"; "alg2-mstore"; "alg3-rstore";
         "alg3'-weakest"; "weakest-lflush"; "adaptive"; "buffered-sync";
         "ablation-noflit-counter";
       ])
    (resolved [ "noflush"; "flit"; "all" ]);
  Alcotest.check result_names "repeats collapse" (Ok [ "simple" ])
    (resolved [ "simple"; "simple" ])

let test_resolve_first_unknown () =
  Alcotest.check result_names "first unknown name" (Error "bogus")
    (resolved [ "flit"; "bogus"; "alg3-rstor"; "also-bogus" ]);
  Alcotest.check result_names "empty list" (Ok []) (resolved [])

let () =
  Alcotest.run "instances"
    [
      ( "one domain",
        [
          Alcotest.test_case "interleaved fabrics, no counter bleed" `Quick
            test_interleaved_same_domain;
          Alcotest.test_case "buffered dirty sets isolated" `Quick
            test_buffered_dirty_sets_isolated;
        ] );
      ( "parallel domains",
        [
          Alcotest.test_case "same-seed runs identical" `Quick
            test_parallel_domains_deterministic;
          Alcotest.test_case "mixed transforms independent" `Quick
            test_parallel_domains_mixed_transforms;
        ] );
      ( "registry",
        [
          Alcotest.test_case "resolve expands aliases" `Quick
            test_resolve_aliases;
          Alcotest.test_case "resolve keeps first occurrences" `Quick
            test_resolve_first_occurrence;
          Alcotest.test_case "resolve names the first unknown" `Quick
            test_resolve_first_unknown;
        ] );
    ]
