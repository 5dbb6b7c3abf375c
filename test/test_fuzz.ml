(* The crash-fault fuzzer: generator envelopes, shrinking soundness,
   corpus round-trips, replay determinism, and campaign behaviour on the
   known-broken and known-durable transforms. *)

module W = Harness.Workload
module R = Harness.Runcore
module G = Fuzz.Gen
module Sh = Fuzz.Shrink
module C = Fuzz.Campaign

let noflush_profile = G.profile_of_transform Flit.Registry.noflush
let mstore_profile = G.profile_of_transform Flit.Registry.alg2_mstore

let lflush_profile = G.profile_of_transform Flit.Registry.weakest_lflush

let profile_of_index = function
  | 0 -> noflush_profile
  | 1 -> mstore_profile
  | _ -> lflush_profile

let gen_config profile seed =
  G.gen profile (Random.State.make [| 42; seed |])

(* a config generated from the profile of transform named in it *)
let arb_config =
  QCheck.make
    ~print:(fun (p, s) ->
      Harness.Codec.config_to_string (gen_config (profile_of_index p) s))
    QCheck.Gen.(pair (int_bound 2) (int_bound 10_000))

let config_of (p, s) = gen_config (profile_of_index p) s

(* ------------------------------------------------------------------ *)
(* Generator                                                           *)
(* ------------------------------------------------------------------ *)

let prop_gen_inside_envelope =
  QCheck.Test.make ~name:"generated configs respect the profile envelope"
    ~count:300 arb_config (fun (p, s) ->
      let profile = profile_of_index p in
      let c = config_of (p, s) in
      let workers_spared =
        match profile.G.worker_crashes with
        | G.Workers_crash -> false
        | G.Workers_spared -> true
        | G.Workers_spared_if_volatile_home -> c.W.volatile_home
      in
      (* a replicated Kv cell is the one place a home-sparing envelope
         legally crashes the home: every crash is a shard-home crash, and
         replication puts those inside the envelope — except a volatile
         home, whose wipe kills the shard structure itself *)
      let may_crash_home =
        profile.G.crash_home
        || (c.W.kind = Harness.Objects.Kv && c.W.replicas > 1
           && not c.W.volatile_home)
      in
      List.for_all (fun m -> m >= 0 && m < c.W.n_machines) c.W.worker_machines
      && c.W.home >= 0
      && c.W.home < c.W.n_machines
      && (profile.G.allow_volatile_home || not c.W.volatile_home)
      && c.W.replicas >= 1
      && c.W.replicas <= c.W.n_machines
      && List.for_all
           (fun (sp : R.crash_spec) ->
             sp.machine >= 0
             && sp.machine < c.W.n_machines
             && sp.restart_at >= sp.at
             && (may_crash_home || sp.machine <> c.W.home)
             && ((not workers_spared)
                || (not (List.mem sp.machine c.W.worker_machines)
                   && sp.recovery_threads = 0)))
           c.W.crashes)

(* ------------------------------------------------------------------ *)
(* Shrinking                                                           *)
(* ------------------------------------------------------------------ *)

let prop_candidates_leq =
  QCheck.Test.make ~name:"every shrink candidate is leq the original"
    ~count:300 arb_config (fun ps ->
      let c = config_of ps in
      List.for_all (fun c' -> Sh.leq c' c) (Sh.candidates c))

let prop_minimize_fixpoint =
  (* against a pure predicate, minimize reaches a config none of whose
     candidates still satisfies it — a true local minimum *)
  QCheck.Test.make ~name:"minimize reaches a fixpoint" ~count:100 arb_config
    (fun ps ->
      let c = config_of ps in
      let still_failing c' = c'.W.crashes <> [] in
      QCheck.assume (still_failing c);
      let m = Sh.minimize ~still_failing c in
      still_failing m
      && Sh.leq m c
      && not (List.exists still_failing (Sh.candidates m)))

(* ------------------------------------------------------------------ *)
(* Corpus round-trip                                                   *)
(* ------------------------------------------------------------------ *)

let prop_codec_roundtrip =
  QCheck.Test.make ~name:"config survives sexp round-trip" ~count:300
    arb_config (fun ps ->
      let c = config_of ps in
      match Harness.Codec.config_of_string (Harness.Codec.config_to_string c) with
      | Ok c' -> Harness.Codec.config_equal c c'
      | Error e ->
          QCheck.Test.fail_reportf "parse error: %s"
            (Harness.Codec.error_to_string e))

let test_corpus_file_roundtrip () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "cxl0-fuzz-test" in
  let c = gen_config noflush_profile 17 in
  let path, fresh = Fuzz.Corpus.save ~dir c ~comment:[ "a comment"; "b" ] in
  Alcotest.(check bool) "fresh on first save" true fresh;
  let _, fresh2 = Fuzz.Corpus.save ~dir c ~comment:[ "ignored" ] in
  Alcotest.(check bool) "deduplicated on second save" false fresh2;
  (match Fuzz.Corpus.load path with
  | Ok c' ->
      Alcotest.(check bool) "round-trips" true (Harness.Codec.config_equal c c')
  | Error e -> Alcotest.failf "load failed: %s" (Harness.Codec.error_to_string e));
  let entries = Fuzz.Corpus.load_all dir in
  Alcotest.(check bool) "listed" true
    (List.exists (fun (p, _) -> p = path) entries);
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Replay determinism                                                  *)
(* ------------------------------------------------------------------ *)

let prop_replay_reproduces_history =
  QCheck.Test.make ~name:"replay reproduces the history byte-for-byte"
    ~count:60 arb_config (fun ps ->
      let c = config_of ps in
      let h1, v1, _ = C.replay c in
      let h2, v2, _ = C.replay c in
      Fmt.str "%a" Lincheck.History.pp h1 = Fmt.str "%a" Lincheck.History.pp h2
      && v1 = v2)

(* ------------------------------------------------------------------ *)
(* Campaigns                                                           *)
(* ------------------------------------------------------------------ *)

let tmp_corpus name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "cxl0-fuzz-%s" name)

let test_noflush_campaign_finds_and_shrinks () =
  let dir = tmp_corpus "noflush" in
  let s = C.run ~jobs:2 ~corpus_dir:dir noflush_profile ~cells:80 ~seed:1 () in
  Alcotest.(check bool) "violations found" true (s.C.violations <> []);
  List.iter
    (fun (v : C.violation) ->
      (* the shrunk config still violates, and is leq the original *)
      Alcotest.(check bool) "shrunk leq original" true
        (Sh.leq v.shrunk v.original);
      (match C.evaluate noflush_profile v.shrunk with
      | `Violation _ -> ()
      | _ -> Alcotest.fail "shrunk config no longer violates");
      Alcotest.(check bool) "banked in corpus" true
        (Sys.file_exists v.corpus_path))
    s.C.violations

let test_mstore_campaign_is_clean () =
  let dir = tmp_corpus "mstore" in
  let s = C.run ~jobs:2 ~corpus_dir:dir mstore_profile ~cells:80 ~seed:1 () in
  Alcotest.(check int) "no violations" 0 (List.length s.C.violations);
  Alcotest.(check int) "all cells accounted for" s.C.cells
    (s.C.ok + s.C.skipped)

let test_f3_buffered_worker_crash_violation () =
  (* Finding F3 (campaign seed=7, cell 107): a crash of a machine
     hosting writers kills its un-synced completed suffix while
     completed operations on the surviving machines live on — no
     happens-after-closed drop set exists, so even the buffered
     (consistent-cut) criterion fails.  The buffered-sync envelope
     therefore crashes only bystander machines. *)
  let c =
    {
      W.kind = Harness.Objects.Counter;
      transform = Flit.Registry.buffered;
      n_machines = 3;
      home = 2;
      volatile_home = false;
      worker_machines = [ 2; 0; 1 ];
      ops_per_thread = 2;
      crashes =
        [
          { R.at = 44; machine = 1; restart_at = 44; recovery_threads = 1;
            recovery_ops = 1 };
          { R.at = 17; machine = 0; restart_at = 17; recovery_threads = 2;
            recovery_ops = 1 };
        ];
      faults = [];
      seed = 875382;
      evict_prob = 0.0;
      cache_capacity = 1;
      value_range = 1;
      pflag = true;
      replicas = 1;
    }
  in
  let profile = G.profile_of_transform Flit.Registry.buffered in
  match C.evaluate profile c with
  | `Violation _ -> ()
  | `Ok -> Alcotest.fail "expected a buffered-durability violation"
  | `Skipped w -> Alcotest.failf "unexpectedly skipped: %s" w

(* Cells shard across domains and the summary merges every cell's
   result: the same seed must give the same counts, shrunk minima and
   merged fabric traffic at jobs 1 and 3. *)
let test_campaign_deterministic_across_jobs () =
  let summary_sig (s : C.summary) =
    ( s.C.ok,
      s.C.skipped,
      List.map
        (fun (v : C.violation) ->
          (v.index, Harness.Codec.config_to_string v.shrunk))
        s.C.violations,
      Fabric.Stats.to_json s.C.stats )
  in
  List.iter
    (fun (name, profile) ->
      let run jobs =
        summary_sig
          (C.run ~jobs ~corpus_dir:(tmp_corpus "jobs") profile ~cells:40
             ~seed:3 ())
      in
      let ((_, _, violations, _) as one) = run 1 in
      Alcotest.(check bool) (name ^ ": jobs 1 = jobs 3") true (one = run 3);
      (* the control must shrink something, or the minima compare vacuously *)
      if name = "noflush" then
        Alcotest.(check bool) "noflush finds violations" true (violations <> []))
    [ ("noflush", noflush_profile); ("alg2-mstore", mstore_profile) ]

let () =
  Alcotest.run "fuzz"
    [
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_gen_inside_envelope;
          QCheck_alcotest.to_alcotest prop_candidates_leq;
          QCheck_alcotest.to_alcotest prop_minimize_fixpoint;
          QCheck_alcotest.to_alcotest prop_codec_roundtrip;
          QCheck_alcotest.to_alcotest prop_replay_reproduces_history;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "file round-trip + dedup" `Quick
            test_corpus_file_roundtrip;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "noflush finds and shrinks" `Slow
            test_noflush_campaign_finds_and_shrinks;
          Alcotest.test_case "mstore clean" `Slow test_mstore_campaign_is_clean;
          Alcotest.test_case "finding-f3: buffered worker-crash violation"
            `Quick test_f3_buffered_worker_crash_violation;
          Alcotest.test_case "deterministic cells" `Quick
            test_campaign_deterministic_across_jobs;
        ] );
    ]
