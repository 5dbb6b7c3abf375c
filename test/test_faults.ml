(* RAS fault injection end-to-end: fault envelopes over the workload
   harness, FliT's degraded-mode fallback, codec round-trips for fault
   specs, and the generator/shrinker integration. *)

module W = Harness.Workload
module R = Harness.Runcore
module F = Fabric
module G = Fuzz.Gen
module H = Lincheck.History

let base kind transform =
  { (W.default_config kind transform) with W.evict_prob = 0.0 }

let degrade ?(nack = 0.2) ?(delay = 0.1) m1 m2 =
  R.Degrade_link { m1; m2; nack_prob = nack; delay_prob = delay;
                   delay_cycles = 40 }

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Envelopes over the harness                                          *)
(* ------------------------------------------------------------------ *)

let test_transient_durable () =
  (* both worker<->home links mildly degraded: the retry policy absorbs
     the NACKs (or surfaces clean Faulted aborts) and durability holds *)
  let c =
    { (base Harness.Objects.Counter Flit.Registry.alg3_rstore) with
      W.seed = 5;
      ops_per_thread = 4;
      faults = [ degrade 0 2; degrade 1 2 ];
    }
  in
  let r = W.run c in
  let s = r.W.stats in
  Alcotest.(check bool) "faults were injected" true
    (s.F.Stats.faults_injected > 0);
  let v = W.check c in
  Alcotest.(check bool) "durable under transient faults" true
    v.Lincheck.Durable.durable

let test_degraded_fallback () =
  (* weakest-lflush flushes with LFlush; a degraded link toward the home
     makes the transform fall back to RFlush (LFlush would strand the
     dirty line behind a flaky link), recorded in degraded_ops *)
  let c =
    { (base Harness.Objects.Register Flit.Registry.weakest_lflush) with
      W.seed = 3;
      ops_per_thread = 4;
      faults = [ degrade ~nack:0.2 ~delay:0.0 0 2 ];
    }
  in
  let r = W.run c in
  let s = r.W.stats in
  Alcotest.(check bool) "LF->RF fallback happened" true
    (s.F.Stats.degraded_ops > 0);
  Alcotest.(check bool) "fallback flushes are remote" true
    (s.F.Stats.rflushes > 0);
  let v = W.check c in
  Alcotest.(check bool) "still durable" true v.Lincheck.Durable.durable

let test_poison_aborts_are_durable () =
  (* an early poison on the counter's line: RMW/load operations that
     observe it abort with a typed Faulted response, which the checker
     treats as pending — the verdict stays durable *)
  let c =
    { (base Harness.Objects.Counter Flit.Registry.simple) with
      W.seed = 2;
      ops_per_thread = 4;
      faults = [ R.Poison_at { at = 2; loc_seed = 0 } ];
    }
  in
  let r = W.run c in
  let faulted =
    List.exists
      (fun (o : H.op) -> o.H.ret = Some H.Faulted)
      (H.ops r.W.history)
  in
  Alcotest.(check bool) "some op observed the poison" true faulted;
  Alcotest.(check bool) "poison observations counted" true
    (r.W.stats.F.Stats.faults_injected > 0);
  let v = W.check c in
  Alcotest.(check bool) "faulted history durable" true
    v.Lincheck.Durable.durable

let test_faulted_run_deterministic () =
  let c =
    { (base Harness.Objects.Queue Flit.Registry.alg3_rstore) with
      W.seed = 11;
      ops_per_thread = 3;
      crashes =
        [ { R.at = 12; machine = 0; restart_at = 18; recovery_threads = 1;
            recovery_ops = 1 } ];
      faults = [ degrade 0 2; R.Poison_at { at = 20; loc_seed = 3 } ];
    }
  in
  let fingerprint () =
    let h, verdict, _ = Fuzz.Campaign.replay c in
    Fmt.str "%a|%s" H.pp h verdict
  in
  Alcotest.(check string) "same config, same run" (fingerprint ())
    (fingerprint ())

(* ------------------------------------------------------------------ *)
(* Codec                                                               *)
(* ------------------------------------------------------------------ *)

let test_codec_roundtrip () =
  let c =
    { (base Harness.Objects.Stack Flit.Registry.adaptive) with
      W.faults =
        [
          degrade 0 1;
          R.Down_link { m1 = 1; m2 = 2; from_cycle = 100; until_cycle = 900 };
          R.Poison_at { at = 7; loc_seed = 5 };
        ];
    }
  in
  match Harness.Codec.config_of_string (Harness.Codec.config_to_string c) with
  | Error e -> Alcotest.failf "decode: %s" (Harness.Codec.error_to_string e)
  | Ok c' ->
      Alcotest.(check bool) "round-trips" true (Harness.Codec.config_equal c c')

let test_codec_fault_free_unchanged () =
  (* fault-free configs serialise without a faults field at all, so old
     corpus files (and their content-hashed names) stay valid *)
  let c = base Harness.Objects.Counter Flit.Registry.simple in
  let s = Harness.Codec.config_to_string c in
  Alcotest.(check bool) "no faults field emitted" false (contains s "faults");
  match Harness.Codec.config_of_string s with
  | Ok c' -> Alcotest.(check bool) "parses back" true
               (Harness.Codec.config_equal c c')
  | Error e -> Alcotest.failf "decode: %s" (Harness.Codec.error_to_string e)

let test_describe_suffix () =
  let c = base Harness.Objects.Counter Flit.Registry.simple in
  let has_faults s = contains s "faults=" in
  Alcotest.(check bool) "fault-free provenance unchanged" false
    (has_faults (W.describe c));
  Alcotest.(check bool) "faulted provenance labelled" true
    (has_faults (W.describe { c with W.faults = [ degrade 0 1 ] }))

(* ------------------------------------------------------------------ *)
(* Generator and shrinker                                              *)
(* ------------------------------------------------------------------ *)

let test_gen_fault_free_empty () =
  let p = G.profile_of_transform Flit.Registry.alg3_rstore in
  let rng = Random.State.make [| 9 |] in
  for _ = 1 to 30 do
    let c = G.gen p rng in
    Alcotest.(check int) "no fault specs" 0 (List.length c.W.faults)
  done

let test_gen_envelopes_well_formed () =
  List.iter
    (fun env ->
      let p =
        { (G.profile_of_transform Flit.Registry.alg3_rstore) with
          G.fault_env = env }
      in
      let rng = Random.State.make [| 13 |] in
      for _ = 1 to 30 do
        let c = G.gen p rng in
        Alcotest.(check bool) "non-empty" true (c.W.faults <> []);
        (* every spec must be accepted by the fabric constructor of a run *)
        ignore (W.run c);
        List.iter
          (function
            | R.Degrade_link { m1; m2; _ } | R.Down_link { m1; m2; _ } ->
                Alcotest.(check bool) "distinct endpoints in range" true
                  (m1 <> m2 && m1 < c.W.n_machines && m2 < c.W.n_machines)
            | R.Poison_at { at; _ } ->
                Alcotest.(check bool) "positive step" true (at >= 1))
          c.W.faults
      done)
    [ G.Transient_only; G.Degraded_env; G.Poison_env ]

let test_shrink_drops_faults () =
  let c =
    { (base Harness.Objects.Counter Flit.Registry.simple) with
      W.faults = [ degrade 0 1; R.Poison_at { at = 5; loc_seed = 1 } ] }
  in
  Alcotest.(check bool) "one-fewer-fault candidates offered" true
    (List.exists
       (fun c' -> List.length c'.W.faults = 1)
       (Fuzz.Shrink.candidates c));
  (* a failure independent of the faults shrinks to a fault-free config *)
  let m = Fuzz.Shrink.minimize ~still_failing:(fun _ -> true) c in
  Alcotest.(check int) "faults shrunk away" 0 (List.length m.W.faults)

let () =
  Alcotest.run "faults"
    [
      ( "harness",
        [
          Alcotest.test_case "transient durable" `Quick test_transient_durable;
          Alcotest.test_case "degraded LF->RF fallback" `Quick
            test_degraded_fallback;
          Alcotest.test_case "poison aborts durable" `Quick
            test_poison_aborts_are_durable;
          Alcotest.test_case "deterministic replay" `Quick
            test_faulted_run_deterministic;
        ] );
      ( "codec",
        [
          Alcotest.test_case "round-trip" `Quick test_codec_roundtrip;
          Alcotest.test_case "fault-free unchanged" `Quick
            test_codec_fault_free_unchanged;
          Alcotest.test_case "describe suffix" `Quick test_describe_suffix;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "fault-free draws nothing" `Quick
            test_gen_fault_free_empty;
          Alcotest.test_case "envelopes well-formed" `Quick
            test_gen_envelopes_well_formed;
          Alcotest.test_case "shrink drops faults" `Quick
            test_shrink_drops_faults;
        ] );
    ]
