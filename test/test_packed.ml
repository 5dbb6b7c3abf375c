(* Differential tests for the bit-packed model-checking engine: the
   packed representation must round-trip through the canonical map
   representation, the packed search must decide membership in and
   non-emptiness of the reference engine's reachable sets, and the
   domain-parallel exhaustive sweep must be invariant in the jobs
   count. *)

open Cxl0

let x1 = Loc.v ~owner:0 0
let x2 = Loc.v ~owner:1 0
let x3 = Loc.v ~owner:2 0
let y1 = Loc.v ~owner:0 1

(* ------------------------------------------------------------------ *)
(* Round-trip                                                          *)
(* ------------------------------------------------------------------ *)

(* of_config ∘ to_config = id on every configuration a random walk can
   reach (stores, loads, flushes, taus, crashes — N <= 3). *)
let prop_roundtrip_random_walk =
  QCheck.Test.make ~name:"packed round-trips random reachable configs"
    ~count:200
    QCheck.(triple small_nat (int_bound 30) (int_range 2 3))
    (fun (seed, len, n) ->
      let sys = Machine.uniform n in
      let locs = if n = 3 then [ x1; x2; x3; y1 ] else [ x1; x2; y1 ] in
      let vals = [ 0; 1; 2 ] in
      let t = Lts_trace.random_walk ~seed ~len sys ~locs ~vals in
      let ctx = Packed.make sys ~locs in
      List.for_all
        (fun cfg ->
          Config.equal cfg (Packed.to_config ctx (Packed.of_config ctx cfg)))
        (Lts_trace.configs t))

(* ... and on every enumerated invariant-satisfying configuration. *)
let test_roundtrip_enum () =
  let sys = Machine.uniform 3 in
  let locs = [ x1; x2; x3 ] in
  let vals = [ 0; 1 ] in
  let ctx = Packed.make sys ~locs in
  Seq.iter
    (fun cfg ->
      Alcotest.(check bool)
        (Fmt.str "round-trip %a" Config.pp cfg)
        true
        (Config.equal cfg (Packed.to_config ctx (Packed.of_config ctx cfg))))
    (Props.enum_configs_seq sys ~locs ~vals)

(* Packed equality/hash must coincide with Config equality. *)
let prop_equal_coincides =
  QCheck.Test.make ~name:"packed equality coincides with Config.equal"
    ~count:200
    QCheck.(quad small_nat small_nat (int_bound 20) (int_bound 20))
    (fun (s1, s2, l1, l2) ->
      let sys = Machine.uniform 2 in
      let locs = [ x1; x2; y1 ] in
      let vals = [ 0; 1 ] in
      let ctx = Packed.make sys ~locs in
      let a = (Lts_trace.random_walk ~seed:s1 ~len:l1 sys ~locs ~vals).Lts_trace.final in
      let b = (Lts_trace.random_walk ~seed:s2 ~len:l2 sys ~locs ~vals).Lts_trace.final in
      let pa = Packed.of_config ctx a and pb = Packed.of_config ctx b in
      Packed.equal pa pb = Config.equal a b
      && (Packed.hash pa = Packed.hash pb || not (Config.equal a b)))

(* ------------------------------------------------------------------ *)
(* Reachable-set agreement                                             *)
(* ------------------------------------------------------------------ *)

(* Per-label agreement of Packed.apply with Semantics.apply from random
   reachable configurations. *)
let prop_apply_agrees =
  QCheck.Test.make ~name:"Packed.apply agrees with Semantics.apply"
    ~count:200
    QCheck.(pair small_nat (int_bound 25))
    (fun (seed, len) ->
      let sys = Machine.uniform 3 in
      let locs = [ x1; x2; x3 ] in
      let vals = [ 0; 1 ] in
      let ctx = Packed.make sys ~locs in
      let t = Lts_trace.random_walk ~seed ~len sys ~locs ~vals in
      let cfg = t.Lts_trace.final in
      let pc = Packed.of_config ctx cfg in
      List.for_all
        (fun l ->
          match (Semantics.apply sys cfg l, Packed.apply ctx pc l) with
          | None, None -> true
          | Some c', Some p' -> Config.equal c' (Packed.to_config ctx p')
          | _ -> false)
        (Lts_trace.candidates sys cfg ~locs ~vals))

(* The closed form of →τ* on one location equals membership in the
   reference τ-closure of the one-word state, for every pair of words:
   N = 2..4 machines, every owner, volatile and non-volatile memory,
   two values. *)
let test_tau_reaches_closed_form () =
  List.iter
    (fun (n, persistence) ->
      let sys = Machine.uniform ~persistence n in
      for owner = 0 to n - 1 do
        let ctx = Packed.make sys ~locs:[ Loc.v ~owner 0 ] in
        let words =
          List.concat_map
            (fun h ->
              List.concat_map
                (fun cval ->
                  List.map
                    (fun mem -> Packed.word ctx ~holders:h ~cval ~mem)
                    [ 0; 1 ])
                (if h = 0 then [ 0 ] else [ 0; 1 ]))
            (List.init (1 lsl n) Fun.id)
        in
        let config w = Packed.to_config ctx [| w |] in
        List.iter
          (fun w ->
            let closure =
              Explore.tau_closure sys (Explore.of_config (config w))
            in
            List.iter
              (fun w' ->
                let closed = Packed.tau_reaches ctx 0 w w' in
                if closed <> Config.Set.mem (config w') closure then
                  Alcotest.failf
                    "N=%d owner=M%d: tau_reaches %a -> %a is %b, the \
                     closure says %b"
                    n (owner + 1) (Packed.pp ctx) [| w |] (Packed.pp ctx)
                    [| w' |] closed (not closed))
              words)
          words
      done)
    (List.concat_map
       (fun n -> [ (n, Machine.Non_volatile); (n, Machine.Volatile) ])
       [ 2; 3; 4 ])

(* [Fast.reaches] is membership in the reference run, [Fast.feasible]
   its non-emptiness, and [Fast.images] is the label-by-label image
   (below it by τ-steps only, as the location restriction drops some),
   from random reachable starts: every member of the run and every
   enumerated configuration is queried. *)
let prop_reaches_is_membership =
  QCheck.Test.make ~name:"Fast.reaches = membership in Explore.run" ~count:60
    QCheck.(triple small_nat (int_bound 20) (int_range 1 3))
    (fun (seed, len, k) ->
      let sys = Machine.uniform ~persistence:Machine.Volatile 2 in
      let locs = [ x1; x2; y1 ] and vals = [ 0; 1 ] in
      let ctx = Packed.make sys ~locs in
      let t = Lts_trace.random_walk ~seed ~len sys ~locs ~vals in
      let cfg = t.Lts_trace.final in
      let st = Packed.of_config ctx cfg in
      let rng = Random.State.make [| seed; len; k |] in
      let cands = Array.of_list (Lts_trace.candidates sys cfg ~locs ~vals) in
      let labels =
        List.init k (fun _ ->
            cands.(Random.State.int rng (Array.length cands)))
        |> List.filter (fun l -> not (Label.is_silent l))
      in
      let cache = Explore.Fast.create ctx in
      let run = Explore.run sys cfg labels in
      let targets =
        List.map (Packed.of_config ctx) (Explore.elements run)
        @ List.init
            (Props.enum_configs_count sys ~locs ~vals)
            (Props.enum_packed_nth ctx ~vals)
      in
      let image_ref =
        match labels with
        | [] -> Config.Set.singleton cfg
        | l :: ls ->
            List.fold_left (Explore.step sys)
              (Explore.apply_label sys (Explore.of_config cfg) l)
              ls
      in
      let images = Explore.Fast.images cache st labels in
      Explore.Fast.feasible cache st labels = not (Config.Set.is_empty run)
      && List.for_all
           (fun d ->
             Explore.Fast.reaches cache st labels d
             = Config.Set.mem (Packed.to_config ctx d) run)
           targets
      && List.for_all
           (fun d -> Config.Set.mem (Packed.to_config ctx d) image_ref)
           images
      (* and it is the whole image up to trailing τ-steps *)
      && Config.Set.for_all
           (fun e ->
             let e = Packed.of_config ctx e in
             List.exists
               (fun d ->
                 Array.for_all Fun.id
                   (Array.mapi (fun xi w -> Packed.tau_reaches ctx xi w e.(xi)) d))
               images)
           image_ref)

(* ------------------------------------------------------------------ *)
(* Exhaustive sweep: engines and jobs counts agree                     *)
(* ------------------------------------------------------------------ *)

let check_failures_identical msg expected got =
  Alcotest.(check int) (msg ^ ": same count") (List.length expected)
    (List.length got);
  List.iter2
    (fun a b ->
      Alcotest.(check bool)
        (Fmt.str "%s: %a = %a" msg Props.pp_failure a Props.pp_failure b)
        true (Props.failure_equal a b))
    expected got

(* A deliberately false item makes the failure list non-empty, so the
   ordering/content comparison is meaningful. *)
let bogus_item =
  {
    Props.id = 99;
    name = "LStore is stronger than MStore (false)";
    lhs = (fun i x v -> [ Label.lstore i x v ]);
    rhs = (fun i x v -> [ Label.mstore i x v ]);
    issuers = Props.non_owners;
  }

let test_engines_agree () =
  let sys = Machine.uniform 2 in
  let locs = [ x1; x2 ] in
  let vals = [ 0; 1 ] in
  List.iter
    (fun items ->
      let reference = Props.check_exhaustive_reference ~items sys ~locs ~vals in
      let packed = Props.check_exhaustive ~items sys ~locs ~vals in
      check_failures_identical "reference vs packed" reference packed)
    [ Props.items; [ bogus_item ]; bogus_item :: Props.items ]

(* A value wider than a packed field ([1 lsl 20]) does not fit the
   layout, so the sweep runs the reference engine alone: the same
   failures as the oracle, and no first-pass work. *)
let wide = 1 lsl 20

let test_unrepresentable_sweep () =
  let sys = Machine.uniform 2 in
  let locs = [ x1; x2 ] in
  let vals = [ 0; wide ] in
  Alcotest.(check bool) "the value does not fit" false
    (Packed.fits_value (Packed.make sys ~locs) wide);
  let items = [ bogus_item; Props.item 2 ] in
  let reference = Props.check_exhaustive_reference ~items sys ~locs ~vals in
  Alcotest.(check bool) "bogus item does fail" true (reference <> []);
  let failures, stats = Props.check_exhaustive_stats ~items sys ~locs ~vals in
  check_failures_identical "unrepresentable sweep vs reference" reference
    failures;
  Alcotest.(check int) "no first-pass states" 0 stats.Props.sweep_states;
  Alcotest.(check int) "every start checked" stats.Props.sweep_configs
    stats.Props.sweep_starts

(* ... and a litmus test over such a value is decided by the reference
   engine: both verdicts occur. *)
let test_unrepresentable_litmus () =
  let system = Machine.uniform 2 in
  let events =
    [
      [ Label.mstore 0 x2 wide; Label.crash 1; Label.load 0 x2 0 ];
      [ Label.lstore 0 x2 wide; Label.crash 1; Label.load 0 x2 0 ];
      [ Label.lstore 0 x2 wide; Label.load 1 x2 wide ];
      [ Label.rstore 0 x2 wide; Label.rflush 0 x2; Label.load 1 x2 0 ];
    ]
  in
  let verdicts =
    List.map
      (fun events ->
        let reference = Explore.feasible system Config.init events in
        let t = Litmus.make ~system ~expect:Litmus.Allowed "wide" events in
        Alcotest.(check bool)
          (Fmt.str "%a" Litmus.pp_events events)
          reference
          (Litmus.verdict_equal (Litmus.decide t) Litmus.Allowed);
        reference)
      events
  in
  Alcotest.(check bool) "both verdicts occur" true
    (List.mem true verdicts && List.mem false verdicts)

let test_jobs_invariant () =
  let sys = Machine.uniform 2 in
  let locs = [ x1; x2 ] in
  let vals = [ 0; 1 ] in
  List.iter
    (fun items ->
      let seq = Props.check_exhaustive ~items ~jobs:1 sys ~locs ~vals in
      let par = Props.check_exhaustive ~items ~jobs:4 sys ~locs ~vals in
      check_failures_identical "--jobs 1 vs --jobs 4" seq par)
    [ Props.items; [ bogus_item ] ]

(* Seeded/deterministic: two parallel runs give the same list too. *)
let test_parallel_deterministic () =
  let sys = Machine.uniform 2 in
  let locs = [ x1; x2 ] in
  let vals = [ 0; 1 ] in
  let a = Props.check_exhaustive ~items:[ bogus_item ] ~jobs:4 sys ~locs ~vals in
  let b = Props.check_exhaustive ~items:[ bogus_item ] ~jobs:4 sys ~locs ~vals in
  check_failures_identical "two --jobs 4 runs" a b

(* ------------------------------------------------------------------ *)
(* Ranked enumeration                                                  *)
(* ------------------------------------------------------------------ *)

let test_enum_count_and_nth () =
  let sys = Machine.uniform 2 in
  let locs = [ x1 ] in
  let vals = [ 0; 1 ] in
  (* per loc: cached in {none, (v, holders)} = 1 + 2*3 = 7; mem in {0,1}
     -> 14 configurations *)
  Alcotest.(check int) "count" 14 (Props.enum_configs_count sys ~locs ~vals);
  let listed = Props.enum_configs sys ~locs ~vals in
  Alcotest.(check int) "list length" 14 (List.length listed);
  List.iteri
    (fun m cfg ->
      Alcotest.(check bool) "nth matches list order" true
        (Config.equal cfg (Props.enum_config_nth sys ~locs ~vals m)))
    listed;
  let set =
    List.fold_left (fun s c -> Config.Set.add c s) Config.Set.empty listed
  in
  Alcotest.(check int) "all distinct" 14 (Config.Set.cardinal set);
  Alcotest.(check bool) "all satisfy invariant" true
    (List.for_all Config.invariant listed)

let test_enum_packed_nth_agrees () =
  let sys = Machine.uniform 3 in
  let locs = [ x1; x2; x3 ] in
  let vals = [ 0; 1 ] in
  let ctx = Packed.make sys ~locs in
  let total = Props.enum_configs_count sys ~locs ~vals in
  for m = 0 to total - 1 do
    let via_config =
      Packed.of_config ctx (Props.enum_config_nth sys ~locs ~vals m)
    in
    let direct = Props.enum_packed_nth ctx ~vals m in
    if not (Packed.equal via_config direct) then
      Alcotest.failf "enum_packed_nth disagrees at index %d" m
  done

(* ------------------------------------------------------------------ *)
(* Parallel driver                                                     *)
(* ------------------------------------------------------------------ *)

let test_parallel_map_order () =
  List.iter
    (fun jobs ->
      let r =
        Parallel.map_chunked ~jobs 103
          ~init:(fun () -> ref 0)
          ~f:(fun w i ->
            incr w;
            i * i)
      in
      Alcotest.(check int) "length" 103 (Array.length r);
      Array.iteri
        (fun i v -> Alcotest.(check int) "in order" (i * i) v)
        r)
    [ 1; 2; 4 ]

let test_parallel_map_list () =
  let l = List.init 57 (fun i -> i) in
  Alcotest.(check (list int))
    "map_list order" (List.map succ l)
    (Parallel.map_list ~jobs:3 succ l)

let test_parallel_exception () =
  match
    Parallel.map_chunked ~jobs:2 16
      ~init:(fun () -> ())
      ~f:(fun () i -> if i = 7 then failwith "boom" else i)
  with
  | _ -> Alcotest.fail "expected exception"
  | exception Failure msg -> Alcotest.(check string) "propagated" "boom" msg

let () =
  Alcotest.run "cxl0-packed"
    [
      ( "round-trip",
        [
          QCheck_alcotest.to_alcotest prop_roundtrip_random_walk;
          QCheck_alcotest.to_alcotest prop_equal_coincides;
          Alcotest.test_case "enumerated configs" `Quick test_roundtrip_enum;
        ] );
      ( "engine-agreement",
        [
          QCheck_alcotest.to_alcotest prop_apply_agrees;
          Alcotest.test_case "exhaustive sweeps" `Quick test_engines_agree;
          Alcotest.test_case "closed-form tau reach" `Quick
            test_tau_reaches_closed_form;
          QCheck_alcotest.to_alcotest prop_reaches_is_membership;
          Alcotest.test_case "unrepresentable sweep = reference" `Quick
            test_unrepresentable_sweep;
          Alcotest.test_case "unrepresentable litmus = reference" `Quick
            test_unrepresentable_litmus;
        ] );
      ( "parallel-sweep",
        [
          Alcotest.test_case "jobs=1 = jobs=4" `Quick test_jobs_invariant;
          Alcotest.test_case "parallel deterministic" `Quick
            test_parallel_deterministic;
        ] );
      ( "enumeration",
        [
          Alcotest.test_case "count and nth" `Quick test_enum_count_and_nth;
          Alcotest.test_case "packed nth" `Quick test_enum_packed_nth_agrees;
        ] );
      ( "parallel-driver",
        [
          Alcotest.test_case "chunked order" `Quick test_parallel_map_order;
          Alcotest.test_case "map_list" `Quick test_parallel_map_list;
          Alcotest.test_case "exceptions propagate" `Quick
            test_parallel_exception;
        ] );
    ]
