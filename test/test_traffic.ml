(* The traffic layer: Zipfian generator shape (rank-frequency
   monotonicity, theta-skew ordering), mix parsing, and the schedule
   determinism contract — byte-identical request streams for a fixed
   seed across reruns and re-traversals. *)

module T = Harness.Traffic

(* ------------------------------------------------------------------ *)
(* Zipfian generator                                                   *)
(* ------------------------------------------------------------------ *)

let draw_counts ~theta ~n ~draws =
  let z = T.Zipf.create ~theta ~n in
  let rng = Random.State.make [| 42 |] in
  let counts = Array.make n 0 in
  for _ = 1 to draws do
    let r = T.Zipf.draw z rng in
    counts.(r) <- counts.(r) + 1
  done;
  counts

let test_zipf_rank_monotone () =
  (* the head of the distribution must be strictly ordered by rank: with
     200k draws the adjacent-rank frequency ratio (at most (r+1/r+2)^0.9
     ~ 0.9 for r < 8) is far outside sampling noise — and the draw
     stream is seeded, so this is a deterministic check, not a flaky
     statistical one *)
  let counts = draw_counts ~theta:0.9 ~n:64 ~draws:200_000 in
  for r = 0 to 7 do
    Alcotest.(check bool)
      (Fmt.str "count(%d) > count(%d)" r (r + 1))
      true
      (counts.(r) > counts.(r + 1))
  done;
  Alcotest.(check bool) "head dominates tail" true (counts.(0) > 10 * counts.(63))

let test_zipf_theta_skew () =
  (* more theta, more head mass: the top-4 share must be strictly
     increasing in theta, and theta = 0 must be near-uniform *)
  let head_share theta =
    let counts = draw_counts ~theta ~n:64 ~draws:100_000 in
    counts.(0) + counts.(1) + counts.(2) + counts.(3)
  in
  let s0 = head_share 0.0 and s5 = head_share 0.5 and s9 = head_share 0.9 in
  Alcotest.(check bool) "theta 0 < 0.5" true (s0 < s5);
  Alcotest.(check bool) "theta 0.5 < 0.9" true (s5 < s9);
  let uniform = draw_counts ~theta:0.0 ~n:16 ~draws:160_000 in
  Array.iter
    (fun c ->
      Alcotest.(check bool) "theta 0 near-uniform" true
        (c > 8_000 && c < 12_000))
    uniform

let test_zipf_bounds_and_validation () =
  let z = T.Zipf.create ~theta:0.99 ~n:7 in
  let rng = Random.State.make [| 9 |] in
  for _ = 1 to 10_000 do
    let r = T.Zipf.draw z rng in
    Alcotest.(check bool) "rank in range" true (r >= 0 && r < 7)
  done;
  Alcotest.(check int) "n=1 always rank 0" 0
    (T.Zipf.draw (T.Zipf.create ~theta:0.5 ~n:1) rng);
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "n=0 rejected" true
    (raises (fun () -> T.Zipf.create ~theta:0.5 ~n:0));
  Alcotest.(check bool) "theta=1 rejected" true
    (raises (fun () -> T.Zipf.create ~theta:1.0 ~n:8));
  Alcotest.(check bool) "theta<0 rejected" true
    (raises (fun () -> T.Zipf.create ~theta:(-0.1) ~n:8))

(* ------------------------------------------------------------------ *)
(* Mix parsing                                                         *)
(* ------------------------------------------------------------------ *)

let test_mix_parsing () =
  Alcotest.(check string) "ycsb a" "r50u50i0" (T.mix_name (T.mix_of_string "a"));
  Alcotest.(check string) "ycsb b" "r95u5i0" (T.mix_name (T.mix_of_string "b"));
  Alcotest.(check string) "ycsb c" "r100u0i0" (T.mix_name (T.mix_of_string "c"));
  Alcotest.(check string) "ycsb d" "r95u0i5" (T.mix_name (T.mix_of_string "d"));
  Alcotest.(check string) "weights" "r95u4i1"
    (T.mix_name (T.mix_of_string "95:4:1"));
  let rejected s =
    try ignore (T.mix_of_string s); false with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "all-zero rejected" true (rejected "0:0:0");
  Alcotest.(check bool) "negative rejected" true (rejected "5:-1:0");
  Alcotest.(check bool) "garbage rejected" true (rejected "lots");
  Alcotest.(check bool) "two fields rejected" true (rejected "95:5")

(* ------------------------------------------------------------------ *)
(* Schedule generation                                                 *)
(* ------------------------------------------------------------------ *)

let spec =
  { T.default_spec with T.sessions = 13; ops_per_session = 9; keyspace = 32;
    seed = 7 }

let schedule spec = Array.of_seq (T.stream spec)

let test_schedule_well_formed () =
  let reqs = schedule { spec with T.mix = T.mix_of_string "90:5:5" } in
  Alcotest.(check int) "all ops scheduled" (T.total_ops spec)
    (Array.length reqs);
  let last_arrival = ref 0 in
  let per_session_seq = Hashtbl.create 16 in
  let insert_keys = ref [] in
  Array.iter
    (fun (r : T.request) ->
      Alcotest.(check bool) "arrivals nondecreasing" true
        (r.T.arrival >= !last_arrival);
      last_arrival := r.T.arrival;
      (* per-session issue order survives the arrival-sorted merge *)
      let prev =
        Option.value ~default:(-1) (Hashtbl.find_opt per_session_seq r.T.session)
      in
      Alcotest.(check bool) "session seq increases" true (r.T.seq > prev);
      Hashtbl.replace per_session_seq r.T.session r.T.seq;
      match r.T.op with
      | T.Read ->
          Alcotest.(check bool) "read key in keyspace" true
            (r.T.key >= 0 && r.T.key < spec.T.keyspace);
          Alcotest.(check int) "read value 0" 0 r.T.value
      | T.Update ->
          Alcotest.(check bool) "update key in keyspace" true
            (r.T.key >= 0 && r.T.key < spec.T.keyspace)
      | T.Insert ->
          Alcotest.(check bool) "insert key fresh" true
            (r.T.key >= spec.T.keyspace);
          insert_keys := r.T.key :: !insert_keys)
    reqs;
  Alcotest.(check int) "insert keys never collide"
    (List.length !insert_keys)
    (List.length (List.sort_uniq compare !insert_keys))

let test_stream_persistent () =
  (* the streaming engine's contract: deterministic in the seed, each
     traversal from the root replays the same draws (a fresh cursor per
     traversal), and O(sessions) in state — the big spec here would blow
     an eager engine's memory budget times over if it materialised *)
  let s = T.stream spec in
  let arr = Array.of_seq s in
  Alcotest.(check bool) "rerun identical" true (schedule spec = arr);
  Alcotest.(check bool) "a second traversal from the root replays" true
    (Array.of_seq s = arr);
  let c = T.cursor spec in
  let rec drain acc =
    match T.next c with None -> List.rev acc | Some r -> drain (r :: acc)
  in
  Alcotest.(check bool) "the cursor drains the same schedule" true
    (Array.of_list (drain []) = arr);
  Alcotest.(check bool) "a drained cursor stays drained" true (T.next c = None);
  Alcotest.(check bool) "seed matters" true
    (schedule { spec with T.seed = 8 } <> arr);
  let big = { spec with T.sessions = 3; ops_per_session = 100_000 } in
  let n = Seq.fold_left (fun n (_ : T.request) -> n + 1) 0 (T.stream big) in
  Alcotest.(check int) "lazy stream drains fully" (T.total_ops big) n

(* The materialising generator, spelled out: each session draws its
   requests in sequence from its own RNG — gap, op weight, key, value —
   and the whole schedule is sorted by (arrival, session, seq).  The
   streaming generator must equal it draw for draw. *)
let materialised (s : T.spec) =
  let zipf = T.Zipf.create ~theta:s.T.theta ~n:s.T.keyspace in
  let mean = float_of_int s.T.sessions *. 1000.0 /. s.T.rate in
  let m = s.T.mix in
  let all = ref [] in
  for session = 0 to s.T.sessions - 1 do
    let rng = Random.State.make [| s.T.seed; session; 0x5e55 |] in
    let clock = ref 0 and inserted = ref 0 in
    for seq = 0 to s.T.ops_per_session - 1 do
      let u = 1.0 -. Random.State.float rng 1.0 in
      clock := !clock + max 1 (int_of_float (Float.round (-.mean *. log u)));
      let w = Random.State.int rng (m.T.reads + m.T.updates + m.T.inserts) in
      let op =
        if w < m.T.reads then T.Read
        else if w < m.T.reads + m.T.updates then T.Update
        else T.Insert
      in
      let key =
        match op with
        | T.Read | T.Update -> T.Zipf.draw zipf rng
        | T.Insert ->
            incr inserted;
            s.T.keyspace + (session * s.T.ops_per_session) + !inserted - 1
      in
      let value =
        match op with
        | T.Read -> 0
        | T.Update | T.Insert -> 1 + Random.State.int rng s.T.value_range
      in
      all := { T.session; seq; arrival = !clock; op; key; value } :: !all
    done
  done;
  Array.of_list
    (List.sort
       (fun (a : T.request) (b : T.request) ->
         compare (a.T.arrival, a.T.session, a.T.seq)
           (b.T.arrival, b.T.session, b.T.seq))
       !all)

let test_matches_materialised () =
  List.iter
    (fun spec ->
      Alcotest.(check bool) (T.describe spec) true
        (schedule spec = materialised spec))
    [
      spec;
      { spec with T.mix = T.mix_of_string "90:5:5"; seed = 3 };
      { spec with T.mix = T.mix_of_string "a"; theta = 0.0; rate = 40.0 };
      { spec with T.sessions = 1; ops_per_session = 50 };
    ]

let test_validate () =
  let ok s = Result.is_ok (T.validate s) in
  let err s msg =
    match T.validate s with
    | Error m -> Alcotest.(check string) "error names the field" msg m
    | Ok () -> Alcotest.failf "expected %S" msg
  in
  Alcotest.(check bool) "default spec valid" true (ok T.default_spec);
  err { spec with T.sessions = 0 } "sessions must be positive";
  err { spec with T.ops_per_session = -1 } "ops per session must be positive";
  err { spec with T.rate = 0.0 } "rate must be positive";
  err { spec with T.rate = Float.nan } "rate must be positive";
  err { spec with T.theta = 1.0 } "theta must be in [0, 1)";
  err { spec with T.theta = -0.1 } "theta must be in [0, 1)";
  err { spec with T.keyspace = 0 } "keyspace must be positive";
  err { spec with T.value_range = 0 } "value range must be positive";
  err
    { spec with T.mix = { T.reads = 0; updates = 0; inserts = 0 } }
    "mix weights must be non-negative and sum to > 0";
  (* stream raises the validate message, prefixed by its entry point —
     the CLI shares validate, so cxl0-kv rejects identically *)
  Alcotest.check_raises "stream raises on rate"
    (Invalid_argument "Traffic.stream: rate must be positive") (fun () ->
      ignore (T.stream { spec with T.rate = -1.0 } : T.request Seq.t));
  Alcotest.check_raises "stream raises"
    (Invalid_argument "Traffic.stream: sessions must be positive") (fun () ->
      ignore (T.stream { spec with T.sessions = 0 } : T.request Seq.t));
  Alcotest.check_raises "cursor raises"
    (Invalid_argument "Traffic.cursor: sessions must be positive") (fun () ->
      ignore (T.cursor { spec with T.sessions = 0 } : T.cursor))

let test_mix_respected () =
  let all_ops mix =
    Array.to_list (schedule { spec with T.mix })
    |> List.map (fun r -> r.T.op)
  in
  Alcotest.(check bool) "mix c is read-only" true
    (List.for_all (fun o -> o = T.Read) (all_ops (T.mix_of_string "c")));
  Alcotest.(check bool) "mix 0:100:0 is update-only" true
    (List.for_all (fun o -> o = T.Update) (all_ops (T.mix_of_string "0:100:0")));
  let ops_b = all_ops (T.mix_of_string "b") in
  let reads = List.length (List.filter (fun o -> o = T.Read) ops_b) in
  (* 95% of 117 ops: the seeded draw lands near the weight split *)
  Alcotest.(check bool) "mix b mostly reads" true
    (reads * 100 / List.length ops_b >= 85)

let () =
  Alcotest.run "traffic"
    [
      ( "zipf",
        [
          Alcotest.test_case "rank-frequency monotone" `Quick
            test_zipf_rank_monotone;
          Alcotest.test_case "theta skew ordering" `Quick test_zipf_theta_skew;
          Alcotest.test_case "bounds and validation" `Quick
            test_zipf_bounds_and_validation;
        ] );
      ("mix", [ Alcotest.test_case "parsing" `Quick test_mix_parsing ]);
      ( "schedule",
        [
          Alcotest.test_case "well-formed" `Quick test_schedule_well_formed;
          Alcotest.test_case "stream persistent" `Quick
            test_stream_persistent;
          Alcotest.test_case "matches the materialising generator" `Quick
            test_matches_materialised;
          Alcotest.test_case "validate" `Quick test_validate;
          Alcotest.test_case "mix respected" `Quick test_mix_respected;
        ] );
    ]
