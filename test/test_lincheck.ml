(* The (durable) linearizability checker on hand-crafted histories:
   well-formedness, op extraction, the Wing–Gong search (including
   pending-operation completion and omission), and the durable wrapper. *)

open Lincheck

let inv tid op = History.Inv { tid; op }
let res tid r = History.Res { tid; ret = History.Ret r }
let crash m = History.Crash { machine = m }

(* ------------------------------------------------------------------ *)
(* History plumbing                                                    *)
(* ------------------------------------------------------------------ *)

let test_well_formed () =
  Alcotest.(check bool) "alternating ok" true
    (History.well_formed [ inv 0 Op.Read; res 0 1; inv 0 Op.Read; res 0 2 ]);
  Alcotest.(check bool) "pending tail ok" true
    (History.well_formed [ inv 0 Op.Read ]);
  Alcotest.(check bool) "double invoke bad" false
    (History.well_formed [ inv 0 Op.Read; inv 0 Op.Read ]);
  Alcotest.(check bool) "orphan response bad" false
    (History.well_formed [ res 0 1 ]);
  Alcotest.(check bool) "crashes transparent" true
    (History.well_formed [ inv 0 Op.Read; crash 1; res 0 1 ])

let test_ops_extraction () =
  let h =
    [ inv 0 (Op.Write 1); inv 1 Op.Read; res 0 0; crash 0; inv 2 Op.Read ]
  in
  let ops = History.ops h in
  Alcotest.(check int) "three ops" 3 (List.length ops);
  let o0 = List.nth ops 0 and o1 = List.nth ops 1 and o2 = List.nth ops 2 in
  Alcotest.(check (option int)) "completed" (Some 0) (History.ret_int o0);
  Alcotest.(check (option int)) "pending" None (History.ret_int o1);
  Alcotest.(check (option int)) "pending tail" None (History.ret_int o2);
  Alcotest.(check bool) "inv order" true
    (o0.History.inv_at < o1.History.inv_at && o1.History.inv_at < o2.History.inv_at)

let test_strip_and_count () =
  let h = [ inv 0 Op.Read; crash 0; res 0 0; crash 1 ] in
  Alcotest.(check int) "two crashes" 2 (History.crash_count h);
  Alcotest.(check int) "stripped" 2 (List.length (History.strip_crashes h))

let test_ops_rejects_ill_formed () =
  Alcotest.check_raises "invalid" (Invalid_argument "History.ops: ill-formed history")
    (fun () -> ignore (History.ops [ res 0 1 ]))

(* ------------------------------------------------------------------ *)
(* Sequential specs                                                    *)
(* ------------------------------------------------------------------ *)

let test_spec_conforms () =
  Alcotest.(check bool) "register trace" true
    (Spec.conforms Specs.register
       [ (Op.Read, 0); (Op.Write 5, 0); (Op.Read, 5) ]);
  Alcotest.(check bool) "register bad read" false
    (Spec.conforms Specs.register [ (Op.Write 5, 0); (Op.Read, 4) ]);
  Alcotest.(check bool) "counter" true
    (Spec.conforms Specs.counter
       [ (Op.Inc, 0); (Op.Inc, 1); (Op.Get, 2) ]);
  Alcotest.(check bool) "stack lifo" true
    (Spec.conforms Specs.stack
       [
         (Op.Push 1, 0); (Op.Push 2, 0); (Op.Pop, 2); (Op.Pop, 1);
         (Op.Pop, Spec.absent);
       ]);
  Alcotest.(check bool) "stack not fifo" false
    (Spec.conforms Specs.stack
       [ (Op.Push 1, 0); (Op.Push 2, 0); (Op.Pop, 1) ]);
  Alcotest.(check bool) "queue fifo" true
    (Spec.conforms Specs.queue
       [ (Op.Enq 1, 0); (Op.Enq 2, 0); (Op.Deq, 1); (Op.Deq, 2) ]);
  Alcotest.(check bool) "set" true
    (Spec.conforms Specs.set
       [
         (Op.Add 3, 1); (Op.Add 3, 0); (Op.Contains 3, 1);
         (Op.Remove 3, 1); (Op.Contains 3, 0); (Op.Remove 3, 0);
       ]);
  Alcotest.(check bool) "map" true
    (Spec.conforms Specs.map
       [
         (Op.Get_key 1, Spec.absent); (Op.Put (1, 9), 0); (Op.Get_key 1, 9);
         (Op.Put (1, 8), 0); (Op.Get_key 1, 8); (Op.Del 1, 1);
         (Op.Get_key 1, Spec.absent); (Op.Del 1, 0);
       ])

let test_absent_constant_agrees () =
  Alcotest.(check int) "dstruct sentinel = spec sentinel" Spec.absent
    Dstruct.Absent.absent

(* ------------------------------------------------------------------ *)
(* Linearizability search                                              *)
(* ------------------------------------------------------------------ *)

let lin spec h =
  match Check.linearizable spec (History.ops h) with
  | Ok o -> o.Check.ok
  | Error e -> Alcotest.failf "unexpected rejection: %a" Check.pp_error e

let test_lin_concurrent_register () =
  (* w(1) overlaps r->1 and r->0: both readable depending on order *)
  let h = [ inv 0 (Op.Write 1); inv 1 Op.Read; res 1 1; res 0 0 ] in
  Alcotest.(check bool) "r=1 during write ok" true (lin Specs.register h);
  let h = [ inv 0 (Op.Write 1); inv 1 Op.Read; res 1 0; res 0 0 ] in
  Alcotest.(check bool) "r=0 during write ok" true (lin Specs.register h)

let test_lin_realtime_violation () =
  (* write(1) fully precedes read->0: forbidden *)
  let h = [ inv 0 (Op.Write 1); res 0 0; inv 1 Op.Read; res 1 0 ] in
  Alcotest.(check bool) "stale read flagged" false (lin Specs.register h)

let test_lin_fig5_anomaly () =
  (* the Fig. 5 inconsistency as a register history: r1=1 then r2=0 *)
  let h =
    [
      inv 0 (Op.Write 1); res 0 0;
      inv 0 Op.Read; res 0 1;
      inv 0 Op.Read; res 0 0;
    ]
  in
  Alcotest.(check bool) "non-monotone reads flagged" false
    (lin Specs.register h)

let test_lin_queue_fifo_violation () =
  let h =
    [
      inv 0 (Op.Enq 1); res 0 0;
      inv 0 (Op.Enq 2); res 0 0;
      inv 1 Op.Deq; res 1 2;
      inv 1 Op.Deq; res 1 1;
    ]
  in
  Alcotest.(check bool) "out-of-order dequeue flagged" false (lin Specs.queue h)

let test_lin_pending_completion () =
  (* a pending enq's value is dequeued: checker must complete it *)
  let h = [ inv 0 (Op.Enq 7); inv 1 Op.Deq; res 1 7 ] in
  Alcotest.(check bool) "pending completed" true (lin Specs.queue h)

let test_lin_pending_omission () =
  (* a pending push never observed: checker must be able to omit it *)
  let h = [ inv 0 (Op.Push 7); inv 1 Op.Pop; res 1 Spec.absent ] in
  Alcotest.(check bool) "pending omitted" true (lin Specs.stack h)

let test_lin_pending_cannot_rescue () =
  (* a pending write cannot explain a *completed* earlier contradiction:
     read->5 with no write(5) anywhere *)
  let h = [ inv 0 Op.Read; res 0 5 ] in
  Alcotest.(check bool) "impossible value flagged" false (lin Specs.register h)

let test_lin_counter_concurrent_incs () =
  (* two overlapping incs both returning 0 is NOT linearizable (FAA) *)
  let h = [ inv 0 Op.Inc; inv 1 Op.Inc; res 0 0; res 1 0 ] in
  Alcotest.(check bool) "duplicate faa result flagged" false
    (lin Specs.counter h);
  let h = [ inv 0 Op.Inc; inv 1 Op.Inc; res 0 1; res 1 0 ] in
  Alcotest.(check bool) "distinct results fine" true (lin Specs.counter h)

let test_lin_set_semantics () =
  let h =
    [
      inv 0 (Op.Add 2); res 0 1;
      inv 1 (Op.Add 2); res 1 1;
    ]
  in
  Alcotest.(check bool) "both adds succeeding flagged" false (lin Specs.set h)

let test_lin_empty_history () =
  Alcotest.(check bool) "empty is linearizable" true (lin Specs.register [])

let test_witness_is_valid () =
  let h =
    [
      inv 0 (Op.Enq 1); res 0 0; inv 1 Op.Deq; res 1 1;
      inv 0 Op.Deq; res 0 Spec.absent;
    ]
  in
  let out =
    match Check.linearizable Specs.queue (History.ops h) with
    | Ok o -> o
    | Error e -> Alcotest.failf "unexpected rejection: %a" Check.pp_error e
  in
  Alcotest.(check bool) "ok" true out.Check.ok;
  Alcotest.(check int) "all completed ops in witness" 3
    (List.length out.Check.witness);
  (* and the witness results replay against the spec *)
  let trace = List.map (fun (o, r) -> (o.History.op, r)) out.Check.witness in
  Alcotest.(check bool) "replays" true (Spec.conforms Specs.queue trace)

(* ------------------------------------------------------------------ *)
(* History.ops against its quadratic reference                         *)
(* ------------------------------------------------------------------ *)

(* The extraction [History.ops] used to do: every response rebuilds the
   whole op list.  Kept as the reference the one-pass version must
   agree with. *)
let reference_ops (h : History.t) : History.op list =
  if not (History.well_formed h) then
    invalid_arg "History.ops: ill-formed history";
  let arr = Array.of_list h in
  let open_inv : (int, History.op) Hashtbl.t = Hashtbl.create 8 in
  let acc = ref [] in
  let next_id = ref 0 in
  Array.iteri
    (fun idx ev ->
      match ev with
      | History.Inv { tid; op } ->
          let o =
            { History.id = !next_id; tid; op; ret = None; inv_at = idx;
              res_at = None }
          in
          incr next_id;
          Hashtbl.replace open_inv tid o;
          acc := o :: !acc
      | History.Res { tid; ret } ->
          let o = Hashtbl.find open_inv tid in
          Hashtbl.remove open_inv tid;
          acc :=
            List.map
              (fun (o' : History.op) ->
                if o'.id = o.History.id then
                  { o' with ret = Some ret; res_at = Some idx }
                else o')
              !acc
      | History.Crash _ -> ())
    arr;
  List.sort (fun a b -> compare a.History.id b.History.id) !acc

(* A well-formed history from arbitrary [(tid, choice, value)] steps:
   choice 0 crashes a machine; otherwise a thread with an open
   invocation responds (a value, [Corrupt] or [Faulted]) and an idle one
   invokes.  Threads interleave, and whatever is open at the end stays
   pending. *)
let history_of_steps steps =
  let open_inv = Hashtbl.create 4 in
  List.map
    (fun (tid, choice, v) ->
      let tid = tid mod 4 in
      if choice mod 6 = 0 then crash (v mod 3)
      else if Hashtbl.mem open_inv tid then begin
        Hashtbl.remove open_inv tid;
        History.Res
          {
            tid;
            ret =
              (match v mod 7 with
              | 0 -> History.Corrupt
              | 1 -> History.Faulted
              | _ -> History.Ret v);
          }
      end
      else begin
        Hashtbl.add open_inv tid ();
        inv tid
          (List.nth
             [ Op.Read; Op.Write v; Op.Get_key v; Op.Put (v, tid); Op.Size ]
             (v mod 5))
      end)
    steps

let prop_ops_matches_reference =
  QCheck.Test.make ~name:"History.ops = quadratic reference" ~count:500
    QCheck.(list (triple small_nat small_nat small_nat))
    (fun steps ->
      let h = history_of_steps steps in
      History.well_formed h && History.ops h = reference_ops h)

(* ------------------------------------------------------------------ *)
(* Durable wrapper                                                     *)
(* ------------------------------------------------------------------ *)

let test_durable_crash_transparent () =
  (* crash events do not break an otherwise linearizable history *)
  let h =
    [
      inv 0 (Op.Write 1); res 0 0; crash 1; inv 0 Op.Read; res 0 1;
    ]
  in
  let v = Durable.check Specs.register h in
  Alcotest.(check bool) "durable" true v.Durable.durable;
  Alcotest.(check int) "crash counted" 1 v.Durable.crash_events

let test_durable_detects_loss () =
  (* completed write lost across a crash *)
  let h =
    [ inv 0 (Op.Write 1); res 0 0; crash 1; inv 0 Op.Read; res 0 0 ]
  in
  Alcotest.(check bool) "loss flagged" false
    (Durable.check Specs.register h).Durable.durable

let test_durable_pending_at_crash_ok () =
  (* write pending at crash; post-crash read sees 0: allowed (omitted) *)
  let h = [ inv 0 (Op.Write 1); crash 0; inv 1 Op.Read; res 1 0 ] in
  Alcotest.(check bool) "omission allowed" true
    (Durable.check Specs.register h).Durable.durable;
  (* ... and seeing 1 is also allowed (completed) *)
  let h = [ inv 0 (Op.Write 1); crash 0; inv 1 Op.Read; res 1 1 ] in
  Alcotest.(check bool) "completion allowed" true
    (Durable.check Specs.register h).Durable.durable

let test_durable_ill_formed () =
  let v = Durable.check Specs.register [ res 0 1 ] in
  Alcotest.(check bool) "ill-formed not durable" false v.Durable.durable

(* ------------------------------------------------------------------ *)
(* Oversized histories: typed rejection, not invalid_arg               *)
(* ------------------------------------------------------------------ *)

(* [n] sequential completed writes by thread 0. *)
let long_history n =
  List.concat (List.init n (fun _ -> [ inv 0 (Op.Write 1); res 0 0 ]))

let test_too_long_rejected () =
  let n = Check.max_ops + 1 in
  (match Check.linearizable Specs.register (History.ops (long_history n)) with
  | Ok _ -> Alcotest.fail "oversized history accepted"
  | Error (Check.History_too_long { length; max_ops }) ->
      Alcotest.(check int) "reported length" n length;
      Alcotest.(check int) "reported bound" Check.max_ops max_ops);
  (* at the bound it still decides *)
  match
    Check.linearizable Specs.register (History.ops (long_history Check.max_ops))
  with
  | Ok o -> Alcotest.(check bool) "at bound ok" true o.Check.ok
  | Error e -> Alcotest.failf "at-bound rejection: %a" Check.pp_error e

let test_too_long_durable_skipped () =
  let v = Durable.check Specs.register (long_history (Check.max_ops + 1)) in
  Alcotest.(check bool) "undecided, not durable" false v.Durable.durable;
  match v.Durable.skipped with
  | Some (Check.History_too_long _) -> ()
  | _ -> Alcotest.fail "expected a History_too_long skip"

(* ------------------------------------------------------------------ *)
(* Typed corruption and verdict rendering                              *)
(* ------------------------------------------------------------------ *)

let test_corrupt_never_durable () =
  (* a Corrupt response matches no specification result, whatever the
     object: the checker must flag the history *)
  let h =
    [ inv 0 Op.Read; History.Res { tid = 0; ret = History.Corrupt } ]
  in
  let o = List.hd (History.ops h) in
  Alcotest.(check bool) "op is corrupt" true (History.is_corrupt o);
  Alcotest.(check (option int)) "no integer result" None (History.ret_int o);
  Alcotest.(check bool) "not durable" false
    (Durable.check Specs.register h).Durable.durable

let test_minus_99_is_an_ordinary_value () =
  (* -99 used to be the harness's corruption sentinel; with the typed
     [Corrupt] result it must behave like any other integer *)
  let h =
    [ inv 0 (Op.Write (-99)); res 0 0; inv 0 Op.Read; res 0 (-99) ]
  in
  Alcotest.(check bool) "durable" true
    (Durable.check Specs.register h).Durable.durable

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_pp_verdict_branches () =
  let render v = Fmt.str "%a" Durable.pp_verdict v in
  (* durable *)
  let ok =
    render
      (Durable.check ~provenance:"cfg-42" Specs.register
         [ inv 0 (Op.Write 1); res 0 0 ])
  in
  Alcotest.(check bool) "durable branch" true
    (contains ~sub:"durably linearizable" ok);
  Alcotest.(check bool) "provenance shown" true (contains ~sub:"[cfg-42]" ok);
  (* violation: includes the history *)
  let bad =
    render
      (Durable.check Specs.register
         [ inv 0 (Op.Write 1); res 0 0; crash 1; inv 0 Op.Read; res 0 0 ])
  in
  Alcotest.(check bool) "violation branch" true
    (contains ~sub:"NOT durably linearizable" bad);
  Alcotest.(check bool) "history printed" true (contains ~sub:"history:" bad);
  Alcotest.(check bool) "no provenance marker" false
    (contains ~sub:"[cfg-42]" bad);
  (* skipped *)
  let skipped =
    render
      (Durable.check ~provenance:"cfg-7" Specs.register
         (long_history (Check.max_ops + 1)))
  in
  Alcotest.(check bool) "undecided branch" true
    (contains ~sub:"durability undecided" skipped);
  Alcotest.(check bool) "skip reason" true (contains ~sub:"62" skipped);
  Alcotest.(check bool) "provenance on skip" true
    (contains ~sub:"[cfg-7]" skipped)

let () =
  Alcotest.run "lincheck"
    [
      ( "history",
        [
          Alcotest.test_case "well_formed" `Quick test_well_formed;
          Alcotest.test_case "ops extraction" `Quick test_ops_extraction;
          Alcotest.test_case "strip/count" `Quick test_strip_and_count;
          Alcotest.test_case "ill-formed rejected" `Quick
            test_ops_rejects_ill_formed;
          QCheck_alcotest.to_alcotest prop_ops_matches_reference;
        ] );
      ( "specs",
        [
          Alcotest.test_case "conforms" `Quick test_spec_conforms;
          Alcotest.test_case "absent constant" `Quick
            test_absent_constant_agrees;
        ] );
      ( "linearizable",
        [
          Alcotest.test_case "concurrent register" `Quick
            test_lin_concurrent_register;
          Alcotest.test_case "real-time violation" `Quick
            test_lin_realtime_violation;
          Alcotest.test_case "fig5 anomaly" `Quick test_lin_fig5_anomaly;
          Alcotest.test_case "queue fifo violation" `Quick
            test_lin_queue_fifo_violation;
          Alcotest.test_case "pending completion" `Quick
            test_lin_pending_completion;
          Alcotest.test_case "pending omission" `Quick test_lin_pending_omission;
          Alcotest.test_case "impossible value" `Quick
            test_lin_pending_cannot_rescue;
          Alcotest.test_case "counter faa" `Quick
            test_lin_counter_concurrent_incs;
          Alcotest.test_case "set add-add" `Quick test_lin_set_semantics;
          Alcotest.test_case "empty" `Quick test_lin_empty_history;
          Alcotest.test_case "witness validity" `Quick test_witness_is_valid;
        ] );
      ( "durable",
        [
          Alcotest.test_case "crash transparent" `Quick
            test_durable_crash_transparent;
          Alcotest.test_case "detects loss" `Quick test_durable_detects_loss;
          Alcotest.test_case "pending at crash" `Quick
            test_durable_pending_at_crash_ok;
          Alcotest.test_case "ill-formed" `Quick test_durable_ill_formed;
          Alcotest.test_case "too-long rejected" `Quick test_too_long_rejected;
          Alcotest.test_case "too-long skipped in durable" `Quick
            test_too_long_durable_skipped;
        ] );
      ( "corrupt & rendering",
        [
          Alcotest.test_case "corrupt never durable" `Quick
            test_corrupt_never_durable;
          Alcotest.test_case "-99 is an ordinary value" `Quick
            test_minus_99_is_an_ordinary_value;
          Alcotest.test_case "pp_verdict branches" `Quick
            test_pp_verdict_branches;
        ] );
    ]
