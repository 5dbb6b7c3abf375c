(* The transformed data structures: pointer encoding, per-structure
   sequential semantics (checked against the sequential specs), and
   crash-free concurrent linearizability under many seeds. *)

module S = Runtime.Sched
module W = Harness.Workload
module O = Harness.Objects
module Op = Lincheck.Op
module FI = Flit.Flit_intf

(* ------------------------------------------------------------------ *)
(* Ptr encoding                                                        *)
(* ------------------------------------------------------------------ *)

let test_ptr_plain () =
  Alcotest.(check bool) "null" true (Dstruct.Ptr.is_null Dstruct.Ptr.null);
  Alcotest.(check int) "roundtrip" 17 Dstruct.Ptr.(to_loc (of_loc 17));
  Alcotest.(check bool) "loc 0 is not null" false
    (Dstruct.Ptr.is_null (Dstruct.Ptr.of_loc 0))

let test_ptr_marked () =
  let open Dstruct.Ptr in
  let p = marked_of_loc 5 in
  Alcotest.(check bool) "unmarked" false (mark_of p);
  Alcotest.(check int) "target" 5 (loc_of_marked p);
  let pm = with_mark p in
  Alcotest.(check bool) "marked" true (mark_of pm);
  Alcotest.(check int) "target preserved" 5 (loc_of_marked pm);
  Alcotest.(check int) "unmark" p (without_mark pm);
  Alcotest.(check bool) "marked null detection" true (is_marked_null marked_null);
  Alcotest.(check bool) "loc 0 pointer not null" false
    (is_marked_null (marked_of_loc 0));
  Alcotest.(check bool) "explicit mark arg" true (mark_of (marked_of_loc ~mark:true 3))

(* ------------------------------------------------------------------ *)
(* Scripted sequential runs                                            *)
(* ------------------------------------------------------------------ *)

(* Run [script] single-threaded against a fresh instance; return results. *)
let run_script kind transform script =
  let fab = Fabric.uniform ~seed:3 ~evict_prob:0.1 ~cache_capacity:4 2 in
  let flit = FI.instantiate transform fab in
  let s = S.create fab in
  let out = ref [] in
  ignore
    (S.spawn s ~machine:0 ~name:"seq" (fun ctx ->
         let inst = O.create kind flit ctx ~home:1 ~pflag:true in
         List.iter (fun op -> out := (op, inst.O.apply ctx op) :: !out) script));
  ignore (S.run s);
  List.rev !out

let check_script kind transform script =
  let trace = run_script kind transform script in
  Alcotest.(check bool)
    (Fmt.str "%s sequential conformance" (O.kind_name kind))
    true
    (Lincheck.Spec.conforms (O.spec kind) trace)

let stack_script =
  Op.[ Pop; Push 1; Push 2; Push 3; Pop; Pop; Push 4; Pop; Pop; Pop ]

let queue_script =
  Op.[ Deq; Enq 1; Enq 2; Deq; Enq 3; Deq; Deq; Deq ]

let set_script =
  Op.
    [
      Contains 2; Add 2; Add 2; Add 1; Add 3; Contains 2; Remove 2;
      Contains 2; Remove 2; Add 2; Contains 2; Remove 1; Remove 3; Remove 2;
      Contains 1;
    ]

let map_script =
  Op.
    [
      Get_key 1; Put (1, 10); Get_key 1; Put (1, 20); Get_key 1; Put (2, 30);
      Get_key 2; Del 1; Get_key 1; Del 1; Put (9, 40); Get_key 9; Del 9;
      Get_key 9;
    ]

let log_script =
  Op.
    [
      Size; Read_at 0; Append 7; Size; Read_at 0; Append 8; Append 9;
      Read_at 1; Read_at 2; Read_at 3; Size;
    ]

let register_script =
  Op.[ Read; Write 5; Read; Write 2; Read ]

let counter_script =
  Op.[ Get; Inc; Inc; Get; Inc; Get ]

let script_for = function
  | O.Register -> register_script
  | O.Counter -> counter_script
  | O.Stack -> stack_script
  | O.Queue -> queue_script
  | O.Set -> set_script
  | O.Map -> map_script
  | O.Log -> log_script
  | O.Kv -> map_script (* same op surface and spec as Map, sharded *)

let sequential_cases =
  List.concat_map
    (fun t ->
      List.map
        (fun kind ->
          Alcotest.test_case
            (Fmt.str "%s/%s" (O.kind_name kind) (FI.name t))
            `Quick
            (fun () -> check_script kind t (script_for kind)))
        O.all_kinds)
    [ Flit.Registry.alg2_mstore; Flit.Registry.alg3'_weakest;
      Flit.Registry.noflush ]

(* longer randomized sequential runs, replayed against the spec *)
let random_sequential kind =
  QCheck.Test.make
    ~name:(Fmt.str "%s random sequential ops conform" (O.kind_name kind))
    ~count:30 QCheck.small_nat
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let script = List.init 40 (fun _ -> O.random_op kind rng) in
      let trace = run_script kind Flit.Registry.alg3'_weakest script in
      Lincheck.Spec.conforms (O.spec kind) trace)

(* ------------------------------------------------------------------ *)
(* Structure-specific behaviours                                       *)
(* ------------------------------------------------------------------ *)

let test_stack_interleaved_push_pop () =
  let trace =
    run_script O.Stack Flit.Registry.alg2_mstore
      Op.[ Push 9; Pop; Pop; Push 8; Pop ]
  in
  Alcotest.(check (list int)) "returns"
    [ 0; 9; Lincheck.Spec.absent; 0; 8 ]
    (List.map snd trace)

let test_queue_fifo_order () =
  let trace =
    run_script O.Queue Flit.Registry.alg2_mstore
      Op.[ Enq 5; Enq 6; Enq 7; Deq; Deq; Deq ]
  in
  Alcotest.(check (list int)) "fifo" [ 0; 0; 0; 5; 6; 7 ]
    (List.map snd trace)

let test_set_monotone_keys () =
  (* insertion in descending order still yields correct membership *)
  let trace =
    run_script O.Set Flit.Registry.alg2_mstore
      Op.
        [
          Add 3; Add 2; Add 1; Contains 1; Contains 2; Contains 3; Remove 2;
          Contains 1; Contains 2; Contains 3;
        ]
  in
  Alcotest.(check (list int)) "membership" [ 1; 1; 1; 1; 1; 1; 1; 1; 0; 1 ]
    (List.map snd trace)

let test_map_bucket_collisions () =
  (* a 1-bucket map forces every key into the same chain *)
  let fab = Fabric.uniform ~seed:3 ~evict_prob:0.0 2 in
  let flit = FI.instantiate Flit.Registry.alg2_mstore fab in
  let s = S.create fab in
  ignore
    (S.spawn s ~machine:0 ~name:"t" (fun ctx ->
         let module M = Dstruct.Hmap in
         let m = M.create ctx ~buckets:1 ~flit ~home:1 () in
         Alcotest.(check int) "put" 0 (M.put m ctx 1 10);
         Alcotest.(check int) "put" 0 (M.put m ctx 2 20);
         Alcotest.(check int) "put" 0 (M.put m ctx 3 30);
         Alcotest.(check int) "get 2" 20 (M.get m ctx 2);
         Alcotest.(check int) "del 2" 1 (M.del m ctx 2);
         Alcotest.(check int) "get 2 gone" Lincheck.Spec.absent (M.get m ctx 2);
         Alcotest.(check int) "get 1" 10 (M.get m ctx 1);
         Alcotest.(check int) "get 3" 30 (M.get m ctx 3)));
  ignore (S.run s)

let test_apply_rejects_foreign () =
  let fab = Fabric.uniform ~seed:3 2 in
  let flit = FI.instantiate Flit.Registry.alg2_mstore fab in
  let s = S.create fab in
  ignore
    (S.spawn s ~machine:0 ~name:"t" (fun ctx ->
         let inst = O.create O.Stack flit ctx ~home:1 ~pflag:true in
         Alcotest.check_raises "bad op"
           (Invalid_argument "Objects: put on a stack")
           (fun () -> ignore (inst.O.apply ctx (Op.Put (1, 2))))));
  ignore (S.run s)

(* ------------------------------------------------------------------ *)
(* Log-specific behaviour                                              *)
(* ------------------------------------------------------------------ *)

let test_log_helping_orphan_claim () =
  (* Simulate an appender that claimed slot 0 and died before publishing
     (the length CAS never ran): the next append must help the orphan
     forward and land at index 1; readers then see both entries. *)
  let fab = Fabric.uniform ~seed:2 ~evict_prob:0.0 2 in
  let flit = FI.instantiate Flit.Registry.alg2_mstore fab in
  let s = S.create fab in
  ignore
    (S.spawn s ~machine:0 ~name:"t" (fun ctx ->
         let module L = Dstruct.Dlog in
         let l = L.create ctx ~capacity:8 ~flit ~home:1 () in
         (* forge the orphan claim directly on the fabric: slot 0 := 55,
            committed length left at 0 *)
         Fabric.mstore ctx.S.fab 1 (L.root l + 1) 55;
         let idx = L.append l ctx 66 in
         Alcotest.(check int) "landed after the orphan" 1 idx;
         Alcotest.(check int) "size includes the helped claim" 2 (L.size l ctx);
         Alcotest.(check int) "orphan published" 55 (L.read l ctx 0);
         Alcotest.(check int) "own value" 66 (L.read l ctx 1)));
  ignore (S.run s)

let test_log_capacity () =
  let fab = Fabric.uniform ~seed:2 ~evict_prob:0.0 2 in
  let flit = FI.instantiate Flit.Registry.alg2_mstore fab in
  let s = S.create fab in
  ignore
    (S.spawn s ~machine:0 ~name:"t" (fun ctx ->
         let module L = Dstruct.Dlog in
         let l = L.create ctx ~capacity:2 ~flit ~home:1 () in
         Alcotest.(check int) "0" 0 (L.append l ctx 7);
         Alcotest.(check int) "1" 1 (L.append l ctx 8);
         Alcotest.(check int) "full" Lincheck.Spec.absent (L.append l ctx 9);
         Alcotest.(check int) "out of range" Lincheck.Spec.absent
           (L.read l ctx 5);
         Alcotest.(check int) "negative index" Lincheck.Spec.absent
           (L.read l ctx (-1));
         Alcotest.check_raises "non-positive value"
           (Invalid_argument "Dlog.append: values must be positive")
           (fun () -> ignore (L.append l ctx 0))));
  ignore (S.run s)

let test_log_concurrent_appends_distinct_slots () =
  (* many concurrent appenders: all indices distinct, all values
     recoverable, size = number of appends *)
  let fab = Fabric.uniform ~seed:23 ~evict_prob:0.1 3 in
  let flit = FI.instantiate Flit.Registry.alg3'_weakest fab in
  let s = S.create ~seed:23 fab in
  let module L = Dstruct.Dlog in
  let log = ref None in
  let indices = ref [] in
  ignore
    (S.spawn s ~machine:2 ~name:"init" (fun ctx ->
         let l = L.create ctx ~capacity:32 ~flit ~home:2 () in
         log := Some l;
         for m = 0 to 1 do
           ignore
             (S.spawn s ~machine:m ~name:"app" (fun ctx ->
                  for i = 1 to 5 do
                    let idx = L.append l ctx ((10 * (m + 1)) + i) in
                    indices := idx :: !indices
                  done))
         done));
  ignore (S.run s);
  let idxs = List.sort compare !indices in
  Alcotest.(check (list int)) "dense distinct indices"
    (List.init 10 Fun.id) idxs

(* ------------------------------------------------------------------ *)
(* Root/attach recovery                                                *)
(* ------------------------------------------------------------------ *)

(* Populate a structure with the MStore transformation, register its
   root, crash the home machine, then recover a *fresh handle* via the
   root directory and verify the contents — end-to-end recovery with no
   OCaml-side state carried across the crash (only the recorded expected
   contents). *)

let recovery_fixture populate check =
  let fab = Fabric.uniform ~seed:11 ~evict_prob:0.1 2 in
  (* one instance spans the crash: the fabric (and its transformation
     instance) outlives the crashed machine, exactly as in a real run *)
  let flit = FI.instantiate Flit.Registry.alg2_mstore fab in
  let sched = S.create ~seed:11 fab in
  ignore
    (S.spawn sched ~machine:0 ~name:"init" (fun ctx ->
         let dir = Runtime.Rootdir.create ctx ~home:1 () in
         let root = populate flit ctx in
         ignore (Runtime.Rootdir.register dir ctx ~name:"obj" root)));
  ignore (S.run sched);
  Fabric.crash fab 1;
  let sched2 = S.create ~seed:12 fab in
  ignore
    (S.spawn sched2 ~machine:0 ~name:"recover" (fun ctx ->
         let dir = Runtime.Rootdir.attach fab ~home:1 () in
         match Runtime.Rootdir.lookup dir ctx ~name:"obj" with
         | Some root -> check flit ctx root
         | None -> Alcotest.fail "root lost"));
  ignore (S.run sched2)

let test_attach_register () =
  let module D = Dstruct.Dreg in
  recovery_fixture
    (fun flit ctx ->
      let r = D.create ctx ~flit ~home:1 () in
      D.write r ctx 5;
      D.root r)
    (fun flit ctx root ->
      let r = D.attach ctx ~flit root in
      Alcotest.(check int) "value recovered" 5 (D.read r ctx))

let test_attach_counter () =
  let module D = Dstruct.Dcounter in
  recovery_fixture
    (fun flit ctx ->
      let c = D.create ctx ~flit ~home:1 () in
      for _ = 1 to 4 do
        ignore (D.inc c ctx)
      done;
      D.root c)
    (fun flit ctx root ->
      let c = D.attach ctx ~flit root in
      Alcotest.(check int) "count recovered" 4 (D.get c ctx))

let test_attach_stack () =
  let module D = Dstruct.Tstack in
  recovery_fixture
    (fun flit ctx ->
      let s = D.create ctx ~flit ~home:1 () in
      List.iter (fun v -> D.push s ctx v) [ 1; 2; 3 ];
      D.root s)
    (fun flit ctx root ->
      let s = D.attach ctx ~flit root in
      Alcotest.(check (list int)) "LIFO recovered" [ 3; 2; 1 ]
        (List.init 3 (fun _ -> D.pop s ctx));
      Alcotest.(check int) "then empty" Lincheck.Spec.absent (D.pop s ctx))

let test_attach_queue () =
  let module D = Dstruct.Msqueue in
  recovery_fixture
    (fun flit ctx ->
      let q = D.create ctx ~flit ~home:1 () in
      List.iter (fun v -> D.enq q ctx v) [ 4; 5; 6 ];
      ignore (D.deq q ctx);
      D.root q)
    (fun flit ctx root ->
      let q = D.attach ctx ~flit root in
      Alcotest.(check (list int)) "FIFO tail recovered" [ 5; 6 ]
        (List.init 2 (fun _ -> D.deq q ctx)))

let test_attach_set () =
  let module D = Dstruct.Listset in
  recovery_fixture
    (fun flit ctx ->
      let s = D.create ctx ~flit ~home:1 () in
      ignore (D.add s ctx 2);
      ignore (D.add s ctx 7);
      ignore (D.remove s ctx 2);
      D.root s)
    (fun flit ctx root ->
      let s = D.attach ctx ~flit root in
      Alcotest.(check int) "7 present" 1 (D.contains s ctx 7);
      Alcotest.(check int) "2 removed" 0 (D.contains s ctx 2))

let test_attach_map () =
  let module D = Dstruct.Hmap in
  recovery_fixture
    (fun flit ctx ->
      let m = D.create ctx ~buckets:4 ~flit ~home:1 () in
      ignore (D.put m ctx 1 11);
      ignore (D.put m ctx 9 99);
      D.root m)
    (fun flit ctx root ->
      let m = D.attach ctx ~buckets:4 ~flit root in
      Alcotest.(check int) "key 1" 11 (D.get m ctx 1);
      Alcotest.(check int) "key 9" 99 (D.get m ctx 9);
      Alcotest.(check int) "missing" Lincheck.Spec.absent (D.get m ctx 2))

let test_attach_log () =
  let module D = Dstruct.Dlog in
  recovery_fixture
    (fun flit ctx ->
      let l = D.create ctx ~capacity:8 ~flit ~home:1 () in
      ignore (D.append l ctx 10);
      ignore (D.append l ctx 20);
      D.root l)
    (fun flit ctx root ->
      let l = D.attach ctx ~capacity:8 ~flit root in
      Alcotest.(check int) "size" 2 (D.size l ctx);
      Alcotest.(check int) "entry 0" 10 (D.read l ctx 0);
      Alcotest.(check int) "entry 1" 20 (D.read l ctx 1))

(* ------------------------------------------------------------------ *)
(* Crash-free concurrent linearizability                               *)
(* ------------------------------------------------------------------ *)

(* 3 threads x 3 ops, no crashes: every transformed object must produce
   linearizable histories under any seed (checked for many seeds). *)
let concurrent_lin_case kind t =
  Alcotest.test_case
    (Fmt.str "%s/%s" (O.kind_name kind) (FI.name t))
    `Quick
    (fun () ->
      for seed = 1 to 15 do
        let c = W.default_config kind t in
        let c =
          { c with W.seed; worker_machines = [ 0; 1; 2 ]; ops_per_thread = 3 }
        in
        let v = W.check c in
        if not v.Lincheck.Durable.durable then
          Alcotest.failf "seed %d not linearizable:@.%a" seed
            Lincheck.Durable.pp_verdict v
      done)

let concurrent_cases =
  List.concat_map
    (fun t ->
      List.map (fun kind -> concurrent_lin_case kind t) O.all_kinds)
    [ Flit.Registry.alg2_mstore; Flit.Registry.alg3_rstore;
      Flit.Registry.alg3'_weakest; Flit.Registry.noflush ]
(* note: without crashes even the noflush control must be linearizable —
   coherence alone guarantees that *)

let () =
  Alcotest.run "dstruct"
    [
      ( "ptr",
        [
          Alcotest.test_case "plain" `Quick test_ptr_plain;
          Alcotest.test_case "marked" `Quick test_ptr_marked;
        ] );
      ("sequential", sequential_cases);
      ( "sequential-random",
        List.map
          (fun k -> QCheck_alcotest.to_alcotest (random_sequential k))
          O.all_kinds );
      ( "behaviour",
        [
          Alcotest.test_case "stack interleaved" `Quick
            test_stack_interleaved_push_pop;
          Alcotest.test_case "queue fifo" `Quick test_queue_fifo_order;
          Alcotest.test_case "set descending inserts" `Quick
            test_set_monotone_keys;
          Alcotest.test_case "map collisions" `Quick test_map_bucket_collisions;
          Alcotest.test_case "dispatch unknown" `Quick
            test_apply_rejects_foreign;
        ] );
      ( "log",
        [
          Alcotest.test_case "helping orphan claims" `Quick
            test_log_helping_orphan_claim;
          Alcotest.test_case "capacity and bounds" `Quick test_log_capacity;
          Alcotest.test_case "concurrent appends" `Quick
            test_log_concurrent_appends_distinct_slots;
        ] );
      ( "root-attach-recovery",
        [
          Alcotest.test_case "register" `Quick test_attach_register;
          Alcotest.test_case "counter" `Quick test_attach_counter;
          Alcotest.test_case "stack" `Quick test_attach_stack;
          Alcotest.test_case "queue" `Quick test_attach_queue;
          Alcotest.test_case "set" `Quick test_attach_set;
          Alcotest.test_case "map" `Quick test_attach_map;
          Alcotest.test_case "log" `Quick test_attach_log;
        ] );
      ("concurrent-linearizable", concurrent_cases);
    ]
