(* The FliT layer: counters, and per-transformation unit behaviour —
   which primitives each algorithm issues, where a shared store leaves
   the value, and the counter protocol around stores and loads. *)

module F = Fabric
module S = Runtime.Sched
module FI = Flit.Flit_intf

let with_thread ?(machine = 0) ?(n = 2) body =
  let fab = F.uniform ~seed:5 ~evict_prob:0.0 n in
  let s = S.create fab in
  let out = ref None in
  ignore (S.spawn s ~machine ~name:"t" (fun ctx -> out := Some (body fab ctx)));
  ignore (S.run s);
  (fab, Option.get !out)

(* ------------------------------------------------------------------ *)
(* Counters                                                            *)
(* ------------------------------------------------------------------ *)

let test_counters_basic () =
  let _, () =
    with_thread (fun fab ctx ->
        let c = Flit.Counters.create () in
        let x = Runtime.Ops.alloc ctx ~owner:1 in
        Alcotest.(check int) "initial 0" 0 (Flit.Counters.read c ctx x);
        Flit.Counters.incr c ctx x;
        Flit.Counters.incr c ctx x;
        Alcotest.(check int) "two" 2 (Flit.Counters.read c ctx x);
        Flit.Counters.decr c ctx x;
        Alcotest.(check int) "one" 1 (Flit.Counters.read c ctx x);
        ignore fab)
  in
  ()

let test_counters_per_instance () =
  (* each [create] is its own table: no bleed between instances, even
     for the same location on the same fabric *)
  let t1 = Flit.Counters.create () in
  let t2 = Flit.Counters.create () in
  let _, x =
    with_thread (fun _fab ctx ->
        let x = Runtime.Ops.alloc ctx ~owner:1 in
        Flit.Counters.incr t1 ctx x;
        Flit.Counters.incr t1 ctx x;
        Alcotest.(check int) "isolated" 0 (Flit.Counters.read t2 ctx x);
        x)
  in
  Alcotest.(check int) "own table holds its increments" 2
    (Flit.Counters.peek t1 x);
  Alcotest.(check int) "fresh table reads 0" 0 (Flit.Counters.peek t2 x);
  Alcotest.(check int) "far location reads 0" 0
    (Flit.Counters.peek t1 1_000_000)

let test_counters_account () =
  (* counter traffic is charged to the fabric *)
  let fab, () =
    with_thread (fun _fab ctx ->
        let c = Flit.Counters.create () in
        let x = Runtime.Ops.alloc ctx ~owner:1 in
        Flit.Counters.incr c ctx x;
        ignore (Flit.Counters.read c ctx x))
  in
  let s = F.stats fab in
  Alcotest.(check int) "faa charged" 1 s.F.Stats.faas;
  Alcotest.(check bool) "cycles > 0" true (F.cycles fab > 0)

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

let test_registry () =
  Alcotest.(check int) "four durable" 4 (List.length Flit.Registry.durable);
  Alcotest.(check int) "six total" 6 (List.length Flit.Registry.all);
  Alcotest.(check bool) "find existing" true
    (Flit.Registry.find "alg3-rstore" <> None);
  Alcotest.(check bool) "find missing" true (Flit.Registry.find "nope" = None);
  List.iter
    (fun t ->
      Alcotest.(check bool) (FI.name t ^ " durable flag") true (FI.durable t))
    Flit.Registry.durable;
  Alcotest.(check bool) "control not durable" false
    (FI.durable Flit.Registry.noflush);
  (* [names] lists every registered transformation, findable by name *)
  Alcotest.(check int) "names cover the registry" 9
    (List.length Flit.Registry.names);
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " findable") true
        (Flit.Registry.find n <> None))
    Flit.Registry.names

(* ------------------------------------------------------------------ *)
(* Primitive mix per transformation                                    *)
(* ------------------------------------------------------------------ *)

(* Perform one flagged shared store (plus its machinery) and return the
   stats diff. *)
let store_mix (t : FI.t) =
  let fab, () =
    with_thread (fun fab ctx ->
        let i = FI.instantiate t fab in
        let x = Runtime.Ops.alloc ctx ~owner:1 in
        i.FI.shared_store ctx x 5 ~pflag:true;
        i.FI.complete_op ctx)
  in
  F.stats fab

let test_mix_simple () =
  let s = store_mix Flit.Registry.simple in
  Alcotest.(check int) "one mstore" 1 s.F.Stats.mstores;
  Alcotest.(check int) "no flushes" 0 (F.Stats.flushes s);
  Alcotest.(check int) "no counters" 0 s.F.Stats.faas

let test_mix_alg2 () =
  let s = store_mix Flit.Registry.alg2_mstore in
  Alcotest.(check int) "one mstore" 1 s.F.Stats.mstores;
  Alcotest.(check int) "no flushes" 0 (F.Stats.flushes s);
  Alcotest.(check int) "no counters (omitted in Alg 2)" 0 s.F.Stats.faas

let test_mix_alg3 () =
  let s = store_mix Flit.Registry.alg3_rstore in
  Alcotest.(check int) "one rstore" 1 s.F.Stats.rstores;
  Alcotest.(check int) "one rflush" 1 s.F.Stats.rflushes;
  Alcotest.(check int) "counter inc+dec" 2 s.F.Stats.faas

let test_mix_weakest () =
  let s = store_mix Flit.Registry.alg3'_weakest in
  Alcotest.(check int) "one lstore" 1 s.F.Stats.lstores;
  Alcotest.(check int) "one rflush" 1 s.F.Stats.rflushes;
  Alcotest.(check int) "counter inc+dec" 2 s.F.Stats.faas

let test_mix_weakest_lflush () =
  let s = store_mix Flit.Registry.weakest_lflush in
  Alcotest.(check int) "one lstore" 1 s.F.Stats.lstores;
  Alcotest.(check int) "one lflush" 1 s.F.Stats.lflushes;
  Alcotest.(check int) "no rflush" 0 s.F.Stats.rflushes

let test_mix_noflush () =
  let s = store_mix Flit.Registry.noflush in
  Alcotest.(check int) "one lstore" 1 s.F.Stats.lstores;
  Alcotest.(check int) "nothing else" 0
    (F.Stats.flushes s + s.F.Stats.faas + s.F.Stats.mstores + s.F.Stats.rstores)

let test_unflagged_degrades_to_lstore () =
  List.iter
    (fun t ->
      let name = FI.name t in
      let fab, () =
        with_thread (fun fab ctx ->
            let i = FI.instantiate t fab in
            let x = Runtime.Ops.alloc ctx ~owner:1 in
            i.FI.shared_store ctx x 5 ~pflag:false)
      in
      let s = F.stats fab in
      if name <> "simple" then begin
        (* the simple transformation deliberately ignores pflag *)
        Alcotest.(check int) (name ^ ": lstore") 1 s.F.Stats.lstores;
        Alcotest.(check int) (name ^ ": no flush") 0 (F.Stats.flushes s)
      end)
    Flit.Registry.all

(* ------------------------------------------------------------------ *)
(* Where does the value land?                                          *)
(* ------------------------------------------------------------------ *)

let landing (t : FI.t) =
  let fab, x =
    with_thread (fun fab ctx ->
        let i = FI.instantiate t fab in
        let x = Runtime.Ops.alloc ctx ~owner:1 in
        i.FI.shared_store ctx x 5 ~pflag:true;
        x)
  in
  let cfg = F.to_config fab in
  let l = F.to_loc fab x in
  ( Cxl0.Config.mem_get cfg l,
    Cxl0.Config.cache_get cfg 0 l,
    Cxl0.Config.cache_get cfg 1 l )

let test_landing_durables_persist () =
  List.iter
    (fun t ->
      let mem, _, _ = landing t in
      Alcotest.(check int) (FI.name t ^ " persisted on completion") 5 mem)
    Flit.Registry.durable

let test_landing_lflush_variant () =
  (* the Prop-2 variant leaves the value at the owner's cache *)
  let mem, c0, c1 = landing Flit.Registry.weakest_lflush in
  Alcotest.(check int) "not in memory" 0 mem;
  Alcotest.(check (option int)) "owner cache" (Some 5) c1;
  Alcotest.(check (option int)) "left the writer" None c0

let test_landing_noflush () =
  let mem, c0, _ = landing Flit.Registry.noflush in
  Alcotest.(check int) "not in memory" 0 mem;
  Alcotest.(check (option int)) "stuck in writer cache" (Some 5) c0

(* ------------------------------------------------------------------ *)
(* Load-side helping                                                   *)
(* ------------------------------------------------------------------ *)

let test_shared_load_helps_when_counter_positive () =
  (* simulate an in-flight writer: bump the instance's counter, leave an
     unflushed value; a reader's shared_load must flush it *)
  let fab, () =
    with_thread (fun fab ctx ->
        let i = FI.instantiate Flit.Registry.alg3_rstore fab in
        let c = Option.get i.FI.counters in
        let x = Runtime.Ops.alloc ctx ~owner:1 in
        Runtime.Ops.lstore ctx x 9;
        Flit.Counters.incr c ctx x;
        let v = i.FI.shared_load ctx x ~pflag:true in
        Alcotest.(check int) "read latest" 9 v)
  in
  let cfg = F.to_config fab in
  let l = Cxl0.Loc.v ~owner:1 0 in
  Alcotest.(check int) "helped into memory" 9 (Cxl0.Config.mem_get cfg l);
  Alcotest.(check int) "one helping rflush" 1 (F.stats fab).F.Stats.rflushes

let test_shared_load_no_help_when_zero () =
  let fab, v =
    with_thread (fun fab ctx ->
        let i = FI.instantiate Flit.Registry.alg3_rstore fab in
        let x = Runtime.Ops.alloc ctx ~owner:1 in
        Runtime.Ops.lstore ctx x 9;
        i.FI.shared_load ctx x ~pflag:true)
  in
  Alcotest.(check int) "value" 9 v;
  Alcotest.(check int) "no flush issued" 0 (F.stats fab).F.Stats.rflushes

(* ------------------------------------------------------------------ *)
(* CAS path                                                            *)
(* ------------------------------------------------------------------ *)

let test_cas_success_persists () =
  List.iter
    (fun t ->
      let fab, ok =
        with_thread (fun fab ctx ->
            let i = FI.instantiate t fab in
            let x = Runtime.Ops.alloc ctx ~owner:1 in
            i.FI.shared_cas ctx x ~expected:0 ~desired:3 ~pflag:true)
      in
      Alcotest.(check bool) (FI.name t ^ " cas ok") true ok;
      let mem = Cxl0.Config.mem_get (F.to_config fab) (Cxl0.Loc.v ~owner:1 0) in
      Alcotest.(check int) (FI.name t ^ " cas persisted") 3 mem)
    Flit.Registry.durable

let test_cas_failure_no_store () =
  let fab, ok =
    with_thread (fun fab ctx ->
        let i = FI.instantiate Flit.Registry.alg3_rstore fab in
        let x = Runtime.Ops.alloc ctx ~owner:1 in
        i.FI.shared_cas ctx x ~expected:7 ~desired:3 ~pflag:true)
  in
  Alcotest.(check bool) "failed" false ok;
  let s = F.stats fab in
  Alcotest.(check int) "no store" 0 (s.F.Stats.rstores + s.F.Stats.lstores);
  Alcotest.(check int) "no flush on failure" 0 s.F.Stats.rflushes;
  Alcotest.(check int) "counter inc+dec still balanced" 2 s.F.Stats.faas

let test_counter_balanced_after_store () =
  let fab = F.uniform ~seed:5 ~evict_prob:0.0 2 in
  let i = FI.instantiate Flit.Registry.alg3'_weakest fab in
  let s = S.create fab in
  ignore
    (S.spawn s ~machine:0 ~name:"t" (fun ctx ->
         let x = Runtime.Ops.alloc ctx ~owner:1 in
         i.FI.shared_store ctx x 5 ~pflag:true;
         Alcotest.(check int) "counter back to zero" 0
           (Flit.Counters.read (Option.get i.FI.counters) ctx x)));
  ignore (S.run s)

(* ------------------------------------------------------------------ *)
(* Adaptive transformation (§4.4 address-based instrumentation)        *)
(* ------------------------------------------------------------------ *)

let with_thread_on ~volatile_home body =
  let fab =
    F.create ~seed:5 ~evict_prob:0.0
      [|
        F.machine "c1";
        F.machine ~volatile:volatile_home "home";
      |]
  in
  let s = S.create fab in
  ignore (S.spawn s ~machine:0 ~name:"t" (fun ctx -> body fab ctx));
  ignore (S.run s);
  fab

let test_adaptive_nv_uses_rflush () =
  let fab =
    with_thread_on ~volatile_home:false (fun fab ctx ->
        let i = FI.instantiate Flit.Registry.adaptive fab in
        let x = Runtime.Ops.alloc ctx ~owner:1 in
        i.FI.shared_store ctx x 5 ~pflag:true)
  in
  let s = F.stats fab in
  Alcotest.(check int) "rflush on NV-homed data" 1 s.F.Stats.rflushes;
  Alcotest.(check int) "no lflush" 0 s.F.Stats.lflushes;
  (* and the value is persistent *)
  Alcotest.(check int) "persisted" 5
    (Cxl0.Config.mem_get (F.to_config fab) (Cxl0.Loc.v ~owner:1 0))

let test_adaptive_volatile_uses_lflush () =
  let fab =
    with_thread_on ~volatile_home:true (fun fab ctx ->
        let i = FI.instantiate Flit.Registry.adaptive fab in
        let x = Runtime.Ops.alloc ctx ~owner:1 in
        i.FI.shared_store ctx x 5 ~pflag:true)
  in
  let s = F.stats fab in
  Alcotest.(check int) "lflush on volatile-homed data" 1 s.F.Stats.lflushes;
  Alcotest.(check int) "no rflush" 0 s.F.Stats.rflushes;
  (* the value reached the owner's cache (the Prop-2 guarantee) *)
  Alcotest.(check (option int)) "at the owner" (Some 5)
    (Cxl0.Config.cache_get (F.to_config fab) 1 (Cxl0.Loc.v ~owner:1 0))

let test_adaptive_mixed_addresses () =
  (* one store to each kind of home in a 3-machine system: each address
     gets its own flush strength in the same run *)
  let fab =
    F.create ~seed:5 ~evict_prob:0.0
      [| F.machine "c"; F.machine "nv-home"; F.machine ~volatile:true "v-home" |]
  in
  let i = FI.instantiate Flit.Registry.adaptive fab in
  let s = S.create fab in
  ignore
    (S.spawn s ~machine:0 ~name:"t" (fun ctx ->
         let x_nv = Runtime.Ops.alloc ctx ~owner:1 in
         let x_v = Runtime.Ops.alloc ctx ~owner:2 in
         i.FI.shared_store ctx x_nv 1 ~pflag:true;
         i.FI.shared_store ctx x_v 2 ~pflag:true));
  ignore (S.run s);
  let st = F.stats fab in
  Alcotest.(check int) "one rflush (nv address)" 1 st.F.Stats.rflushes;
  Alcotest.(check int) "one lflush (volatile address)" 1 st.F.Stats.lflushes

(* ------------------------------------------------------------------ *)
(* Private stores                                                      *)
(* ------------------------------------------------------------------ *)

let test_private_store_persists () =
  List.iter
    (fun t ->
      let fab, () =
        with_thread (fun fab ctx ->
            let i = FI.instantiate t fab in
            let x = Runtime.Ops.alloc ctx ~owner:1 in
            i.FI.private_store ctx x 8 ~pflag:true)
      in
      let s = F.stats fab in
      Alcotest.(check int)
        (FI.name t ^ " private store uses no counter")
        0 s.F.Stats.faas;
      let mem = Cxl0.Config.mem_get (F.to_config fab) (Cxl0.Loc.v ~owner:1 0) in
      Alcotest.(check int) (FI.name t ^ " persisted") 8 mem)
    Flit.Registry.durable

let () =
  Alcotest.run "flit"
    [
      ( "counters",
        [
          Alcotest.test_case "basic" `Quick test_counters_basic;
          Alcotest.test_case "per instance" `Quick test_counters_per_instance;
          Alcotest.test_case "accounting" `Quick test_counters_account;
        ] );
      ("registry", [ Alcotest.test_case "contents" `Quick test_registry ]);
      ( "primitive-mix",
        [
          Alcotest.test_case "simple" `Quick test_mix_simple;
          Alcotest.test_case "alg2" `Quick test_mix_alg2;
          Alcotest.test_case "alg3" `Quick test_mix_alg3;
          Alcotest.test_case "alg3'" `Quick test_mix_weakest;
          Alcotest.test_case "lflush variant" `Quick test_mix_weakest_lflush;
          Alcotest.test_case "noflush" `Quick test_mix_noflush;
          Alcotest.test_case "pflag=false degrades" `Quick
            test_unflagged_degrades_to_lstore;
        ] );
      ( "landing",
        [
          Alcotest.test_case "durables persist" `Quick
            test_landing_durables_persist;
          Alcotest.test_case "lflush variant" `Quick test_landing_lflush_variant;
          Alcotest.test_case "noflush" `Quick test_landing_noflush;
        ] );
      ( "load-helping",
        [
          Alcotest.test_case "counter>0 helps" `Quick
            test_shared_load_helps_when_counter_positive;
          Alcotest.test_case "counter=0 no help" `Quick
            test_shared_load_no_help_when_zero;
        ] );
      ( "cas",
        [
          Alcotest.test_case "success persists" `Quick test_cas_success_persists;
          Alcotest.test_case "failure stores nothing" `Quick
            test_cas_failure_no_store;
          Alcotest.test_case "counter balanced" `Quick
            test_counter_balanced_after_store;
        ] );
      ( "adaptive",
        [
          Alcotest.test_case "nv -> rflush" `Quick test_adaptive_nv_uses_rflush;
          Alcotest.test_case "volatile -> lflush" `Quick
            test_adaptive_volatile_uses_lflush;
          Alcotest.test_case "mixed addresses" `Quick
            test_adaptive_mixed_addresses;
        ] );
      ( "private",
        [ Alcotest.test_case "persists" `Quick test_private_store_persists ] );
    ]
