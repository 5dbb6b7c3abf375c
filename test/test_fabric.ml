(* The runtime fabric: unit tests for every primitive, the replacement
   machinery, crash behaviour, accounting — and step-by-step
   cross-validation against the formal CXL0 semantics. *)

module F = Fabric

let mk ?(n = 2) ?(volatile = false) ?(cache_capacity = 1024) () =
  F.uniform ~seed:7 ~evict_prob:0.0 ~volatile ~cache_capacity n

(* ------------------------------------------------------------------ *)
(* Construction / allocation                                           *)
(* ------------------------------------------------------------------ *)

let test_create_validation () =
  Alcotest.check_raises "no machines" (Invalid_argument "Fabric.create: no machines")
    (fun () -> ignore (F.create [||]));
  Alcotest.check_raises "capacity" (Invalid_argument "Fabric.machine: capacity < 1")
    (fun () -> ignore (F.machine ~cache_capacity:0 "x"))

let test_alloc () =
  let f = mk () in
  let a = F.alloc f ~owner:0 in
  let b = F.alloc f ~owner:1 in
  let c = F.alloc f ~owner:0 in
  Alcotest.(check int) "dense ids" 1 b;
  Alcotest.(check int) "dense ids" 2 c;
  Alcotest.(check int) "owner a" 0 (F.owner f a);
  Alcotest.(check int) "owner b" 1 (F.owner f b);
  Alcotest.(check int) "count" 3 (F.n_locs f);
  (* per-owner offsets are dense too (visible via to_loc) *)
  Alcotest.(check int) "a offset" 0 (Cxl0.Loc.off (F.to_loc f a));
  Alcotest.(check int) "c offset" 1 (Cxl0.Loc.off (F.to_loc f c))

let test_alloc_growth () =
  (* force the location table to grow past its initial 64 entries *)
  let f = mk () in
  let locs = F.alloc_n f ~owner:0 200 in
  Alcotest.(check int) "200 allocated" 200 (List.length locs);
  List.iteri (fun i x -> Alcotest.(check int) "id" i x) locs;
  F.lstore f 0 199 42;
  Alcotest.(check int) "store/load across growth" 42 (F.load f 0 199)

let test_bad_loc () =
  let f = mk () in
  Alcotest.check_raises "unallocated" (Invalid_argument "Fabric: bad location")
    (fun () -> ignore (F.load f 0 3))

let test_uid_unique () =
  let a = mk () and b = mk () in
  Alcotest.(check bool) "distinct uids" true (F.uid a <> F.uid b)

(* ------------------------------------------------------------------ *)
(* Primitive semantics                                                 *)
(* ------------------------------------------------------------------ *)

let test_load_initial_zero () =
  let f = mk () in
  let x = F.alloc f ~owner:1 in
  Alcotest.(check int) "zero initialised" 0 (F.load f 0 x)

let test_lstore_then_load () =
  let f = mk () in
  let x = F.alloc f ~owner:1 in
  F.lstore f 0 x 5;
  Alcotest.(check int) "same machine" 5 (F.load f 0 x);
  Alcotest.(check int) "other machine (coherent)" 5 (F.load f 1 x);
  (* memory not yet updated *)
  let cfg = F.to_config f in
  Alcotest.(check int) "mem still 0" 0 (Cxl0.Config.mem_get cfg (F.to_loc f x))

let test_rstore_placement () =
  let f = mk () in
  let x = F.alloc f ~owner:1 in
  F.rstore f 0 x 5;
  let cfg = F.to_config f in
  let l = F.to_loc f x in
  Alcotest.(check (option int)) "owner cache" (Some 5)
    (Cxl0.Config.cache_get cfg 1 l);
  Alcotest.(check (option int)) "issuer cache empty" None
    (Cxl0.Config.cache_get cfg 0 l)

let test_mstore_placement () =
  let f = mk () in
  let x = F.alloc f ~owner:1 in
  F.lstore f 0 x 3;
  F.mstore f 0 x 5;
  let cfg = F.to_config f in
  let l = F.to_loc f x in
  Alcotest.(check int) "memory" 5 (Cxl0.Config.mem_get cfg l);
  Alcotest.(check (option int)) "no cache" None (Cxl0.Config.cache_get cfg 0 l)

let test_load_copies_into_reader () =
  let f = mk ~n:3 () in
  let x = F.alloc f ~owner:2 in
  F.lstore f 0 x 9;
  ignore (F.load f 1 x);
  let cfg = F.to_config f in
  let l = F.to_loc f x in
  Alcotest.(check (option int)) "copied" (Some 9) (Cxl0.Config.cache_get cfg 1 l)

let test_flush_forcing () =
  let f = mk () in
  let x = F.alloc f ~owner:1 in
  F.lstore f 0 x 5;
  F.lflush f 0 x;
  let cfg = F.to_config f in
  let l = F.to_loc f x in
  Alcotest.(check (option int)) "moved to owner cache" (Some 5)
    (Cxl0.Config.cache_get cfg 1 l);
  Alcotest.(check int) "not yet memory" 0 (Cxl0.Config.mem_get cfg l);
  F.rflush f 0 x;
  let cfg = F.to_config f in
  Alcotest.(check int) "rflush reaches memory" 5 (Cxl0.Config.mem_get cfg l);
  Alcotest.(check (option int)) "caches drained" None
    (Cxl0.Config.cache_get cfg 1 l)

let test_lflush_by_owner_writes_back () =
  let f = mk () in
  let x = F.alloc f ~owner:0 in
  F.lstore f 0 x 5;
  F.lflush f 0 x;
  let cfg = F.to_config f in
  Alcotest.(check int) "owner lflush = write back" 5
    (Cxl0.Config.mem_get cfg (F.to_loc f x))

let test_flush_clean_noop () =
  let f = mk () in
  let x = F.alloc f ~owner:1 in
  let before = (F.stats f).F.Stats.cycles in
  F.rflush f 0 x;
  let after = (F.stats f).F.Stats.cycles in
  Alcotest.(check bool) "cheap clean check" true
    (after - before <= Fabric.Latency.default.F.Latency.clean_check)

(* ------------------------------------------------------------------ *)
(* Atomics                                                             *)
(* ------------------------------------------------------------------ *)

let test_faa () =
  let f = mk () in
  let x = F.alloc f ~owner:1 in
  Alcotest.(check int) "returns old" 0 (F.faa f 0 x 5);
  Alcotest.(check int) "returns old again" 5 (F.faa f 1 x 2);
  Alcotest.(check int) "value" 7 (F.load f 0 x)

let test_cas_success_failure () =
  let f = mk () in
  let x = F.alloc f ~owner:1 in
  Alcotest.(check bool) "success" true
    (F.cas f 0 x ~expected:0 ~desired:4 ~kind:Cxl0.Label.R);
  Alcotest.(check bool) "failure" false
    (F.cas f 0 x ~expected:0 ~desired:9 ~kind:Cxl0.Label.R);
  Alcotest.(check int) "value unchanged by failed cas" 4 (F.load f 0 x)

let test_cas_kind_m_persists () =
  let f = mk () in
  let x = F.alloc f ~owner:1 in
  ignore (F.cas f 0 x ~expected:0 ~desired:4 ~kind:Cxl0.Label.M);
  Alcotest.(check int) "straight to memory" 4
    (Cxl0.Config.mem_get (F.to_config f) (F.to_loc f x))

(* ------------------------------------------------------------------ *)
(* Replacement machinery                                               *)
(* ------------------------------------------------------------------ *)

let test_capacity_eviction () =
  let f = mk ~cache_capacity:1 () in
  let x = F.alloc f ~owner:1 in
  let y = F.alloc f ~owner:1 in
  F.lstore f 0 x 1;
  F.lstore f 0 y 2;
  (* capacity 1 on machine 0: storing y evicted x toward its owner *)
  let cfg = F.to_config f in
  Alcotest.(check (option int)) "x moved to owner cache" (Some 1)
    (Cxl0.Config.cache_get cfg 1 (F.to_loc f x));
  Alcotest.(check (option int)) "y local" (Some 2)
    (Cxl0.Config.cache_get cfg 0 (F.to_loc f y));
  Alcotest.(check bool) "eviction counted" true
    ((F.stats f).F.Stats.evictions_horizontal >= 1);
  Alcotest.(check bool) "bookkeeping" true (F.check_coherence f)

let test_eviction_cascade_vertical () =
  (* owner with capacity 1: receiving an evicted line may evict its own *)
  let f = mk ~cache_capacity:1 () in
  let x = F.alloc f ~owner:1 in
  let y = F.alloc f ~owner:1 in
  F.lstore f 1 x 1;  (* owner caches x *)
  F.lstore f 0 y 2;  (* non-owner caches y *)
  F.lflush f 0 y;    (* forces y to owner cache: owner over capacity *)
  Alcotest.(check bool) "some vertical eviction happened" true
    ((F.stats f).F.Stats.evictions_vertical >= 1);
  Alcotest.(check bool) "coherent" true (F.check_coherence f);
  (* no value lost: both still visible *)
  Alcotest.(check int) "x visible" 1 (F.load f 0 x);
  Alcotest.(check int) "y visible" 2 (F.load f 0 y)

let test_drain () =
  let f = mk () in
  let x = F.alloc f ~owner:1 in
  let y = F.alloc f ~owner:0 in
  F.lstore f 0 x 1;
  F.lstore f 1 y 2;
  F.drain f;
  let cfg = F.to_config f in
  Alcotest.(check int) "x in memory" 1 (Cxl0.Config.mem_get cfg (F.to_loc f x));
  Alcotest.(check int) "y in memory" 2 (Cxl0.Config.mem_get cfg (F.to_loc f y));
  Alcotest.(check bool) "nothing cached" true
    (Cxl0.Config.holders (F.to_system f) cfg (F.to_loc f x) = [])

let test_maybe_evict_deterministic () =
  let f = F.uniform ~seed:3 ~evict_prob:1.0 2 in
  let x = F.alloc f ~owner:1 in
  F.lstore f 0 x 1;
  (* evict_prob = 1: a tick must evict the only cached line *)
  F.maybe_evict f;
  let cfg = F.to_config f in
  Alcotest.(check (option int)) "left machine 0" None
    (Cxl0.Config.cache_get cfg 0 (F.to_loc f x))

(* Six lines, each stored from a machine that does not own it, so both
   horizontal and vertical evictions can happen; then [g] eviction
   chances, one call each or in one [maybe_evict_n]. *)
let evictions_after ~batched ~g seed =
  let f = F.uniform ~seed ~evict_prob:0.3 3 in
  for k = 0 to 5 do
    let x = F.alloc f ~owner:(k mod 3) in
    F.lstore f ((k + 1) mod 3) x k
  done;
  if batched then F.maybe_evict_n f g
  else
    for _ = 1 to g do
      F.maybe_evict f
    done;
  let st = F.stats f in
  (st.F.Stats.evictions_horizontal, st.F.Stats.evictions_vertical)

(* [maybe_evict_n f g] equals [g] calls of [maybe_evict] in law: mean
   horizontal and vertical eviction counts, and the frequencies of the
   eviction total, over 1500 fabric seeds.  g = 60 drains
   every cache in most seeds, so the early stop is exercised. *)
let test_maybe_evict_n_law () =
  let seeds = List.init 1500 (fun i -> i + 1) in
  List.iter
    (fun g ->
      let runs batched = List.map (evictions_after ~batched ~g) seeds in
      let n = runs true and one = runs false in
      let what s = Printf.sprintf "g = %d: %s" g s in
      Law.check_means (what "horizontal") (List.map fst n) (List.map fst one);
      Law.check_means (what "vertical") (List.map snd n) (List.map snd one);
      let total = List.map (fun (h, v) -> h + v) in
      Law.check_frequencies (what "evictions") (total n) (total one))
    [ 1; 5; 12; 60 ]

(* Nothing to draw: with [evict_prob] 0, or with no line cached,
   [maybe_evict_n] must leave the fabric's random stream where it was —
   the evictions that follow match a fabric that never called it. *)
let test_maybe_evict_n_draws_nothing () =
  let after ~prob call =
    let f = F.uniform ~seed:9 ~evict_prob:prob 3 in
    let xs = List.init 6 (fun k -> F.alloc f ~owner:(k mod 3)) in
    if call = `Empty then F.maybe_evict_n f 1000;
    List.iteri (fun k x -> F.lstore f ((k + 1) mod 3) x k) xs;
    if call = `Cached then F.maybe_evict_n f 1000;
    F.set_evict_prob f 0.5;
    List.init 40 (fun _ ->
        F.maybe_evict f;
        let st = F.stats f in
        (st.F.Stats.evictions_horizontal, st.F.Stats.evictions_vertical))
  in
  let reference = after ~prob:0.0 `Never in
  Alcotest.(check (list (pair int int))) "evict_prob 0" reference
    (after ~prob:0.0 `Cached);
  Alcotest.(check (list (pair int int))) "nothing cached" reference
    (after ~prob:0.5 `Empty)

(* ------------------------------------------------------------------ *)
(* Crash                                                               *)
(* ------------------------------------------------------------------ *)

let test_crash_nv () =
  let f = mk () in
  let x = F.alloc f ~owner:1 in
  F.rstore f 0 x 5;
  (* value in owner's cache only *)
  F.crash f 1;
  Alcotest.(check int) "lost (nv mem was never written)" 0 (F.load f 0 x);
  Alcotest.(check bool) "coherent" true (F.check_coherence f)

let test_crash_nv_after_flush () =
  let f = mk () in
  let x = F.alloc f ~owner:1 in
  F.rstore f 0 x 5;
  F.rflush f 0 x;
  F.crash f 1;
  Alcotest.(check int) "persisted" 5 (F.load f 0 x)

let test_crash_volatile () =
  let f = mk ~volatile:true () in
  let x = F.alloc f ~owner:1 in
  F.mstore f 0 x 5;
  F.crash f 1;
  Alcotest.(check int) "volatile memory zeroed" 0 (F.load f 0 x)

let test_crash_spares_others () =
  let f = mk ~n:3 () in
  let x = F.alloc f ~owner:2 in
  F.lstore f 0 x 5;
  F.crash f 1;
  Alcotest.(check int) "writer's cache intact" 5 (F.load f 0 x)

(* ------------------------------------------------------------------ *)
(* Accounting                                                          *)
(* ------------------------------------------------------------------ *)

let test_stats_counting () =
  let f = mk () in
  let x = F.alloc f ~owner:1 in
  F.lstore f 0 x 1;
  F.rstore f 0 x 2;
  F.mstore f 0 x 3;
  ignore (F.load f 0 x);
  F.lflush f 0 x;
  F.rflush f 0 x;
  ignore (F.faa f 0 x 1);
  ignore (F.cas f 0 x ~expected:4 ~desired:5 ~kind:Cxl0.Label.L);
  let s = F.stats f in
  Alcotest.(check int) "lstores" 2 s.F.Stats.lstores;
  (* the successful CAS with kind L counts as an lstore too *)
  Alcotest.(check int) "rstores" 1 s.F.Stats.rstores;
  Alcotest.(check int) "mstores" 1 s.F.Stats.mstores;
  Alcotest.(check int) "loads" 1 (F.Stats.loads s);
  Alcotest.(check int) "flushes" 2 (F.Stats.flushes s);
  Alcotest.(check int) "faa" 1 s.F.Stats.faas;
  Alcotest.(check int) "cas" 1 s.F.Stats.cass

let test_latency_ordering () =
  (* remote accesses must cost more than local ones under the default
     model: compare a local-cache load with a memory load *)
  let f = mk () in
  let x = F.alloc f ~owner:0 in
  let y = F.alloc f ~owner:1 in
  F.lstore f 0 x 1;
  let c0 = F.cycles f in
  ignore (F.load f 0 x) (* local cache hit *);
  let c1 = F.cycles f in
  ignore (F.load f 0 y) (* remote memory *);
  let c2 = F.cycles f in
  Alcotest.(check bool) "local cheap" true (c1 - c0 < c2 - c1)

let test_stats_diff_reset () =
  let f = mk () in
  let x = F.alloc f ~owner:0 in
  F.lstore f 0 x 1;
  let snap = F.Stats.copy (F.stats f) in
  F.lstore f 0 x 2;
  let d = F.Stats.diff (F.stats f) snap in
  Alcotest.(check int) "one new lstore" 1 d.F.Stats.lstores;
  F.Stats.reset (F.stats f);
  Alcotest.(check int) "reset" 0 (F.stats f).F.Stats.lstores

(* ------------------------------------------------------------------ *)
(* Topology                                                            *)
(* ------------------------------------------------------------------ *)

let test_topology_flat () =
  let t = F.Topology.flat 3 in
  Alcotest.(check int) "size" 3 (F.Topology.size t);
  Alcotest.(check int) "diagonal" 0 (F.Topology.hops t 1 1);
  Alcotest.(check int) "off-diagonal" 1 (F.Topology.hops t 0 2)

let test_topology_two_level () =
  let t = F.Topology.two_level [ 2; 2 ] in
  Alcotest.(check int) "same leaf" 1 (F.Topology.hops t 0 1);
  Alcotest.(check int) "across spine" 3 (F.Topology.hops t 1 2);
  Alcotest.(check int) "symmetric" (F.Topology.hops t 3 0)
    (F.Topology.hops t 0 3)

let test_topology_validation () =
  Alcotest.check_raises "ragged" (Invalid_argument "Topology.of_matrix: ragged")
    (fun () -> ignore (F.Topology.of_matrix [| [| 0 |]; [| 1; 0 |] |]));
  Alcotest.check_raises "diagonal"
    (Invalid_argument "Topology.of_matrix: nonzero diagonal") (fun () ->
      ignore (F.Topology.of_matrix [| [| 1 |] |]));
  Alcotest.check_raises "asymmetric"
    (Invalid_argument "Topology.of_matrix: asymmetric") (fun () ->
      ignore (F.Topology.of_matrix [| [| 0; 1 |]; [| 2; 0 |] |]));
  Alcotest.check_raises "empty group"
    (Invalid_argument "Topology.two_level: empty group") (fun () ->
      ignore (F.Topology.two_level [ 1; 0 ]));
  Alcotest.check_raises "size mismatch"
    (Invalid_argument "Fabric.create: topology size mismatch") (fun () ->
      ignore
        (F.create ~topology:(F.Topology.flat 3) [| F.machine "a"; F.machine "b" |]))

(* The pretty-printers are part of the tooling surface (bench headers,
   verbose CLI output); pin their shape so a field rename can't silently
   turn them into "<abstr>"-style noise. *)
let test_latency_pp () =
  let s = Fmt.str "%a" F.Latency.pp F.Latency.default in
  Alcotest.(check string) "default model"
    "{local-cache=1; remote-cache=30; local-mem=100; remote-mem=250; \
     clean=5; atomic=+15; per-hop=+20}"
    s;
  let flat = Fmt.str "%a" F.Latency.pp F.Latency.flat in
  Alcotest.(check bool) "flat model renders" true
    (String.length flat > 0 && flat.[0] = '{')

let test_topology_pp () =
  Alcotest.(check string) "flat 2"
    "0 1\n1 0"
    (Fmt.str "%a" F.Topology.pp (F.Topology.flat 2));
  Alcotest.(check string) "two-level [1;1]"
    "0 3\n3 0"
    (Fmt.str "%a" F.Topology.pp (F.Topology.two_level [ 1; 1 ]))

(* Edge cases of the hop metric: the diagonal is a zero-cost crossing
   (same machine — no fabric involved, whatever the matrix says
   elsewhere), and an of_matrix path can be arbitrarily long — the
   per-hop surcharge must follow it linearly, not saturate. *)
let test_topology_hop_edges () =
  let m =
    F.Topology.of_matrix
      [| [| 0; 1; 9 |]; [| 1; 0; 1 |]; [| 9; 1; 0 |] |]
  in
  Alcotest.(check int) "diagonal zero" 0 (F.Topology.hops m 2 2);
  Alcotest.(check int) "max-hop path kept" 9 (F.Topology.hops m 0 2);
  (* a remote load over the 9-hop path pays exactly 8 more per_hop
     surcharges than over a 1-hop path *)
  let cost topology src =
    let f =
      F.create ~topology ~seed:1 ~evict_prob:0.0
        [| F.machine "a"; F.machine "b"; F.machine "home" |]
    in
    let x = F.alloc f ~owner:2 in
    let before = F.cycles f in
    ignore (F.load f src x);
    F.cycles f - before
  in
  let far = cost m 0 and near = cost m 1 in
  Alcotest.(check int) "linear in hops"
    (8 * F.Latency.default.F.Latency.per_hop)
    (far - near)

let test_topology_costs_scale () =
  (* the same remote load costs more across the spine *)
  let cost topology =
    let f = F.create ~topology ~seed:1 ~evict_prob:0.0
        [| F.machine "w"; F.machine "x"; F.machine "y"; F.machine "home" |]
    in
    let x = F.alloc f ~owner:3 in
    F.mstore f 3 x 5;
    let before = F.cycles f in
    ignore (F.load f 0 x);
    F.cycles f - before
  in
  let near = cost (F.Topology.flat 4) in
  let far = cost (F.Topology.two_level [ 3; 1 ]) in
  Alcotest.(check bool) "extra hops cost more" true (far > near);
  Alcotest.(check int) "exactly 2 extra hops x per_hop" (2 * 20) (far - near)

let test_topology_local_access_unaffected () =
  let f =
    F.create ~topology:(F.Topology.two_level [ 1; 1 ]) ~seed:1 ~evict_prob:0.0
      [| F.machine "a"; F.machine "b" |]
  in
  let x = F.alloc f ~owner:0 in
  F.lstore f 0 x 1;
  let before = F.cycles f in
  ignore (F.load f 0 x);
  Alcotest.(check int) "local cache hit still 1 cycle" 1 (F.cycles f - before)

(* ------------------------------------------------------------------ *)
(* RAS faults                                                          *)
(* ------------------------------------------------------------------ *)

let prob_msg name p = Printf.sprintf "%s: probability %g not in [0,1]" name p

let test_evict_prob_validation () =
  List.iter
    (fun p ->
      Alcotest.check_raises "create rejects"
        (Invalid_argument (prob_msg "Fabric.create evict_prob" p))
        (fun () -> ignore (F.uniform ~seed:1 ~evict_prob:p 2)))
    [ Float.nan; -0.5; 1.5 ];
  (* the closed boundaries stay legal (evict_prob = 1.0 is load-bearing
     in the deterministic-eviction test above) *)
  ignore (F.uniform ~seed:1 ~evict_prob:0.0 2);
  ignore (F.uniform ~seed:1 ~evict_prob:1.0 2);
  let f = mk () in
  F.set_evict_prob f 1.0;
  F.set_evict_prob f 0.0;
  List.iter
    (fun p ->
      Alcotest.check_raises "set_evict_prob rejects"
        (Invalid_argument (prob_msg "Fabric.set_evict_prob" p))
        (fun () -> F.set_evict_prob f p))
    [ Float.nan; -0.1; 2.0 ]

let test_fault_plan_validation () =
  Alcotest.check_raises "negative retries"
    (Invalid_argument "Faults.plan: retries < 0") (fun () ->
      ignore
        (F.Faults.plan
           ~retry:{ F.Faults.default_retry with F.Faults.retries = -1 }
           ()));
  let p = F.Faults.plan () in
  Alcotest.check_raises "NaN nack_prob"
    (Invalid_argument (prob_msg "Faults.degrade_link" Float.nan))
    (fun () ->
      F.Faults.degrade_link p 0 1 ~nack_prob:Float.nan ~delay_prob:0.0
        ~delay_cycles:0);
  Alcotest.check_raises "equal endpoints"
    (Invalid_argument "Faults.degrade_link: link endpoints equal") (fun () ->
      F.Faults.degrade_link p 1 1 ~nack_prob:0.5 ~delay_prob:0.0
        ~delay_cycles:0);
  Alcotest.check_raises "bad window"
    (Invalid_argument "Faults.down_link: bad cycle window") (fun () ->
      F.Faults.down_link p 0 1 ~from_cycle:10 ~until_cycle:10);
  F.Faults.degrade_link p 0 5 ~nack_prob:0.5 ~delay_prob:0.0 ~delay_cycles:0;
  Alcotest.check_raises "plan vs machine count"
    (Invalid_argument "Fabric.create: fault plan references unknown machine")
    (fun () -> ignore (F.uniform ~seed:1 ~evict_prob:0.0 ~faults:p 2))

(* a 2-machine fabric whose 0<->1 link carries the given standing fault *)
let faulty_fabric ?(nack = 0.0) ?(delay = 0.0) ?(delay_cycles = 0) ?down () =
  let p = F.Faults.plan ~seed:42 () in
  if nack > 0.0 || delay > 0.0 then
    F.Faults.degrade_link p 0 1 ~nack_prob:nack ~delay_prob:delay
      ~delay_cycles;
  (match down with
  | Some (from_cycle, until_cycle) ->
      F.Faults.down_link p 0 1 ~from_cycle ~until_cycle
  | None -> ());
  F.uniform ~seed:7 ~evict_prob:0.0 ~faults:p 2

(* One {!F.attempt} of [prim], with the [_] arguments it ignores *)
let attempt ?(a = 0) ?(b = 0) ?(kind = Cxl0.Label.R) f prim i x =
  F.attempt f prim i x a b kind

let check_outcome what code f =
  Alcotest.(check int) what code (F.outcome f)

let test_nack_delivers_error () =
  let f = faulty_fabric ~nack:1.0 () in
  let x = F.alloc f ~owner:1 in
  let before = F.cycles f in
  ignore (attempt f Load 0 x);
  check_outcome "expected a NACK" F.Faults.nack f;
  (match F.fault f 0 x with
  | F.Faults.Nack { from_m = 0; to_m = 1 } -> ()
  | _ -> Alcotest.fail "expected Nack 0->1");
  Alcotest.(check int) "NACK charged" (F.Faults.nack_cycles (Option.get (F.faults f)))
    (F.cycles f - before);
  Alcotest.(check int) "fault counted" 1 (F.stats f).F.Stats.faults_injected;
  (* local traffic never crosses the faulted link *)
  ignore (attempt f Lstore 1 x ~a:5);
  check_outcome "owner-local store crossed no link" F.Faults.ok f;
  (* the plain primitives never consult the link table *)
  Alcotest.(check int) "plain load unaffected" 5 (F.load f 0 x)

let test_down_link_times_out () =
  let f = faulty_fabric ~down:(0, 5_000) () in
  let x = F.alloc f ~owner:1 in
  Alcotest.(check bool) "degraded while down" true (F.link_degraded f 0 1);
  ignore (attempt f Rstore 0 x ~a:5);
  check_outcome "expected a timeout" F.Faults.timeout f;
  (match F.fault f 0 x with
  | F.Faults.Link_timeout { from_m = 0; to_m = 1 } -> ()
  | _ -> Alcotest.fail "expected Link_timeout 0->1");
  (* burn simulated time past the window: the link heals *)
  F.charge f 10_000;
  Alcotest.(check bool) "healed after window" false (F.link_degraded f 0 1);
  ignore (attempt f Rstore 0 x ~a:5);
  check_outcome "link recovered" F.Faults.ok f;
  Alcotest.(check int) "value arrived" 5 (F.load f 1 x)

let test_delay_charges_then_succeeds () =
  let f = faulty_fabric ~delay:1.0 ~delay_cycles:500 () in
  let x = F.alloc f ~owner:1 in
  let before = F.cycles f in
  Alcotest.(check int) "delayed load still completes" 0 (attempt f Load 0 x);
  check_outcome "delayed load delivered" F.Faults.ok f;
  Alcotest.(check bool) "delay charged on top" true
    (F.cycles f - before >= 500);
  Alcotest.(check int) "delay counted as a fault" 1
    (F.stats f).F.Stats.faults_injected

let test_poison_load_and_heal () =
  let f = faulty_fabric () in
  let x = F.alloc f ~owner:1 in
  F.lstore f 1 x 5;
  F.poison f x;
  Alcotest.(check bool) "marked" true (F.poisoned f x);
  ignore (attempt f Load 0 x);
  check_outcome "expected poison" F.Faults.poison_hit f;
  (match F.fault f 0 x with
  | F.Faults.Poisoned { loc } -> Alcotest.(check int) "loc" x loc
  | _ -> Alcotest.fail "expected Poisoned");
  Alcotest.(check int) "observation counted" 1
    (F.stats f).F.Stats.faults_injected;
  (* a store of fresh data heals the line *)
  F.lstore f 1 x 7;
  Alcotest.(check bool) "healed" false (F.poisoned f x);
  Alcotest.(check int) "healed load" 7 (attempt f Load 0 x);
  check_outcome "healed load delivered" F.Faults.ok f;
  (* an rflush write-back of a dirty copy heals too *)
  F.poison f x;
  ignore (attempt f Rflush 1 x);
  check_outcome "rflush" F.Faults.ok f;
  Alcotest.(check bool) "write-back healed" false (F.poisoned f x)

let test_poison_atomics_abort () =
  let f = faulty_fabric () in
  let x = F.alloc f ~owner:1 in
  F.mstore f 1 x 5;
  F.poison f x;
  ignore (attempt f Faa 0 x ~a:3);
  check_outcome "faa must observe poison" F.Faults.poison_hit f;
  ignore (attempt f Cas 0 x ~a:5 ~b:9);
  check_outcome "cas must observe poison" F.Faults.poison_hit f;
  (match F.fault f 0 x with
  | F.Faults.Poisoned { loc } -> Alcotest.(check int) "cas loc" x loc
  | _ -> Alcotest.fail "expected Poisoned");
  (* neither RMW mutated: heal and look *)
  F.mstore f 1 x 5;
  Alcotest.(check int) "value untouched by aborted RMWs" 5 (F.load f 0 x)

let test_poison_requires_plan () =
  let f = mk () in
  let x = F.alloc f ~owner:1 in
  Alcotest.check_raises "no plan"
    (Invalid_argument "Fabric.poison: no fault plan attached") (fun () ->
      F.poison f x)

let test_crash_heals_volatile_owner () =
  let p = F.Faults.plan ~seed:1 () in
  let f = F.uniform ~seed:7 ~evict_prob:0.0 ~volatile:true ~faults:p 2 in
  let x = F.alloc f ~owner:1 in
  F.mstore f 1 x 5;
  F.poison f x;
  F.crash f 1;
  (* the volatile owner's crash re-zeroed the line: fresh data, no
     poison *)
  Alcotest.(check bool) "healed by re-init" false (F.poisoned f x);
  Alcotest.(check int) "zeroed" 0 (F.load f 0 x)

(* ------------------------------------------------------------------ *)
(* Allocation discipline                                               *)
(* ------------------------------------------------------------------ *)

(* The flat data plane's contract: steady-state primitives touch only
   unboxed int arrays — no per-operation minor allocation.  A warm-up
   pass absorbs one-time growth (rings, holder counters); the measured
   window then holds a hard budget per primitive.  The budget is loose
   (0.5 words) against compiler-version noise; the regression this
   guards against — a boxed record or closure sneaking back onto the hot
   path — costs several words per op and clears it by an order of
   magnitude. *)
let test_gc_pressure () =
  let f = mk ~n:2 () in
  let x = F.alloc f ~owner:1 in
  for i = 1 to 100 do
    F.lstore f 0 x i;
    ignore (F.load f 1 x);
    ignore (F.faa f 0 x 1);
    F.lflush f 0 x;
    F.rflush f 0 x
  done;
  let iters = 10_000 in
  let w0 = Gc.minor_words () in
  for i = 1 to iters do
    F.lstore f 0 x i;
    ignore (F.load f 1 x);
    ignore (F.faa f 0 x 1);
    F.lflush f 0 x;
    F.rflush f 0 x
  done;
  let per_prim = (Gc.minor_words () -. w0) /. float_of_int (5 * iters) in
  Alcotest.(check bool)
    (Printf.sprintf "minor words per primitive (%.4f) within budget" per_prim)
    true (per_prim <= 0.5)

(* The faultable path's budget: a warm one-fibre loop of every
   Runtime.Ops primitive under a plan whose crossed links are clean
   allocates at most 0.5 words per primitive more than the same loop
   with no plan — no closure, result box or fault value per attempt.
   (A degraded link is left out: its two float draws box.) *)
let test_gc_pressure_clean_plan () =
  let words_per_prim faults =
    let f = F.uniform ~seed:1 ~evict_prob:0.0 ?faults 3 in
    let x = F.alloc f ~owner:1 in
    let s = Runtime.Sched.create ~seed:1 f in
    let module O = Runtime.Ops in
    let round ctx i =
      O.rstore ctx x i;
      ignore (O.load ctx x);
      O.rflush ctx x;
      O.lstore ctx x i;
      O.lflush ctx x;
      O.mstore ctx x i;
      ignore (O.faa ctx x 1);
      ignore (O.cas ctx x ~expected:(i + 1) ~desired:i ~kind:Cxl0.Label.R)
    in
    let iters = 5_000 in
    let words = ref nan in
    ignore
      (Runtime.Sched.spawn s ~machine:0 ~name:"loop" (fun ctx ->
           for i = 1 to 100 do
             round ctx i
           done;
           let w0 = Gc.minor_words () in
           for i = 1 to iters do
             round ctx i
           done;
           words := (Gc.minor_words () -. w0) /. float_of_int (8 * iters)));
    ignore (Runtime.Sched.run s);
    !words
  in
  let none = words_per_prim None in
  let p = F.Faults.plan ~seed:3 () in
  (* the only faulted link, 1<->2, is never crossed from machine 0 *)
  F.Faults.degrade_link p 1 2 ~nack_prob:0.5 ~delay_prob:0.5 ~delay_cycles:9;
  let clean = words_per_prim (Some p) in
  Alcotest.(check bool)
    (Printf.sprintf "words per primitive: clean plan %.4f, no plan %.4f"
       clean none)
    true
    (clean <= none +. 0.5)

(* ------------------------------------------------------------------ *)
(* Cross-validation against the formal semantics                       *)
(* ------------------------------------------------------------------ *)

(* Drive the same random primitive sequence through the fabric and
   through Cxl0.Semantics (mirroring the fabric's *forcing* flushes with
   the equivalent tau-steps) and compare configurations at every step. *)

type xop =
  | XL of int * int * int
  | XR of int * int * int
  | XM of int * int * int
  | XLoad of int * int
  | XLFlush of int * int
  | XRFlush of int * int
  | XEvict of int * int
  | XCrash of int

let random_xop rng ~n ~locs =
  let m () = Random.State.int rng n in
  let x () = Random.State.int rng locs in
  let v () = Random.State.int rng 3 in
  match Random.State.int rng 10 with
  | 0 | 1 -> XL (m (), x (), v ())
  | 2 -> XR (m (), x (), v ())
  | 3 -> XM (m (), x (), v ())
  | 4 | 5 -> XLoad (m (), x ())
  | 6 -> XLFlush (m (), x ())
  | 7 -> XRFlush (m (), x ())
  | 8 -> XEvict (m (), x ())
  | _ -> XCrash (m ())

(* Mirror of the fabric's forcing flush/eviction on the formal side. *)
let mirror_force sys cfg i l ~vertical_all =
  match Cxl0.Config.cache_get cfg i l with
  | None -> cfg
  | Some _ ->
      if i = Cxl0.Loc.owner l then
        Option.value ~default:cfg (Cxl0.Semantics.prop_cache_mem sys cfg l)
      else
        let cfg =
          Option.value ~default:cfg
            (Cxl0.Semantics.prop_cache_cache sys cfg i l)
        in
        if vertical_all then
          Option.value ~default:cfg (Cxl0.Semantics.prop_cache_mem sys cfg l)
        else cfg

let prop_cross_validation =
  QCheck.Test.make ~name:"fabric == formal semantics, step by step" ~count:80
    QCheck.(pair small_nat (int_bound 80))
    (fun (seed, len) ->
      let n = 3 and nlocs = 4 in
      let f = F.uniform ~seed ~evict_prob:0.0 ~cache_capacity:1024 n in
      (* spread ownership *)
      for i = 0 to nlocs - 1 do
        ignore (F.alloc f ~owner:(i mod n))
      done;
      let sys = F.to_system f in
      let rng = Random.State.make [| seed; len |] in
      let cfg = ref Cxl0.Config.init in
      let ok = ref true in
      for _ = 1 to len do
        let op = random_xop rng ~n ~locs:nlocs in
        let l x = F.to_loc f x in
        (match op with
        | XL (i, x, v) ->
            F.lstore f i x v;
            cfg := Cxl0.Semantics.lstore sys !cfg i (l x) v
        | XR (i, x, v) ->
            F.rstore f i x v;
            cfg := Cxl0.Semantics.rstore sys !cfg i (l x) v
        | XM (i, x, v) ->
            F.mstore f i x v;
            cfg := Cxl0.Semantics.mstore sys !cfg i (l x) v
        | XLoad (i, x) ->
            let v = F.load f i x in
            let v', cfg' = Cxl0.Semantics.load sys !cfg i (l x) in
            if v <> v' then ok := false;
            cfg := cfg'
        | XLFlush (i, x) ->
            F.lflush f i x;
            cfg := mirror_force sys !cfg i (l x) ~vertical_all:false
        | XRFlush (i, x) ->
            F.rflush f i x;
            (* forcing rflush: drain every holder of x *)
            let rec drain cfg =
              match Cxl0.Config.cached_value sys cfg (l x) with
              | None -> cfg
              | Some (j, _) -> drain (mirror_force sys cfg j (l x) ~vertical_all:true)
            in
            cfg := drain !cfg
        | XEvict (i, x) ->
            F.evict_loc f i x;
            cfg := mirror_force sys !cfg i (l x) ~vertical_all:false
        | XCrash i ->
            F.crash f i;
            cfg := Cxl0.Semantics.crash sys !cfg i);
        if not (Cxl0.Config.equal (F.to_config f) !cfg) then ok := false;
        if not (F.check_coherence f) then ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Data plane pinned across commits                                    *)
(* ------------------------------------------------------------------ *)

(* A fixed 20,000-primitive stream over 4 machines and 64 locations:
   loads, lstores, rstores, lflushes, rflushes and faas drawn from an
   inline 48-bit LCG, at cache capacity 16 (raw dispatch) and 2 (every
   insert runs the eviction ring).  The checksum folds in every loaded
   value, so reordering or dropping an operation changes it; the final
   cycle counter and stats pin the cost model and the eviction policy.
   A deliberate change of simulated fabric behaviour re-records the
   expected lines. *)
let pinned_stream ~cache_capacity =
  let n_machines = 4 and n_locs = 64 and seed = 42 in
  let f =
    F.create ~seed ~evict_prob:0.0
      (Array.init n_machines (fun i ->
           F.machine ~cache_capacity (F.default_name i)))
  in
  for i = 0 to n_locs - 1 do
    ignore (F.alloc f ~owner:(i mod n_machines))
  done;
  let lcg s = ((s * 25214903917) + 11) land 0xFFFF_FFFF_FFFF in
  let s = ref seed and acc = ref 0 in
  for _ = 1 to 20_000 do
    s := lcg !s;
    let m = (!s lsr 18) land (n_machines - 1) in
    let x = (!s lsr 24) land (n_locs - 1) in
    acc :=
      match (!s lsr 42) land 7 with
      | 0 | 1 | 2 -> (!acc * 31) + F.load f m x
      | 3 ->
          F.lstore f m x (!acc land 0xff);
          !acc + 1
      | 4 ->
          F.rstore f m x (!acc land 0xff);
          !acc + 2
      | 5 ->
          F.lflush f m x;
          !acc + 3
      | 6 ->
          F.rflush f m x;
          !acc + 4
      | _ -> (!acc * 17) + F.faa f m x 1
  done;
  Printf.sprintf "acc=%d cycles=%d stats=%s" !acc (F.cycles f)
    (F.Stats.to_json (F.stats f))

let test_pinned_raw_stream () =
  Alcotest.(check string) "raw stream (capacity 16)"
    "acc=-1467413185253221102 cycles=1250647 \
     stats={\"loads_local_cache\":1549,\"loads_remote_cache\":3118,\
     \"loads_mem\":2900,\"lstores\":2542,\"rstores\":2440,\"mstores\":0,\
     \"lflushes\":2407,\"rflushes\":2493,\"faas\":2551,\"cass\":0,\
     \"evictions_horizontal\":653,\"evictions_vertical\":1337,\
     \"crashes\":0,\"faults_injected\":0,\"retries\":0,\
     \"degraded_ops\":0,\"cycles\":1250647}"
    (pinned_stream ~cache_capacity:16)

let test_pinned_evict_stream () =
  Alcotest.(check string) "evict stream (capacity 2)"
    "acc=-1467413185253221102 cycles=1697284 \
     stats={\"loads_local_cache\":201,\"loads_remote_cache\":661,\
     \"loads_mem\":6705,\"lstores\":2542,\"rstores\":2440,\"mstores\":0,\
     \"lflushes\":2407,\"rflushes\":2493,\"faas\":2551,\"cass\":0,\
     \"evictions_horizontal\":1893,\"evictions_vertical\":6389,\
     \"crashes\":0,\"faults_injected\":0,\"retries\":0,\
     \"degraded_ops\":0,\"cycles\":1697284}"
    (pinned_stream ~cache_capacity:2)

let () =
  Alcotest.run "fabric"
    [
      ( "construction",
        [
          Alcotest.test_case "validation" `Quick test_create_validation;
          Alcotest.test_case "alloc" `Quick test_alloc;
          Alcotest.test_case "alloc growth" `Quick test_alloc_growth;
          Alcotest.test_case "bad loc" `Quick test_bad_loc;
          Alcotest.test_case "uid" `Quick test_uid_unique;
        ] );
      ( "primitives",
        [
          Alcotest.test_case "initial zero" `Quick test_load_initial_zero;
          Alcotest.test_case "lstore/load" `Quick test_lstore_then_load;
          Alcotest.test_case "rstore placement" `Quick test_rstore_placement;
          Alcotest.test_case "mstore placement" `Quick test_mstore_placement;
          Alcotest.test_case "load copies" `Quick test_load_copies_into_reader;
          Alcotest.test_case "flush forcing" `Quick test_flush_forcing;
          Alcotest.test_case "owner lflush" `Quick test_lflush_by_owner_writes_back;
          Alcotest.test_case "clean flush" `Quick test_flush_clean_noop;
        ] );
      ( "atomics",
        [
          Alcotest.test_case "faa" `Quick test_faa;
          Alcotest.test_case "cas" `Quick test_cas_success_failure;
          Alcotest.test_case "cas kind M" `Quick test_cas_kind_m_persists;
        ] );
      ( "replacement",
        [
          Alcotest.test_case "capacity eviction" `Quick test_capacity_eviction;
          Alcotest.test_case "cascade" `Quick test_eviction_cascade_vertical;
          Alcotest.test_case "drain" `Quick test_drain;
          Alcotest.test_case "maybe_evict" `Quick test_maybe_evict_deterministic;
          Alcotest.test_case "maybe_evict_n = maybe_evict^g in law" `Quick
            test_maybe_evict_n_law;
          Alcotest.test_case "maybe_evict_n draws nothing" `Quick
            test_maybe_evict_n_draws_nothing;
        ] );
      ( "crash",
        [
          Alcotest.test_case "nv" `Quick test_crash_nv;
          Alcotest.test_case "nv after flush" `Quick test_crash_nv_after_flush;
          Alcotest.test_case "volatile" `Quick test_crash_volatile;
          Alcotest.test_case "spares others" `Quick test_crash_spares_others;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "stats" `Quick test_stats_counting;
          Alcotest.test_case "latency ordering" `Quick test_latency_ordering;
          Alcotest.test_case "diff/reset" `Quick test_stats_diff_reset;
        ] );
      ( "topology",
        [
          Alcotest.test_case "flat" `Quick test_topology_flat;
          Alcotest.test_case "two level" `Quick test_topology_two_level;
          Alcotest.test_case "validation" `Quick test_topology_validation;
          Alcotest.test_case "latency pp" `Quick test_latency_pp;
          Alcotest.test_case "topology pp" `Quick test_topology_pp;
          Alcotest.test_case "hop edges" `Quick test_topology_hop_edges;
          Alcotest.test_case "costs scale with hops" `Quick
            test_topology_costs_scale;
          Alcotest.test_case "local unaffected" `Quick
            test_topology_local_access_unaffected;
        ] );
      ( "faults",
        [
          Alcotest.test_case "evict_prob validation" `Quick
            test_evict_prob_validation;
          Alcotest.test_case "plan validation" `Quick
            test_fault_plan_validation;
          Alcotest.test_case "nack" `Quick test_nack_delivers_error;
          Alcotest.test_case "down link" `Quick test_down_link_times_out;
          Alcotest.test_case "delay" `Quick test_delay_charges_then_succeeds;
          Alcotest.test_case "poison + heal" `Quick test_poison_load_and_heal;
          Alcotest.test_case "poison atomics" `Quick test_poison_atomics_abort;
          Alcotest.test_case "poison needs plan" `Quick
            test_poison_requires_plan;
          Alcotest.test_case "crash heals volatile owner" `Quick
            test_crash_heals_volatile_owner;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "gc pressure" `Quick test_gc_pressure;
          Alcotest.test_case "gc pressure, clean plan" `Quick
            test_gc_pressure_clean_plan;
        ] );
      ("cross-validation", [ QCheck_alcotest.to_alcotest prop_cross_validation ]);
      ( "data-plane pin",
        [
          Alcotest.test_case "raw stream" `Quick test_pinned_raw_stream;
          Alcotest.test_case "evict stream" `Quick test_pinned_evict_stream;
        ] );
    ]
