(* Differential gate for the reductions the engine always applies:
   restricting the τ-steps between labels to the labels' locations and
   checking one Proposition 1 start per symmetry orbit must never change
   what the checker reports.  Each check compares against an unreduced
   oracle.

   - every litmus file in test/data/litmus, and every built-in test, is
     decided against the reference map-set oracle;
   - the Proposition 1 sweep is run over Prop-1 and Prop-2 (volatile /
     mixed persistence) domains at N=2 and N=3 against the reference
     sweep, with failure lists compared verbatim (including a
     deliberately false item, which exercises the re-check of failing
     items), and its start count against an independent count of
     orbit representatives;
   - QCheck properties pin the algebra the reductions rest on: canon is
     idempotent and permutation-invariant, the symmetry action commutes
     with the step rules, and a τ-step on one location neither enables
     nor disables a label on another and commutes with it;
   - the eight Proposition 1 items are equivariant, the precondition of
     orbit skipping (and a planted item that names a machine is not);
   - a seeded sweep of random small systems diffs the engine's verdicts
     against the oracle's, shrinking and printing any offending system;
   - seeded random items: the Proposition 1 sweep's first pass (the
     local condition) must give the verdict of the reference engine's
     two-run check over every start, shrinking any disagreement;
   - the configuration enumeration stays memory-bounded (streaming). *)

open Cxl0

let x1 = Loc.v ~owner:0 0
let x2 = Loc.v ~owner:1 0
let x3 = Loc.v ~owner:2 0
let y1 = Loc.v ~owner:0 1

(* ------------------------------------------------------------------ *)
(* Litmus files                                                        *)
(* ------------------------------------------------------------------ *)

(* dune runs tests from _build/default/test; the litmus files live in
   the source tree, so walk up until we find them *)
let repo_root () =
  let rec up dir =
    if Sys.file_exists (Filename.concat dir "test/data/litmus") then Some dir
    else
      let parent = Filename.dirname dir in
      if parent = dir then None else up parent
  in
  up (Sys.getcwd ())

let litmus_dir () =
  match repo_root () with
  | Some root -> Filename.concat root "test/data/litmus"
  | None -> Alcotest.fail "cannot locate test/data/litmus from the cwd"

(* One test per file, in a line-based [key: value] format:
     name: fig4.1
     machines: 3
     persistence: nv | volatile
     expect: allowed | forbidden
     events: RStore_1(x^1,1); crash_1; Load_1(x^1,0)
   Blank lines and #-comments are ignored. *)
let parse_litmus_file path : Litmus.t =
  let ic = open_in path in
  let fields = Hashtbl.create 8 in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      try
        while true do
          let line = String.trim (input_line ic) in
          if line <> "" && line.[0] <> '#' then
            match String.index_opt line ':' with
            | None ->
                Alcotest.failf "%s: malformed line %S" (Filename.basename path)
                  line
            | Some i ->
                Hashtbl.replace fields
                  (String.trim (String.sub line 0 i))
                  (String.trim
                     (String.sub line (i + 1) (String.length line - i - 1)))
        done
      with End_of_file -> ());
  let get k =
    match Hashtbl.find_opt fields k with
    | Some v -> v
    | None ->
        Alcotest.failf "%s: missing field %S" (Filename.basename path) k
  in
  let system =
    let n = int_of_string (get "machines") in
    let persistence =
      match get "persistence" with
      | "nv" -> Machine.Non_volatile
      | "volatile" -> Machine.Volatile
      | p -> Alcotest.failf "%s: bad persistence %S" path p
    in
    Machine.uniform ~persistence n
  in
  let expect =
    match get "expect" with
    | "allowed" -> Litmus.Allowed
    | "forbidden" -> Litmus.Forbidden
    | v -> Alcotest.failf "%s: bad expect %S" path v
  in
  let events =
    match Parse.program [ get "events" ] with
    | Ok ls -> ls
    | Error e -> Alcotest.failf "%s: bad events: %s" path e
  in
  Litmus.make ~system ~expect (get "name") events

let litmus_files () =
  let dir = litmus_dir () in
  Sys.readdir dir
  |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".litmus")
  |> List.sort String.compare
  |> List.map (fun f -> Filename.concat dir f)

(* The engine agrees with the map-set oracle (and with the paper) on
   every litmus file's verdict and on the built-in tests'. *)
let test_litmus_verdicts () =
  let files = litmus_files () in
  Alcotest.(check bool) "found litmus files" true (List.length files >= 16);
  List.iter
    (fun t ->
      let oracle =
        if Explore.feasible t.Litmus.system Config.init t.Litmus.events then
          Litmus.Allowed
        else Litmus.Forbidden
      in
      Alcotest.(check bool)
        (t.Litmus.name ^ ": oracle matches the paper")
        true
        (Litmus.verdict_equal oracle t.Litmus.expect);
      Alcotest.(check bool)
        (t.Litmus.name ^ ": verdict = oracle")
        true
        (Litmus.verdict_equal (Litmus.decide t) oracle))
    (List.map parse_litmus_file files @ Litmus.all)

(* The search keeps a state's visited phases in one int: a sequence
   with more labels than it has bits is refused, never answered with
   aliased phases. *)
let test_too_many_labels () =
  let ctx = Packed.make (Machine.uniform 1) ~locs:[ x1 ] in
  let labels n = List.init n (fun _ -> Label.lflush 0 x1) in
  let cache = Explore.Fast.create ctx in
  Alcotest.(check bool) "62 labels decided" true
    (Explore.Fast.feasible cache (Packed.init ctx) (labels (Sys.int_size - 1)));
  Alcotest.check_raises "63 labels refused"
    (Invalid_argument "Explore.Fast: too many labels") (fun () ->
      ignore (Explore.Fast.feasible cache (Packed.init ctx) (labels Sys.int_size)))

(* ------------------------------------------------------------------ *)
(* Proposition sweeps against the oracle                               *)
(* ------------------------------------------------------------------ *)

let check_failures_identical msg a b =
  Alcotest.(check int) (msg ^ ": same count") (List.length a) (List.length b);
  List.iter2
    (fun x y ->
      if not (Props.failure_equal x y) then
        Alcotest.failf "%s: %a <> %a" msg Props.pp_failure x Props.pp_failure y)
    a b

(* a deliberately false item: LStore is *not* stronger than MStore *)
let bogus_item =
  {
    Props.id = 99;
    name = "LStore is stronger than MStore (false)";
    lhs = (fun i x v -> [ Label.lstore i x v ]);
    rhs = (fun i x v -> [ Label.mstore i x v ]);
    issuers = Props.all_machines;
  }

let mixed2 =
  Machine.system
    [|
      Machine.make ~persistence:Machine.Volatile "M1";
      Machine.make "M2";
    |]

(* Prop-1 (non-volatile) and Prop-2 (volatile / mixed persistence)
   domains at N=2, plus two N=3 domains; the reference oracle runs on
   each (every item). *)
let domains =
  [
    ("n2-nv", Machine.uniform 2, [ x1; x2 ]);
    ("n2-volatile", Machine.uniform ~persistence:Machine.Volatile 2,
     [ x1; x2 ]);
    ("n2-mixed", mixed2, [ x1; x2 ]);
    ("n3-nv", Machine.uniform 3, [ x1; x2 ]);
    ("n3-volatile", Machine.uniform ~persistence:Machine.Volatile 3,
     [ x1; x2 ]);
  ]

let test_sweep_differential () =
  let vals = [ 0; 1 ] in
  List.iter
    (fun (dname, sys, locs) ->
      check_failures_identical
        (Fmt.str "%s: sweep vs oracle" dname)
        (Props.check_exhaustive_reference sys ~locs ~vals)
        (Props.check_exhaustive ~jobs:1 sys ~locs ~vals))
    domains

(* The failing-item path: the exact-failure fallback must reproduce the
   oracle's failures (witnesses included) byte for byte, at any jobs
   count. *)
let test_sweep_failing_item () =
  let vals = [ 0; 1 ] in
  List.iter
    (fun (sys, locs) ->
      let items = [ bogus_item; Props.item 2 ] in
      let oracle = Props.check_exhaustive_reference ~items sys ~locs ~vals in
      Alcotest.(check bool) "bogus item does fail" true (oracle <> []);
      List.iter
        (fun jobs ->
          check_failures_identical
            (Fmt.str "bogus: jobs=%d vs oracle" jobs)
            oracle
            (Props.check_exhaustive ~items ~jobs sys ~locs ~vals))
        [ 1; 3 ])
    [ (Machine.uniform 2, [ x1; x2 ]); (mixed2, [ x1; y1; x2 ]) ]

(* Orbit skipping really skips: on a symmetric domain the sweep checks
   exactly the orbit representatives, counted here independently of
   the sweep. *)
let test_sweep_stats () =
  let sys = Machine.uniform 3
  and locs = [ x1; x2; x3 ]
  and vals = [ 0; 1 ] in
  let _, stats =
    Props.check_exhaustive_stats ~items:[ Props.item 2 ] sys ~locs ~vals
  in
  let ctx = Packed.make sys ~locs in
  let g = Sym.group ctx in
  let canonical = ref 0 in
  for m = 0 to Props.enum_configs_count sys ~locs ~vals - 1 do
    if Sym.is_canonical g (Props.enum_packed_nth ctx ~vals m) then
      incr canonical
  done;
  Alcotest.(check int) "domain size" 27000 stats.Props.sweep_configs;
  Alcotest.(check int) "group size" 5 (Array.length g);
  (* |G| = 6 on this domain (the identity is not stored); Burnside
     gives 4720 orbits *)
  Alcotest.(check int) "canonical starts" 4720 !canonical;
  Alcotest.(check int) "the sweep checks one start per orbit" !canonical
    stats.Props.sweep_starts

(* Orbit skipping is exact only for equivariant items: for every [g] in
   the group, the item at [(g·i, g·x, v)] is [g] applied to the item at
   [(i, x, v)], on both sides, and the issuer policy commutes with [g].
   [equivariance_failure ctx it] is the first counterexample, if any. *)
let equivariance_failure ctx (it : Props.item) =
  let n = Machine.n_machines (Packed.system ctx) in
  let locs = Array.of_list (Packed.locs ctx) in
  let gm (g : Sym.perm) i = g.Sym.mperm.(i) in
  let gx (g : Sym.perm) x = locs.(g.Sym.lperm.(Packed.loc_index ctx x)) in
  let sorted = List.sort Int.compare in
  let side g name f i x v =
    if
      List.equal Label.equal
        (f (gm g i) (gx g x) v)
        (List.map (Sym.on_label ctx g) (f i x v))
    then None
    else
      Some
        (Fmt.str "%s at (M%d, %a, %d) under %a" name (i + 1) Loc.pp x v
           Sym.pp g)
  in
  Array.to_list (Sym.group ctx)
  |> List.find_map (fun g ->
         Array.to_list locs
         |> List.find_map (fun x ->
                let k = Loc.owner x in
                if
                  sorted (it.Props.issuers ~owner:(gm g k) ~n)
                  <> sorted (List.map (gm g) (it.Props.issuers ~owner:k ~n))
                then
                  Some
                    (Fmt.str "issuers of owner M%d under %a" (k + 1) Sym.pp g)
                else
                  List.init n Fun.id
                  |> List.find_map (fun i ->
                         List.find_map
                           (fun v ->
                             match side g "lhs" it.Props.lhs i x v with
                             | Some _ as f -> f
                             | None -> side g "rhs" it.Props.rhs i x v)
                           [ 0; 1 ])))

(* The eight items are equivariant on N=2 and N=3 contexts, machine and
   location permutations alike; an item whose lhs names machine 0 is
   not, so the check has teeth. *)
let test_items_equivariant () =
  let contexts =
    [
      (Machine.uniform 2, [ x1; x2 ]);
      (Machine.uniform 2, [ x1; x2; y1 ]);
      (Machine.uniform 3, [ x1; x2; x3 ]);
      (Machine.uniform 3, [ x1; x2; x3; y1 ]);
    ]
  in
  List.iter
    (fun (sys, locs) ->
      let ctx = Packed.make sys ~locs in
      Alcotest.(check bool) "the group is not trivial" true
        (Array.length (Sym.group ctx) > 0);
      List.iter
        (fun it ->
          match equivariance_failure ctx it with
          | None -> ()
          | Some what ->
              Alcotest.failf "item %d is not equivariant: %s" it.Props.id what)
        Props.items)
    contexts;
  let planted =
    { (Props.item 1) with lhs = (fun _ x v -> [ Label.rstore 0 x v ]) }
  in
  Alcotest.(check bool) "an item naming machine 0 is caught" true
    (equivariance_failure (Packed.make (Machine.uniform 2) ~locs:[ x1; x2 ])
       planted
    <> None)

(* ------------------------------------------------------------------ *)
(* QCheck: the algebra under the reductions                            *)
(* ------------------------------------------------------------------ *)

(* every store, load and flush over the given machines, locations and
   values, then a crash of each machine *)
let label_pool ~machines ~locs ~vals =
  List.concat_map
    (fun x ->
      List.concat_map
        (fun i ->
          List.concat_map
            (fun v ->
              [
                Label.lstore i x v; Label.rstore i x v; Label.mstore i x v;
                Label.load i x v;
              ])
            vals
          @ [ Label.lflush i x; Label.rflush i x ])
        machines)
    locs
  @ List.map Label.crash machines

let walk_domain n =
  let sys = Machine.uniform n in
  let locs = if n = 3 then [ x1; x2; x3; y1 ] else [ x1; x2; y1 ] in
  (sys, locs)

(* canon is idempotent, and constant on orbits: canon (apply p s) =
   canon s for every p in the group. *)
let prop_canon =
  QCheck.Test.make ~name:"canon is idempotent and permutation-invariant"
    ~count:150
    QCheck.(triple small_nat (int_bound 25) (int_range 2 3))
    (fun (seed, len, n) ->
      let sys, locs = walk_domain n in
      let vals = [ 0; 1 ] in
      let ctx = Packed.make sys ~locs in
      let g = Sym.group ctx in
      QCheck.assume (Array.length g > 0);
      let t = Lts_trace.random_walk ~seed ~len sys ~locs ~vals in
      List.for_all
        (fun cfg ->
          let st = Packed.of_config ctx cfg in
          let c = Sym.canon g st in
          Packed.equal c (Sym.canon g c)
          && Sym.is_canonical g c
          && Array.for_all
               (fun p -> Packed.equal c (Sym.canon g (Sym.apply p st)))
               g)
        (Lts_trace.configs t))

(* the action commutes with the step rules: apply ctx (Sym.apply p st) l
   under the permuted label equals Sym.apply p of the plain step *)
let prop_action_commutes =
  QCheck.Test.make ~name:"Sym.apply commutes with Packed.apply" ~count:150
    QCheck.(triple small_nat (int_bound 25) (int_range 2 3))
    (fun (seed, len, n) ->
      let sys, locs = walk_domain n in
      let vals = [ 0; 1 ] in
      let ctx = Packed.make sys ~locs in
      let g = Sym.group ctx in
      QCheck.assume (Array.length g > 0);
      let t = Lts_trace.random_walk ~seed ~len sys ~locs ~vals in
      let cfg = t.Lts_trace.final in
      let st = Packed.of_config ctx cfg in
      let labels = Lts_trace.candidates sys cfg ~locs ~vals in
      List.for_all
        (fun l ->
          Array.for_all
            (fun p ->
              let lhs =
                Packed.apply ctx (Sym.apply p st) (Sym.on_label ctx p l)
              in
              let rhs = Option.map (Sym.apply p) (Packed.apply ctx st l) in
              match (lhs, rhs) with
              | None, None -> true
              | Some a, Some b -> Packed.equal a b
              | _ -> false)
            g)
        labels)

(* Locality, the lemma the location restriction rests on: a τ-step on
   location y and a visible label on a location x <> y.  The τ-step
   neither enables nor disables the label, it is still enabled after
   the label, and both orders reach the same state. *)
let prop_locality =
  QCheck.Test.make ~name:"tau on y commutes with a label on x <> y"
    ~count:150
    QCheck.(triple small_nat (int_bound 25) (int_range 2 3))
    (fun (seed, len, n) ->
      let sys, locs = walk_domain n in
      let vals = [ 0; 1 ] in
      let ctx = Packed.make sys ~locs in
      let t = Lts_trace.random_walk ~seed ~len sys ~locs ~vals in
      let st = Packed.of_config ctx t.Lts_trace.final in
      let labels =
        label_pool ~machines:(Machine.ids sys) ~locs ~vals
        |> List.filter_map (fun l ->
               Option.map (fun x -> (l, Packed.loc_index ctx x)) (Label.loc l))
      in
      (* [s] after the τ-step [w -> w'] on location [yi], if enabled *)
      let tau s yi w w' =
        let enabled = ref false in
        if s.(yi) = w then
          Packed.word_taus ctx yi w (fun w'' -> if w'' = w' then enabled := true);
        if !enabled then begin
          let s' = Array.copy s in
          s'.(yi) <- w';
          Some s'
        end
        else None
      in
      let ok = ref true in
      Array.iteri
        (fun yi w ->
          Packed.word_taus ctx yi w (fun w' ->
              let st' = Option.get (tau st yi w w') in
              List.iter
                (fun (l, xi) ->
                  if xi <> yi then
                    match (Packed.apply ctx st l, Packed.apply ctx st' l) with
                    | None, None -> ()
                    | Some a, Some b -> (
                        match tau a yi w w' with
                        | Some ab when Packed.equal ab b -> ()
                        | _ -> ok := false)
                    | _ -> ok := false)
                labels))
        st;
      !ok)

(* ------------------------------------------------------------------ *)
(* Seeded random-system sweep                                          *)
(* ------------------------------------------------------------------ *)

let pp_sys_sexp ppf (sys, locs, labels) =
  let pp_m ppf i =
    Fmt.pf ppf "(M%d %s)" (i + 1)
      (if Machine.is_volatile sys i then "volatile" else "nv")
  in
  Fmt.pf ppf "@[<v>(system %a)@,(locs %a)@,(events %a)@]"
    Fmt.(list ~sep:sp pp_m)
    (Machine.ids sys)
    Fmt.(list ~sep:sp Loc.pp)
    locs
    Fmt.(list ~sep:(any "; ") Label.pp)
    labels

let random_system rng =
  let n = 2 + Random.State.int rng 2 in
  let sys =
    Machine.system
      (Array.init n (fun i ->
           Machine.make
             ~persistence:
               (if Random.State.bool rng then Machine.Non_volatile
                else Machine.Volatile)
             (Printf.sprintf "M%d" (i + 1))))
  in
  let n_locs = 1 + Random.State.int rng 3 in
  let locs =
    List.init n_locs (fun j -> Loc.v ~owner:(Random.State.int rng n) j)
  in
  (sys, locs)

let random_events rng sys locs =
  let pool =
    Array.of_list
      (label_pool
         ~machines:(List.init (Machine.n_machines sys) Fun.id)
         ~locs ~vals:[ 0; 1 ])
  in
  let len = 1 + Random.State.int rng 5 in
  List.init len (fun _ -> pool.(Random.State.int rng (Array.length pool)))

(* both engines' verdicts on one random instance; [None] = they agree *)
let verdicts sys locs labels =
  let reference = Explore.feasible sys Config.init labels in
  let fast =
    let ctx = Packed.make sys ~locs in
    Explore.Fast.feasible (Explore.Fast.create ctx) (Packed.init ctx) labels
  in
  if fast = reference then None
  else Some [ ("oracle", reference); ("engine", fast) ]

(* greedy shrink: drop events while the disagreement persists *)
let rec shrink sys locs labels =
  let len = List.length labels in
  let rec try_drop i =
    if i >= len then labels
    else
      let shorter = List.filteri (fun j _ -> j <> i) labels in
      if verdicts sys locs shorter <> None then shrink sys locs shorter
      else try_drop (i + 1)
  in
  if len = 0 then labels else try_drop 0

let test_random_sweep () =
  for seed = 0 to 49 do
    let rng = Random.State.make [| 0xC0FFEE; seed |] in
    let sys, locs = random_system rng in
    let labels = random_events rng sys locs in
    match verdicts sys locs labels with
    | None -> ()
    | Some got ->
        let small = shrink sys locs labels in
        Alcotest.failf
          "seed %d: engines disagree (%a)@.shrunk instance:@.%a" seed
          Fmt.(
            list ~sep:comma (fun ppf (n, v) -> Fmt.pf ppf "%s=%b" n v))
          got pp_sys_sexp (sys, locs, small)
  done

(* ------------------------------------------------------------------ *)
(* Random items: the local first pass against the two-run check        *)
(* ------------------------------------------------------------------ *)

(* A random item picks its labels from the [random_events] pool over the
   issuer [i] and the owner of [x], the location [x], and the values [v]
   and [1 - v].  The pool has the same layout for every instantiation,
   so the item is a list of pool positions per side, and it is
   equivariant (it names machines and locations only through [i] and
   [x]), as orbit skipping requires. *)
let item_pool i x v =
  Array.of_list
    (label_pool ~machines:[ i; Loc.owner x ] ~locs:[ x ] ~vals:[ v; 1 - v ])

let pool_size = Array.length (item_pool 0 x1 0)

type spec = { lhs_ix : int list; rhs_ix : int list; issuers_ix : int }

let issuer_policies =
  [|
    ("all", Props.all_machines);
    ("non-owners", Props.non_owners);
    ("owner", Props.owner_only);
  |]

let item_of spec =
  let side ix i x v =
    let pool = item_pool i x v in
    List.map (fun j -> pool.(j)) ix
  in
  {
    Props.id = 100;
    name = "random item";
    lhs = side spec.lhs_ix;
    rhs = side spec.rhs_ix;
    issuers = snd issuer_policies.(spec.issuers_ix);
  }

(* the pool positions of the loads and flushes *)
let observers =
  item_pool 0 x1 0 |> Array.to_list
  |> List.mapi (fun j l -> (j, l))
  |> List.filter_map (fun (j, (l : Label.t)) ->
         match l with Label.Load _ | Label.Flush _ -> Some j | _ -> None)
  |> Array.of_list

(* Half the lhs sides are two labels ending in a load or a flush.
   Whether a load or a flush is enabled depends on the caches, which
   the τ-steps between the labels drain, so this shape exposes a first
   pass that drops those τ-steps. *)
let random_spec rng =
  let side () =
    List.init
      (1 + Random.State.int rng 2)
      (fun _ -> Random.State.int rng pool_size)
  in
  let lhs_ix =
    if Random.State.bool rng then
      let first = Random.State.int rng pool_size in
      [ first; observers.(Random.State.int rng (Array.length observers)) ]
    else side ()
  in
  let rhs_ix = side () in
  { lhs_ix; rhs_ix; issuers_ix = Random.State.int rng 3 }

let pp_spec ppf (sys, locs, spec) =
  let it = item_of spec in
  let x = List.hd locs in
  Fmt.pf ppf "%a@,(issuers %s)@,(lhs %a)@,(rhs %a)  (shown at i = M1, x = %a, v = 0)"
    pp_sys_sexp (sys, locs, [])
    (fst issuer_policies.(spec.issuers_ix))
    Fmt.(list ~sep:(any "; ") Label.pp)
    (it.Props.lhs 0 x 0)
    Fmt.(list ~sep:(any "; ") Label.pp)
    (it.Props.rhs 0 x 0) Loc.pp x

(* The item's verdict from the reference engine's two-run check (two
   reachable sets per start and instantiation, compared by inclusion;
   {!Props.check_item}, stopping at the first failing start) against
   the verdict of the sweep's first pass.  Returns the two-run verdict
   and the disagreement, if any. *)
let item_disagreement sys locs spec =
  let vals = [ 0; 1 ] and it = item_of spec in
  let oracle_fails =
    Seq.exists
      (fun cfg -> Props.check_item sys it cfg ~locs ~vals <> None)
      (Props.enum_configs_seq sys ~locs ~vals)
  in
  let verdict fails = if fails then "fails" else "holds" in
  let fs, stats = Props.check_exhaustive_stats ~items:[ it ] sys ~locs ~vals in
  let local_fails = stats.Props.sweep_rechecked <> [] in
  ( oracle_fails,
    if local_fails = oracle_fails && (fs <> []) = oracle_fails then None
    else
      Some
        (Fmt.str "first pass says %s (%d failures), two-run check says %s"
           (verdict local_fails) (List.length fs) (verdict oracle_fails)) )

(* greedy shrink: drop labels (keeping one per side) and locations
   (keeping one) while the disagreement persists *)
let rec shrink_item sys locs spec =
  let drops l = List.mapi (fun i _ -> List.filteri (fun j _ -> j <> i) l) l in
  let smaller =
    List.map (fun lhs_ix -> (locs, { spec with lhs_ix })) (drops spec.lhs_ix)
    @ List.map (fun rhs_ix -> (locs, { spec with rhs_ix })) (drops spec.rhs_ix)
    @ List.map (fun locs -> (locs, spec)) (drops locs)
  in
  match
    List.find_opt
      (fun (locs, spec) ->
        locs <> [] && spec.lhs_ix <> [] && spec.rhs_ix <> []
        && snd (item_disagreement sys locs spec) <> None)
      smaller
  with
  | Some (locs, spec) -> shrink_item sys locs spec
  | None -> (locs, spec)

(* 40 seeded items on [random_system] domains.  Five of the draws are
   3-machine, 3-location domains (27000 starts), which take the test
   from 5 s to over a minute (all 40 agree uncapped too), so such a
   draw drops its last location (900 starts); every other draw is kept
   as it is. *)
let test_random_items () =
  let failing = ref 0 in
  for seed = 0 to 39 do
    let rng = Random.State.make [| 0x1EAF; seed |] in
    let sys, locs = random_system rng in
    let locs =
      if Props.enum_configs_count sys ~locs ~vals:[ 0; 1 ] > 2744 then
        List.filteri (fun j _ -> j < 2) locs
      else locs
    in
    let spec = random_spec rng in
    match item_disagreement sys locs spec with
    | fails, None -> if fails then incr failing
    | _, Some what ->
        let locs, spec = shrink_item sys locs spec in
        Alcotest.failf "seed %d: %s@.shrunk instance:@.@[<v>%a@]" seed what
          pp_spec (sys, locs, spec)
  done;
  (* both verdicts occur, so the comparison is not vacuous *)
  Alcotest.(check bool) "some random items fail" true (!failing > 0);
  Alcotest.(check bool) "some random items hold" true (!failing < 40)

(* ------------------------------------------------------------------ *)
(* Memory-bounded enumeration                                          *)
(* ------------------------------------------------------------------ *)

(* the streaming enumeration must not materialise the domain: forcing a
   handful of configurations of an 810k-config domain stays in the
   kilobyte range (the eager list was hundreds of megabytes) *)
let test_enum_streaming () =
  let sys = Machine.uniform 3
  and locs = [ x1; x2; x3; y1 ]
  and vals = [ 0; 1 ] in
  let total = Props.enum_configs_count sys ~locs ~vals in
  Alcotest.(check int) "domain size" 810000 total;
  let before = Gc.allocated_bytes () in
  let seq = Props.enum_configs_seq sys ~locs ~vals in
  let first10 = List.of_seq (Seq.take 10 seq) in
  let allocated = Gc.allocated_bytes () -. before in
  Alcotest.(check int) "got 10 configs" 10 (List.length first10);
  if allocated > 2_000_000. then
    Alcotest.failf "streaming enumeration allocated %.0f bytes" allocated;
  (* random access near the end of the domain is O(#locs) too *)
  let before = Gc.allocated_bytes () in
  for i = 0 to 99 do
    ignore (Props.enum_config_nth sys ~locs ~vals (total - 1 - i))
  done;
  let allocated = Gc.allocated_bytes () -. before in
  if allocated > 2_000_000. then
    Alcotest.failf "enum_config_nth allocated %.0f bytes per 100 calls"
      allocated

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "cxl0-reduction"
    [
      ( "litmus-files",
        [
          Alcotest.test_case "verdicts: all reductions = oracle = paper"
            `Quick test_litmus_verdicts;
          Alcotest.test_case "search refuses more labels than phase bits"
            `Quick test_too_many_labels;
        ] );
      ( "prop-sweeps",
        [
          Alcotest.test_case "sweep = oracle (N=2, N=3)" `Slow
            test_sweep_differential;
          Alcotest.test_case "failing item: fallback is byte-identical" `Slow
            test_sweep_failing_item;
          Alcotest.test_case "orbit skipping counts (N=3 full domain)" `Slow
            test_sweep_stats;
          Alcotest.test_case "the eight items are equivariant" `Quick
            test_items_equivariant;
        ] );
      ( "qcheck",
        [
          QCheck_alcotest.to_alcotest prop_canon;
          QCheck_alcotest.to_alcotest prop_action_commutes;
          QCheck_alcotest.to_alcotest prop_locality;
        ] );
      ( "random-systems",
        [
          Alcotest.test_case "50 seeded systems: verdicts agree" `Slow
            test_random_sweep;
          Alcotest.test_case "40 random items: first pass = two-run check"
            `Slow test_random_items;
        ] );
      ( "memory",
        [
          Alcotest.test_case "enumeration is streaming" `Quick
            test_enum_streaming;
        ] );
    ]
