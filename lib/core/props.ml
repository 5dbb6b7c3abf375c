(** Mechanical checking of Proposition 1 (§3.3).

    The paper proves (in Coq) eight simulation statements between labelled
    action sequences, e.g. "RStore is stronger than LStore": every
    configuration reachable via [RStoreᵢ(x,v)] (with interleaved τ-steps)
    is also reachable via [LStoreᵢ(x,v)].  We reproduce the mechanisation
    by *bounded model checking*: for a given system and starting
    configuration, the reachable sets of both sequences are computed and
    compared for inclusion ({!check_item}).  {!check_exhaustive} decides
    this for *every* invariant-satisfying configuration over small
    domains; the test-suite additionally samples random larger instances.

    Since every step rule treats locations and values uniformly (no rule
    inspects a value or compares distinct locations beyond equality and
    ownership), a violation at any scale would already manifest at small
    scale, so exhaustion over N ≤ 4 machines / ≤ 3 locations / 2 values
    gives high confidence — this is the standard small-scope argument.

    Two engines back the sweep.  Its first pass runs on the bit-packed
    representation ({!Packed}) with an optional domain-parallel driver
    ({!Parallel}) sharding start configurations across cores, and
    decides each item by an equivalent local condition, one membership
    query per lhs successor ({!holds_locally}).
    {!check_exhaustive_reference} is the original map-set
    implementation, kept as the differential oracle; an item that fails
    the first pass is re-checked by it, so failures come only from the
    reference engine, in one deterministic order (item-major, then
    start-configuration order) for every [jobs]. *)

type item = {
  id : int;          (** item number within Proposition 1 *)
  name : string;
  (* [lhs]/[rhs] build the two label sequences from (i, x, v); the
     statement is R_lhs(γ) ⊆ R_rhs(γ) for all γ and valid (i, x, v). *)
  lhs : Machine.id -> Loc.t -> Value.t -> Label.t list;
  rhs : Machine.id -> Loc.t -> Value.t -> Label.t list;
  (* Which issuing machines the item quantifies over, given the owner
     [k] of [x] and the system size. *)
  issuers : owner:Machine.id -> n:int -> Machine.id list;
}

let all_machines ~owner:_ ~n = List.init n Fun.id
let non_owners ~owner ~n = List.filter (fun i -> i <> owner) (List.init n Fun.id)
let owner_only ~owner ~n:_ = [ owner ]

(** The eight items of Proposition 1, in the paper's order and numbering. *)
let items : item list =
  [
    {
      id = 1;
      name = "RStore is stronger than LStore";
      lhs = (fun i x v -> [ Label.rstore i x v ]);
      rhs = (fun i x v -> [ Label.lstore i x v ]);
      issuers = all_machines;
    };
    {
      id = 2;
      name = "RStore and LStore by the owner are equivalent";
      lhs = (fun k x v -> [ Label.lstore k x v ]);
      rhs = (fun k x v -> [ Label.rstore k x v ]);
      issuers = owner_only;
    };
    {
      id = 3;
      name = "MStore is stronger than RStore";
      lhs = (fun i x v -> [ Label.mstore i x v ]);
      rhs = (fun i x v -> [ Label.rstore i x v ]);
      issuers = all_machines;
    };
    {
      id = 4;
      name = "RFlush is stronger than LFlush";
      lhs = (fun i x _ -> [ Label.rflush i x ]);
      rhs = (fun i x _ -> [ Label.lflush i x ]);
      issuers = all_machines;
    };
    {
      id = 5;
      name = "LFlush after RStore by non-owner is redundant";
      lhs = (fun j x v -> [ Label.rstore j x v ]);
      rhs = (fun j x v -> [ Label.rstore j x v; Label.lflush j x ]);
      issuers = non_owners;
    };
    {
      id = 6;
      name = "RFlush after MStore is redundant";
      lhs = (fun i x v -> [ Label.mstore i x v ]);
      rhs = (fun i x v -> [ Label.mstore i x v; Label.rflush i x ]);
      issuers = all_machines;
    };
    {
      id = 7;
      name = "RStore by non-owner is simulated by LStore and LFlush";
      lhs = (fun j x v -> [ Label.lstore j x v; Label.lflush j x ]);
      rhs = (fun j x v -> [ Label.rstore j x v ]);
      issuers = non_owners;
    };
    {
      id = 8;
      name = "MStore is simulated by LStore and RFlush";
      lhs = (fun i x v -> [ Label.lstore i x v; Label.rflush i x ]);
      rhs = (fun i x v -> [ Label.mstore i x v ]);
      issuers = all_machines;
    };
  ]

let item id = List.find (fun it -> it.id = id) items

(* ------------------------------------------------------------------ *)
(* Checking                                                            *)
(* ------------------------------------------------------------------ *)

type failure = {
  item_id : int;
  start : Config.t;
  issuer : Machine.id;
  location : Loc.t;
  value : Value.t;
  witness : Config.t;  (** reachable via lhs but not via rhs *)
}

let failure_equal a b =
  a.item_id = b.item_id
  && Config.equal a.start b.start
  && a.issuer = b.issuer
  && Loc.equal a.location b.location
  && Value.equal a.value b.value
  && Config.equal a.witness b.witness

let pp_failure ppf f =
  Fmt.pf ppf
    "Prop1(%d) fails: from %a, issuer M%d, loc %a, value %a: %a reachable \
     via lhs only"
    f.item_id Config.pp f.start (f.issuer + 1) Loc.pp f.location Value.pp
    f.value Config.pp f.witness

(* [first_instance it ~n ~locs ~vals f] — [f i x v] for every instantiation
   of item [it], in the reference engine's order, stopping at the first
   [Some]. *)
let first_instance it ~n ~locs ~vals f =
  List.find_map
    (fun x ->
      List.find_map
        (fun i -> List.find_map (fun v -> f i x v) vals)
        (it.issuers ~owner:(Loc.owner x) ~n))
    locs

(** [check_item sys it cfg ~locs ~vals] checks item [it] from [cfg] for
    every issuer/location/value instantiation over [locs]/[vals], with
    the reference map-set engine.  Returns the first failure found, if
    any. *)
let check_item sys it cfg ~locs ~vals : failure option =
  first_instance it ~n:(Machine.n_machines sys) ~locs ~vals (fun i x v ->
      let r_lhs = Explore.run sys cfg (it.lhs i x v) in
      let r_rhs = Explore.run sys cfg (it.rhs i x v) in
      if Explore.subset r_lhs r_rhs then None
      else
        Some
          {
            item_id = it.id;
            start = cfg;
            issuer = i;
            location = x;
            value = v;
            witness = Config.Set.min_elt (Config.Set.diff r_lhs r_rhs);
          })

(* [holds_locally cache it pc ~locs ~vals] — the sweep's first pass at
   one start [c = pc]: for every instantiation, every state of
   [ℓ_m(τ*_X(… ℓ_1(c)))] ({!Explore.Fast.images} of the lhs) is in
   [R_rhs(c)] ({!Explore.Fast.reaches}).  Over a τ-closed domain this
   holds at every start iff the item does (DESIGN, "Proposition 1 as a
   local condition"). *)
let holds_locally cache it (pc : Packed.t) ~locs ~vals =
  let n = Machine.n_machines (Packed.system (Explore.Fast.ctx cache)) in
  first_instance it ~n ~locs ~vals (fun i x v ->
      let rhs = it.rhs i x v in
      List.find_opt
        (fun d -> not (Explore.Fast.reaches cache pc rhs d))
        (Explore.Fast.images cache pc (it.lhs i x v)))
  = None

(* ------------------------------------------------------------------ *)
(* Configuration enumeration                                           *)
(* ------------------------------------------------------------------ *)

(* The invariant-satisfying configurations over [locs]/[vals] factor per
   location: either no cache holds it, or a non-empty holder set shares
   one cached value; the owner's memory holds any value.  We *rank* this
   space — per-location choices are digits of a mixed-radix index — so
   the n-th configuration is computed in O(#locs) without materialising
   the full list.  The parallel driver shards index ranges; [Seq]
   consumers stream. *)

(* Per-location choice decoding, preserving the historical enumeration
   order: cached-choice-major (None first, then (value, holder-mask)
   pairs value-major), memory-value-minor. *)
let per_loc_choices ~n ~nvals = nvals * (1 + (nvals * ((1 lsl n) - 1)))

let decode_choice ~n ~(vals : Value.t array) d =
  let nvals = Array.length vals in
  let nmasks = (1 lsl n) - 1 in
  let mv = vals.(d mod nvals) in
  let ci = d / nvals in
  let cached =
    if ci = 0 then None
    else
      let ci = ci - 1 in
      Some (vals.(ci / nmasks), (ci mod nmasks) + 1)
  in
  (cached, mv)

(* [per_loc_choices] to the power [#locs], in checked arithmetic: a
   wrapped count would silently sweep a wrong (even empty) domain. *)
let enum_configs_count sys ~locs ~vals =
  let too_large () = invalid_arg "Props.enum_configs_count: domain too large" in
  let mul a b = if a <> 0 && b > max_int / a then too_large () else a * b in
  let n = Machine.n_machines sys and nvals = List.length vals in
  if n > Sys.int_size - 2 then too_large ();
  let c = mul nvals (1 + mul nvals ((1 lsl n) - 1)) in
  List.fold_left (fun acc _ -> mul acc c) 1 locs

(** [enum_config_nth sys ~locs ~vals m] — the [m]-th configuration of
    the enumeration, [0 <= m < enum_configs_count]. *)
let enum_config_nth sys ~locs ~vals m : Config.t =
  let n = Machine.n_machines sys in
  let vals_a = Array.of_list vals in
  let locs_a = Array.of_list locs in
  let k = Array.length locs_a in
  let c = per_loc_choices ~n ~nvals:(Array.length vals_a) in
  let cfg = ref Config.init in
  let m = ref m in
  (* the first location is the most significant digit *)
  for xi = k - 1 downto 0 do
    let d = !m mod c in
    m := !m / c;
    let x = locs_a.(xi) in
    let cached, mv = decode_choice ~n ~vals:vals_a d in
    cfg := Config.mem_set !cfg x mv;
    match cached with
    | None -> ()
    | Some (v, mask) ->
        Packed.iter_bits (fun i -> cfg := Config.cache_set !cfg i x v) mask
  done;
  !cfg

(** [enum_packed_nth ctx ~vals m] — the same configuration, built
    directly in packed form (no maps on the hot path). *)
let enum_packed_nth ctx ~vals m : Packed.t =
  let n = Machine.n_machines (Packed.system ctx) in
  let vals_a = Array.of_list vals in
  let k = Packed.n_locs ctx in
  let c = per_loc_choices ~n ~nvals:(Array.length vals_a) in
  let pc = Packed.init ctx in
  let m = ref m in
  for xi = k - 1 downto 0 do
    let d = !m mod c in
    m := !m / c;
    let cached, mv = decode_choice ~n ~vals:vals_a d in
    let holders, cv = match cached with None -> (0, 0) | Some (v, mask) -> (mask, v) in
    pc.(xi) <- Packed.word ctx ~holders ~cval:cv ~mem:mv
  done;
  pc

(** [enum_configs_seq sys ~locs ~vals] streams every invariant-satisfying
    configuration without materialising the list. *)
let enum_configs_seq sys ~locs ~vals : Config.t Seq.t =
  let total = enum_configs_count sys ~locs ~vals in
  Seq.init total (enum_config_nth sys ~locs ~vals)

(** [enum_configs sys ~locs ~vals] — the full list (prefer
    {!enum_configs_seq} or index-based access for large domains). *)
let enum_configs sys ~locs ~vals : Config.t list =
  List.of_seq (enum_configs_seq sys ~locs ~vals)

(* ------------------------------------------------------------------ *)
(* Exhaustive sweeps                                                   *)
(* ------------------------------------------------------------------ *)

(** [check_exhaustive_reference sys ~locs ~vals] — the original
    sequential map-set sweep, kept as the differential oracle and run
    by {!check_exhaustive_stats} on the items its first pass finds
    failing.  Configurations are streamed per item through
    {!enum_configs_seq} rather than materialised once up front: on the
    N=3 domains the eager list kept hundreds of thousands of map-backed
    configurations live for the whole sweep, dominating peak memory. *)
let check_exhaustive_reference ?(items = items) sys ~locs ~vals : failure list =
  List.concat_map
    (fun it ->
      enum_configs_seq sys ~locs ~vals
      |> Seq.filter_map (fun cfg -> check_item sys it cfg ~locs ~vals)
      |> List.of_seq)
    items

type sweep_stats = {
  sweep_configs : int;       (** size of the enumerated domain *)
  sweep_starts : int;        (** start configurations actually checked *)
  sweep_states : int;        (** states the first pass visited *)
  sweep_transitions : int;   (** τ-successors + label applications *)
  sweep_rechecked : int list;
      (** ids of the items the first pass found failing, which the
          reference sweep re-checked *)
}

(* One sweep worker: a private cache (its counters are the sweep's
   statistics) and the items it found failing.  Workers are registered
   from their domains; lock-free prepend. *)
type worker = { cache : Explore.Fast.cache; dirty : bool array }

let collect_workers () =
  let workers = Atomic.make [] in
  let rec register w =
    let old = Atomic.get workers in
    if Atomic.compare_and_set workers old (w :: old) then w else register w
  in
  (register, fun () -> Atomic.get workers)

(** [check_exhaustive_stats sys ~locs ~vals] checks all eight items from
    every invariant-satisfying configuration.  Returns all failures
    (empty list = Proposition 1 validated over this bounded domain) in a
    deterministic order independent of [jobs], plus sweep statistics.

    Runs on the packed engine, sharding start configurations over [jobs]
    domains (each worker owns a private cache); falls back to the
    reference engine when the domain does not fit the packed layout.

    The first pass decides each item by a {e local} condition instead of
    comparing two reachable sets per start: at every start [c] and
    instantiation, each state of [ℓ_m(τ*_X(… ℓ_1(c)))] must be in
    [R_rhs(c)], one first-hit membership query each
    ({!holds_locally}).  The domain is τ-closed, so this holds at
    every start iff [R_lhs(γ) ⊆ R_rhs(γ)] does (DESIGN, "Proposition 1
    as a local condition").

    Two reductions prune the first pass without changing its verdicts:

    - {e orbit skipping}: the items are equivariant (see {!item}), so
      the local condition at [c] is invariant under the context's
      {!Sym.group} — only orbit-representative starts are checked.
    - {e location restriction}: the τ-steps between labels are explored
      only on the labels' locations X; steps elsewhere commute with
      every label ({!Explore.Fast.images}).

    The first pass yields verdicts, not failures: the items it finds
    failing are re-checked by {!check_exhaustive_reference}, so the
    failures (witnesses included) are the reference engine's and every
    [jobs] returns the same list. *)
let check_exhaustive_stats ?(items = items) ?(jobs = 1) sys ~locs ~vals :
    failure list * sweep_stats =
  let packed_ctx =
    match Packed.make sys ~locs with
    | ctx when List.for_all (Packed.fits_value ctx) vals -> Some ctx
    | _ -> None
    | exception Packed.Unrepresentable _ -> None
  in
  let total = enum_configs_count sys ~locs ~vals in
  match packed_ctx with
  | None ->
      let fs = check_exhaustive_reference ~items sys ~locs ~vals in
      ( fs,
        {
          sweep_configs = total;
          sweep_starts = total;
          sweep_states = 0;
          sweep_transitions = 0;
          sweep_rechecked = [];
        } )
  | Some ctx ->
      let items_a = Array.of_list items in
      let n_items = Array.length items_a in
      let register, workers = collect_workers () in
      let g = Sym.group ctx in
      let starts = Atomic.make 0 in
      ignore
        (Parallel.map_chunked ~jobs total
           ~init:(fun () ->
             register
               {
                 cache = Explore.Fast.create (Packed.make sys ~locs);
                 dirty = Array.make n_items false;
               })
           ~f:(fun w m ->
             let pc = enum_packed_nth (Explore.Fast.ctx w.cache) ~vals m in
             if Sym.is_canonical g pc then begin
               Atomic.incr starts;
               Array.iteri
                 (fun j it ->
                   if not (holds_locally w.cache it pc ~locs ~vals) then
                     w.dirty.(j) <- true)
                 items_a
             end)
          : unit array);
      let workers = workers () in
      let dirty_items =
        List.filteri
          (fun j _ -> List.exists (fun w -> w.dirty.(j)) workers)
          items
      in
      let failures =
        check_exhaustive_reference ~items:dirty_items sys ~locs ~vals
      in
      let sum f =
        List.fold_left (fun acc w -> acc + f (Explore.Fast.stats w.cache)) 0
          workers
      in
      ( failures,
        {
          sweep_configs = total;
          sweep_starts = Atomic.get starts;
          sweep_states = sum (fun s -> s.Explore.Fast.states);
          sweep_transitions = sum (fun s -> s.Explore.Fast.transitions);
          sweep_rechecked = List.map (fun it -> it.id) dirty_items;
        } )

let check_exhaustive ?items ?jobs sys ~locs ~vals : failure list =
  fst (check_exhaustive_stats ?items ?jobs sys ~locs ~vals)

(** Default bounded domain: 2 NV machines, one location each, values
    {0, 1}.  [check_default ()] is the entry point used by the CLI. *)
let check_default () =
  let sys = Machine.uniform 2 in
  let locs = [ Loc.v ~owner:0 0; Loc.v ~owner:1 0 ] in
  let vals = [ 0; 1 ] in
  (sys, check_exhaustive sys ~locs ~vals)
