(** Mechanical checking of Proposition 1 (§3.3).

    The paper proves (in Coq) eight simulation statements between labelled
    action sequences, e.g. "RStore is stronger than LStore": every
    configuration reachable via [RStoreᵢ(x,v)] (with interleaved τ-steps)
    is also reachable via [LStoreᵢ(x,v)].  We reproduce the mechanisation
    by *bounded model checking*: for a given system and starting
    configuration, the reachable sets of both sequences are computed and
    compared for inclusion.  {!check_exhaustive} does this from *every*
    invariant-satisfying configuration over small domains; the test-suite
    additionally samples random larger instances.

    Since every step rule treats locations and values uniformly (no rule
    inspects a value or compares distinct locations beyond equality and
    ownership), a violation at any scale would already manifest at small
    scale, so exhaustion over N ≤ 3 machines / ≤ 3 locations / 2 values
    gives high confidence — this is the standard small-scope argument.

    Two engines back the sweep.  The default path runs on the bit-packed
    representation ({!Packed}) with a per-worker τ-successor memo cache
    and an optional domain-parallel driver ({!Parallel}) sharding start
    configurations across cores; {!check_exhaustive_reference} is the
    original map-set implementation, kept as the differential oracle and
    the benchmark baseline.  Both return failures in the same
    deterministic order (item-major, then start-configuration order), so
    sequential, parallel and reference runs are comparable verbatim. *)

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

(** [check_item sys it cfg ~locs ~vals] checks item [it] from [cfg] for
    every issuer/location/value instantiation over [locs]/[vals], with
    the reference map-set engine.  Returns the first failure found, if
    any. *)
let check_item sys it cfg ~locs ~vals : failure option =
  let n = Machine.n_machines sys in
  let exception Found of failure in
  try
    List.iter
      (fun x ->
        let issuers = it.issuers ~owner:(Loc.owner x) ~n in
        List.iter
          (fun i ->
            List.iter
              (fun v ->
                let r_lhs = Explore.run sys cfg (it.lhs i x v) in
                let r_rhs = Explore.run sys cfg (it.rhs i x v) in
                if not (Explore.subset r_lhs r_rhs) then
                  let witness =
                    Config.Set.min_elt (Config.Set.diff r_lhs r_rhs)
                  in
                  raise
                    (Found
                       {
                         item_id = it.id;
                         start = cfg;
                         issuer = i;
                         location = x;
                         value = v;
                         witness;
                       }))
              vals)
          issuers)
      locs;
    None
  with Found f -> Some f

(** [check_item_packed cache it pc ~locs ~vals] — same check on the
    packed engine, sharing [cache]'s τ-successor memo across all
    instantiations (and across calls).  Iteration order, and hence the
    failure reported, is identical to {!check_item} when the cache is
    unreduced.  With a sym-reducing cache, both runs of an
    instantiation share one stabilizer group (of the start and the
    union of both label lists) so the subset verdict is still exact;
    only the reported witness is then canonical up to symmetry. *)
let check_item_packed cache it (pc : Packed.t) ~locs ~vals : failure option =
  let ctx = Explore.Fast.ctx cache in
  let n = Machine.n_machines (Packed.system ctx) in
  let exception Found of failure in
  try
    List.iter
      (fun x ->
        let issuers = it.issuers ~owner:(Loc.owner x) ~n in
        List.iter
          (fun i ->
            List.iter
              (fun v ->
                let lhs = it.lhs i x v and rhs = it.rhs i x v in
                let group =
                  Explore.Fast.sym_group cache ~fixing:(lhs @ rhs) pc
                in
                let r_lhs = Explore.Fast.run ~group cache pc lhs in
                let r_rhs = Explore.Fast.run ~group cache pc rhs in
                if not (Explore.Fast.subset r_lhs r_rhs) then
                  let witness =
                    (* the minimum of the diff under Config.compare —
                       exactly the reference engine's min_elt *)
                    Explore.Fast.diff_elements r_lhs r_rhs
                    |> List.map (Packed.to_config ctx)
                    |> function
                    | [] -> assert false
                    | c :: cs ->
                        List.fold_left
                          (fun best c ->
                            if Config.compare c best < 0 then c else best)
                          c cs
                  in
                  raise
                    (Found
                       {
                         item_id = it.id;
                         start = Packed.to_config ctx pc;
                         issuer = i;
                         location = x;
                         value = v;
                         witness;
                       }))
              vals)
          issuers)
      locs;
    None
  with Found f -> Some f

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
    sequential map-set sweep, kept as the differential oracle and
    benchmark baseline.  Configurations are streamed per item through
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
  sweep_states : int;        (** engine reachable-set insertions *)
  sweep_transitions : int;   (** engine τ-successors + label applications *)
}

(* Sum the engine counters of every worker cache created by one sweep.
   Caches are registered from worker domains; lock-free prepend. *)
let collect_caches () =
  let caches = Atomic.make [] in
  let register c =
    let rec go () =
      let old = Atomic.get caches in
      if not (Atomic.compare_and_set caches old (c :: old)) then go ()
    in
    go ();
    c
  in
  let totals () =
    List.fold_left
      (fun (s, t) c ->
        let st = Explore.Fast.stats c in
        (s + st.Explore.Fast.states, t + st.Explore.Fast.transitions))
      (0, 0) (Atomic.get caches)
  in
  (register, totals)

(** [check_exhaustive_stats sys ~locs ~vals] checks all eight items from
    every invariant-satisfying configuration.  Returns all failures
    (empty list = Proposition 1 validated over this bounded domain) in a
    deterministic order independent of [jobs] and [reduction], plus
    sweep statistics.

    Runs on the packed engine, sharding start configurations over [jobs]
    domains (each worker owns a private τ-memo cache); falls back to the
    reference engine when the domain does not fit the packed layout.

    [reduction] (default {!Explore.Fast.full_reduction}) prunes the
    sweep two ways without changing its result:

    - {e orbit skipping}: the items quantify over every issuer, location
      and value, and the issuer policies are ownership-based, so "item
      [it] holds from start [γ]" is invariant under the context's
      {!Sym.group} — only orbit-representative starts are checked.
    - {e reduced runs}: each representative's runs use sleep-set POR and
      per-instantiation stabilizer canonicalisation ({!check_item_packed}),
      which preserve the subset verdict exactly.

    Exactness of the returned failure list does not rest on the checks
    alone: any item that fails at any representative is re-checked
    {e unreduced} over the full domain, reproducing the reference
    engine's failures (including witnesses) byte-identically.  Items
    that pass at every representative pass everywhere by equivariance
    and contribute no failures — so reduced and unreduced sweeps always
    agree verbatim, at any [jobs]. *)
let check_exhaustive_stats ?(items = items) ?(jobs = 1)
    ?(reduction = Explore.Fast.full_reduction) sys ~locs ~vals :
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
        } )
  | Some ctx ->
      let items_a = Array.of_list items in
      let n_items = Array.length items_a in
      let register, totals = collect_caches () in
      let g = if reduction.Explore.Fast.sym then Sym.group ctx else [||] in
      let starts = Atomic.make 0 in
      let rows =
        Parallel.map_chunked ~jobs total
          ~init:(fun () ->
            register (Explore.Fast.create ~reduction (Packed.make sys ~locs)))
          ~f:(fun cache m ->
            let pc = enum_packed_nth (Explore.Fast.ctx cache) ~vals m in
            if not (Sym.is_canonical g pc) then None
            else begin
              Atomic.incr starts;
              Some
                (Array.map
                   (fun it -> check_item_packed cache it pc ~locs ~vals)
                   items_a)
            end)
      in
      let dirty =
        Array.init n_items (fun j ->
            Array.exists
              (function Some row -> row.(j) <> None | None -> false)
              rows)
      in
      let failures =
        if not (Array.exists Fun.id dirty) then []
        else begin
          (* Exact-failure fallback: re-check every dirty item over the
             whole domain with the unreduced packed engine (differentially
             identical to the reference), so witnesses and ordering match
             the oracle byte for byte. *)
          let cache = Explore.Fast.create (Packed.make sys ~locs) in
          let fctx = Explore.Fast.ctx cache in
          List.concat
            (List.init n_items (fun j ->
                 if not dirty.(j) then []
                 else
                   let it = items_a.(j) in
                   Seq.init total (fun m -> enum_packed_nth fctx ~vals m)
                   |> Seq.filter_map (fun pc ->
                          check_item_packed cache it pc ~locs ~vals)
                   |> List.of_seq))
        end
      in
      let states, transitions = totals () in
      ( failures,
        {
          sweep_configs = total;
          sweep_starts = Atomic.get starts;
          sweep_states = states;
          sweep_transitions = transitions;
        } )

let check_exhaustive ?items ?jobs ?reduction sys ~locs ~vals : failure list =
  fst (check_exhaustive_stats ?items ?jobs ?reduction sys ~locs ~vals)

(** Default bounded domain: 2 NV machines, one location each, values
    {0, 1}.  [check_default ()] is the entry point used by the CLI. *)
let check_default () =
  let sys = Machine.uniform 2 in
  let locs = [ Loc.v ~owner:0 0; Loc.v ~owner:1 0 ] in
  let vals = [ 0; 1 ] in
  (sys, check_exhaustive sys ~locs ~vals)
