(** Reachable-set exploration for the CXL0 LTS.

    The paper writes [γ ⟹^{α₁…αₙ} γ'] for a sequence of transitions
    labelled [α₁ … αₙ] *possibly interleaved with additional silent
    τ-steps*.  This module computes the corresponding reachable sets:
    starting from a set of configurations, saturate with τ-steps, apply a
    visible label to every member, saturate again, and so on.  Because
    flushes are modelled as blocking preconditions, applying a flush label
    simply *filters* the τ-saturated set.

    Two engines implement the same exploration:

    - the {e reference} engine below works on {!Config.Set.t} over the
      canonical map-based {!Config.t} — easy to audit, kept as the
      differential-testing oracle;
    - {!Fast} works on bit-packed {!Packed.t} states with a
      [Hashtbl]-backed visited set and a τ-successor memo cache shared
      across runs — the hot path of the litmus sweeps — plus the
      membership queries of the {!Props.check_exhaustive} sweep
      ({!Fast.images}, {!Fast.reaches}). *)

type t = Config.Set.t

let of_config = Config.Set.singleton

(** [tau_closure sys s] is the closure of [s] under the two internal
    propagation rules — every configuration reachable from a member of
    [s] by zero or more τ-steps.  Terminates because each τ-step strictly
    shrinks the multiset of cache entries (cache→cache moves an entry
    toward the owner, which can happen at most once per entry before a
    cache→memory step removes it; formally the measure
    [Σ_{(i,x) ∈ cache} (if i = owner x then 1 else 2)] strictly
    decreases). *)
let tau_closure sys (s : t) : t =
  let seen = ref s in
  let frontier = ref (Config.Set.elements s) in
  let progressing () = match !frontier with [] -> false | _ :: _ -> true in
  while progressing () do
    let next =
      List.concat_map
        (fun cfg -> List.map snd (Semantics.taus sys cfg))
        !frontier
    in
    let fresh =
      List.filter (fun cfg -> not (Config.Set.mem cfg !seen)) next
    in
    List.iter (fun cfg -> seen := Config.Set.add cfg !seen) fresh;
    frontier := fresh
  done;
  !seen

(** [apply_label sys s l] applies visible label [l] to every member of
    [s], keeping the successors of members where [l] is enabled.  It does
    *not* τ-saturate; see {!step}. *)
let apply_label sys (s : t) (l : Label.t) : t =
  Config.Set.fold
    (fun cfg acc ->
      match Semantics.apply sys cfg l with
      | Some cfg' -> Config.Set.add cfg' acc
      | None -> acc)
    s Config.Set.empty

(** [step sys s l] is the set of configurations reachable from [s] by
    (τ* ; l): saturate with τ-steps, then apply [l]. *)
let step sys s l = apply_label sys (tau_closure sys s) l

(** [run sys cfg ls] is the set of configurations reachable from [cfg]
    via the labels [ls] in order, with τ-steps interleaved anywhere —
    including before the first and after the last label (the trailing
    closure makes reachable-set inclusion the right notion for the
    Proposition 1 simulations).  The result is empty iff the labelled
    sequence is infeasible. *)
let run sys cfg ls =
  tau_closure sys (List.fold_left (step sys) (of_config cfg) ls)

(** [feasible sys cfg ls] is [true] iff some execution realises the
    labelled sequence [ls] from [cfg]. *)
let feasible sys cfg ls = not (Config.Set.is_empty (run sys cfg ls))

(** [load_outcomes_closed sys s i x] is the set of values a load of [x]
    by machine [i] can observe from some configuration in [s], which the
    caller asserts is already τ-closed (e.g. a {!run} result or an
    explicitly computed {!tau_closure}) — no closure is recomputed. *)
let load_outcomes_closed sys (s : t) i x =
  Config.Set.fold
    (fun cfg acc ->
      let v, _ = Semantics.load sys cfg i x in
      v :: acc)
    s []
  |> List.sort_uniq Value.compare

(** [load_outcomes sys s i x] is the set of values a load of [x] by
    machine [i] can observe from some configuration in the τ-closure of
    [s] — i.e. the possible outcomes of the *next* load. *)
let load_outcomes sys s i x =
  load_outcomes_closed sys (tau_closure sys s) i x

(** [subset a b] is reachable-set inclusion. *)
let subset (a : t) (b : t) = Config.Set.subset a b

let cardinal = Config.Set.cardinal
let elements = Config.Set.elements

let pp ppf s =
  Fmt.pf ppf "@[<v>%a@]" Fmt.(list ~sep:cut Config.pp) (elements s)

(* ------------------------------------------------------------------ *)
(* The packed fast path                                                *)
(* ------------------------------------------------------------------ *)

module Fast = struct
  (** Same exploration, an order of magnitude faster: states are
      bit-packed words ({!Packed.t}), visited sets are hash tables with
      O(1) membership, and τ-successor lists are memoised in [cache] —
      the many {!run} calls of one [check_exhaustive]/litmus sweep
      revisit the same configurations constantly, so successor
      enumeration amortises to a table lookup.  A cache is private to
      one domain (hash tables are not domain-safe); the parallel driver
      creates one per worker.

      On top of the packed representation sit two state-space
      reductions, both off by default at this layer (callers such as
      {!Litmus.decide} and {!Props.check_exhaustive} switch them on):

      - {e dynamic partial-order reduction} ([por]): τ-steps on
        distinct locations touch disjoint packed words, never disable
        one another, and commute — the τ-system is an independent
        product of per-location chains.  The closure worklist keeps a
        {e sleep set} per state (a bitmask of location indices whose
        τ-steps are already covered by a sibling ordering) and skips
        generating those successors.  Crucially this prunes only
        {e redundant edge generations}, never states: the computed
        closure {e set} is bit-identical with and without [por] (every
        state is still reached via its canonical location-ordered
        path).  A state re-reached with a smaller sleep set is
        re-expanded with the intersection, the standard sleep-set
        state-matching refinement, so sharing the visited table across
        worklist roots stays exact.

      - {e symmetry reduction} ([sym]): states are canonicalised to
        their {!Sym} orbit representative before insertion, under the
        stabilizer of the run's start state and labels — the subgroup
        that provably maps executions to executions of the {e same}
        run.  Reduced sets contain one representative per orbit;
        emptiness, subset (between runs sharing one group) and
        load-outcome queries on stabilised locations are preserved
        exactly, which is all the checked properties consume. *)

  type reduction = { por : bool; sym : bool }

  let no_reduction = { por = false; sym = false }
  let full_reduction = { por = true; sym = true }

  type stats = {
    states : int;       (** insertions into reachable sets *)
    transitions : int;  (** τ-successors generated + labels applied *)
  }

  type cache = {
    ctx : Packed.ctx;
    taus : (int array * Packed.t array) Packed.Tbl.t;
        (** τ-successor memo: source-location tags (ascending) and the
            successor states, index-aligned *)
    reduction : reduction;
    group : Sym.perm array Lazy.t;
        (** the full context symmetry group (forced only when [sym]) *)
    mutable n_states : int;
    mutable n_transitions : int;
  }

  let create ?(reduction = no_reduction) ctx =
    {
      ctx;
      taus = Packed.Tbl.create 4096;
      reduction;
      group = lazy (if reduction.sym then Sym.group ctx else [||]);
      n_states = 0;
      n_transitions = 0;
    }

  let ctx cache = cache.ctx
  let reduction cache = cache.reduction
  let stats cache = { states = cache.n_states; transitions = cache.n_transitions }

  let reset_stats cache =
    cache.n_states <- 0;
    cache.n_transitions <- 0

  (** [sym_group cache ~fixing st] — the symmetry group a reduced run
      from [st] over the labels [fixing] uses: the stabilizer of both
      within the context group ([[||]] when [sym] is off). *)
  let sym_group cache ~fixing st =
    if cache.reduction.sym then
      Sym.stabilizer cache.ctx (Lazy.force cache.group) ~fixing st
    else [||]

  type set = int Packed.Tbl.t
  (** a reachable set: keys are the members; the value is the state's
      current sleep-set mask (0 outside a [por] closure) *)

  let of_packed st : set =
    let s = Packed.Tbl.create 64 in
    Packed.Tbl.replace s st 0;
    s

  let successors cache st =
    match Packed.Tbl.find_opt cache.taus st with
    | Some ts -> ts
    | None ->
        let acc = ref [] in
        Packed.taus_iter_loc cache.ctx st (fun xi s -> acc := (xi, s) :: !acc);
        let l = List.rev !acc in
        let ts = (Array.of_list (List.map fst l), Array.of_list (List.map snd l)) in
        Packed.Tbl.add cache.taus st ts;
        ts

  (* Canonicalise a (state, sleep-mask) pair: the mask is transported
     through the same permutation that minimises the state. *)
  let canon_with_mask (g : Sym.perm array) st mask =
    if Array.length g = 0 then (st, mask)
    else begin
      let best = ref st and bestp = ref None in
      Array.iter
        (fun p ->
          let c = Sym.apply p st in
          if Packed.compare c !best < 0 then begin
            best := c;
            bestp := Some p
          end)
        g;
      match !bestp with
      | None -> (st, mask)
      | Some p -> (!best, Sym.apply_mask p mask)
    end

  (** Worklist τ-closure, in place: [s] is grown to its closure and
      returned.  With [por], sleep-set masks prune commuting successor
      orderings (the resulting set is unchanged); with a non-empty
      [group], members are canonicalised to orbit representatives. *)
  let tau_closure ?(group = [||]) cache (s : set) : set =
    let por = cache.reduction.por in
    let work = Stack.create () in
    Packed.Tbl.iter (fun st _ -> Stack.push st work) s;
    let insert st mask =
      let st, mask = canon_with_mask group st mask in
      match Packed.Tbl.find_opt s st with
      | None ->
          Packed.Tbl.replace s st mask;
          cache.n_states <- cache.n_states + 1;
          Stack.push st work
      | Some old ->
          (* sleep-set state matching: re-reached with fewer slept
             locations — re-expand with the intersection so no successor
             certified only by the other path is lost *)
          let refined = old land mask in
          if refined <> old then begin
            Packed.Tbl.replace s st refined;
            Stack.push st work
          end
    in
    while not (Stack.is_empty work) do
      let st = Stack.pop work in
      let mask =
        match Packed.Tbl.find_opt s st with Some m -> m | None -> 0
      in
      let tags, succs = successors cache st in
      if por then begin
        let enabled = ref 0 in
        Array.iter (fun xi -> enabled := !enabled lor (1 lsl xi)) tags;
        let enabled = !enabled in
        Array.iteri
          (fun j st' ->
            let xi = tags.(j) in
            if mask land (1 lsl xi) = 0 then begin
              cache.n_transitions <- cache.n_transitions + 1;
              (* sleep the locations whose enabled steps were ordered
                 before [xi]: their interleavings with this step are
                 covered by the sibling branches *)
              insert st' (mask lor (enabled land ((1 lsl xi) - 1)))
            end)
          succs
      end
      else
        Array.iter
          (fun st' ->
            cache.n_transitions <- cache.n_transitions + 1;
            insert st' 0)
          succs
    done;
    s

  let apply_label ?(group = [||]) cache (s : set) (l : Label.t) : set =
    let out = Packed.Tbl.create (Packed.Tbl.length s) in
    Packed.Tbl.iter
      (fun st _ ->
        match Packed.apply cache.ctx st l with
        | Some st' ->
            cache.n_transitions <- cache.n_transitions + 1;
            let st' = Sym.canon group st' in
            if not (Packed.Tbl.mem out st') then begin
              Packed.Tbl.replace out st' 0;
              cache.n_states <- cache.n_states + 1
            end
        | None -> ())
      s;
    out

  let step ?group cache s l =
    apply_label ?group cache (tau_closure ?group cache s) l

  (** [run cache st ls] — the packed mirror of {!Explore.run}.  With
      [sym] on, states are canonicalised under the stabilizer of
      [(st, ls)] ({!sym_group}) and the result contains orbit
      representatives only. *)
  let run cache st ls =
    let group = sym_group cache ~fixing:ls st in
    tau_closure ~group cache
      (List.fold_left (step ~group cache) (of_packed st) ls)

  (* ---------------------------------------------------------------- *)
  (* Local queries: the Proposition 1 sweep's first pass               *)
  (* ---------------------------------------------------------------- *)

  (* The dense locations τ-steps between labels may be restricted to,
     as a mask: the labels' locations under [por], every location
     without it or when a label has none (a crash).  A τ-step on
     another location touches a word no label reads or writes, so it
     commutes with every label (and every other τ-step) and moves
     past the last label without changing where the run ends. *)
  let within cache labels =
    let all = (1 lsl Packed.n_locs cache.ctx) - 1 in
    if not cache.reduction.por then all
    else
      List.fold_left
        (fun m l ->
          match Label.loc l with
          | Some x -> m lor Packed.bit (Packed.loc_index cache.ctx x)
          | None -> all)
        0 labels

  (* [f] on every τ-successor of [st] on a location in [within] *)
  let taus_within cache within (st : Packed.t) f =
    Array.iteri
      (fun xi w ->
        if within land Packed.bit xi <> 0 then
          Packed.word_taus cache.ctx xi w (fun w' ->
              cache.n_transitions <- cache.n_transitions + 1;
              let st' = Array.copy st in
              st'.(xi) <- w';
              f st'))
      st

  (** [images cache st labels] — the states [ℓ_m(τ*_X(… ℓ_1(st)))]:
      the labels applied in order from [st] with τ-steps between
      consecutive labels, on the labels' locations X only (see
      {!within}), and none before the first label or after the last.
      Deduplicated, in no particular order; empty when the sequence is
      infeasible. *)
  let images cache st labels =
    let within = within cache labels in
    let fresh tbl st' =
      (not (Packed.Tbl.mem tbl st'))
      && begin
           Packed.Tbl.replace tbl st' ();
           cache.n_states <- cache.n_states + 1;
           true
         end
    in
    let apply_all l states =
      let out = Packed.Tbl.create 8 in
      List.filter_map
        (fun st ->
          match Packed.apply cache.ctx st l with
          | Some st' ->
              cache.n_transitions <- cache.n_transitions + 1;
              if fresh out st' then Some st' else None
          | None -> None)
        states
    in
    let close states =
      let seen = Packed.Tbl.create 16 in
      let acc = ref [] in
      let rec visit st =
        if fresh seen st then begin
          acc := st :: !acc;
          taus_within cache within st visit
        end
      in
      List.iter visit states;
      !acc
    in
    match labels with
    | [] -> [ st ]
    | l :: ls ->
        List.fold_left
          (fun states l -> apply_all l (close states))
          (apply_all l [ st ]) ls

  (** [reaches cache st labels d] — [d ∈ R_labels(st)], the membership
      query of the unreduced {!run}, without building the set: a
      depth-first search over (phase, state) pairs that tries the next
      label before any τ-step and returns at the first hit.  Before the
      last label only τ-steps on the labels' locations are explored
      ({!within}); after it, [s →τ* d] is settled in closed form one
      location at a time ({!Packed.tau_reaches}). *)
  let reaches cache st labels d =
    let ctx = cache.ctx in
    let within = within cache labels in
    let labels = Array.of_list labels in
    let last = Array.length labels in
    let settled (s : Packed.t) =
      let rec go xi =
        xi < 0 || (Packed.tau_reaches ctx xi s.(xi) d.(xi) && go (xi - 1))
      in
      go (Array.length s - 1)
    in
    (* state -> bitmask of the phases it was visited in *)
    let seen = Packed.Tbl.create 16 in
    let exception Hit in
    let rec visit p s =
      let phases =
        match Packed.Tbl.find_opt seen s with Some m -> m | None -> 0
      in
      if phases land (1 lsl p) = 0 then begin
        Packed.Tbl.replace seen s (phases lor (1 lsl p));
        cache.n_states <- cache.n_states + 1;
        if p = last then (if settled s then raise Hit)
        else begin
          (match Packed.apply ctx s labels.(p) with
          | Some s' ->
              cache.n_transitions <- cache.n_transitions + 1;
              visit (p + 1) s'
          | None -> ());
          taus_within cache within s (visit p)
        end
      end
    in
    match visit 0 st with () -> false | exception Hit -> true

  let cardinal = Packed.Tbl.length
  let is_empty s = Packed.Tbl.length s = 0
  let mem (s : set) st = Packed.Tbl.mem s st

  let feasible cache st ls = not (is_empty (run cache st ls))

  let subset (a : set) (b : set) =
    try
      Packed.Tbl.iter
        (fun st _ -> if not (Packed.Tbl.mem b st) then raise Exit)
        a;
      true
    with Exit -> false

  let equal_sets a b = cardinal a = cardinal b && subset a b

  let elements (s : set) = Packed.Tbl.fold (fun st _ acc -> st :: acc) s []

  (** [diff_elements a b] — members of [a] not in [b] (unordered). *)
  let diff_elements (a : set) (b : set) =
    Packed.Tbl.fold
      (fun st _ acc -> if Packed.Tbl.mem b st then acc else st :: acc)
      a []

  (** [load_outcomes_closed cache s i x] — values the next load of [x]
      by machine [i] can observe from members of the τ-closed set [s]
      (the visible value of [x]: the shared cached value if any cache
      holds it, the owner's memory otherwise).  Exact on sym-reduced
      sets whenever the reducing group stabilises [x] — e.g. when [x]
      occurs in the run's labels. *)
  let load_outcomes_closed cache (s : set) _i x =
    let xi = Packed.loc_index cache.ctx x in
    Packed.Tbl.fold
      (fun st _ acc ->
        let w = st.(xi) in
        let v =
          if Packed.holders cache.ctx w <> 0 then Packed.cval cache.ctx w
          else Packed.memv cache.ctx w
        in
        v :: acc)
      s []
    |> List.sort_uniq Value.compare

  (** [independent l1 l2] — the static independence relation the POR
      layer is built on: two labels commute (and never disable one
      another) when they touch disjoint location words.  Crashes touch
      every location of a machine and are dependent with everything;
      same-location steps conflict through the shared word.  Sound but
      deliberately conservative — see the QCheck soundness property in
      [test/test_reduction.ml]. *)
  let independent (l1 : Label.t) (l2 : Label.t) =
    match (Label.loc l1, Label.loc l2) with
    | Some x1, Some x2 -> not (Loc.equal x1 x2)
    | _ -> false (* a crash, dependent with everything *)

  (** [to_set cache s] — the reference-representation image, for
      cross-checking against the map-based engine.  (On a sym-reduced
      set this is the image of the {e representatives}; expand orbits
      with {!Sym.orbit} to compare against an unreduced engine.) *)
  let to_set cache (s : set) : Config.Set.t =
    Packed.Tbl.fold
      (fun st _ acc -> Config.Set.add (Packed.to_config cache.ctx st) acc)
      s Config.Set.empty
end
