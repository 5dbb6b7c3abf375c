(** Reachable-set exploration for the CXL0 LTS.

    The paper writes [γ ⟹^{α₁…αₙ} γ'] for a sequence of transitions
    labelled [α₁ … αₙ] *possibly interleaved with additional silent
    τ-steps*.  This module computes the corresponding reachable sets:
    starting from a set of configurations, saturate with τ-steps, apply a
    visible label to every member, saturate again, and so on.  Because
    flushes are modelled as blocking preconditions, applying a flush label
    simply *filters* the τ-saturated set.

    Two engines decide the same relation:

    - the {e reference} engine below works on {!Config.Set.t} over the
      canonical map-based {!Config.t} — easy to audit, kept as the
      differential-testing oracle; it builds the reachable sets that
      the {!Props.check_exhaustive} sweep's exact-failure re-check and
      [cxl0_explore] print;
    - {!Fast} works on bit-packed {!Packed.t} states and builds no set:
      one first-hit search decides the litmus verdicts and the sweep's
      membership queries ({!Fast.feasible}, {!Fast.reaches}). *)

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
  (** The packed search: states are bit-packed words ({!Packed.t})
      and visited states live in a hash table with O(1) membership.  A
      cache is private to one domain (its counters are not atomic); the
      parallel driver creates one per worker.

      {!feasible} and {!reaches} are one first-hit search ([search])
      that builds no reachable set and restricts its τ-steps between
      labels to the labels' locations ({!within}), which is exact
      because a τ-step on another location commutes with every label
      and neither enables nor disables one. *)

  type stats = {
    states : int;       (** search visits *)
    transitions : int;  (** τ-successors generated + labels applied *)
  }

  type cache = {
    ctx : Packed.ctx;
    mutable n_states : int;
    mutable n_transitions : int;
  }

  let create ctx = { ctx; n_states = 0; n_transitions = 0 }

  let ctx cache = cache.ctx
  let stats cache = { states = cache.n_states; transitions = cache.n_transitions }

  (* ---------------------------------------------------------------- *)
  (* First-hit search: feasibility and membership                      *)
  (* ---------------------------------------------------------------- *)

  (* The dense locations τ-steps between labels are restricted to, as a
     mask: the labels' locations, or every location when a label has
     none (a crash).  A τ-step on another location touches a word no
     label reads or writes, so it commutes with every label (and every
     other τ-step) and moves past the last label without changing where
     the run ends. *)
  let within cache labels =
    let all = (1 lsl Packed.n_locs cache.ctx) - 1 in
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

  (* [search cache st labels accept] — whether some state the labels
     reach from [st] with τ-steps on {!within} interleaved before the
     last label is [accept]ed: a depth-first search over (phase, state)
     pairs, phase [p] meaning [p] labels applied, that tries the next
     label before any τ-step and returns at the first hit.  Visits
     count as states, generated successors and applied labels as
     transitions.  At most [Sys.int_size - 1] labels: a state's
     visited phases are one bitmask. *)
  let search cache st labels accept =
    let ctx = cache.ctx in
    let within = within cache labels in
    let labels = Array.of_list labels in
    let last = Array.length labels in
    if last >= Sys.int_size then invalid_arg "Explore.Fast: too many labels";
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
        if p = last then (if accept s then raise Hit)
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

  (** [feasible cache st labels] — whether {!Explore.run} is non-empty:
      some state follows the last label.  A trailing τ-closure never
      empties a set, so none is searched. *)
  let feasible cache st labels = search cache st labels (fun _ -> true)

  (** [reaches cache st labels d] — [d ∈ R_labels(st)], membership in
      {!Explore.run}, without building the set: the state after the
      last label must reach [d] by τ-steps, settled in closed form one
      location at a time ({!Packed.tau_reaches}). *)
  let reaches cache st labels d =
    search cache st labels (fun s ->
        let rec go xi =
          xi < 0
          || (Packed.tau_reaches cache.ctx xi s.(xi) d.(xi) && go (xi - 1))
        in
        go (Array.length s - 1))
end
