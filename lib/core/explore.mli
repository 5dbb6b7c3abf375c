(** Reachable-set exploration: the decision procedure behind the litmus
    tests and the Proposition 1 checks.

    The paper writes [γ ⟹^{α₁…αₙ} γ'] for transitions labelled
    [α₁ … αₙ] possibly interleaved with silent τ-steps; this module
    computes the corresponding reachable sets by alternating τ-closure
    and label application (flushes, being blocking preconditions, act as
    filters).

    The functions at the top level form the {e reference} engine over
    canonical map-based configurations; {!Fast} is the bit-packed
    hash-set engine used on the hot path, differentially tested against
    the reference. *)

type t = Config.Set.t

val of_config : Config.t -> t

val tau_closure : Machine.system -> t -> t
(** Closure under the two propagation rules; terminates (each step
    strictly decreases a multiset measure on cache entries). *)

val apply_label : Machine.system -> t -> Label.t -> t
(** Apply one visible label pointwise (no τ-saturation). *)

val step : Machine.system -> t -> Label.t -> t
(** τ* followed by the label. *)

val run : Machine.system -> Config.t -> Label.t list -> t
(** All configurations reachable via the labels in order, with τ-steps
    interleaved anywhere — including before the first and after the last
    label (the trailing closure makes set inclusion the right notion for
    the simulation checks).  Empty iff the sequence is infeasible. *)

val feasible : Machine.system -> Config.t -> Label.t list -> bool

val load_outcomes_closed :
  Machine.system -> t -> Machine.id -> Loc.t -> Value.t list
(** Like {!load_outcomes}, but the caller supplies an already τ-closed
    set (a {!run} result, or an explicit {!tau_closure}) — the closure
    is not recomputed. *)

val load_outcomes : Machine.system -> t -> Machine.id -> Loc.t -> Value.t list
(** The values the *next* load could observe from some configuration in
    the τ-closure of the set, sorted and deduplicated. *)

val subset : t -> t -> bool
val cardinal : t -> int
val elements : t -> Config.t list
val pp : t Fmt.t

(** {1 The packed fast engine} *)

module Fast : sig
  type cache
  (** Exploration context plus the τ-successor memo shared across runs.
      Not domain-safe: create one per worker domain. *)

  type reduction = { por : bool; sym : bool }
  (** Which state-space reductions the cache's explorations use.
      [por] — sleep-set partial-order reduction over the per-location
      τ-conflict classes; prunes redundant successor generations only,
      the computed sets are bit-identical.  [sym] — orbit-representative
      canonicalisation under {!Sym} stabilizer groups; reduced sets hold
      one member per orbit (emptiness, shared-group subsets and
      stabilised load outcomes are preserved exactly). *)

  val no_reduction : reduction
  val full_reduction : reduction

  type stats = { states : int; transitions : int }
  (** Cumulative work counters: reachable-set insertions and generated
      τ-successors / applied labels since creation (or {!reset_stats}). *)

  val create : ?reduction:reduction -> Packed.ctx -> cache
  (** Defaults to {!no_reduction}: this layer is also the differential
      oracle's mirror, so reductions are strictly opt-in here (callers
      like [Litmus.decide] and [Props.check_exhaustive] default them
      on). *)

  val ctx : cache -> Packed.ctx
  val reduction : cache -> reduction
  val stats : cache -> stats
  val reset_stats : cache -> unit

  val sym_group :
    cache -> fixing:Label.t list -> Packed.t -> Sym.perm array
  (** The symmetry group a reduced {!run} uses: the stabilizer of the
      start state and the given labels (empty when [sym] is off). *)

  type set
  (** A reachable set of packed states (hash-set backed).  Under [sym]
      reduction, members are orbit representatives. *)

  val of_packed : Packed.t -> set

  val tau_closure : ?group:Sym.perm array -> cache -> set -> set
  (** In-place worklist closure (the argument is grown and returned).
      [group] (default: none) canonicalises inserted states. *)

  val apply_label : ?group:Sym.perm array -> cache -> set -> Label.t -> set
  val step : ?group:Sym.perm array -> cache -> set -> Label.t -> set

  val run : cache -> Packed.t -> Label.t list -> set
  (** Packed mirror of {!Explore.run}.  With [sym] on, members are
      orbit representatives under {!sym_group} of the start state and
      labels. *)

  val feasible : cache -> Packed.t -> Label.t list -> bool

  val images : cache -> Packed.t -> Label.t list -> Packed.t list
  (** [images cache st labels] — the states [ℓ_m(τ*_X(… ℓ_1(st)))]:
      the labels applied in order with τ-steps between consecutive
      labels only, and only on X, the labels' locations (every
      location when [por] is off or a label is a crash).
      Deduplicated, unordered; empty iff infeasible. *)

  val reaches : cache -> Packed.t -> Label.t list -> Packed.t -> bool
  (** [reaches cache st labels d] — whether [d] is in the unreduced
      [run cache st labels], decided by a first-hit depth-first search
      over (phase, state) pairs: τ-steps before the last label only on
      X (as in {!images}), then [→τ*] to [d] in closed form
      ({!Packed.tau_reaches}).  Visits count as states, generated
      successors and applied labels as transitions. *)

  val cardinal : set -> int
  val is_empty : set -> bool
  val mem : set -> Packed.t -> bool
  val subset : set -> set -> bool
  val equal_sets : set -> set -> bool
  val elements : set -> Packed.t list
  val diff_elements : set -> set -> Packed.t list
  (** Members of the first set absent from the second (unordered). *)

  val load_outcomes_closed :
    cache -> set -> Machine.id -> Loc.t -> Value.t list
  (** Values the next load of the location can observe from members of
      the (already τ-closed) set, sorted and deduplicated.  Exact on
      sym-reduced sets whenever the reducing group stabilises the
      location. *)

  val independent : Label.t -> Label.t -> bool
  (** The static independence relation underlying the POR layer: labels
      touching provably disjoint location words (crashes are dependent
      with everything).  Independent enabled pairs commute — see the
      QCheck soundness property in [test/test_reduction.ml]. *)

  val to_set : cache -> set -> Config.Set.t
  (** Reference-representation image, for differential testing (orbit
      representatives only under [sym] reduction). *)
end
