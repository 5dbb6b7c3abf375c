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
  (** Which reductions a check uses.  [por] — the first-hit search
      behind {!feasible}, {!images} and {!reaches} takes τ-steps before
      the last label only on the labels' locations (every location when
      a label is a crash); steps elsewhere commute with every label and
      neither enable nor disable one, so verdicts and membership are
      exact.  [sym] — read by the {!Props} sweep only, which checks one
      start per symmetry orbit.  {!run} is unreduced under every
      setting. *)

  val no_reduction : reduction
  val full_reduction : reduction

  type stats = { states : int; transitions : int }
  (** Cumulative work counters since creation: reachable-set insertions
      (search visits) and generated τ-successors / applied labels. *)

  val create : ?reduction:reduction -> Packed.ctx -> cache
  (** Defaults to {!no_reduction}: callers like [Litmus.decide] and
      [Props.check_exhaustive] default reductions on. *)

  val ctx : cache -> Packed.ctx
  val stats : cache -> stats

  type set
  (** A reachable set of packed states (hash-set backed). *)

  val of_packed : Packed.t -> set

  val tau_closure : cache -> set -> set
  (** In-place worklist closure (the argument is grown and returned). *)

  val run : cache -> Packed.t -> Label.t list -> set
  (** Packed mirror of {!Explore.run}, unreduced whatever the cache's
      [reduction]. *)

  val feasible : cache -> Packed.t -> Label.t list -> bool
  (** Whether {!run} is non-empty, decided by the first-hit search of
      {!reaches} with every state after the last label accepted.  At
      most [Sys.int_size - 1] labels. *)

  val images : cache -> Packed.t -> Label.t list -> Packed.t list
  (** [images cache st labels] — the states [ℓ_m(τ*_X(… ℓ_1(st)))]:
      the labels applied in order with τ-steps between consecutive
      labels only, and only on X, the labels' locations (every
      location when [por] is off or a label is a crash).
      Deduplicated, unordered; empty iff infeasible. *)

  val reaches : cache -> Packed.t -> Label.t list -> Packed.t -> bool
  (** [reaches cache st labels d] — whether [d] is in
      [run cache st labels], decided by a first-hit depth-first search
      over (phase, state) pairs: τ-steps before the last label only on
      X (as in {!images}), then [→τ*] to [d] in closed form
      ({!Packed.tau_reaches}).  Visits count as states, generated
      successors and applied labels as transitions.  At most
      [Sys.int_size - 1] labels. *)

  val mem : set -> Packed.t -> bool
  val subset : set -> set -> bool
  val elements : set -> Packed.t list
  val diff_elements : set -> set -> Packed.t list
  (** Members of the first set absent from the second (unordered). *)

  val to_set : cache -> set -> Config.Set.t
  (** Reference-representation image, for differential testing. *)
end
