(** Reachable-set exploration: the decision procedure behind the litmus
    tests and the Proposition 1 checks.

    The paper writes [γ ⟹^{α₁…αₙ} γ'] for transitions labelled
    [α₁ … αₙ] possibly interleaved with silent τ-steps; this module
    computes the corresponding reachable sets by alternating τ-closure
    and label application (flushes, being blocking preconditions, act as
    filters).

    The functions at the top level form the {e reference} engine over
    canonical map-based configurations, the only one that builds
    reachable sets; {!Fast} is the bit-packed first-hit search used on
    the hot path (litmus verdicts, the Proposition 1 sweep's membership
    queries), differentially tested against the reference. *)

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

val load_outcomes : Machine.system -> t -> Machine.id -> Loc.t -> Value.t list
(** The values the *next* load could observe from some configuration in
    the τ-closure of the set, sorted and deduplicated. *)

val subset : t -> t -> bool
val cardinal : t -> int
val elements : t -> Config.t list
val pp : t Fmt.t

(** {1 The packed search} *)

module Fast : sig
  type cache
  (** Exploration context plus work counters.  Not domain-safe: create
      one per worker domain. *)

  type stats = { states : int; transitions : int }
  (** Cumulative work counters since creation: search visits and
      generated τ-successors / applied labels. *)

  val create : Packed.ctx -> cache

  val ctx : cache -> Packed.ctx
  val stats : cache -> stats

  val feasible : cache -> Packed.t -> Label.t list -> bool
  (** Whether {!Explore.run} from the state is non-empty, decided by the
      first-hit search of {!reaches} with every state after the last
      label accepted.  At most [Sys.int_size - 1] labels. *)

  val images : cache -> Packed.t -> Label.t list -> Packed.t list
  (** [images cache st labels] — the states [ℓ_m(τ*_X(… ℓ_1(st)))]:
      the labels applied in order with τ-steps between consecutive
      labels only, and only on X, the labels' locations (every
      location when a label is a crash).  Steps on another location
      commute with every label and neither enable nor disable one, so
      verdicts and membership are exact (DESIGN decisions 13 and 18).
      Deduplicated, unordered; empty iff infeasible. *)

  val reaches : cache -> Packed.t -> Label.t list -> Packed.t -> bool
  (** [reaches cache st labels d] — whether [d] is in {!Explore.run}
      from [st] over [labels], decided by a first-hit depth-first
      search over (phase, state) pairs: τ-steps before the last label
      only on X (as in {!images}), then [→τ*] to [d] in closed form
      ({!Packed.tau_reaches}).  Visits count as states, generated
      successors and applied labels as transitions.  At most
      [Sys.int_size - 1] labels. *)
end
