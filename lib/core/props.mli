(** Mechanical checking of Proposition 1 (§3.3) by bounded model
    checking: each of the paper's eight simulation items is a
    reachable-set inclusion, checked from every invariant-satisfying
    configuration over a bounded domain (the authors verified the same
    statements in Coq).  See DESIGN.md for the small-scope argument and
    for the local condition the sweep decides (decision 18).

    The sweep's first pass runs on the bit-packed search ({!Packed} /
    {!Explore.Fast}) with an optional domain-parallel driver; the
    original map-set implementation is retained as
    {!check_exhaustive_reference}, the differential oracle and the
    source of every reported failure.  Failure order is deterministic
    (item-major, then start-configuration order) for every [jobs]. *)

type item = {
  id : int;          (** item number within Proposition 1 *)
  name : string;
  lhs : Machine.id -> Loc.t -> Value.t -> Label.t list;
  rhs : Machine.id -> Loc.t -> Value.t -> Label.t list;
      (** the statement is [R_lhs(γ) ⊆ R_rhs(γ)] for all γ and valid
          (issuer, location, value) *)
  issuers : owner:Machine.id -> n:int -> Machine.id list;
      (** which issuers the item quantifies over *)
}
(** One simulation item.  {!check_exhaustive_stats} checks one start
    per symmetry orbit, which is exact only for an {e equivariant}
    item: for every machine/location automorphism [g] of the context
    ({!module-Sym}), [lhs]/[rhs] at [(g·i, g·x, v)] are [g] applied to
    the labels at [(i, x, v)], and [issuers ~owner:(g·k)] is [g]
    applied to [issuers ~owner:k].  Items built only from their
    arguments, with ownership-based issuer policies, are; an item that
    names a fixed machine or location is not.  Nothing checks this at
    run time; [test_reduction] checks it for {!items}. *)

(** Issuer quantifiers for building custom items. *)

val all_machines : owner:Machine.id -> n:int -> Machine.id list
val non_owners : owner:Machine.id -> n:int -> Machine.id list
val owner_only : owner:Machine.id -> n:int -> Machine.id list

val items : item list
(** The eight items, in the paper's order and numbering. *)

val item : int -> item
(** [item i] — item [i] (1-8).  Raises [Not_found] otherwise. *)

type failure = {
  item_id : int;
  start : Config.t;
  issuer : Machine.id;
  location : Loc.t;
  value : Value.t;
  witness : Config.t;  (** reachable via lhs but not via rhs *)
}

val failure_equal : failure -> failure -> bool
val pp_failure : failure Fmt.t

val check_item :
  Machine.system -> item -> Config.t -> locs:Loc.t list ->
  vals:Value.t list -> failure option
(** Check one item from one configuration over all instantiations with
    the reference engine; first failure if any. *)

(** {1 Configuration enumeration}

    The invariant-satisfying configurations over a domain are *ranked*:
    per-location choices are digits of a mixed-radix index, so any
    configuration is computed in O(#locs) from its index — the parallel
    driver shards index ranges and nothing materialises the full list. *)

val enum_configs_count :
  Machine.system -> locs:Loc.t list -> vals:Value.t list -> int
(** The size of the domain.  Raises [Invalid_argument] when it exceeds
    [max_int]. *)

val enum_config_nth :
  Machine.system -> locs:Loc.t list -> vals:Value.t list -> int -> Config.t

val enum_packed_nth : Packed.ctx -> vals:Value.t list -> int -> Packed.t
(** The same configuration built directly in packed form. *)

val enum_configs_seq :
  Machine.system -> locs:Loc.t list -> vals:Value.t list -> Config.t Seq.t
(** Stream of every invariant-satisfying configuration. *)

val enum_configs :
  Machine.system -> locs:Loc.t list -> vals:Value.t list -> Config.t list
(** Every invariant-satisfying configuration as a list (prefer the
    [Seq]/index forms for large domains). *)

(** {1 Exhaustive sweeps} *)

type sweep_stats = {
  sweep_configs : int;       (** size of the enumerated domain *)
  sweep_starts : int;        (** start configurations actually checked *)
  sweep_states : int;        (** states the first pass visited *)
  sweep_transitions : int;   (** τ-successors + label applications *)
  sweep_rechecked : int list;
      (** ids of the items the first pass found failing, which the
          reference sweep re-checked *)
}

val check_exhaustive_stats :
  ?items:item list -> ?jobs:int ->
  Machine.system -> locs:Loc.t list -> vals:Value.t list ->
  failure list * sweep_stats
(** All items from all enumerated configurations; empty = verified.
    Packed engine, [jobs] worker domains (default 1); identical output
    for every [jobs].  The first pass checks, at each start [c] and
    instantiation, that every state of [ℓ_m(τ*_X(… ℓ_1(c)))] is in
    [R_rhs(c)] — over the τ-closed domain this holds everywhere iff
    the item does.  It checks orbit-representative starts only
    (exact because the items are equivariant, see {!item}) and
    takes the τ-steps between labels only on the labels' locations X
    ({!Explore.Fast.images}).  The items failing the first pass are
    re-checked by {!check_exhaustive_reference}, so failures and
    witnesses are the reference engine's.
    [sweep_states]/[sweep_transitions] count the first pass's work (the
    re-check is not counted).  Falls back to the reference engine when
    the domain does not fit the packed layout
    ([sweep_states]/[sweep_transitions] are then 0 and
    [sweep_rechecked] empty). *)

val check_exhaustive :
  ?items:item list -> ?jobs:int ->
  Machine.system -> locs:Loc.t list -> vals:Value.t list -> failure list
(** {!check_exhaustive_stats} without the statistics. *)

val check_exhaustive_reference :
  ?items:item list ->
  Machine.system -> locs:Loc.t list -> vals:Value.t list -> failure list
(** The original sequential map-set sweep: the differential oracle, and
    the re-check of the items {!check_exhaustive_stats}'s first pass
    finds failing. *)

val check_default : unit -> Machine.system * failure list
(** The default domain: 2 NV machines, one location each, values
    {0, 1}. *)
