(** Bit-packed configurations: the model checker's hot-path
    representation.

    A configuration over a fixed finite location domain is one [int] per
    location — [{holders bitmask; cached value; memory value}] packed
    into a word, exploiting the single-value coherence invariant exactly
    as {!Fabric} does — so equality, hashing and the step rules are a few
    word operations.  {!Config.t} remains the canonical reference
    representation; {!of_config}/{!to_config} mediate, and differential
    tests keep the two semantics in lock-step. *)

exception Unrepresentable of string
(** Raised when a system, location or value does not fit the packed
    layout (value out of field range, location outside the context).
    Callers fall back to the reference {!Explore} engine. *)

(** {1 Bitmask helpers}

    Shared with {!Fabric}'s holder-set plumbing. *)

val bit : int -> int

val iter_bits : (int -> unit) -> int -> unit
(** [iter_bits f mask] applies [f] to the index of every set bit,
    lowest first. *)

val popcount : int -> int

(** {1 Context} *)

type ctx
(** The static scope of an exploration: system descriptor, dense
    location table, and the word layout derived from them. *)

val make : Machine.system -> locs:Loc.t list -> ctx
(** Raises {!Unrepresentable} on duplicate locations or when the
    machine count leaves no room for value fields. *)

val system : ctx -> Machine.system
val n_locs : ctx -> int
val locs : ctx -> Loc.t list

val loc_index : ctx -> Loc.t -> int
(** Dense index of a location.  Raises {!Unrepresentable} for locations
    outside the context. *)

val fits_value : ctx -> Value.t -> bool
(** Whether a value fits the packed field width. *)

(** {1 Configurations} *)

type t = int array
(** One packed word per location, indexed like the context's location
    table.  Treat as immutable. *)

val init : ctx -> t
(** All caches empty, all memories zero. *)

val equal : t -> t -> bool
val hash : t -> int
val compare : t -> t -> int

module Tbl : Hashtbl.S with type key = t

val of_config : ctx -> Config.t -> t
(** Raises {!Unrepresentable} if the configuration mentions locations
    outside the context or values beyond the field width. *)

val to_config : ctx -> t -> Config.t
(** Left inverse of {!of_config}: [to_config ctx (of_config ctx c)] is
    {!Config.equal} to [c]. *)

(** {1 Per-location fields} *)

val holders : ctx -> int -> int
(** Holder bitmask of a packed word. *)

val cval : ctx -> int -> Value.t
(** Cached value of a packed word (0 when no holders). *)

val memv : ctx -> int -> Value.t
(** Memory value of a packed word. *)

val word : ctx -> holders:int -> cval:Value.t -> mem:Value.t -> int

(** {1 Step rules (packed mirror of {!Semantics})} *)

val load : ctx -> t -> Machine.id -> int -> Value.t * t
(** [load ctx c i xi] — observed value and successor for a load of the
    location with dense index [xi] by machine [i]. *)

val crash : ctx -> t -> Machine.id -> t

val word_taus : ctx -> int -> int -> (int -> unit) -> unit
(** [word_taus ctx xi w f] — [f] on every τ-successor word of word [w]
    at dense location index [xi] (the τ-system is a product of these
    per-location chains). *)

val tau_reaches : ctx -> int -> int -> int -> bool
(** [tau_reaches ctx xi w w'] — closed form of [w →τ* w'] on location
    [xi]'s chain: [w' = w], or [w] has holders [h ≠ ∅] and either [w']
    keeps value and memory with holders [h'] such that the owner is in
    [h'], [h' ⊆ h ∪ {owner}] and [h ∖ h' ≠ ∅], or [w'] is the
    written-back [(∅, 0, cval w)]. *)

val taus_iter : ctx -> t -> (t -> unit) -> unit
(** Apply the callback to every τ-successor (both propagation rules,
    every enabled instance; duplicates possible). *)

val taus_iter_loc : ctx -> t -> (int -> t -> unit) -> unit
(** Like {!taus_iter}, but each successor is tagged with the dense
    index of the single location its τ-step touches — the conflict
    class of the step (τ-steps on distinct locations always commute). *)

val apply : ctx -> t -> Label.t -> t option
(** Successor under a label, or [None] when not enabled — agrees with
    {!Semantics.apply} through {!to_config}. *)

val pp : ctx -> t Fmt.t
