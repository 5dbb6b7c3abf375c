(** Machine/location symmetries of a packed exploration context.

    The step rules treat machines and locations uniformly, so every
    volatility-preserving machine bijection composed with an
    ownership-compatible location bijection is an automorphism of the
    LTS.  The {!Props} sweep skips start configurations that are not
    orbit representatives under this group.

    The identity is never stored: an empty group array means "no usable
    symmetry" and costs nothing. *)

type perm = {
  mperm : int array;  (** machine [i] ↦ [mperm.(i)] *)
  lperm : int array;  (** dense location index ↦ image index *)
  masks : int array;  (** holder-mask remap table, size [2^n] *)
  hmask : int;        (** [(1 lsl n) - 1] *)
}

val max_machines : int
(** Machine counts above this yield the empty group. *)

val is_identity : perm -> bool

val group : Packed.ctx -> perm array
(** Every non-identity automorphism of the context (complete group,
    not a generating set — orbits need no closure computation). *)

val apply : perm -> Packed.t -> Packed.t
(** The action on packed states: words move to their image location
    with holder masks remapped; values ride along. *)

val on_label : Packed.ctx -> perm -> Label.t -> Label.t
(** The action on transition labels; commutes with {!Packed.apply}. *)

val canon : perm array -> Packed.t -> Packed.t
(** The lexicographically least element of the orbit ([st] itself for
    the empty group). *)

val is_canonical : perm array -> Packed.t -> bool
(** Is the state its own orbit representative? *)

val pp : perm Fmt.t
