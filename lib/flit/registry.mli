(** Enumeration of the transformations, for tests and benches. *)

val simple : Flit_intf.t
val alg2_mstore : Flit_intf.t
val alg3_rstore : Flit_intf.t
val alg3'_weakest : Flit_intf.t
val weakest_lflush : Flit_intf.t
val noflush : Flit_intf.t

val durable : Flit_intf.t list
(** The transformations the paper proves durably linearizable under the
    general failure model (§5): simple, Alg 2, Alg 3, Alg 3′. *)

val all : Flit_intf.t list
(** [durable] plus the conditional Prop-2 variant and the broken
    control. *)

val adaptive : Flit_intf.t
val buffered : Flit_intf.t
val naive_flush : Flit_intf.t

val extensions : Flit_intf.t list
(** Beyond the paper: address-adaptive (§4.4), buffered-sync (§7), the
    counter-less ablation (E9). *)

val find : string -> Flit_intf.t option
(** Look up any transformation (paper or extension) by name. *)

val names : string list
(** Every registered transformation name, [all] then [extensions] —
    e.g. for "unknown transformation" error messages. *)

val aliases : (string * Flit_intf.t list) list
(** Names that expand to several transformations: [flit] and [durable]
    to {!durable}, [all] to [all @ extensions], [noflush] to the
    control. *)

val resolve : string list -> (Flit_intf.t list, string) result
(** Expand aliases and look up every other name, keeping the first
    occurrence of each transformation in order; [Error n] names the
    first name that is neither an alias nor registered. *)
