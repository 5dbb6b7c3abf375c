(** Durable lock-free hash map: a fixed bucket array of Harris lists
    ({!Listset.chain}) whose nodes carry a mutable value cell (in-place
    update on existing keys).  Keys and values must be positive. *)

type t

val create :
  Runtime.Sched.ctx ->
  ?pflag:bool ->
  ?buckets:int ->
  flit:Flit.Flit_intf.instance ->
  home:int ->
  unit ->
  t
(** [buckets] defaults to 8. *)

val root : t -> Fabric.loc

val attach :
  Runtime.Sched.ctx ->
  ?pflag:bool ->
  ?buckets:int ->
  flit:Flit.Flit_intf.instance ->
  Fabric.loc ->
  t
(** [buckets] must match the creation-time value. *)

val put : t -> Runtime.Sched.ctx -> int -> int -> int
(** Bind key to value (insert or overwrite); returns 0. *)

val get : t -> Runtime.Sched.ctx -> int -> int
(** The bound value, or {!Absent.absent}. *)

val del : t -> Runtime.Sched.ctx -> int -> int
(** 1 if the key was bound (now removed), else 0. *)

val dispatch : t -> Runtime.Sched.ctx -> string -> int list -> int
(** ["put" [k; v]], ["get" [k]], ["del" [k]] — {!Lincheck.Specs.Map_}. *)
