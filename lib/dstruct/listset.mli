(** Durable lock-free sorted-list set (Harris construction): logical
    deletion via a mark bit in the node's next field, physical unlinking
    by any traversal.  Keys must be positive.  The same list, with a
    value cell in each node ({!chain}), is each bucket of {!Hmap}. *)

type t

val create :
  Runtime.Sched.ctx ->
  ?pflag:bool ->
  flit:Flit.Flit_intf.instance ->
  home:int ->
  unit ->
  t

val root : t -> Fabric.loc

val attach :
  Runtime.Sched.ctx ->
  ?pflag:bool ->
  flit:Flit.Flit_intf.instance ->
  Fabric.loc ->
  t

val chain :
  flit:Flit.Flit_intf.instance -> pflag:bool -> home:int -> Fabric.loc -> t
(** [chain ~flit ~pflag ~home head_next] — the list whose head cell is
    [head_next], with (key, value, next) nodes allocated on [home]: the
    next cell sits at base+2, and the value cell at base+1 belongs to
    the caller. *)

val alloc_node : t -> Runtime.Sched.ctx -> Fabric.loc
(** A fresh node's base, its cells consecutive from it: key, next; or
    key, value, next on a {!chain}. *)

val find : t -> Runtime.Sched.ctx -> int -> Fabric.loc * int * int option
(** [find t ctx k] — the insertion window for [k]: [(pred_next, cur,
    cur_key)], the location of the predecessor's next cell, the
    unmarked pointer it holds, and [Some key] of the node it points to
    (the first whose key is [>= k]), or [None] at the end.  Unlinks the
    marked nodes it passes.  No [complete_op]. *)

val lookup : t -> Runtime.Sched.ctx -> int -> Fabric.loc
(** The unmarked node holding the key, or -1.  Read-only traversal; no
    [complete_op]. *)

val add : t -> Runtime.Sched.ctx -> int -> int
(** 1 if inserted, 0 if already present. *)

val remove : t -> Runtime.Sched.ctx -> int -> int
(** 1 if present and removed (linearizes at the marking CAS), else 0. *)

val contains : t -> Runtime.Sched.ctx -> int -> int
(** 1 if {!lookup} finds the key, else 0. *)
