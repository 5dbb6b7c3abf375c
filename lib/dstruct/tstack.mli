(** Durable Treiber stack: lock-free LIFO, [top] CASed onto freshly
    allocated two-cell nodes; unpublished node fields are flagged
    private stores (they must persist before the publishing CAS). *)

type t

val create :
  Runtime.Sched.ctx ->
  ?pflag:bool ->
  flit:Flit.Flit_intf.instance ->
  home:int ->
  unit ->
  t
(** All of the stack's memory lives on [home]. *)

val root : t -> Fabric.loc

val attach :
  Runtime.Sched.ctx ->
  ?pflag:bool ->
  flit:Flit.Flit_intf.instance ->
  Fabric.loc ->
  t

val push : t -> Runtime.Sched.ctx -> int -> unit
(** Values must be representable; by harness convention positive. *)

val pop : t -> Runtime.Sched.ctx -> int
(** The top value, or {!Absent.absent} when empty. *)
