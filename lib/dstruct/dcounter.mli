(** Durable fetch-and-increment counter (CAS-loop increment, so it
    exercises the transformation's CAS path under contention). *)

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

val inc : t -> Runtime.Sched.ctx -> int
(** Atomically increment; returns the previous value. *)

val get : t -> Runtime.Sched.ctx -> int
