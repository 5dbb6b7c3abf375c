(** Durable read/write register — the smallest linearizable object,
    wrapped by a transformation instance. *)

type t

val create :
  Runtime.Sched.ctx ->
  ?pflag:bool ->
  flit:Flit.Flit_intf.instance ->
  home:int ->
  unit ->
  t
(** Allocate on machine [home], initial value 0; [pflag] defaults to
    [true] (durability wanted). *)

val root : t -> Fabric.loc
(** The location to register in a {!Runtime.Rootdir}. *)

val attach :
  Runtime.Sched.ctx ->
  ?pflag:bool ->
  flit:Flit.Flit_intf.instance ->
  Fabric.loc ->
  t
(** Rebuild a handle from a registered root (recovery).  Pass the same
    instance the object was created with — its counter state must
    survive the crash (conservative stickiness). *)

val read : t -> Runtime.Sched.ctx -> int
val write : t -> Runtime.Sched.ctx -> int -> unit
