(** Durable append-only log: a bounded slot array plus a committed-length
    counter; appenders claim a slot by CASing it from empty, then help
    the length forward (a crashed appender's claim is completed by the
    next appender).  Values must be positive. *)

type t

val create :
  Runtime.Sched.ctx ->
  ?pflag:bool ->
  ?capacity:int ->
  flit:Flit.Flit_intf.instance ->
  home:int ->
  unit ->
  t
(** [capacity] defaults to 64. *)

val root : t -> Fabric.loc

val attach :
  Runtime.Sched.ctx ->
  ?pflag:bool ->
  ?capacity:int ->
  flit:Flit.Flit_intf.instance ->
  Fabric.loc ->
  t
(** [capacity] must match the creation-time value. *)

val append : t -> Runtime.Sched.ctx -> int -> int
(** The index the value landed at, or {!Absent.absent} when full.
    Raises [Invalid_argument] on non-positive values. *)

val read : t -> Runtime.Sched.ctx -> int -> int
(** The value at the index if below the committed length, else
    {!Absent.absent}. *)

val size : t -> Runtime.Sched.ctx -> int
