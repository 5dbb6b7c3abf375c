(** Durable Michael–Scott queue: lock-free FIFO with a dummy head node
    and helped tail swinging. *)

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

val enq : t -> Runtime.Sched.ctx -> int -> unit

val deq : t -> Runtime.Sched.ctx -> int
(** The head value, or {!Absent.absent} when empty. *)
