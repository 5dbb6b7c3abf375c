(** Uniform access to the transformed objects: each kind pairs a
    {!Dstruct} implementation with its sequential specification and
    random-operation generators, so the workload runner and the benches
    are generic over objects. *)

type kind = Register | Counter | Stack | Queue | Set | Map | Log | Kv

val all_kinds : kind list
val kind_name : kind -> string

val kind_of_name : string -> kind option
(** Inverse of {!kind_name}. *)

val spec : kind -> Lincheck.Spec.t

type instance = { apply : Runtime.Sched.ctx -> Lincheck.Op.t -> int }
(** Applies an operation of its kind's spec; raises [Invalid_argument]
    on any other operation. *)

val create :
  kind ->
  Flit.Flit_intf.instance ->
  ?replicas:int ->
  Runtime.Sched.ctx ->
  home:int ->
  pflag:bool ->
  instance
(** Instantiate the object on machine [home]'s memory, wrapped with the
    given transformation instance; must run inside a scheduled thread
    (creation performs initialising stores).  [replicas] (default 1)
    only affects the sharded {!Kv} composite, which then keeps every
    shard on [replicas] distinct machines with failover
    ({!Kv.create}). *)

val random_op : ?range:int -> kind -> Random.State.t -> Lincheck.Op.t
(** Payloads and keys drawn from [1, range] (default 3) — small ranges
    because contention is the point. *)

val ratio_op : kind -> Random.State.t -> read_ratio:float -> Lincheck.Op.t
(** Read-ratio-controlled generator for benches; [read_ratio] in [0,1]. *)
