(** The operation vocabulary shared by generators, objects, histories and
    specifications: one constructor per operation an object accepts.
    Unit-returning operations return 0; "absent" results are
    {!Spec.absent}.  [get] and [read] each come nullary (counter,
    register) and keyed (map and kv, log).  {!name} and {!args} exist
    only to print an operation as [name(args)]. *)

type t =
  | Write of int  (** register *)
  | Read
  | Inc  (** counter *)
  | Get
  | Push of int  (** stack *)
  | Pop
  | Enq of int  (** queue *)
  | Deq
  | Add of int  (** set *)
  | Remove of int
  | Contains of int
  | Put of int * int  (** map, kv: key, value *)
  | Get_key of int
  | Del of int
  | Append of int  (** log *)
  | Read_at of int
  | Size

let name = function
  | Write _ -> "write"
  | Read | Read_at _ -> "read"
  | Inc -> "inc"
  | Get | Get_key _ -> "get"
  | Push _ -> "push"
  | Pop -> "pop"
  | Enq _ -> "enq"
  | Deq -> "deq"
  | Add _ -> "add"
  | Remove _ -> "remove"
  | Contains _ -> "contains"
  | Put _ -> "put"
  | Del _ -> "del"
  | Append _ -> "append"
  | Size -> "size"

let args = function
  | Read | Inc | Get | Pop | Deq | Size -> []
  | Write v | Push v | Enq v | Add v | Remove v | Contains v | Get_key v
  | Del v | Append v | Read_at v ->
      [ v ]
  | Put (k, v) -> [ k; v ]

let pp ppf op =
  Fmt.pf ppf "%s(%a)" (name op) Fmt.(list ~sep:comma int) (args op)
