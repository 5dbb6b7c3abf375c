(** Uniform access to the transformed data structures.

    Each object kind pairs a {!Dstruct} implementation (instantiated with
    a transformation) with its {!Lincheck.Specs} sequential specification
    and a random-operation generator, so the workload runner and the
    benches can be generic over objects. *)

module Op = Lincheck.Op

type kind = Register | Counter | Stack | Queue | Set | Map | Log | Kv

let all_kinds = [ Register; Counter; Stack; Queue; Set; Map; Log; Kv ]

let kind_name = function
  | Register -> "register"
  | Counter -> "counter"
  | Stack -> "stack"
  | Queue -> "queue"
  | Set -> "set"
  | Map -> "map"
  | Log -> "log"
  | Kv -> "kv"

let kind_of_name s = List.find_opt (fun k -> kind_name k = s) all_kinds

let spec : kind -> Lincheck.Spec.t = function
  | Register -> Lincheck.Specs.register
  | Counter -> Lincheck.Specs.counter
  | Stack -> Lincheck.Specs.stack
  | Queue -> Lincheck.Specs.queue
  | Set -> Lincheck.Specs.set
  | Map -> Lincheck.Specs.map
  | Log -> Lincheck.Specs.log
  (* the sharded composite partitions the keyspace over per-machine
     Hmap shards; durable linearizability is local, so the map spec
     carries over unchanged *)
  | Kv -> Lincheck.Specs.map

type instance = { apply : Runtime.Sched.ctx -> Op.t -> int }

(** [create kind flit ctx ~home ~pflag] — instantiate the object on
    machine [home]'s memory, wrapped with the transformation instance
    [flit].  Must run inside a scheduled thread (object creation performs
    initialising stores).  [replicas] (default 1) only affects the
    sharded {!Kv} composite — every other kind is single-copy. *)
let create (kind : kind) (flit : Flit.Flit_intf.instance) ?(replicas = 1) ctx
    ~home ~pflag : instance =
  let foreign op =
    invalid_arg ("Objects: " ^ Op.name op ^ " on a " ^ kind_name kind)
  in
  match kind with
  | Register ->
      let t = Dstruct.Dreg.create ctx ~pflag ~flit ~home () in
      { apply = (fun ctx -> function
          | Op.Write v -> Dstruct.Dreg.write t ctx v; 0
          | Read -> Dstruct.Dreg.read t ctx
          | op -> foreign op) }
  | Counter ->
      let t = Dstruct.Dcounter.create ctx ~pflag ~flit ~home () in
      { apply = (fun ctx -> function
          | Op.Inc -> Dstruct.Dcounter.inc t ctx
          | Get -> Dstruct.Dcounter.get t ctx
          | op -> foreign op) }
  | Stack ->
      let t = Dstruct.Tstack.create ctx ~pflag ~flit ~home () in
      { apply = (fun ctx -> function
          | Op.Push v -> Dstruct.Tstack.push t ctx v; 0
          | Pop -> Dstruct.Tstack.pop t ctx
          | op -> foreign op) }
  | Queue ->
      let t = Dstruct.Msqueue.create ctx ~pflag ~flit ~home () in
      { apply = (fun ctx -> function
          | Op.Enq v -> Dstruct.Msqueue.enq t ctx v; 0
          | Deq -> Dstruct.Msqueue.deq t ctx
          | op -> foreign op) }
  | Set ->
      let t = Dstruct.Listset.create ctx ~pflag ~flit ~home () in
      { apply = (fun ctx -> function
          | Op.Add k -> Dstruct.Listset.add t ctx k
          | Remove k -> Dstruct.Listset.remove t ctx k
          | Contains k -> Dstruct.Listset.contains t ctx k
          | op -> foreign op) }
  | Map ->
      let t = Dstruct.Hmap.create ctx ~pflag ~flit ~home () in
      { apply = (fun ctx -> function
          | Op.Put (k, v) -> Dstruct.Hmap.put t ctx k v
          | Get_key k -> Dstruct.Hmap.get t ctx k
          | Del k -> Dstruct.Hmap.del t ctx k
          | op -> foreign op) }
  | Log ->
      let t = Dstruct.Dlog.create ctx ~pflag ~flit ~home () in
      { apply = (fun ctx -> function
          | Op.Append v -> Dstruct.Dlog.append t ctx v
          | Read_at i -> Dstruct.Dlog.read t ctx i
          | Size -> Dstruct.Dlog.size t ctx
          | op -> foreign op) }
  | Kv ->
      let t = Kv.create ctx ~pflag ~replicas ~flit ~home () in
      { apply = (fun ctx -> function
          | Op.Put (k, v) -> Kv.put t ctx k v
          | Get_key k -> Kv.get t ctx k
          | Del k -> Kv.del t ctx k
          | op -> foreign op) }

(** [random_op ?range kind rng] — a random operation with payloads and
    keys drawn from [1, range] (default 3; contention is the point:
    distinct threads must collide on keys, and the fuzzer shrinks
    [range] toward 1). *)
let random_op ?(range = 3) (kind : kind) rng : Op.t =
  let range = max 1 range in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let v () = 1 + Random.State.int rng range in
  let k () = 1 + Random.State.int rng range in
  match kind with
  | Register -> pick Op.[ Write (v ()); Read ]
  | Counter -> pick Op.[ Inc; Get ]
  | Stack -> pick Op.[ Push (v ()); Pop ]
  | Queue -> pick Op.[ Enq (v ()); Deq ]
  | Set -> pick Op.[ Add (k ()); Remove (k ()); Contains (k ()) ]
  | Map | Kv -> pick Op.[ Put (k (), v ()); Get_key (k ()); Del (k ()) ]
  | Log -> pick Op.[ Append (v ()); Read_at (Random.State.int rng 5); Size ]

(** A read-ratio-controlled generator for benches: [read_ratio] in [0,1]. *)
let ratio_op (kind : kind) rng ~read_ratio : Op.t =
  let v () = 1 + Random.State.int rng 64 in
  let k () = 1 + Random.State.int rng 16 in
  let read = Random.State.float rng 1.0 < read_ratio in
  match kind with
  | Register -> if read then Read else Write (v ())
  | Counter -> if read then Get else Inc
  | Stack -> if read then Pop else Push (v ())
  | Queue -> if read then Deq else Enq (v ())
  | Set ->
      if read then Contains (k ())
      else if Random.State.bool rng then Add (k ())
      else Remove (k ())
  | Map | Kv ->
      if read then Get_key (k ())
      else if Random.State.bool rng then Put (k (), v ())
      else Del (k ())
  | Log ->
      if read then
        if Random.State.bool rng then Read_at (Random.State.int rng 32)
        else Size
      else Append (v ())
