(** The simulated CXL fabric: an executable, mutable implementation of the
    CXL0 abstract machine.

    Where {!Cxl0.Semantics} is the pure *formal* model (immutable
    configurations, nondeterminism as sets), this module is the same
    machine built for running programs: it exploits the coherence
    invariant — all caches holding [x] hold the same value — to represent
    a location as a single

    {[ { holders : bitmask; cval; mem } ]}

    triple so every primitive is O(1).  Nondeterministic propagation (τ)
    becomes the cache-replacement machinery: each machine has a bounded
    cache with FIFO replacement, and the scheduler may additionally
    trigger spontaneous evictions ({!maybe_evict}) so that durability bugs
    manifest.  Tests cross-validate this module against the formal
    semantics step by step ({!to_config}).

    The data plane is built for mechanical speed (DESIGN.md decision 12):

    - line state lives in parallel unboxed [int array]s (struct of
      arrays), so a primitive touches flat integer memory — no per-line
      heap record, no pointer chase;
    - remote-access charging is a single load from per-pair cost tables
      precomputed at {!create} from the latency model and topology;
    - FIFO replacement order is kept in preallocated ring buffers, so
      the eviction engine allocates nothing in steady state.

    All of it is behaviour-preserving: same cycle charges, same stats,
    same RNG draw sequence — the blessed corpus replay gate checks
    byte-identity. *)

(* [fabric.ml] shares its name with the library, so it is the library's
   interface module; re-export the siblings. *)
module Stats = Stats
module Latency = Latency
module Topology = Topology
module Faults = Faults

type machine_conf = {
  name : string;
  volatile : bool;       (** shared memory lost on crash *)
  cache_capacity : int;  (** max lines cached; >= 1 *)
}

let machine ?(volatile = false) ?(cache_capacity = 1024) name =
  if cache_capacity < 1 then invalid_arg "Fabric.machine: capacity < 1";
  { name; volatile; cache_capacity }

type loc = int
(** Locations are dense indices into the fabric's location table. *)

(* Preallocated FIFO ring (power-of-two capacity): replacement order per
   machine.  Entries may be stale — a line invalidated by a later store
   stays queued until popped — so the ring grows (amortised doubling)
   rather than bounding at cache capacity; steady state allocates
   nothing. *)
type ring = {
  mutable rbuf : int array;
  mutable rhead : int;  (** index of the oldest entry *)
  mutable rlen : int;
}

let ring_create () = { rbuf = Array.make 16 0; rhead = 0; rlen = 0 }

let ring_push r x =
  let cap = Array.length r.rbuf in
  if r.rlen = cap then begin
    (* full: unwrap into a doubled buffer *)
    let bigger = Array.make (2 * cap) 0 in
    let tail = cap - r.rhead in
    Array.blit r.rbuf r.rhead bigger 0 tail;
    Array.blit r.rbuf 0 bigger tail r.rhead;
    r.rbuf <- bigger;
    r.rhead <- 0
  end;
  r.rbuf.((r.rhead + r.rlen) land (Array.length r.rbuf - 1)) <- x;
  r.rlen <- r.rlen + 1

(* Caller guarantees [rlen > 0]. *)
let ring_pop r =
  let x = r.rbuf.(r.rhead) in
  r.rhead <- (r.rhead + 1) land (Array.length r.rbuf - 1);
  r.rlen <- r.rlen - 1;
  x

let ring_clear r =
  r.rhead <- 0;
  r.rlen <- 0

type t = {
  uid : int;  (** unique per fabric instance (labels and diagnostics) *)
  conf : machine_conf array;
  n_m : int;  (** [Array.length conf], cached for the hot paths *)
  (* Line storage, struct of arrays: index is the location.  [owner] and
     [coff] are fixed at allocation; [holders]/[cval]/[mem] mutate on
     every primitive.  All five grow together ({!alloc}). *)
  mutable owner : int array;
  mutable coff : int array;    (** offset within the owner's space *)
  mutable holders : int array; (** bitmask of machines caching the line *)
  mutable cval : int array;    (** the (unique) cached value, if held *)
  mutable mem : int array;     (** value in the owner's physical memory *)
  mutable n_locs : int;
  next_off : int array;        (** per-owner next free offset *)
  rings : ring array;          (** FIFO replacement order per machine *)
  live : int array;            (** live cache entries per machine *)
  stats : Stats.t;
  model : Latency.t;
  topology : Topology.t;
  (* Charging, flattened: the scalar classes as plain fields, the
     remote classes as dense per-pair tables ([i * n_m + k], issuer ×
     owner) precomputed from [model] and [topology] — charging a remote
     access is one array load instead of a hop lookup and multiply. *)
  lat_local_cache : int;
  lat_local_mem : int;
  lat_clean_check : int;
  lat_atomic_extra : int;
  cost_rc : int array;  (** remote-cache crossing, surcharge folded in *)
  cost_rm : int array;  (** remote-memory crossing, surcharge folded in *)
  rng : Random.State.t;
  mutable evict_prob : float;  (** chance of spontaneous eviction per tick *)
  mutable evict_gap : int;
      (** failed chances left before {!maybe_evict_n}'s next eviction;
          -1 until drawn *)
  faults : Faults.t option;
      (** the RAS fault plan, if one was attached at creation.  [None]
          keeps every primitive on the exact pre-fault code path. *)
  mutable outcome : int;  (** {!attempt}'s last outcome, a [Faults] code *)
  tracer : Obs.Tracer.t option;
      (** the event tracer, if one was attached at creation.  [None]
          keeps every primitive free of observability work: each
          emission site is a direct match on this field, so an untraced
          fabric allocates nothing, draws no randomness and charges no
          cycles for tracing. *)
}

let next_uid = Atomic.make 1
(* Atomic: the fuzz campaign creates fabrics on Parallel worker domains,
   and a duplicated uid would alias their labels. *)

(* NaN fails every comparison, so [not (0 <= p <= 1)] rejects it too. *)
let check_prob name p =
  if not (p >= 0.0 && p <= 1.0) then
    invalid_arg (Printf.sprintf "%s: probability %g not in [0,1]" name p)

let max_machines = 62

(* "M1" .. "M62", built once: machine names are per-fabric-creation
   otherwise, and fabric creation is on the fuzz campaign's per-cell
   path.  Eager, not [lazy]: campaign workers on several domains would
   race to force it ([CamlinternalLazy.Undefined]). *)
let default_names =
  Array.init max_machines (fun i -> Printf.sprintf "M%d" (i + 1))

let default_name i =
  if i >= 0 && i < max_machines then default_names.(i)
  else Printf.sprintf "M%d" (i + 1)

let create ?(model = Latency.default) ?topology ?(seed = 0)
    ?(evict_prob = 0.05) ?faults ?tracer conf =
  let n = Array.length conf in
  if n = 0 then invalid_arg "Fabric.create: no machines";
  if n > max_machines then invalid_arg "Fabric.create: more than 62 machines";
  check_prob "Fabric.create evict_prob" evict_prob;
  (match faults with
  | Some p when Faults.max_machine p >= n ->
      invalid_arg "Fabric.create: fault plan references unknown machine"
  | _ -> ());
  let topology =
    match topology with
    | None -> Topology.flat n
    | Some t ->
        if Topology.size t <> n then
          invalid_arg "Fabric.create: topology size mismatch";
        t
  in
  (* the per-pair tables; the [hops - 1] surcharge formula is shared
     with the pre-table code (a same-machine "remote" crossing has hops
     0, so the diagonal discounts one hop — preserved exactly) *)
  let cost_rc = Array.make (n * n) 0 in
  let cost_rm = Array.make (n * n) 0 in
  for i = 0 to n - 1 do
    for k = 0 to n - 1 do
      let surcharge = (Topology.hops topology i k - 1) * model.Latency.per_hop in
      cost_rc.((i * n) + k) <- model.Latency.remote_cache + surcharge;
      cost_rm.((i * n) + k) <- model.Latency.remote_mem + surcharge
    done
  done;
  {
    uid = Atomic.fetch_and_add next_uid 1;
    conf;
    n_m = n;
    (* start small — fuzz cells allocate a handful of lines and create
       fabrics by the thousand; growth doubles as needed *)
    owner = Array.make 16 0;
    coff = Array.make 16 0;
    holders = Array.make 16 0;
    cval = Array.make 16 0;
    mem = Array.make 16 0;
    n_locs = 0;
    next_off = Array.make n 0;
    rings = Array.init n (fun _ -> ring_create ());
    live = Array.make n 0;
    stats = Stats.create ();
    model;
    topology;
    lat_local_cache = model.Latency.local_cache;
    lat_local_mem = model.Latency.local_mem;
    lat_clean_check = model.Latency.clean_check;
    lat_atomic_extra = model.Latency.atomic_extra;
    cost_rc;
    cost_rm;
    rng = Random.State.make [| seed |];
    evict_prob;
    evict_gap = -1;
    faults;
    outcome = Faults.ok;
    tracer;
  }

(** [uniform n] — an [n]-machine non-volatile fabric with defaults. *)
let uniform ?model ?topology ?seed ?evict_prob ?faults ?tracer
    ?(volatile = false) ?cache_capacity n =
  create ?model ?topology ?seed ?evict_prob ?faults ?tracer
    (Array.init n (fun i -> machine ~volatile ?cache_capacity (default_name i)))

let uid t = t.uid
let n_machines t = t.n_m
let stats t = t.stats
let cycles t = t.stats.Stats.cycles
let n_locs t = t.n_locs
let is_volatile t i = t.conf.(i).volatile
let set_evict_prob t p =
  check_prob "Fabric.set_evict_prob" p;
  t.evict_prob <- p;
  t.evict_gap <- -1

let faults t = t.faults
let tracer t = t.tracer

let charge t c = t.stats.Stats.cycles <- t.stats.Stats.cycles + c

(* Emission sites.  Each is a direct match on [t.tracer]: with no tracer
   attached the only cost is the [None] branch — no closure, no event
   allocation, no cycles — which is what keeps the blessed corpus replay
   gate byte-identical.  [t0] is read before the primitive executes; a
   dead int read on the untraced path. *)

let trace_prim t prim i x t0 =
  match t.tracer with
  | None -> ()
  | Some tr ->
      Obs.Tracer.emit tr
        (Obs.Event.Prim
           { prim; machine = i; loc = x; t0; t1 = t.stats.Stats.cycles })

let trace_evict t kind i x =
  match t.tracer with
  | None -> ()
  | Some tr ->
      Obs.Tracer.emit tr
        (Obs.Event.Evict
           { kind; machine = i; loc = x; cycle = t.stats.Stats.cycles })

let trace_fault t kind ~machine ~to_machine ~loc =
  match t.tracer with
  | None -> ()
  | Some tr ->
      Obs.Tracer.emit tr
        (Obs.Event.Fault
           { kind; machine; to_machine; loc; cycle = t.stats.Stats.cycles })

(* Cost of machine [i] reaching machine [k]'s cache (resp. memory)
   across the fabric: one load from the precomputed table.  Remote
   accesses are routed via the location's home agent, so the distance
   that matters is issuer-to-owner. *)
let cost_rc t i k = t.cost_rc.((i * t.n_m) + k)
let cost_rm t i k = t.cost_rm.((i * t.n_m) + k)

let topology t = t.topology

let check_loc t x =
  if x < 0 || x >= t.n_locs then invalid_arg "Fabric: bad location"

let owner t x =
  check_loc t x;
  t.owner.(x)

(* ------------------------------------------------------------------ *)
(* Allocation                                                          *)
(* ------------------------------------------------------------------ *)

(** [alloc t ~owner] returns a fresh location hosted on [owner]'s memory,
    initialised to zero.  Allocation is a fabric-management operation and
    is not part of the modelled instruction set (no cycles charged). *)
let alloc t ~owner =
  if owner < 0 || owner >= t.n_m then invalid_arg "Fabric.alloc";
  if t.n_locs = Array.length t.owner then begin
    let grow a =
      let bigger = Array.make (2 * Array.length a) 0 in
      Array.blit a 0 bigger 0 t.n_locs;
      bigger
    in
    t.owner <- grow t.owner;
    t.coff <- grow t.coff;
    t.holders <- grow t.holders;
    t.cval <- grow t.cval;
    t.mem <- grow t.mem
  end;
  let x = t.n_locs in
  let coff = t.next_off.(owner) in
  t.next_off.(owner) <- coff + 1;
  t.owner.(x) <- owner;
  t.coff.(x) <- coff;
  t.holders.(x) <- 0;
  t.cval.(x) <- 0;
  t.mem.(x) <- 0;
  t.n_locs <- x + 1;
  x

(* Array-backed with an explicit ascending loop: the locations of a
   batch must be consecutive ([List.init]'s evaluation order is
   unspecified, and here evaluation order is allocation order). *)
let alloc_n t ~owner n =
  if n < 0 then invalid_arg "Fabric.alloc_n";
  let a = Array.make n 0 in
  for i = 0 to n - 1 do
    a.(i) <- alloc t ~owner
  done;
  Array.to_list a

(* ------------------------------------------------------------------ *)
(* Holder-set plumbing                                                 *)
(* ------------------------------------------------------------------ *)

let bit = Cxl0.Packed.bit

let holds t x i = t.holders.(x) land bit i <> 0

(* Drop [i]'s live count for every holder in [mask]; shares the packed
   engine's bitmask iterator. *)
(* A closure over [t] here would be a minor allocation on every store
   and RMW — loop over the (few) machines instead. *)
let uncount_holders t mask =
  if mask <> 0 then
    for i = 0 to t.n_m - 1 do
      if mask land bit i <> 0 then t.live.(i) <- t.live.(i) - 1
    done

(* Clear every holder bit, updating per-machine live counts. *)
let clear_all_holders t x =
  uncount_holders t t.holders.(x);
  t.holders.(x) <- 0

let clear_holder t x i =
  if holds t x i then begin
    t.holders.(x) <- t.holders.(x) land lnot (bit i);
    t.live.(i) <- t.live.(i) - 1
  end

(* One propagation step for line [x] out of machine [i]'s cache:
   horizontal toward the owner if [i] is not the owner, vertical into
   memory otherwise (vertical invalidates *all* caches, per the
   CACHE-MEM rule). *)
let rec propagate_from t x i =
  if holds t x i then
    if i = t.owner.(x) then begin
      t.mem.(x) <- t.cval.(x);
      clear_all_holders t x;
      t.stats.Stats.evictions_vertical <- t.stats.Stats.evictions_vertical + 1;
      trace_evict t Obs.Event.Vertical i x
    end
    else begin
      clear_holder t x i;
      t.stats.Stats.evictions_horizontal <-
        t.stats.Stats.evictions_horizontal + 1;
      trace_evict t Obs.Event.Horizontal i x;
      insert t t.owner.(x) x
    end

(* Make machine [i] a holder of [x], evicting if over capacity. *)
and insert t i x =
  if not (holds t x i) then begin
    t.holders.(x) <- t.holders.(x) lor bit i;
    t.live.(i) <- t.live.(i) + 1;
    ring_push t.rings.(i) x;
    while t.live.(i) > t.conf.(i).cache_capacity do
      evict_one t i
    done
  end

(* Evict the oldest live line from machine [i]'s cache (stale ring
   entries — lines no longer held — are skipped and discarded). *)
and evict_one t i =
  let r = t.rings.(i) in
  let rec pop () =
    if r.rlen = 0 then () (* live count out of sync is impossible; defensive *)
    else
      let x = ring_pop r in
      if holds t x i then propagate_from t x i else pop ()
  in
  pop ()

(* ------------------------------------------------------------------ *)
(* The CXL0 primitives                                                 *)
(* ------------------------------------------------------------------ *)

let visible t x =
  check_loc t x;
  if t.holders.(x) <> 0 then t.cval.(x) else t.mem.(x)

(* Overwriting a line with fresh data (any store) or scrubbing it back to
   memory (rflush's write-back) clears its poison; loads and lflushes only
   move the poisoned data around.  A plain branch-on-None, so fault-free
   fabrics pay one comparison and stay byte-identical. *)
let heal_if_planned t x =
  match t.faults with None -> () | Some p -> Faults.heal p x

(** [load t i x] — coherent load by machine [i]: the unique cached value
    if any cache holds [x] (copying it into [i]'s cache), otherwise the
    owner's memory value. *)
let load t i x =
  check_loc t x;
  let t0 = t.stats.Stats.cycles in
  let v =
    if t.holders.(x) <> 0 then begin
      let v = t.cval.(x) in
      if holds t x i then begin
        t.stats.Stats.loads_local_cache <- t.stats.Stats.loads_local_cache + 1;
        charge t t.lat_local_cache
      end
      else begin
        t.stats.Stats.loads_remote_cache <-
          t.stats.Stats.loads_remote_cache + 1;
        charge t (cost_rc t i t.owner.(x));
        insert t i x
      end;
      v
    end
    else begin
      t.stats.Stats.loads_mem <- t.stats.Stats.loads_mem + 1;
      charge t
        (if t.owner.(x) = i then t.lat_local_mem else cost_rm t i t.owner.(x));
      t.mem.(x)
    end
  in
  trace_prim t Obs.Event.Load i x t0;
  v

(** [lstore t i x v] — LStore: the line lands in [i]'s cache; every other
    cache invalidates it. *)
let lstore t i x v =
  check_loc t x;
  let t0 = t.stats.Stats.cycles in
  t.stats.Stats.lstores <- t.stats.Stats.lstores + 1;
  charge t t.lat_local_cache;
  let keep = if holds t x i then bit i else 0 in
  uncount_holders t (t.holders.(x) land lnot keep);
  t.holders.(x) <- keep;
  t.cval.(x) <- v;
  insert t i x;
  heal_if_planned t x;
  trace_prim t Obs.Event.Lstore i x t0

(** [rstore t i x v] — RStore: the line lands in the owner's cache. *)
let rstore t i x v =
  check_loc t x;
  let t0 = t.stats.Stats.cycles in
  let ow = t.owner.(x) in
  t.stats.Stats.rstores <- t.stats.Stats.rstores + 1;
  charge t (if ow = i then t.lat_local_cache else cost_rc t i ow);
  let keep = if holds t x ow then bit ow else 0 in
  uncount_holders t (t.holders.(x) land lnot keep);
  t.holders.(x) <- keep;
  t.cval.(x) <- v;
  insert t ow x;
  heal_if_planned t x;
  trace_prim t Obs.Event.Rstore i x t0

(** [mstore t i x v] — MStore: straight to the owner's physical memory;
    all caches invalidate. *)
let mstore t i x v =
  check_loc t x;
  let t0 = t.stats.Stats.cycles in
  let ow = t.owner.(x) in
  t.stats.Stats.mstores <- t.stats.Stats.mstores + 1;
  charge t (if ow = i then t.lat_local_mem else cost_rm t i ow);
  clear_all_holders t x;
  t.mem.(x) <- v;
  heal_if_planned t x;
  trace_prim t Obs.Event.Mstore i x t0

(** [lflush t i x] — LFlush with *forcing* semantics: perform the
    propagation the formal model's blocking precondition waits for.  If
    [i] holds the line: the owner writes it back to memory (vertical) when
    [i] is the owner, otherwise the line moves to the owner's cache
    (horizontal).  A clean line costs only the check. *)
let lflush t i x =
  check_loc t x;
  let t0 = t.stats.Stats.cycles in
  t.stats.Stats.lflushes <- t.stats.Stats.lflushes + 1;
  if holds t x i then begin
    charge t
      (if i = t.owner.(x) then t.lat_local_mem else cost_rc t i t.owner.(x));
    propagate_from t x i
  end
  else charge t t.lat_clean_check;
  trace_prim t Obs.Event.Lflush i x t0

(** [rflush t i x] — RFlush, forcing: the latest value (wherever cached)
    is written back to the owner's physical memory and all caches drop
    the line. *)
let rflush t i x =
  check_loc t x;
  let t0 = t.stats.Stats.cycles in
  t.stats.Stats.rflushes <- t.stats.Stats.rflushes + 1;
  if t.holders.(x) <> 0 then begin
    let ow = t.owner.(x) in
    charge t (if ow = i then t.lat_local_mem else cost_rm t i ow);
    t.mem.(x) <- t.cval.(x);
    clear_all_holders t x;
    heal_if_planned t x
  end
  else charge t t.lat_clean_check;
  trace_prim t Obs.Event.Rflush i x t0

(* ------------------------------------------------------------------ *)
(* Atomics                                                             *)
(* ------------------------------------------------------------------ *)

(** [faa t i x d] — atomic fetch-and-add (the paper assumes FAA exists,
    §4.4).  The read-modify-write is indivisible (the cooperative
    scheduler never interleaves inside a primitive); the updated value is
    deposited at the owner's cache, like an RStore. *)
let faa t i x d =
  check_loc t x;
  let t0 = t.stats.Stats.cycles in
  let ow = t.owner.(x) in
  t.stats.Stats.faas <- t.stats.Stats.faas + 1;
  charge t
    ((if ow = i then t.lat_local_cache else cost_rc t i ow)
    + t.lat_atomic_extra);
  let old = if t.holders.(x) <> 0 then t.cval.(x) else t.mem.(x) in
  let keep = if holds t x ow then bit ow else 0 in
  uncount_holders t (t.holders.(x) land lnot keep);
  t.holders.(x) <- keep;
  t.cval.(x) <- old + d;
  insert t ow x;
  trace_prim t Obs.Event.Faa i x t0;
  old

type store_kind = Cxl0.Label.store_kind

(** [cas t i x ~expected ~desired ~kind] — atomic compare-and-swap whose
    successful write has the strength of [kind] (the transformation
    decides how strongly a CAS publishes, mirroring how it treats plain
    stores). *)
let cas t i x ~expected ~desired ~(kind : store_kind) =
  check_loc t x;
  let t0 = t.stats.Stats.cycles in
  t.stats.Stats.cass <- t.stats.Stats.cass + 1;
  charge t t.lat_atomic_extra;
  let cur = if t.holders.(x) <> 0 then t.cval.(x) else t.mem.(x) in
  let ok =
    if cur = expected then begin
      (* a successful CAS emits its inner store's event too — the slice
         nests inside the CAS slice on the timeline *)
      (match kind with
      | Cxl0.Label.L -> lstore t i x desired
      | Cxl0.Label.R -> rstore t i x desired
      | Cxl0.Label.M -> mstore t i x desired);
      true
    end
    else begin
      let ow = t.owner.(x) in
      charge t (if ow = i then t.lat_local_cache else cost_rc t i ow);
      false
    end
  in
  trace_prim t Obs.Event.Cas i x t0;
  ok

(* ------------------------------------------------------------------ *)
(* The faultable attempt and the RAS plan                              *)
(* ------------------------------------------------------------------ *)

(* {!attempt} runs one primitive under the fault plan's link and poison
   checks.  With no plan attached it is the plain primitive — same
   charges, same stats, same RNG stream — which is the byte-identity
   invariant the corpus replay gate enforces.  FliT-counter metadata
   traffic ([account_meta_*]) rides along with the data access it
   accompanies and is not separately faultable. *)

let count_fault t =
  t.stats.Stats.faults_injected <- t.stats.Stats.faults_injected + 1

(* One message from machine [i] to the home agent at [to_m]: [true] when
   it is delivered.  A delayed delivery charges the delay and proceeds;
   a NACK charges the link-retry latency and a down link the completion
   timeout, and both leave their code in [t.outcome]. *)
let delivered t p i to_m =
  let c = Faults.crossing p ~cycles:t.stats.Stats.cycles ~from_m:i ~to_m in
  if c = Faults.ok then true
  else begin
    count_fault t;
    if c = Faults.delayed then begin
      charge t (Faults.delay_cycles p i to_m);
      trace_fault t Obs.Event.Delay ~machine:i ~to_machine:to_m ~loc:(-1);
      true
    end
    else begin
      let nacked = c = Faults.nack in
      charge t (if nacked then Faults.nack_cycles p else Faults.timeout_cycles p);
      trace_fault t
        (if nacked then Obs.Event.Nack else Obs.Event.Timeout)
        ~machine:i ~to_machine:to_m ~loc:(-1);
      t.outcome <- c;
      false
    end
  end

(* Does machine [i]'s read of [x] observe poison?  Counted, traced and
   left in [t.outcome] when it does. *)
let poison_observed t p i x =
  Faults.is_poisoned p x
  && begin
       count_fault t;
       trace_fault t Obs.Event.Poison_hit ~machine:i ~to_machine:(-1) ~loc:x;
       t.outcome <- Faults.poison_hit;
       true
     end

let not_faultable () = invalid_arg "Fabric.attempt: metadata is not faultable"

(* The plain primitive named by [prim], its result as an int. *)
let exec t (prim : Obs.Event.prim) i x a b kind =
  match prim with
  | Load -> load t i x
  | Lstore -> lstore t i x a; 0
  | Rstore -> rstore t i x a; 0
  | Mstore -> mstore t i x a; 0
  | Lflush -> lflush t i x; 0
  | Rflush -> rflush t i x; 0
  | Faa -> faa t i x a
  | Cas -> Bool.to_int (cas t i x ~expected:a ~desired:b ~kind)
  | Meta_faa | Meta_read -> not_faultable ()

let attempt t (prim : Obs.Event.prim) i x a b kind =
  t.outcome <- Faults.ok;
  match t.faults with
  | None -> exec t prim i x a b kind
  | Some p -> (
      check_loc t x;
      let to_m =
        match prim with
        | Load -> if holds t x i then i else t.owner.(x)
        | Lstore -> i
        | Lflush -> if holds t x i then t.owner.(x) else i
        | Rstore | Mstore | Rflush | Faa | Cas -> t.owner.(x)
        | Meta_faa | Meta_read -> not_faultable ()
      in
      if not (delivered t p i to_m) then 0
      else
        match prim with
        | Load ->
            (* the load itself executes — poisoned data still travels
               and caches; only the value delivery is replaced *)
            let v = load t i x in
            if poison_observed t p i x then 0 else v
        | (Faa | Cas) when poison_observed t p i x ->
            (* the RMW read observed poison: charge the crossing and the
               RMW surcharge, abort before mutating *)
            let ow = t.owner.(x) in
            charge t
              ((if ow = i then t.lat_local_cache else cost_rc t i ow)
              + t.lat_atomic_extra);
            0
        | _ -> exec t prim i x a b kind)

let outcome t = t.outcome

(* A link fault only ever stops a message to [x]'s owner: every other
   destination {!attempt} picks is the issuer itself, which crosses no
   link. *)
let fault t i x =
  let o = t.outcome in
  if o = Faults.nack then Faults.Nack { from_m = i; to_m = owner t x }
  else if o = Faults.timeout then
    Faults.Link_timeout { from_m = i; to_m = owner t x }
  else if o = Faults.poison_hit then Faults.Poisoned { loc = x }
  else invalid_arg "Fabric.fault: the last attempt did not fault"

(** [poison t x] — mark the line poisoned (requires a fault plan).  The
    next load observes [Poisoned]; a store of fresh data or an [rflush]
    write-back heals it. *)
let poison t x =
  check_loc t x;
  match t.faults with
  | None -> invalid_arg "Fabric.poison: no fault plan attached"
  | Some p ->
      Faults.poison p x;
      trace_fault t Obs.Event.Poison_set ~machine:(-1) ~to_machine:(-1) ~loc:x

let poisoned t x =
  match t.faults with None -> false | Some p -> Faults.is_poisoned p x

(** [link_degraded t a b] — is there a standing fault on the link between
    [a] and [b] right now?  FliT's degraded mode keys off this; pure (no
    RNG draw), and always [false] without a plan. *)
let link_degraded t a b =
  match t.faults with
  | None -> false
  | Some p -> Faults.link_faulty p ~cycles:t.stats.Stats.cycles a b

(* ------------------------------------------------------------------ *)
(* Metadata accounting                                                 *)
(* ------------------------------------------------------------------ *)

(* FliT counters are volatile metadata co-located with their object (the
   FliT paper packs them next to the data).  They live outside the
   modelled address space (see lib/flit/counters.ml for why), but their
   accesses are real fabric traffic, so the transformation layer charges
   them through these hooks: an atomic FAA / a read against metadata
   hosted by [x]'s owner. *)

let account_meta_faa t i x =
  check_loc t x;
  let t0 = t.stats.Stats.cycles in
  let ow = t.owner.(x) in
  t.stats.Stats.faas <- t.stats.Stats.faas + 1;
  charge t
    ((if ow = i then t.lat_local_cache else cost_rc t i ow)
    + t.lat_atomic_extra);
  trace_prim t Obs.Event.Meta_faa i x t0

(* Counter *reads* ride along with the data access they accompany (FliT
   packs the counter into the object's cache lines), so they cost a
   local-cache touch, not a second fabric crossing. *)
let account_meta_read t i x =
  check_loc t x;
  let t0 = t.stats.Stats.cycles in
  charge t t.lat_local_cache;
  trace_prim t Obs.Event.Meta_read i x t0

(* ------------------------------------------------------------------ *)
(* Nondeterministic propagation and crashes                            *)
(* ------------------------------------------------------------------ *)

(** [evict_loc t i x] — deterministically perform one propagation step of
    [x] out of machine [i]'s cache (no-op if [i] does not hold it).
    Exposed for tests that need to place the system in a specific
    configuration. *)
let evict_loc t i x =
  check_loc t x;
  propagate_from t x i

let evict_random t =
  let n = t.n_m in
  let start = Random.State.int t.rng n in
  let rec find k =
    if k = n then ()
    else
      let i = (start + k) mod n in
      if t.live.(i) > 0 then evict_one t i else find (k + 1)
  in
  find 0

(* A loop, not [Array.exists]: the scheduler asks this once per idle
   skip, and [Array.exists]'s inner closure allocated 6 words a call. *)
let any_live t =
  let i = ref 0 in
  while !i < Array.length t.live && t.live.(!i) <= 0 do
    incr i
  done;
  !i < Array.length t.live

(** [maybe_evict t] — with probability [evict_prob], evict the oldest line
    of a random machine that caches anything.  Called by the scheduler
    between primitives; this is the runtime counterpart of the formal
    model's τ-steps. *)
let maybe_evict t =
  if Random.State.float t.rng 1.0 < t.evict_prob then evict_random t

(** [maybe_evict_n t g] — [g] calls of {!maybe_evict} in law.  The
    failed chances before the next eviction are geometric, so one draw
    (by inversion) covers them, and the draw is kept across calls: a
    call that ends before the next eviction only counts down.  Once no
    cache holds a line the remaining chances are no-ops, so it stops
    there, and it draws nothing when [evict_prob] is 0 or no line is
    cached. *)
let maybe_evict_n t g =
  let left = ref g in
  while !left > 0 do
    if t.evict_gap < 0 then
      if t.evict_prob > 0.0 && any_live t then
        t.evict_gap <-
          int_of_float
            (Float.min 4e18
               (Float.log (1.0 -. Random.State.float t.rng 1.0)
               /. Float.log1p (-.t.evict_prob)))
      else left := 0
    else if t.evict_gap >= !left then begin
      t.evict_gap <- t.evict_gap - !left;
      left := 0
    end
    else begin
      left := !left - t.evict_gap - 1;
      t.evict_gap <- -1;
      if any_live t then evict_random t else left := 0
    end
  done

(** [drain t] — propagate everything everywhere: repeatedly evict until no
    cache holds any line (every value reaches physical memory).  Horizontal
    evictions move lines to the owner's cache — possibly a machine already
    visited — so iterate to a fixpoint.  Used by tests and for clean
    shutdown points. *)
let drain t =
  let dirty = ref true in
  while !dirty do
    dirty := false;
    for i = 0 to t.n_m - 1 do
      while t.live.(i) > 0 do
        dirty := true;
        evict_one t i
      done
    done
  done

(** [crash t i] — machine [i] fails: its cache contents vanish; locations
    it owns are re-initialised to zero iff its memory is volatile.
    Killing the machine's threads is the scheduler's job. *)
let crash t i =
  t.stats.Stats.crashes <- t.stats.Stats.crashes + 1;
  (match t.tracer with
  | None -> ()
  | Some tr ->
      Obs.Tracer.emit tr
        (Obs.Event.Crash { machine = i; cycle = t.stats.Stats.cycles }));
  let vol = t.conf.(i).volatile in
  for x = 0 to t.n_locs - 1 do
    clear_holder t x i;
    if vol && t.owner.(x) = i then begin
      t.mem.(x) <- 0;
      (* re-initialised volatile memory is fresh data: poison gone *)
      heal_if_planned t x
    end
  done;
  ring_clear t.rings.(i);
  t.live.(i) <- 0

(* ------------------------------------------------------------------ *)
(* Cross-validation with the formal model                              *)
(* ------------------------------------------------------------------ *)

(** [to_loc t x] — the formal-model location corresponding to fabric
    location [x]. *)
let to_loc t x =
  check_loc t x;
  Cxl0.Loc.v ~owner:t.owner.(x) t.coff.(x)

(** [to_config t] — export the fabric state as a formal-model
    configuration; tests check that running the same primitive sequence
    through {!Cxl0.Semantics} reaches exactly this configuration. *)
let to_config t =
  let cfg = ref Cxl0.Config.init in
  for x = 0 to t.n_locs - 1 do
    let l = to_loc t x in
    cfg := Cxl0.Config.mem_set !cfg l t.mem.(x);
    for i = 0 to t.n_m - 1 do
      if holds t x i then cfg := Cxl0.Config.cache_set !cfg i l t.cval.(x)
    done
  done;
  !cfg

(** [to_system t] — the formal-model system descriptor matching this
    fabric. *)
let to_system t =
  Cxl0.Machine.system
    (Array.map
       (fun c ->
         Cxl0.Machine.make
           ~persistence:
             (if c.volatile then Cxl0.Machine.Volatile
              else Cxl0.Machine.Non_volatile)
           c.name)
       t.conf)

(** [check_coherence t] — the runtime counterpart of the formal coherence
    invariant; trivially true by construction (single [cval]), but also
    validates the live-count bookkeeping. *)
let check_coherence t =
  let ok = ref true in
  let counted = Array.make t.n_m 0 in
  for x = 0 to t.n_locs - 1 do
    for i = 0 to t.n_m - 1 do
      if holds t x i then counted.(i) <- counted.(i) + 1
    done
  done;
  Array.iteri (fun i c -> if c <> t.live.(i) then ok := false) counted;
  !ok

let pp ppf t =
  Fmt.pf ppf "@[<v>fabric: %d machines, %d locations@,%a@]" t.n_m
    t.n_locs Stats.pp t.stats
