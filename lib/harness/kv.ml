(** Sharded durable KV over {!Dstruct.Hmap} + the open-loop serving
    engine, with optional primary/backup replication.  See the interface
    for the correctness argument (locality of durable linearizability,
    the write-all replication invariant and the read rule) and the
    open-loop clock contract. *)

exception Unavailable

(* One copy of a shard's map.  [watermark]/[validated] are the failure
   detector's view: the replica holds every logged write iff
   [watermark = log_len], and its home has not crashed since we last
   knew that iff [validated = crash_epoch r_home].  Both live in
   simulation-host state (they model the metadata a real failover
   service keeps off the data path). *)
type replica = {
  map : Dstruct.Hmap.t;
  r_home : int;
  mutable watermark : int;  (** shard-log entries known applied here *)
  mutable validated : int;  (** crash epoch of [r_home] at that knowledge *)
}

type shard = {
  reps : replica array;        (** [reps.(0)] is the primary *)
  mutable log : int array;     (** keys of every write, append-only *)
  mutable log_len : int;
  mutable lock : (int * int) option;
      (** shard lock: (holder machine, its crash epoch at acquire) —
          stolen when the holder's machine has crashed since *)
  mutable reading : int;
      (** replica the last read was served from; telemetry only (its
          changes are the [failovers] count) *)
  mutable unavail_since : int;
      (** open window with no replica the read rule may read; -1 = none *)
  mutable last_trusted : int;
      (** trusted-replica count last published to the tracer's Trust
          gauge; only maintained when traced *)
}

(* Per-request span bookkeeping for one serving fibre: identity of the
   request it is currently serving plus cumulative wait counters.  The
   counters ride on every emitted phase mark, so span assembly can
   attribute waiting time exactly without per-poll events.  Only
   written when a tracer is attached. *)
type span_state = {
  s_session : int;
  s_seq : int;
  s_op : int;                     (** serving op index, {!op_index} *)
  mutable s_wait_lock : int;      (** cycles spent waiting on shard locks *)
  mutable s_wait_degraded : int;  (** cycles waiting out failovers/resyncs *)
}

type t = {
  shards : shard array;
  replicas : int;
  deadline : int;          (** per-request cycle budget when replicated *)
  mutable failovers : int; (** read-path switches between replicas *)
  mutable rejoins : int;
  mutable timed_out : int; (** requests that exhausted their deadline *)
  spans : (int, span_state) Hashtbl.t;
      (** tid -> in-flight request span; populated by the serving engine
          only when traced (empty otherwise — never touched untraced) *)
  mutable trusted_total : int;
      (** Trust-gauge value across all shards; maintained when traced *)
}

let create ctx ?(pflag = true) ?(shards = 4) ?buckets ?(replicas = 1)
    ?(deadline = 4_000) ~flit ~home () =
  if shards <= 0 then invalid_arg "Kv.create: shards must be positive";
  if replicas <= 0 then invalid_arg "Kv.create: replicas must be positive";
  let n_machines = Fabric.n_machines ctx.Runtime.Sched.fab in
  if replicas > n_machines then
    invalid_arg "Kv.create: replicas must not exceed the machine count";
  if deadline <= 0 then invalid_arg "Kv.create: deadline must be positive";
  let sched = ctx.Runtime.Sched.sched in
  let t = {
    shards =
      Array.init shards (fun i ->
          {
            reps =
              Array.init replicas (fun r ->
                  (* replica r of shard i on (home + i + r) mod n: every
                     replica of a shard lives on a distinct machine *)
                  let r_home = (home + i + r) mod n_machines in
                  {
                    map =
                      Dstruct.Hmap.create ctx ~pflag ?buckets ~flit
                        ~home:r_home ();
                    r_home;
                    watermark = 0;
                    validated = Runtime.Sched.crash_epoch sched r_home;
                  });
            log = Array.make 16 0;
            log_len = 0;
            lock = None;
            reading = 0;
            unavail_since = -1;
            last_trusted = replicas;
          });
    replicas;
    deadline;
    failovers = 0;
    rejoins = 0;
    timed_out = 0;
    spans = Hashtbl.create 16;
    trusted_total = shards * replicas;
  }
  in
  (* publish the Trust-gauge baseline so a timeline starts at full
     replication factor instead of "unknown" *)
  (match Fabric.tracer ctx.Runtime.Sched.fab with
  | Some tr when replicas > 1 ->
      Obs.Tracer.emit tr
        (Obs.Event.Trust
           {
             trusted = t.trusted_total;
             cycle = Fabric.cycles ctx.Runtime.Sched.fab;
           })
  | _ -> ());
  t

let n_shards t = Array.length t.shards
let failovers t = t.failovers
let rejoins t = t.rejoins
let timed_out t = t.timed_out

(* Knuth's multiplicative hash before the mod: Zipf-hot ranks are the
   *small* keys, and without scrambling they would all land in the first
   shards.  Positive keys only (Hmap's contract), so no sign fix-up. *)
let shard_of_key t k = k * 2654435761 lsr 11 mod Array.length t.shards

(* ------------------------------------------------------------------ *)
(* Replication machinery                                               *)
(* ------------------------------------------------------------------ *)

let now ctx = Fabric.cycles ctx.Runtime.Sched.fab
let epoch ctx m = Runtime.Sched.crash_epoch ctx.Runtime.Sched.sched m
let up ctx m = Runtime.Sched.machine_is_up ctx.Runtime.Sched.sched m

(* [servable]: home up and not crashed since the replica was last
   validated (a crash may have eaten unflushed writes: Finding F1).
   [trusted]: additionally holds every logged write, so all trusted
   replicas carry identical logical content.  Only the primary is ever
   read on servability alone; everything else needs trust. *)
let servable ctx rep = up ctx rep.r_home && rep.validated = epoch ctx rep.r_home
let trusted ctx sh rep = servable ctx rep && rep.watermark = sh.log_len

(* Index of the lowest trusted replica, or -1. *)
let lowest_trusted ctx sh =
  let rec from j =
    if j = Array.length sh.reps then -1
    else if trusted ctx sh sh.reps.(j) then j
    else from (j + 1)
  in
  from 0

let emit ctx ev =
  match Fabric.tracer ctx.Runtime.Sched.fab with
  | None -> ()
  | Some tr -> Obs.Tracer.emit tr ev

(* ------------------------------------------------------------------ *)
(* Span instrumentation (all zero-cost when no tracer is attached:     *)
(* every entry point is a direct match on the tracer option)           *)
(* ------------------------------------------------------------------ *)

(* The span state of the fibre's in-flight request, if the serving
   engine registered one (preload puts and direct Kv calls have none). *)
let span_st t ctx =
  match Fabric.tracer ctx.Runtime.Sched.fab with
  | None -> None
  | Some _ -> Hashtbl.find_opt t.spans ctx.Runtime.Sched.tid

let fibre_retry ctx =
  Runtime.Sched.retry_cycles ctx.Runtime.Sched.sched ctx.Runtime.Sched.tid

(* Emit a phase mark for the fibre's in-flight request (no-op without a
   tracer or span state).  [t0] is the arrival stamp, only meaningful on
   [P_dispatch]. *)
let mark ctx st phase ~replica ?(t0 = -1) () =
  match Fabric.tracer ctx.Runtime.Sched.fab with
  | None -> ()
  | Some tr -> (
      match st with
      | None -> ()
      | Some s ->
          Obs.Tracer.emit tr
            (Obs.Event.Mark
               {
                 session = s.s_session;
                 seq = s.s_seq;
                 op = s.s_op;
                 phase;
                 replica;
                 t0;
                 wait_lock = s.s_wait_lock;
                 wait_degraded = s.s_wait_degraded;
                 retry = fibre_retry ctx;
                 cycle = now ctx;
               }))

let count_trusted ctx sh =
  Array.fold_left (fun a rep -> if trusted ctx sh rep then a + 1 else a) 0
    sh.reps

(* Publish the trusted-replica gauge when a shard's count changed.
   Traced-only, like all span machinery. *)
let note_trust t ctx sh =
  match Fabric.tracer ctx.Runtime.Sched.fab with
  | None -> ()
  | Some tr ->
      if t.replicas > 1 then begin
        let c = count_trusted ctx sh in
        if c <> sh.last_trusted then begin
          t.trusted_total <- t.trusted_total + c - sh.last_trusted;
          sh.last_trusted <- c;
          Obs.Tracer.emit tr
            (Obs.Event.Trust { trusted = t.trusted_total; cycle = now ctx })
        end
      end

let log_push sh k =
  if sh.log_len = Array.length sh.log then begin
    let bigger = Array.make (2 * Array.length sh.log) 0 in
    Array.blit sh.log 0 bigger 0 sh.log_len;
    sh.log <- bigger
  end;
  sh.log.(sh.log_len) <- k;
  sh.log_len <- sh.log_len + 1

(* One poll step: yield, and if nothing else moved the clock, charge a
   heartbeat so the clock keeps moving (and cycle-windowed faults such
   as a down link expire) even when every fibre is waiting on the same
   dead shard. *)
let heartbeat = 16

let poll_wait ctx =
  let before = now ctx in
  Runtime.Sched.yield ctx;
  if now ctx = before then Fabric.charge ctx.Runtime.Sched.fab heartbeat

(* A poll step that books its elapsed time onto the request's span (lock
   waits count as queueing; degraded waits as failover-wait).  The
   elapsed window includes cycles charged by other fibres during the
   yield — correctly so: that is real time this request spent waiting. *)
let timed_poll ctx st kind =
  match st with
  | None -> poll_wait ctx
  | Some s ->
      let t0 = now ctx in
      poll_wait ctx;
      let d = now ctx - t0 in
      (match kind with
      | `Lock -> s.s_wait_lock <- s.s_wait_lock + d
      | `Degraded -> s.s_wait_degraded <- s.s_wait_degraded + d)

(* The per-request deadline is accounted in *waiting polls* (each worth
   one heartbeat of the cycle budget), not in wall cycles: the open-loop
   engine fast-forwards the shared clock over idle gaps, and an elapsed-
   cycle deadline would expire healthy in-flight requests whenever a
   bored server charged the clock past them.  A request that never waits
   can never time out. *)
let patience t = max 1 (t.deadline / heartbeat)

(* Telemetry, run at the top of every replicated op: unavailability
   windows (the read rule has no replica to read: the primary is not
   servable and none is trusted) and the Trust gauge.  It decides
   nothing. *)
let observe t ctx i sh =
  let n = now ctx in
  if servable ctx sh.reps.(0) || lowest_trusted ctx sh >= 0 then begin
    if sh.unavail_since >= 0 then begin
      emit ctx
        (Obs.Event.Unavail
           { shard = i; cycles = n - sh.unavail_since; cycle = n });
      sh.unavail_since <- -1
    end
  end
  else if sh.unavail_since < 0 then sh.unavail_since <- n;
  note_trust t ctx sh

(* Telemetry: a read was served from replica [j]; a change of replica is
   a read-path switch, counted as a failover. *)
let note_read t ctx i sh j =
  if j <> sh.reading then begin
    emit ctx
      (Obs.Event.Failover
         {
           shard = i;
           from_machine = sh.reps.(sh.reading).r_home;
           to_machine = sh.reps.(j).r_home;
           cycle = now ctx;
         });
    t.failovers <- t.failovers + 1;
    sh.reading <- j
  end

(* Acquire the shard lock, stealing it when the holder's machine has
   crashed since acquiring (the holder fibre died without unwinding).
   [polls] is the request's remaining waiting budget. *)
let rec lock_shard ctx sh ~polls ~st =
  let me = ctx.Runtime.Sched.machine in
  match sh.lock with
  | None -> sh.lock <- Some (me, epoch ctx me)
  | Some (m, e) when epoch ctx m > e -> sh.lock <- Some (me, epoch ctx me)
  | Some _ ->
      if !polls <= 0 then raise Unavailable;
      decr polls;
      timed_poll ctx st `Lock;
      lock_shard ctx sh ~polls ~st

(* Heal every non-trusted, up replica from a trusted peer: replay the
   write log (each key once, newest first) reading the authoritative
   value from the source.  Caller holds the shard lock, so the log
   cannot grow underneath the replay.  Epochs of both ends are captured
   first and re-checked before declaring success: a crash on either side
   mid-replay aborts the heal (the replica stays distrusted and is
   retried later). *)
let resync t ctx i sh =
  let src = lowest_trusted ctx sh in
  if src >= 0 then begin
    let src_rep = sh.reps.(src) in
    let src_e0 = epoch ctx src_rep.r_home in
    Array.iteri
      (fun j rep ->
        if j <> src && (not (trusted ctx sh rep)) && up ctx rep.r_home then begin
          let tgt_e0 = epoch ctx rep.r_home in
          let seen = Hashtbl.create 64 in
          try
            let live = ref true in
            for e = sh.log_len - 1 downto 0 do
              let k = sh.log.(e) in
              if !live && not (Hashtbl.mem seen k) then begin
                Hashtbl.add seen k ();
                let v = Dstruct.Hmap.get src_rep.map ctx k in
                ignore
                  (if v = Dstruct.Absent.absent then
                     Dstruct.Hmap.del rep.map ctx k
                   else Dstruct.Hmap.put rep.map ctx k v);
                if
                  epoch ctx src_rep.r_home <> src_e0
                  || epoch ctx rep.r_home <> tgt_e0
                then live := false
              end
            done;
            if
              !live
              && epoch ctx src_rep.r_home = src_e0
              && epoch ctx rep.r_home = tgt_e0
            then begin
              rep.watermark <- sh.log_len;
              rep.validated <- tgt_e0;
              t.rejoins <- t.rejoins + 1;
              emit ctx
                (Obs.Event.Rejoin
                   { shard = i; machine = rep.r_home; cycle = now ctx })
            end
          with Runtime.Ops.Fault _ -> ()
        end)
      sh.reps
  end

(* The locked path shared by writes and degraded reads: take the shard
   lock, resync what can be healed, and run [body] on the healed shard.
   [body] returns [None] to hand the lock back, wait one poll and try
   again, until the deadline raises {!Unavailable}; an exception from
   [body] releases the lock and propagates. *)
let under_lock t ctx i sh body =
  let polls = ref (patience t) in
  let st = span_st t ctx in
  (* resync time books as failover-wait, minus any retry backoff charged
     inside it (retry cycles are attributed separately via the fibre's
     cumulative counter; double-booking would break the exact-sum
     invariant of span components) *)
  let timed_resync () =
    match st with
    | None -> resync t ctx i sh
    | Some s ->
        let r0 = fibre_retry ctx in
        let t0 = now ctx in
        resync t ctx i sh;
        s.s_wait_degraded <-
          s.s_wait_degraded + (now ctx - t0) - (fibre_retry ctx - r0)
  in
  let rec attempt () =
    observe t ctx i sh;
    lock_shard ctx sh ~polls ~st;
    match
      Fun.protect
        ~finally:(fun () ->
          sh.lock <- None;
          note_trust t ctx sh)
        (fun () ->
          timed_resync ();
          body st)
    with
    | Some v -> v
    | None ->
        if !polls <= 0 then begin
          t.timed_out <- t.timed_out + 1;
          raise Unavailable
        end;
        decr polls;
        timed_poll ctx st `Degraded;
        attempt ()
  in
  attempt ()

type write_op = Put of int * int | Del of int

let key_of_op = function Put (k, _) | Del k -> k

let apply_op op map ctx =
  match op with
  | Put (k, v) -> Dstruct.Hmap.put map ctx k v
  | Del k -> Dstruct.Hmap.del map ctx k

(* Replicated write: write-all under the shard lock, once every replica
   is trusted.  An op only acknowledges when every replica applied it
   and none crashed while it was in flight, so every acknowledged write
   lives on all [replicas] distinct machines — that is the invariant
   that makes acknowledged updates survive any single home crash.  The
   primary applies *last*: a value readable there lock-free is already
   on every backup. *)
let replicated_write t ctx i sh op =
  under_lock t ctx i sh (fun st ->
      if not (Array.for_all (trusted ctx sh) sh.reps) then None
      else begin
        let epochs0 = Array.map (fun rep -> epoch ctx rep.r_home) sh.reps in
        log_push sh (key_of_op op);
        let ret = ref Dstruct.Absent.absent in
        let fault = ref None in
        let apply_to j =
          let rep = sh.reps.(j) in
          match apply_op op rep.map ctx with
          | v ->
              rep.watermark <- sh.log_len;
              if j = 0 then ret := v;
              mark ctx st
                (if j = 0 then Obs.Event.P_apply_acting
                 else Obs.Event.P_apply_backup)
                ~replica:j ()
          | exception Runtime.Ops.Fault f ->
              (* the replica's state for this key is now uncertain: its
                 watermark stays behind, distrusting it until a resync
                 replays the authoritative value *)
              if !fault = None then fault := Some f
        in
        for j = 1 to Array.length sh.reps - 1 do
          apply_to j
        done;
        apply_to 0;
        Option.iter (fun f -> raise (Runtime.Ops.Fault f)) !fault;
        let crashed = ref false in
        Array.iteri
          (fun j rep ->
            if epoch ctx rep.r_home <> epochs0.(j) then begin
              crashed := true;
              (* the write may have died in the crash's unflushed
                 window; distrust the replica *)
              rep.watermark <- min rep.watermark (sh.log_len - 1)
            end)
          sh.reps;
        if !crashed then
          raise
            (Runtime.Ops.Fault
               (Fabric.Faults.Nack
                  {
                    from_m = ctx.Runtime.Sched.machine;
                    to_m = sh.reps.(0).r_home;
                  }));
        Some !ret
      end)

(* Replicated read, by the read rule.  A servable primary is read
   lock-free: the only hazard is a crash of its home *during* the read
   (the observed value may already be post-wipe), so the epoch is
   captured before and re-checked after; concurrent writes are harmless,
   since the primary applies last.  Otherwise the read goes through the
   locked path and reads the lowest trusted replica — never a merely
   servable backup, whose watermark may trail a write that faulted on
   it. *)
let replicated_read t ctx i sh k =
  let read_at j =
    let rep = sh.reps.(j) in
    let e0 = epoch ctx rep.r_home in
    let v = Dstruct.Hmap.get rep.map ctx k in
    if epoch ctx rep.r_home = e0 then begin
      note_read t ctx i sh j;
      Some v
    end
    else None
  in
  observe t ctx i sh;
  match if servable ctx sh.reps.(0) then read_at 0 else None with
  | Some v -> v
  | None ->
      under_lock t ctx i sh (fun _ ->
          match lowest_trusted ctx sh with -1 -> None | j -> read_at j)

(* Opportunistic heal, run from restart recovery hooks: lock each shard
   that has a distrusted-but-up replica and resync it, so replication
   factor is restored promptly after a crash instead of waiting for the
   next write.  Best-effort: an unobtainable lock within the deadline
   just skips the shard. *)
let heal t ctx =
  if t.replicas > 1 then
    Array.iteri
      (fun i sh ->
        let needs =
          Array.exists
            (fun rep -> up ctx rep.r_home && not (trusted ctx sh rep))
            sh.reps
        in
        if needs then
          try under_lock t ctx i sh (fun _ -> Some ()) with Unavailable -> ())
      t.shards

(* ------------------------------------------------------------------ *)
(* The op surface                                                      *)
(* ------------------------------------------------------------------ *)

let put t ctx k v =
  let i = shard_of_key t k in
  let sh = t.shards.(i) in
  if t.replicas = 1 then Dstruct.Hmap.put sh.reps.(0).map ctx k v
  else replicated_write t ctx i sh (Put (k, v))

let get t ctx k =
  let i = shard_of_key t k in
  let sh = t.shards.(i) in
  if t.replicas = 1 then Dstruct.Hmap.get sh.reps.(0).map ctx k
  else replicated_read t ctx i sh k

let del t ctx k =
  let i = shard_of_key t k in
  let sh = t.shards.(i) in
  if t.replicas = 1 then Dstruct.Hmap.del sh.reps.(0).map ctx k
  else replicated_write t ctx i sh (Del k)

let dispatch t ctx op args =
  match (op, args) with
  | "put", [ k; v ] -> put t ctx k v
  | "get", [ k ] -> get t ctx k
  | "del", [ k ] -> del t ctx k
  | _ -> invalid_arg ("Kv.dispatch: " ^ op)

(* ------------------------------------------------------------------ *)
(* Open-loop serving engine                                            *)
(* ------------------------------------------------------------------ *)

type serve_config = {
  env : Runcore.env;
  transform : Flit.Flit_intf.t;
  traffic : Traffic.spec;
  shards : int;
  buckets : int option;
  pflag : bool;
  servers_per_machine : int;
  replicas : int;
  deadline : int;
  record_history : bool;
}

let default_serve_config ~transform ~traffic =
  {
    env =
      {
        Runcore.n_machines = 3;
        home = 2;
        volatile_home = false;
        crashes = [];
        faults = [];
        seed = traffic.Traffic.seed;
        evict_prob = 0.15;
        cache_capacity = 4;
      };
    transform;
    traffic;
    shards = 4;
    buckets = None;
    pflag = true;
    servers_per_machine = 2;
    replicas = 1;
    deadline = 4_000;
    record_history = false;
  }

type serve_result = {
  history : Lincheck.History.t;
  stats : Fabric.Stats.t;
  cycles : int;
  served : int array;
  latencies : Obs.Hist.t array;
  faulted : int;
  timed_out : int;
  claimed : int;
  killed : int;
  dropped : int;
  failovers : int;
  rejoins : int;
  availability : float;
}

let op_index = function
  | Traffic.Read -> 0
  | Traffic.Update -> 1
  | Traffic.Insert -> 2

(* Requests carry 0-based key ranks; Hmap keys must be positive. *)
let map_op (r : Traffic.request) =
  match r.Traffic.op with
  | Traffic.Read -> ("get", [ r.Traffic.key + 1 ])
  | Traffic.Update | Traffic.Insert ->
      ("put", [ r.Traffic.key + 1; r.Traffic.value ])

let serve ?tracer (c : serve_config) : serve_result =
  (match Traffic.validate c.traffic with
  | Ok () -> ()
  | Error m -> invalid_arg ("Kv.serve: " ^ m));
  if c.replicas <= 0 then invalid_arg "Kv.serve: replicas must be positive";
  if c.replicas > c.env.n_machines then
    invalid_arg "Kv.serve: replicas must not exceed the machine count";
  let fab = Runcore.build_fabric ?tracer c.env in
  let flit = Flit.Flit_intf.instantiate c.transform fab in
  (* the Workload seed-derivation formula, so a KV serving run and a
     closed-loop run on the same env explore the same schedule stream *)
  let sched = Runtime.Sched.create ~seed:((c.env.seed * 7919) + 1) fab in
  let events = ref [] in
  let record =
    if c.record_history then fun e -> events := e :: !events
    else fun _ -> ()
  in
  let kv_ref = ref None in
  (* the schedule is drained from a cursor: [next_req] is the memoized
     head, so the full request array is never materialised *)
  let pending = Traffic.cursor c.traffic in
  let next_req = ref None in
  let refill () =
    match !next_req with
    | Some _ -> ()
    | None -> next_req := Traffic.next pending
  in
  let served = [| 0; 0; 0 |] in
  let latencies = Array.init 3 (fun _ -> Obs.Hist.create ()) in
  let faulted = ref 0 in
  (* distinct from [Kv.timed_out kv], which also counts preload puts *)
  let req_timed_out = ref 0 in
  (* Each server claims the next request off the shared stream head;
     every claim decision is a handful of shared-ref accesses with no
     scheduling point in between, so it is race-free under the
     cooperative scheduler (fibres only switch at effect yields).

     Open-loop clock: a request may be claimed once it has *arrived*
     (fabric clock past its arrival stamp) — then its latency sample,
     completion minus arrival, carries the queueing delay a closed-loop
     harness can never show.  A request whose arrival is still in the
     future may only be claimed when no op is in flight anywhere
     ([busy = 0]): the claiming server then advances the fabric clock to
     the arrival, charging the idle gap.  Without the [busy] guard an
     idle server would pre-claim a future request and fast-forward the
     shared clock over ops still in flight, billing them phantom
     queueing delay.

     [busy] counts live requests only: a crash kills its machine's
     servers mid-request (§3.1), and the crash hook moves their
     requests ([in_flight]) to [killed] before the wipe.  So a server
     waits on a future arrival only while a live one serves and moves
     the clock.

     The claim test ([ready]) is one function: a server calls it once
     before claiming, and hands it to {!Runtime.Sched.wait} as the poll
     while it idles.  It touches only the stream head and [busy], never
     the fabric, and only resumed fibres and plan actions change the
     head, [busy] and the clock, so the scheduler may run it in place of
     the fibre and park the server while it fails: the decisions a
     server idles through still count in law, but cost one geometric
     draw, and the fibre is resumed only to claim (or to exit once the
     stream is drained). *)
  let busy = ref 0 in
  let in_flight = Array.make c.env.n_machines 0 in
  let killed = ref 0 in
  let claimed = ref 0 in
  (* span close: emit the outcome's mark and drop the fibre's span
     state.  Zero work when untraced. *)
  let close kv ctx phase =
    match tracer with
    | None -> ()
    | Some _ ->
        mark ctx (span_st kv ctx) phase ~replica:(-1) ();
        Hashtbl.remove kv.spans ctx.Runtime.Sched.tid
  in
  let record_res ctx ret =
    record (Lincheck.History.Res { tid = ctx.Runtime.Sched.tid; ret })
  in
  let serve_one kv ctx (r : Traffic.request) =
    if c.record_history then begin
      let op, args = map_op r in
      record (Lincheck.History.Inv { tid = ctx.Runtime.Sched.tid; op; args })
    end;
    let oi = op_index r.Traffic.op in
    (* span open: register the request on this fibre and emit the
       dispatch mark (which carries the arrival stamp — marks ride the
       tracer's nondecreasing cycle stream, so arrival cannot be its own
       event).  Zero work when untraced. *)
    (match tracer with
    | None -> ()
    | Some _ ->
        Hashtbl.replace kv.spans ctx.Runtime.Sched.tid
          {
            s_session = r.Traffic.session;
            s_seq = r.Traffic.seq;
            s_op = oi;
            s_wait_lock = 0;
            s_wait_degraded = 0;
          };
        mark ctx (span_st kv ctx) Obs.Event.P_dispatch ~replica:(-1)
          ~t0:r.Traffic.arrival ());
    (* [map_op]'s keys, without its pair *)
    let k = r.Traffic.key + 1 in
    match
      match r.Traffic.op with
      | Traffic.Read -> get kv ctx k
      | Traffic.Update | Traffic.Insert -> put kv ctx k r.Traffic.value
    with
    | ret ->
        if c.record_history then record_res ctx (Lincheck.History.Ret ret);
        served.(oi) <- served.(oi) + 1;
        Obs.Hist.add latencies.(oi) (Fabric.cycles fab - r.Traffic.arrival);
        close kv ctx Obs.Event.P_ack
    | exception Runtime.Ops.Fault _ ->
        if c.record_history then record_res ctx Lincheck.History.Faulted;
        incr faulted;
        close kv ctx Obs.Event.P_fault
    | exception Unavailable ->
        (* deadline exhausted against a dead shard: the op is pending
           (it may or may not have reached a backup), which is exactly
           [Faulted] to the durability checker *)
        if c.record_history then record_res ctx Lincheck.History.Faulted;
        incr req_timed_out;
        close kv ctx Obs.Event.P_timeout
  in
  (* true when the head may be claimed now, or the stream is drained
     (the server then exits) *)
  let ready () =
    refill ();
    match !next_req with
    | None -> true
    | Some r -> r.Traffic.arrival <= Fabric.cycles fab || !busy = 0
  in
  let server kv ctx =
    let m = ctx.Runtime.Sched.machine in
    let rec loop () =
      if not (ready ()) then Runtime.Sched.wait ctx ready;
      match !next_req with
      | None -> ()
      | Some r ->
          next_req := None;
          let now = Fabric.cycles fab in
          if now < r.Traffic.arrival then
            Fabric.charge fab (r.Traffic.arrival - now);
          incr claimed;
          busy := !busy + 1;
          in_flight.(m) <- in_flight.(m) + 1;
          serve_one kv ctx r;
          busy := !busy - 1;
          in_flight.(m) <- in_flight.(m) - 1;
          loop ()
    in
    loop ()
  in
  let spawn_servers s ~machine ~tag kv =
    for r = 0 to c.servers_per_machine - 1 do
      if Runtime.Sched.machine_is_up s machine then
        ignore
          (Runtime.Sched.spawn s ~machine
             ~name:(Printf.sprintf "%s%d.%d" tag machine r)
             (server kv))
    done
  in
  let sched_of ctx = ctx.Runtime.Sched.sched in
  (* Preload progress, shared between the init fibre and the crash
     recovery hook: if the preloading fibre's machine crashes mid-way
     (a storm can fell the home long before [keyspace] puts drain
     through a replicated, degraded fabric), the run would otherwise
     never spawn a single server and drop the entire schedule.  The
     hook rescues it: a fibre on the restarted machine resumes from
     [preloaded] — re-putting the key the dead fibre was on is
     harmless (same value, recorded as a fresh op) — and only when the
     *current* preloader's machine has a newer crash epoch, so two
     rescuers never run at once. *)
  let kv_obj = ref None in
  let preloaded = ref 0 in
  let preloader = ref None in
  let preloader_dead s =
    match !preloader with
    | None -> true
    | Some (m, e) -> Runtime.Sched.crash_epoch s m > e
  in
  let finish_preload kv ctx =
    (* preload the keyspace so reads hit; recorded like any op so a
       checked history starts from a consistent prefix *)
    while !preloaded < c.traffic.Traffic.keyspace do
      let k = !preloaded + 1 in
      record
        (Lincheck.History.Inv
           { tid = ctx.Runtime.Sched.tid; op = "put"; args = [ k; k ] });
      let ret =
        try Lincheck.History.Ret (put kv ctx k k)
        with Runtime.Ops.Fault _ | Unavailable -> Lincheck.History.Faulted
      in
      record (Lincheck.History.Res { tid = ctx.Runtime.Sched.tid; ret });
      preloaded := k
    done;
    if !kv_ref = None then begin
      kv_ref := Some kv;
      for m = 0 to c.env.n_machines - 1 do
        spawn_servers (sched_of ctx) ~machine:m ~tag:"s" kv
      done
    end
  in
  let _init =
    Runtime.Sched.spawn sched ~machine:c.env.home ~name:"init" (fun ctx ->
        match
          create ctx ~pflag:c.pflag ~shards:c.shards ?buckets:c.buckets
            ~replicas:c.replicas ~deadline:c.deadline ~flit ~home:c.env.home
            ()
        with
        | exception Runtime.Ops.Fault _ -> ()
        | kv ->
            kv_obj := Some kv;
            preloader :=
              Some
                ( c.env.home,
                  Runtime.Sched.crash_epoch (sched_of ctx) c.env.home );
            finish_preload kv ctx)
  in
  Runcore.install_crash_plan sched c.env
    ~record:(fun e ->
      (match e with
      | Lincheck.History.Crash { machine } ->
          killed := !killed + in_flight.(machine);
          busy := !busy - in_flight.(machine);
          in_flight.(machine) <- 0
      | Lincheck.History.Inv _ | Lincheck.History.Res _ -> ());
      record e)
    ~recovery:(fun ~ci spec s ->
      match !kv_ref with
      | None -> (
          (* serving never started: the preloader died with its machine.
             Resume the preload from the restarted machine (see
             [finish_preload]); it spawns the servers when it's done. *)
          match !kv_obj with
          | Some kv when preloader_dead s ->
              preloader :=
                Some
                  ( spec.Runcore.machine,
                    Runtime.Sched.crash_epoch s spec.Runcore.machine );
              ignore
                (Runtime.Sched.spawn s ~machine:spec.Runcore.machine
                   ~name:(Printf.sprintf "p%d" ci)
                   (finish_preload kv))
          | Some _ | None -> ())
      | Some kv ->
          (* restarted machines rejoin the drain with fresh serving
             threads (the crashed ones died mid-request; those requests
             are the dropped count) *)
          spawn_servers s ~machine:spec.Runcore.machine
            ~tag:(Printf.sprintf "r%d." ci)
            kv;
          (* ... and, when replicated, a healer that resyncs the
             replicas homed on the restarted machine so replication
             factor recovers without waiting for the next write *)
          if c.replicas > 1 && Runtime.Sched.machine_is_up s spec.Runcore.machine
          then
            ignore
              (Runtime.Sched.spawn s ~machine:spec.Runcore.machine
                 ~name:(Printf.sprintf "h%d.%d" ci spec.Runcore.machine)
                 (fun ctx -> heal kv ctx)));
  Runcore.install_fault_plan sched c.env;
  ignore (Runtime.Sched.run sched);
  let total_served = served.(0) + served.(1) + served.(2) in
  let total = Traffic.total_ops c.traffic in
  if !busy <> 0 || !claimed <> total_served + !faulted + !req_timed_out + !killed
  then
    failwith
      (Printf.sprintf
         "Kv.serve: %d claimed <> %d served + %d faulted + %d timed out + \
          %d killed (%d still in flight)"
         !claimed total_served !faulted !req_timed_out !killed !busy);
  let kv_failovers, kv_rejoins =
    match !kv_ref with
    | None -> (0, 0)
    | Some kv -> (failovers kv, rejoins kv)
  in
  {
    history = List.rev !events;
    stats = Fabric.Stats.copy (Fabric.stats fab);
    cycles = Fabric.cycles fab;
    served;
    latencies;
    faulted = !faulted;
    timed_out = !req_timed_out;
    claimed = !claimed;
    killed = !killed;
    dropped = total - !claimed + !killed;
    failovers = kv_failovers;
    rejoins = kv_rejoins;
    availability =
      (if total = 0 then 1.0 else float_of_int total_served /. float_of_int total);
  }

let check_run (c : serve_config) (r : serve_result) :
    Lincheck.Durable.verdict =
  Lincheck.Durable.check
    ~provenance:
      (Printf.sprintf "kv/%s shards=%d%s %s"
         (Flit.Flit_intf.name c.transform)
         c.shards
         (if c.replicas > 1 then Printf.sprintf " replicas=%d" c.replicas
          else "")
         (Traffic.describe c.traffic))
    Lincheck.Specs.map r.history

let check (c : serve_config) : Lincheck.Durable.verdict =
  check_run c (serve { c with record_history = true })
