(** Per-request spans assembled from {!Event.Mark} phase marks.

    The serving engine emits a handful of marks per request — dispatch
    (carrying the arrival stamp), one per replica apply, and a terminal
    ack/timeout/fault — each tagged with *cumulative* wait and retry
    counters for the serving fibre.  A span stitches the marks of one
    request (keyed by session × sequence number) back together and
    attributes every cycle between arrival and completion to exactly one
    component:

    - {b queue}: arrival → dispatch delay, plus shard-lock waits;
    - {b failover-wait}: waiting out untrusted/unservable replicas and
      the resync that heals them;
    - {b retry}: backoff cycles charged by the {!Ops} retry engine;
    - {b replication}: residual time in backup-apply segments;
    - {b service}: residual time in every other segment.

    Because waits and retries are carried as cumulative counters on the
    marks (not as point events), the decomposition is exact by
    construction: the five components of a complete span sum to its
    end-to-end latency, cycle for cycle.  Tests assert this identity.

    There is no "arrival" mark: marks ride the tracer's nondecreasing
    cycle stream, and the arrival stamp (assigned by the open-loop
    traffic generator, possibly long before any server looks at the
    request) would violate that.  The dispatch mark carries arrival as a
    payload field instead. *)

type outcome =
  | Acked
  | Timed_out
  | Faulted
  | Incomplete
      (** no terminal mark: the serving fibre died mid-request (its
          machine crashed), or the run ended or the tracer was cleared
          before the request completed *)

let outcome_name = function
  | Acked -> "acked"
  | Timed_out -> "timed-out"
  | Faulted -> "faulted"
  | Incomplete -> "incomplete"

type mark = {
  phase : Event.span_phase;
  replica : int;
  cycle : int;
  wait_lock : int;
  wait_degraded : int;
  retry : int;
}

type t = {
  session : int;
  seq : int;
  op : int;
  arrival : int;
  marks : mark list;  (** emission (= cycle) order; head is dispatch *)
}

let completion t =
  match List.rev t.marks with [] -> t.arrival | m :: _ -> m.cycle

let latency t = completion t - t.arrival

let outcome t =
  match List.rev t.marks with
  | { phase = Event.P_ack; _ } :: _ -> Acked
  | { phase = Event.P_timeout; _ } :: _ -> Timed_out
  | { phase = Event.P_fault; _ } :: _ -> Faulted
  | _ -> Incomplete

let complete t = outcome t <> Incomplete

(** The five latency components; {!components} attributes every cycle of
    a complete span to exactly one. *)
type component = Queue | Service | Replication | Retry | Failover_wait

let n_components = 5

let component_index = function
  | Queue -> 0
  | Service -> 1
  | Replication -> 2
  | Retry -> 3
  | Failover_wait -> 4

let component_name = function
  | Queue -> "queue"
  | Service -> "service"
  | Replication -> "replication"
  | Retry -> "retry"
  | Failover_wait -> "failover-wait"

let all_components = [ Queue; Service; Replication; Retry; Failover_wait ]

(* The residual of a segment ending in [phase] belongs to: *)
let base_component = function
  | Event.P_apply_backup -> Replication
  | Event.P_dispatch -> Queue (* arrival -> dispatch is queueing delay *)
  | Event.P_apply_acting | Event.P_ack | Event.P_timeout | Event.P_fault ->
      Service

type segment = {
  mark : mark;
  start : int;
  lock_wait : int;
  failover_wait : int;
  backoff : int;
  residual : int;
}

(* The dispatch segment starts at arrival with the dispatch mark's own
   counters as baselines, so it is all residual.  Counter deltas never
   exceed a segment's raw duration: waits and retries are disjoint
   sub-intervals of it (sequential fibre code). *)
let segments t =
  let rec go (prev : mark) = function
    | [] -> []
    | (m : mark) :: rest ->
        let lock_wait = m.wait_lock - prev.wait_lock
        and failover_wait = m.wait_degraded - prev.wait_degraded
        and backoff = m.retry - prev.retry in
        {
          mark = m;
          start = prev.cycle;
          lock_wait;
          failover_wait;
          backoff;
          residual =
            m.cycle - prev.cycle - lock_wait - failover_wait - backoff;
        }
        :: go m rest
  in
  match t.marks with
  | [] -> []
  | first :: _ as ms -> go { first with cycle = t.arrival } ms

let components t =
  let c = Array.make n_components 0 in
  let add comp n = c.(component_index comp) <- c.(component_index comp) + n in
  List.iter
    (fun s ->
      add Queue s.lock_wait;
      add Failover_wait s.failover_wait;
      add Retry s.backoff;
      add (base_component s.mark.phase) s.residual)
    (segments t);
  c

(* (session, seq) is unique, so the sort alone fixes the order. *)
let assemble tr =
  let tbl : (int * int, (int * int * mark list) ref) Hashtbl.t =
    Hashtbl.create 256
  in
  Tracer.iter_mark_log
    (fun e ->
      match e with
      | Event.Mark
          { session; seq; op; phase; replica; t0; wait_lock; wait_degraded;
            retry; cycle } -> (
          let m = { phase; replica; cycle; wait_lock; wait_degraded; retry } in
          let key = (session, seq) in
          match Hashtbl.find_opt tbl key with
          | Some cell ->
              let op', arr, ms = !cell in
              cell := (op', arr, m :: ms)
          | None ->
              (* only a dispatch mark can open a span: it carries the
                 arrival stamp.  A non-dispatch head means the request
                 was dispatched before the last clear — skip it. *)
              if phase = Event.P_dispatch then
                Hashtbl.replace tbl key (ref (op, t0, [ m ])))
      | _ -> ())
    tr;
  Hashtbl.fold
    (fun (session, seq) cell acc ->
      let op, arrival, ms = !cell in
      { session; seq; op; arrival; marks = List.rev ms } :: acc)
    tbl []
  |> List.sort (fun a b ->
         if a.arrival <> b.arrival then compare a.arrival b.arrival
         else if a.session <> b.session then compare a.session b.session
         else compare a.seq b.seq)

(** [digest spans] — an order-sensitive FNV-1a fold over every span's
    identity, timing and components; folds into [--sig] lines so the
    pinned signatures cover span determinism across runs and [--jobs]
    settings. *)
let digest spans =
  let h = ref 0x3bf29ce484222325 in
  let mix v =
    h := (!h lxor (v land 0xffffffff)) * 0x100000001b3 land max_int
  in
  let n = ref 0 in
  List.iter
    (fun s ->
      incr n;
      mix s.session;
      mix s.seq;
      mix s.op;
      mix s.arrival;
      mix (completion s);
      mix
        (match outcome s with
        | Acked -> 1
        | Timed_out -> 2
        | Faulted -> 3
        | Incomplete -> 4);
      Array.iter mix (components s))
    spans;
  Printf.sprintf "%d:%012x" !n (!h land 0xffffffffffff)

let op_name = function
  | 0 -> "read"
  | 1 -> "update"
  | 2 -> "insert"
  | i -> Printf.sprintf "op%d" i

(** Annotated span tree: one line per mark, residual and wait deltas
    labelled, followed by the component summary. *)
let pp ppf t =
  let c = components t in
  Fmt.pf ppf "@[<v2>%s s%d.q%d arrival=%d latency=%d outcome=%s"
    (op_name t.op) t.session t.seq t.arrival (latency t)
    (outcome_name (outcome t));
  List.iter
    (fun s ->
      let m = s.mark in
      let label =
        if m.replica >= 0 then
          Printf.sprintf "%s r%d" (Event.span_phase_name m.phase) m.replica
        else Event.span_phase_name m.phase
      in
      Fmt.pf ppf "@,%-14s @%d  %s=%d" label m.cycle
        (component_name (base_component m.phase))
        s.residual;
      if s.lock_wait > 0 then Fmt.pf ppf " +lock-wait=%d" s.lock_wait;
      if s.failover_wait > 0 then
        Fmt.pf ppf " +failover-wait=%d" s.failover_wait;
      if s.backoff > 0 then Fmt.pf ppf " +retry=%d" s.backoff)
    (segments t);
  Fmt.pf ppf "@,=";
  List.iter
    (fun comp ->
      let v = c.(component_index comp) in
      if v > 0 then Fmt.pf ppf " %s=%d" (component_name comp) v)
    all_components;
  Fmt.pf ppf "@]"
