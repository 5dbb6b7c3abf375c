(** The event tracer: a fixed-capacity ring buffer of {!Event.t} plus an
    online {!Report.t}.

    A tracer is attached (optionally) at [Fabric.create ?tracer]; the
    fabric, scheduler, retry engine and FliT instances emit into it.  The
    hard contract is on the *absent* tracer: every emission site is a
    direct [match t.tracer with None -> () | Some tr -> ...], so an
    untraced fabric performs no allocation, draws no randomness and
    charges no cycles for observability — the blessed corpus replay gate
    stays byte-identical.

    When the buffer is full the *oldest* events are overwritten (the tail
    of a run is what explains its outcome); [dropped] counts the
    overwrites, and the report — updated on emission — still covers every
    primitive ever emitted.

    The ring is packed (slot layout in tracer.mli): [stride] unboxed
    ints per event, so a retained event is not a heap block the minor GC
    must promote, and a store into the ring passes no write barrier.
    Only [Mark] records are kept boxed, in a side array.  Slots live in
    chunks of [chunk] events, allocated the first time the ring reaches
    them and dropped by [clear], so a ring holds memory for what it has
    retained, not for its capacity. *)

type t = {
  buf : int array array;
      (** chunk directory: [stride * chunk] ints per chunk (fewer in the
          last), [[||]] until the ring reaches it *)
  marks : Event.t array array;
      (** [Mark] records by slot, chunked like [buf]; [filler] elsewhere *)
  cap : int;
  mutable start : int;    (** slot of the oldest retained event *)
  mutable len : int;      (** retained events, <= [cap] *)
  mutable dropped : int;  (** events overwritten after wrap *)
  report : Report.t;
  series : Series.t option;
      (** optional windowed time-series, fed on every emit — like the
          report, it survives ring wrap because it is online *)
}

let default_capacity = 1 lsl 16
let stride = 4
let chunk_bits = 12
let chunk = 1 lsl chunk_bits
let chunk_mask = chunk - 1
let max_small = (1 lsl 54) - 2

(* Slot tags are the {!Event.t} constructors numbered in declaration
   order (Prim 0 ... Trust 13); [store] and [load] list them so. *)
let tag_mark = 12

(* Any event works as the side-array filler; slot tags guard all reads. *)
let filler = Event.Switch { step = 0; tid = -1; machine = -1; cycle = 0 }

let prims =
  let a = Array.make Event.n_prims Event.Load in
  List.iter (fun p -> a.(Event.prim_index p) <- p) Event.all_prims;
  a

let evict_index = function Event.Horizontal -> 0 | Event.Vertical -> 1
let evict_kinds = [| Event.Horizontal; Event.Vertical |]

let fault_index = function
  | Event.Nack -> 0
  | Event.Timeout -> 1
  | Event.Delay -> 2
  | Event.Poison_hit -> 3
  | Event.Poison_set -> 4

let fault_kinds =
  [| Event.Nack; Event.Timeout; Event.Delay; Event.Poison_hit;
     Event.Poison_set |]

let create ?(capacity = default_capacity) ?series () =
  if capacity < 1 then invalid_arg "Obs.Tracer.create: capacity < 1";
  let chunks = ((capacity - 1) lsr chunk_bits) + 1 in
  {
    buf = Array.make chunks [||];
    marks = Array.make chunks [||];
    cap = capacity;
    start = 0;
    len = 0;
    dropped = 0;
    report = Report.create ();
    series;
  }

(* Allocate chunk [c]; only the last one may be short. *)
let grow t c =
  let n = min chunk (t.cap - (c lsl chunk_bits)) in
  t.buf.(c) <- Array.make (stride * n) 0;
  t.marks.(c) <- Array.make n filler

let put t i tag sub small w1 w2 w3 =
  if small < -1 || small > max_small then
    invalid_arg "Obs.Tracer.emit: machine or shard out of range";
  let c = i lsr chunk_bits and j = i land chunk_mask in
  let buf = t.buf.(c) and o = stride * j in
  if buf.(o) land 15 = tag_mark then t.marks.(c).(j) <- filler;
  buf.(o) <- tag lor (sub lsl 4) lor ((small + 1) lsl 8);
  buf.(o + 1) <- w1;
  buf.(o + 2) <- w2;
  buf.(o + 3) <- w3

(* Pack [e] into slot [i]. *)
let store t i e =
  match e with
  | Event.Prim { prim; machine; loc; t0; t1 } ->
      put t i 0 (Event.prim_index prim) machine loc t0 t1
  | Event.Evict { kind; machine; loc; cycle } ->
      put t i 1 (evict_index kind) machine loc cycle 0
  | Event.Crash { machine; cycle } -> put t i 2 0 machine cycle 0 0
  | Event.Restart { machine; cycle; step } ->
      put t i 3 0 machine cycle step 0
  | Event.Fault { kind; machine; to_machine; loc; cycle } ->
      put t i 4 (fault_index kind) machine to_machine loc cycle
  | Event.Retry { machine; attempt; backoff; cycle } ->
      put t i 5 0 machine attempt backoff cycle
  | Event.Fallback { machine; loc; cycle } ->
      put t i 6 0 machine loc cycle 0
  | Event.Counter { machine; loc; value; cycle } ->
      put t i 7 0 machine loc value cycle
  | Event.Switch { step; tid; machine; cycle } ->
      put t i 8 0 machine step tid cycle
  | Event.Failover { shard; from_machine; to_machine; cycle } ->
      put t i 9 0 shard from_machine to_machine cycle
  | Event.Rejoin { shard; machine; cycle } ->
      put t i 10 0 shard machine cycle 0
  | Event.Unavail { shard; cycles; cycle } ->
      put t i 11 0 shard cycles cycle 0
  | Event.Mark _ ->
      let c = i lsr chunk_bits and j = i land chunk_mask in
      t.buf.(c).(stride * j) <- tag_mark;
      t.marks.(c).(j) <- e
  | Event.Trust { trusted; cycle } -> put t i 13 0 (-1) trusted cycle 0

(* Unpack slot [i]; a mark comes back as the record that was emitted. *)
let load t i =
  let c = i lsr chunk_bits and j = i land chunk_mask in
  let buf = t.buf.(c) and o = stride * j in
  let w0 = buf.(o) in
  let sub = (w0 lsr 4) land 15 and small = (w0 lsr 8) - 1 in
  let w1 = buf.(o + 1) and w2 = buf.(o + 2) and w3 = buf.(o + 3) in
  match w0 land 15 with
  | 0 ->
      Event.Prim
        { prim = prims.(sub); machine = small; loc = w1; t0 = w2; t1 = w3 }
  | 1 ->
      Event.Evict
        { kind = evict_kinds.(sub); machine = small; loc = w1; cycle = w2 }
  | 2 -> Event.Crash { machine = small; cycle = w1 }
  | 3 -> Event.Restart { machine = small; cycle = w1; step = w2 }
  | 4 ->
      Event.Fault
        { kind = fault_kinds.(sub); machine = small; to_machine = w1; loc = w2;
          cycle = w3 }
  | 5 ->
      Event.Retry { machine = small; attempt = w1; backoff = w2; cycle = w3 }
  | 6 -> Event.Fallback { machine = small; loc = w1; cycle = w2 }
  | 7 -> Event.Counter { machine = small; loc = w1; value = w2; cycle = w3 }
  | 8 -> Event.Switch { step = w1; tid = w2; machine = small; cycle = w3 }
  | 9 ->
      Event.Failover
        { shard = small; from_machine = w1; to_machine = w2; cycle = w3 }
  | 10 -> Event.Rejoin { shard = small; machine = w1; cycle = w2 }
  | 11 -> Event.Unavail { shard = small; cycles = w1; cycle = w2 }
  | 12 -> t.marks.(c).(j)
  | _ -> Event.Trust { trusted = w1; cycle = w2 }

(* The slot of the [k]-th oldest retained event. *)
let slot t k =
  let i = t.start + k in
  if i >= t.cap then i - t.cap else i

let emit t e =
  (match e with
  | Event.Prim { prim; machine; loc; t0; t1 } ->
      Report.observe t.report ~prim ~machine ~loc ~cycles:(t1 - t0)
  | Event.Failover _ -> Report.observe_failover t.report
  | Event.Rejoin _ -> Report.observe_rejoin t.report
  | Event.Unavail { cycles; _ } -> Report.observe_unavail t.report ~cycles
  | _ -> ());
  (match t.series with None -> () | Some s -> Series.observe s e);
  if t.len < t.cap then begin
    (* below capacity the ring has not wrapped since the last clear:
       [start] is 0, slots fill in order, and a slot that opens a chunk
       is the first use of that chunk *)
    if t.len land chunk_mask = 0 then grow t (t.len lsr chunk_bits);
    store t t.len e;
    t.len <- t.len + 1
  end
  else begin
    store t t.start e;
    t.start <- (if t.start + 1 = t.cap then 0 else t.start + 1);
    t.dropped <- t.dropped + 1;
    Report.observe_dropped t.report
  end

let length t = t.len
let dropped t = t.dropped
let emitted t = t.len + t.dropped
let capacity t = t.cap
let report t = t.report
let series t = t.series

let iter f t =
  for k = 0 to t.len - 1 do
    f (load t (slot t k))
  done

let iter_marks f t =
  for k = 0 to t.len - 1 do
    let i = slot t k in
    let c = i lsr chunk_bits and j = i land chunk_mask in
    if t.buf.(c).(stride * j) land 15 = tag_mark then f t.marks.(c).(j)
  done

let events t = List.init t.len (fun k -> load t (slot t k))

let clear t =
  t.start <- 0;
  t.len <- 0;
  t.dropped <- 0;
  Array.fill t.buf 0 (Array.length t.buf) [||];
  Array.fill t.marks 0 (Array.length t.marks) [||];
  Report.clear t.report;
  match t.series with None -> () | Some s -> Series.clear s
