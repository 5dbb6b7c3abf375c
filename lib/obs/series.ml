(** Windowed time-series telemetry over simulated cycles.

    A series buckets the event stream into fixed-width windows of the
    simulated clock and keeps per-window counters — request dispatches,
    completions by outcome, failover machinery activity — plus
    end-of-window gauges (in-flight depth, trusted-replica count).  A
    chaos storm then renders as an availability/failover timeline
    instead of one averaged number.

    Fed online from {!Tracer.emit} (attach with [Tracer.create ~series]),
    so it sees every event even after the ring buffer wraps.  Every
    counter derives from the deterministic event stream, so a series is
    reproducible in the seed like any other trace artefact.

    Events arrive with nondecreasing cycles ({!Event.cycle}), so window
    close-out is a simple forward sweep: when an event lands past the
    open window, the open window (and any empty gap windows — real idle
    time, worth showing on a timeline) are closed in order. *)

type row = {
  index : int;            (** window index; covers cycles
                              [index*window, (index+1)*window) *)
  mutable dispatches : int;    (** requests claimed by a server *)
  mutable acked : int;         (** requests completed successfully *)
  mutable timed_out : int;     (** requests that exhausted their deadline *)
  mutable faulted : int;       (** requests aborted by a surfaced fault *)
  mutable failovers : int;
  mutable rejoins : int;
  mutable crashes : int;
  mutable restarts : int;
  mutable unavail_cycles : int;
      (** unavailability window lengths, attributed to the window in
          which the outage *ended* (that is when it is measurable) *)
  mutable inflight : int;      (** in-flight depth at window close *)
  mutable trusted : int;       (** trusted-replica gauge at window close;
                                   [-1] before the first {!Event.Trust} *)
}

type t = {
  window : int;
  mutable closed : row list;   (** newest first *)
  mutable cur : row;
  mutable inflight : int;      (** live gauge *)
  mutable trusted : int;       (** live gauge; [-1] until first Trust *)
}

let fresh_row index inflight trusted =
  {
    index;
    dispatches = 0;
    acked = 0;
    timed_out = 0;
    faulted = 0;
    failovers = 0;
    rejoins = 0;
    crashes = 0;
    restarts = 0;
    unavail_cycles = 0;
    inflight;
    trusted;
  }

let create ~window =
  if window < 1 then invalid_arg "Obs.Series.create: window < 1";
  {
    window;
    closed = [];
    cur = fresh_row 0 0 (-1);
    inflight = 0;
    trusted = -1;
  }

let window t = t.window

(* Close windows until [cycle] lands inside the open one.  Gap windows
   carry the gauges forward with zero counters.  The division runs only
   once [cycle] reaches the open window's end (should that product
   overflow, the division still decides). *)
let advance t cycle =
  if cycle >= (t.cur.index + 1) * t.window then begin
    let target = cycle / t.window in
    while t.cur.index < target do
      t.cur.inflight <- t.inflight;
      t.cur.trusted <- t.trusted;
      t.closed <- t.cur :: t.closed;
      t.cur <- fresh_row (t.cur.index + 1) t.inflight t.trusted
    done
  end

let observe t e =
  advance t (Event.cycle e);
  let r = t.cur in
  match e with
  | Event.Mark { phase; _ } -> (
      match phase with
      | Event.P_dispatch ->
          r.dispatches <- r.dispatches + 1;
          t.inflight <- t.inflight + 1
      | Event.P_ack ->
          r.acked <- r.acked + 1;
          t.inflight <- t.inflight - 1
      | Event.P_timeout ->
          r.timed_out <- r.timed_out + 1;
          t.inflight <- t.inflight - 1
      | Event.P_fault ->
          r.faulted <- r.faulted + 1;
          t.inflight <- t.inflight - 1
      | Event.P_apply_backup | Event.P_apply_acting -> ())
  | Event.Trust { trusted; _ } -> t.trusted <- trusted
  | Event.Failover _ -> r.failovers <- r.failovers + 1
  | Event.Rejoin _ -> r.rejoins <- r.rejoins + 1
  | Event.Crash _ -> r.crashes <- r.crashes + 1
  | Event.Restart _ -> r.restarts <- r.restarts + 1
  | Event.Unavail { cycles; _ } -> r.unavail_cycles <- r.unavail_cycles + cycles
  | Event.Prim _ | Event.Evict _ | Event.Fault _ | Event.Retry _
  | Event.Fallback _ | Event.Counter _ | Event.Switch _ -> ()

(** [rows t] — all windows, oldest first, the still-open one last (with
    the live gauges captured as its end-of-window values). *)
let rows t =
  t.cur.inflight <- t.inflight;
  t.cur.trusted <- t.trusted;
  List.rev (t.cur :: t.closed)

let n_windows t = List.length t.closed + 1

let clear t =
  t.closed <- [];
  t.cur <- fresh_row 0 0 (-1);
  t.inflight <- 0;
  t.trusted <- -1

let row_to_buf buf r =
  Buffer.add_string buf
    (Printf.sprintf
       "{ \"w\": %d, \"dispatches\": %d, \"acked\": %d, \"timed_out\": %d, \
        \"faulted\": %d, \"failovers\": %d, \"rejoins\": %d, \"crashes\": \
        %d, \"restarts\": %d, \"unavail_cycles\": %d, \"inflight\": %d, \
        \"trusted\": %d }"
       r.index r.dispatches r.acked r.timed_out r.faulted r.failovers
       r.rejoins r.crashes r.restarts r.unavail_cycles r.inflight r.trusted)

(** [to_json t] — [{ "window": W, "rows": [...] }]; one row object per
    window, oldest first, empty gap windows included (idle time is part
    of the timeline). *)
let to_json t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "{ \"window\": %d, \"rows\": [" t.window);
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_string buf ", ";
      row_to_buf buf r)
    (rows t);
  Buffer.add_string buf "] }";
  Buffer.contents buf
