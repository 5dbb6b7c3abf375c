(** Aggregated metrics of a traced run: per-primitive latency histograms
    in simulated cycles, per-machine and per-line traffic accounting.

    Updated online by {!Tracer.emit} on every primitive event, so a
    report is available even when the ring buffer has wrapped and the
    early events themselves are gone. *)

(* The fabric caps machine counts at 62 (a bitmask with two spare bits),
   so fixed arrays suffice — the report cannot learn the machine count
   because the tracer is created before the fabric it observes. *)
let max_machines = 64

module Lines = Hashtbl.Make (Int)

type t = {
  hists : Hist.t array;          (** indexed by {!Event.prim_index} *)
  machine_ops : int array;       (** primitives issued by each machine *)
  machine_cycles : int array;    (** cycles spent by each machine *)
  line_ops : int ref Lines.t;    (** location -> primitives touching it *)
  mutable failovers : int;       (** KV read-path switches *)
  mutable rejoins : int;         (** stale replicas re-synced *)
  unavail : Hist.t;  (** lengths of shard unavailability windows, cycles *)
  mutable dropped : int;
      (** events overwritten by the tracer's ring wrap — the summary
          table above still covers them, the raw events are gone *)
}

let create () =
  {
    hists = Array.init Event.n_prims (fun _ -> Hist.create ());
    machine_ops = Array.make max_machines 0;
    machine_cycles = Array.make max_machines 0;
    line_ops = Lines.create 64;
    failovers = 0;
    rejoins = 0;
    unavail = Hist.create ();
    dropped = 0;
  }

let clear t =
  Array.iter Hist.clear t.hists;
  Array.fill t.machine_ops 0 max_machines 0;
  Array.fill t.machine_cycles 0 max_machines 0;
  Lines.reset t.line_ops;
  t.failovers <- 0;
  t.rejoins <- 0;
  Hist.clear t.unavail;
  t.dropped <- 0

(* Add [n] to [loc]'s counter: one lookup, and no allocation once the
   line has been seen. *)
let count_line lines loc n =
  match Lines.find lines loc with
  | r -> r := !r + n
  | exception Not_found -> Lines.add lines loc (ref n)

let observe t ~prim ~machine ~loc ~cycles =
  Hist.add t.hists.(Event.prim_index prim) cycles;
  if machine >= 0 && machine < max_machines then begin
    t.machine_ops.(machine) <- t.machine_ops.(machine) + 1;
    t.machine_cycles.(machine) <- t.machine_cycles.(machine) + cycles
  end;
  if loc >= 0 then count_line t.line_ops loc 1

let observe_failover t = t.failovers <- t.failovers + 1
let observe_rejoin t = t.rejoins <- t.rejoins + 1
let observe_unavail t ~cycles = Hist.add t.unavail cycles
let observe_dropped t = t.dropped <- t.dropped + 1

let failovers t = t.failovers
let rejoins t = t.rejoins
let unavail t = t.unavail
let dropped t = t.dropped

(** [merge ~into src] — fold [src] into [into]: per-primitive histograms
    merge bucket-exactly ({!Hist.merge}), machine counters add, line
    traffic adds per location.  Lets per-run (or per-shard) reports
    aggregate into one fabric-wide table without losing percentile
    precision. *)
let merge ~into src =
  Array.iteri (fun i h -> Hist.merge ~into:into.hists.(i) h) src.hists;
  for m = 0 to max_machines - 1 do
    into.machine_ops.(m) <- into.machine_ops.(m) + src.machine_ops.(m);
    into.machine_cycles.(m) <- into.machine_cycles.(m) + src.machine_cycles.(m)
  done;
  Lines.iter (fun loc n -> count_line into.line_ops loc !n) src.line_ops;
  into.failovers <- into.failovers + src.failovers;
  into.rejoins <- into.rejoins + src.rejoins;
  Hist.merge ~into:into.unavail src.unavail;
  into.dropped <- into.dropped + src.dropped

let hist t prim = t.hists.(Event.prim_index prim)

let total_ops t = Array.fold_left (fun acc h -> acc + Hist.count h) 0 t.hists

(** [machines t] — per-machine [(machine, ops, cycles)] rows for every
    machine that issued anything, in machine order. *)
let machines t =
  let rows = ref [] in
  for i = max_machines - 1 downto 0 do
    if t.machine_ops.(i) > 0 then
      rows := (i, t.machine_ops.(i), t.machine_cycles.(i)) :: !rows
  done;
  !rows

(** [lines t] — per-line [(loc, ops)] rows sorted by descending traffic,
    then ascending location (a deterministic hot-line ranking). *)
let lines t =
  Lines.fold (fun loc n acc -> (loc, !n) :: acc) t.line_ops []
  |> List.sort (fun (l1, n1) (l2, n2) ->
         if n1 <> n2 then compare n2 n1 else compare l1 l2)

let pp ppf t =
  Fmt.pf ppf "@[<v>";
  Fmt.pf ppf "%-10s %8s %8s %8s %8s %8s@," "primitive" "count" "p50" "p90"
    "p99" "max";
  List.iter
    (fun prim ->
      let h = hist t prim in
      if Hist.count h > 0 then
        Fmt.pf ppf "%-10s %8d %8d %8d %8d %8d@," (Event.prim_name prim)
          (Hist.count h) (Hist.p50 h) (Hist.p90 h) (Hist.p99 h)
          (Hist.max_value h))
    Event.all_prims;
  List.iter
    (fun (m, ops, cycles) ->
      Fmt.pf ppf "machine %-3d %d ops, %d cycles@," m ops cycles)
    (machines t);
  (match lines t with
  | [] -> ()
  | (hot, n) :: _ -> Fmt.pf ppf "hottest line: loc %d (%d ops)@," hot n);
  if t.failovers > 0 || t.rejoins > 0 then
    Fmt.pf ppf "failovers %d, rejoins %d@," t.failovers t.rejoins;
  if Hist.count t.unavail > 0 then
    Fmt.pf ppf "unavailability windows: %d (p50=%d p99=%d max=%d cycles)@,"
      (Hist.count t.unavail) (Hist.p50 t.unavail) (Hist.p99 t.unavail)
      (Hist.max_value t.unavail);
  if t.dropped > 0 then
    Fmt.pf ppf "events dropped (ring wrapped): %d@," t.dropped;
  Fmt.pf ppf "@]"
