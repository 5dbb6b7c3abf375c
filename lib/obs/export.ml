(** Trace exporters: Chrome trace-event / Perfetto JSON and a compact
    sexp dump.

    The JSON follows the Chrome trace-event format (the JSON array
    flavour Perfetto and [chrome://tracing] both load): one *process* per
    machine (pid = machine index + 1, named like the fabric's machines),
    one *thread* per scheduler thread (tid = thread id + 1; tid 0 is the
    fabric itself, for events emitted outside any thread).  Primitives
    become complete ("X") slices whose [ts]/[dur] are simulated cycles
    written as microseconds; evictions, faults, retries, fallbacks and
    scheduler switches become instants; crashes and restarts become
    global instants; FliT counter transitions become counter ("C")
    tracks.

    Thread attribution uses the cooperative-execution invariant: exactly
    one thread runs between two [Switch] events, so every event belongs
    to the most recently switched-in thread.  Exporting is a pure
    function of the event sequence — deterministic in the run's seed.

    Request spans ({!Span}, assembled from [Mark] events) render as a
    separate synthetic "requests" process (pid 100 — machine pids top
    out at 63), one thread per traffic session: each request is a
    complete slice from arrival to completion with its per-segment
    children nested inside, so the queue/replication/failover anatomy of
    a slow request is visible directly on the timeline. *)

let pid_of_machine m = m + 1 (* machine -1 (no machine) -> pid 0, "fabric" *)
let tid_of_thread tid = tid + 1 (* thread -1 (no thread) -> tid 0 *)
let requests_pid = 100 (* synthetic process hosting request spans *)

let process_name pid = if pid = 0 then "fabric" else Printf.sprintf "M%d" pid
let thread_name tid = if tid = 0 then "(fabric)" else Printf.sprintf "t%d" (tid - 1)

(* One JSON trace-event object.  All names are controlled ASCII, so no
   string escaping is needed. *)
let obj buf ~first ~name ~ph ~pid ~tid ~ts ?dur ?scope ?args () =
  if not !first then Buffer.add_string buf ",\n";
  first := false;
  Buffer.add_string buf
    (Printf.sprintf "{\"name\":\"%s\",\"ph\":\"%s\",\"pid\":%d,\"tid\":%d,\"ts\":%d"
       name ph pid tid ts);
  (match dur with
  | None -> ()
  | Some d -> Buffer.add_string buf (Printf.sprintf ",\"dur\":%d" d));
  (match scope with
  | None -> ()
  | Some s -> Buffer.add_string buf (Printf.sprintf ",\"s\":\"%s\"" s));
  (match args with
  | None -> ()
  | Some a -> Buffer.add_string buf (Printf.sprintf ",\"args\":{%s}" a));
  Buffer.add_char buf '}'

let meta buf ~first ~name ~pid ?tid ~value () =
  if not !first then Buffer.add_string buf ",\n";
  first := false;
  Buffer.add_string buf
    (Printf.sprintf "{\"name\":\"%s\",\"ph\":\"M\",\"pid\":%d%s,\"args\":{\"name\":\"%s\"}}"
       name pid
       (match tid with None -> "" | Some t -> Printf.sprintf ",\"tid\":%d" t)
       value)

module Iset = Set.Make (Int)
module Pset = Set.Make (struct
  type t = int * int
  let compare = compare
end)

let to_chrome_json tracer =
  (* Pass 1: the processes and (process, thread) pairs to name. *)
  let pids = ref Iset.empty and pairs = ref Pset.empty in
  let cur = ref (-1) in
  let see_pid m = pids := Iset.add (pid_of_machine m) !pids in
  let see m =
    see_pid m;
    pairs :=
      Pset.add (pid_of_machine m, tid_of_thread !cur) !pairs
  in
  Tracer.iter
    (fun e ->
      match e with
      | Event.Switch { tid; machine; _ } ->
          cur := tid;
          see machine
      | Event.Prim { machine; _ }
      | Event.Retry { machine; _ }
      | Event.Fallback { machine; _ }
      | Event.Counter { machine; _ }
      | Event.Evict { machine; _ }
      | Event.Fault { machine; _ }
      | Event.Crash { machine; _ }
      | Event.Restart { machine; _ }
      | Event.Rejoin { machine; _ } -> see machine
      | Event.Failover { to_machine; _ } -> see to_machine
      | Event.Unavail _ | Event.Trust _ -> see (-1)
      | Event.Mark _ -> ())
    tracer;
  let spans = Span.assemble tracer in
  let sessions =
    List.fold_left (fun s sp -> Iset.add sp.Span.session s) Iset.empty spans
  in
  (* Pass 2: render. *)
  let buf = Buffer.create 4096 in
  let first = ref true in
  Buffer.add_string buf "{\"traceEvents\":[\n";
  Iset.iter
    (fun pid -> meta buf ~first ~name:"process_name" ~pid ~value:(process_name pid) ())
    !pids;
  Pset.iter
    (fun (pid, tid) ->
      meta buf ~first ~name:"thread_name" ~pid ~tid ~value:(thread_name tid) ())
    !pairs;
  if not (Iset.is_empty sessions) then begin
    meta buf ~first ~name:"process_name" ~pid:requests_pid ~value:"requests" ();
    Iset.iter
      (fun s ->
        meta buf ~first ~name:"thread_name" ~pid:requests_pid ~tid:(s + 1)
          ~value:(Printf.sprintf "session %d" s)
          ())
      sessions
  end;
  let cur = ref (-1) in
  Tracer.iter
    (fun e ->
      let tid = tid_of_thread !cur in
      match e with
      | Event.Switch { step; tid = t; machine; cycle } ->
          cur := t;
          obj buf ~first ~name:"switch" ~ph:"i" ~pid:(pid_of_machine machine)
            ~tid:(tid_of_thread t) ~ts:cycle ~scope:"t"
            ~args:(Printf.sprintf "\"step\":%d,\"tid\":%d" step t)
            ()
      | Event.Prim { prim; machine; loc; t0; t1 } ->
          obj buf ~first ~name:(Event.prim_name prim) ~ph:"X"
            ~pid:(pid_of_machine machine) ~tid ~ts:t0 ~dur:(t1 - t0)
            ~args:(Printf.sprintf "\"loc\":%d" loc)
            ()
      | Event.Evict { kind; machine; loc; cycle } ->
          obj buf ~first
            ~name:("evict-" ^ Event.evict_kind_name kind)
            ~ph:"i" ~pid:(pid_of_machine machine) ~tid ~ts:cycle ~scope:"p"
            ~args:(Printf.sprintf "\"loc\":%d" loc)
            ()
      | Event.Crash { machine; cycle } ->
          obj buf ~first
            ~name:(Printf.sprintf "crash-M%d" (machine + 1))
            ~ph:"i" ~pid:(pid_of_machine machine) ~tid ~ts:cycle ~scope:"g" ()
      | Event.Restart { machine; cycle; step } ->
          obj buf ~first
            ~name:(Printf.sprintf "restart-M%d" (machine + 1))
            ~ph:"i" ~pid:(pid_of_machine machine) ~tid ~ts:cycle ~scope:"g"
            ~args:(Printf.sprintf "\"step\":%d" step)
            ()
      | Event.Fault { kind; machine; to_machine; loc; cycle } ->
          obj buf ~first
            ~name:("fault-" ^ Event.fault_kind_name kind)
            ~ph:"i" ~pid:(pid_of_machine machine) ~tid ~ts:cycle ~scope:"p"
            ~args:(Printf.sprintf "\"to\":%d,\"loc\":%d" to_machine loc)
            ()
      | Event.Retry { machine; attempt; backoff; cycle } ->
          obj buf ~first ~name:"retry" ~ph:"i" ~pid:(pid_of_machine machine)
            ~tid ~ts:cycle ~scope:"t"
            ~args:(Printf.sprintf "\"attempt\":%d,\"backoff\":%d" attempt backoff)
            ()
      | Event.Fallback { machine; loc; cycle } ->
          obj buf ~first ~name:"lf-to-rf-fallback" ~ph:"i"
            ~pid:(pid_of_machine machine) ~tid ~ts:cycle ~scope:"t"
            ~args:(Printf.sprintf "\"loc\":%d" loc)
            ()
      | Event.Counter { machine; loc; value; cycle } ->
          obj buf ~first
            ~name:(Printf.sprintf "flit-ctr-loc%d" loc)
            ~ph:"C" ~pid:(pid_of_machine machine) ~tid ~ts:cycle
            ~args:(Printf.sprintf "\"value\":%d" value)
            ()
      | Event.Failover { shard; from_machine; to_machine; cycle } ->
          obj buf ~first
            ~name:(Printf.sprintf "failover-shard%d" shard)
            ~ph:"i" ~pid:(pid_of_machine to_machine) ~tid ~ts:cycle ~scope:"g"
            ~args:(Printf.sprintf "\"from\":%d,\"to\":%d" from_machine to_machine)
            ()
      | Event.Rejoin { shard; machine; cycle } ->
          obj buf ~first
            ~name:(Printf.sprintf "rejoin-shard%d" shard)
            ~ph:"i" ~pid:(pid_of_machine machine) ~tid ~ts:cycle ~scope:"p"
            ~args:(Printf.sprintf "\"shard\":%d" shard)
            ()
      | Event.Unavail { shard; cycles; cycle } ->
          obj buf ~first
            ~name:(Printf.sprintf "unavail-shard%d" shard)
            ~ph:"X" ~pid:0 ~tid ~ts:(cycle - cycles) ~dur:cycles
            ~args:(Printf.sprintf "\"shard\":%d" shard)
            ()
      | Event.Trust { trusted; cycle } ->
          obj buf ~first ~name:"trusted-replicas" ~ph:"C" ~pid:0 ~tid ~ts:cycle
            ~args:(Printf.sprintf "\"value\":%d" trusted)
            ()
      | Event.Mark _ -> () (* rendered below as nested span slices *))
    tracer;
  (* Request spans: one complete slice per request, its per-segment
     children nested inside by ts/dur containment. *)
  List.iter
    (fun sp ->
      let tid = sp.Span.session + 1 in
      let comp = Span.components sp in
      let dur = Span.completion sp - sp.Span.arrival in
      let comp_args =
        String.concat ","
          (List.map
             (fun c ->
               Printf.sprintf "\"%s\":%d" (Span.component_name c)
                 comp.(Span.component_index c))
             Span.all_components)
      in
      obj buf ~first
        ~name:(Span.op_name sp.Span.op)
        ~ph:"X" ~pid:requests_pid ~tid ~ts:sp.Span.arrival ~dur
        ~args:
          (Printf.sprintf "\"seq\":%d,\"outcome\":\"%s\",%s" sp.Span.seq
             (Span.outcome_name (Span.outcome sp))
             comp_args)
        ();
      match Span.segments sp with
      | [] -> ()
      | queue :: rest ->
          if queue.Span.residual > 0 then
            obj buf ~first ~name:"queue" ~ph:"X" ~pid:requests_pid ~tid
              ~ts:queue.Span.start ~dur:queue.Span.residual ();
          List.iter
            (fun (s : Span.segment) ->
              let m = s.Span.mark in
              let name =
                if m.Span.replica >= 0 then
                  Printf.sprintf "%s-r%d"
                    (Event.span_phase_name m.Span.phase)
                    m.Span.replica
                else Event.span_phase_name m.Span.phase
              in
              obj buf ~first ~name ~ph:"X" ~pid:requests_pid ~tid
                ~ts:s.Span.start
                ~dur:(m.Span.cycle - s.Span.start)
                ~args:
                  (Printf.sprintf
                     "\"lock_wait\":%d,\"failover_wait\":%d,\"retry\":%d"
                     s.Span.lock_wait s.Span.failover_wait s.Span.backoff)
                ())
            rest)
    spans;
  Buffer.add_string buf
    (Printf.sprintf
       "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"events\":%d,\"dropped\":%d}}\n"
       (Tracer.emitted tracer) (Tracer.dropped tracer));
  Buffer.contents buf

let to_sexp tracer =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "(trace (events %d) (dropped %d))\n"
       (Tracer.emitted tracer) (Tracer.dropped tracer));
  Tracer.iter
    (fun e -> Buffer.add_string buf (Fmt.str "%a\n" Event.pp e))
    tracer;
  Buffer.contents buf

(** [write tracer path] — sexp dump when [path] ends in [.sexp], Chrome
    JSON otherwise. *)
let write tracer path =
  let data =
    if Filename.check_suffix path ".sexp" then to_sexp tracer
    else to_chrome_json tracer
  in
  let oc = open_out path in
  output_string oc data;
  close_out oc
