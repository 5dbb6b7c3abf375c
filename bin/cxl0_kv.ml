(* cxl0-kv: the sharded durable KV service under open-loop Zipfian
   traffic (ROADMAP item 1, EXPERIMENTS E17/E18).

     dune exec bin/cxl0_kv.exe -- --sessions 64 --rate 200 --theta 0.9
     dune exec bin/cxl0_kv.exe -- --transform alg2-mstore,adaptive --mix a,b
     dune exec bin/cxl0_kv.exe -- --crash home --faults degraded --check
     dune exec bin/cxl0_kv.exe -- --replicas 2 --storm 5 --check   # failover
     dune exec bin/cxl0_kv.exe -- --sig          # determinism signatures

   Sweeps transform x mix combos; each combo is one serving run
   (Harness.Kv.serve) reporting throughput in ops per 1000 simulated
   cycles and per-op-type p50/p99 latency (completion minus *arrival*,
   so queueing under overload is visible).  Everything is deterministic
   in --seed: --sig prints one signature line per combo, and `dune
   runtest` diffs them against test/data/kv-sig.expected. *)

open Cmdliner
module K = Harness.Kv
module T = Harness.Traffic
module R = Harness.Runcore

let op_names = [| "read"; "update"; "insert" |]

(* One combo's deterministic signature: counters, clock, per-op
   histogram shapes, and the full fabric stats JSON.  `dune runtest`
   pins these lines in test/data/kv-sig.expected; any nondeterminism
   anywhere in the serving stack (schedule generation, shard mapping,
   scheduler, fault plan) shows.  With a tracer attached the span digest
   folds in, so span assembly is covered by the same pins; untraced
   signature lines are byte-identical to previous releases. *)
let signature transform mix ?spans (r : K.serve_result) =
  Printf.sprintf
    "kv %s mix=%s served=%d/%d/%d faulted=%d timed_out=%d dropped=%d \
     failovers=%d rejoins=%d avail=%.4f cycles=%d read:[%s] update:[%s] \
     insert:[%s] stats=%s%s"
    (Flit.Flit_intf.name transform)
    (T.mix_name mix) r.K.served.(0) r.K.served.(1) r.K.served.(2) r.K.faulted
    r.K.timed_out r.K.dropped r.K.failovers r.K.rejoins r.K.availability
    r.K.cycles
    (Bench_util.hist_sig r.K.latencies.(0))
    (Bench_util.hist_sig r.K.latencies.(1))
    (Bench_util.hist_sig r.K.latencies.(2))
    (Fabric.Stats.to_json r.K.stats)
    (match spans with
    | None -> ""
    | Some sp -> " spans=" ^ Obs.Span.digest sp)

let total_served (r : K.serve_result) =
  r.K.served.(0) + r.K.served.(1) + r.K.served.(2)

let throughput (r : K.serve_result) =
  if r.K.cycles = 0 then 0.0
  else float_of_int (total_served r) *. 1000.0 /. float_of_int r.K.cycles

let combo_json transform mix (r : K.serve_result) =
  let hist_json h =
    Printf.sprintf
      "{ \"n\": %d, \"mean\": %.1f, \"p50\": %d, \"p90\": %d, \"p99\": %d, \
       \"max\": %d }"
      (Obs.Hist.count h) (Obs.Hist.mean h) (Obs.Hist.p50 h) (Obs.Hist.p90 h)
      (Obs.Hist.p99 h) (Obs.Hist.max_value h)
  in
  Printf.sprintf
    "    { \"transform\": %S, \"mix\": %S, \"throughput_ops_per_kcycle\": \
     %.2f, \"served\": %d, \"faulted\": %d, \"timed_out\": %d, \"dropped\": \
     %d, \"failovers\": %d, \"rejoins\": %d, \"availability\": %.4f, \
     \"cycles\": %d,\n\
     \      \"read\": %s,\n\
     \      \"update\": %s,\n\
     \      \"insert\": %s }"
    (Flit.Flit_intf.name transform)
    (T.mix_name mix) (throughput r) (total_served r) r.K.faulted r.K.timed_out
    r.K.dropped r.K.failovers r.K.rejoins r.K.availability r.K.cycles
    (hist_json r.K.latencies.(0))
    (hist_json r.K.latencies.(1))
    (hist_json r.K.latencies.(2))

let print_combo transform mix (r : K.serve_result) =
  Fmt.pr "%-16s mix=%-9s  %6d served  %5.1f ops/kcycle  cycles=%d%s%s@."
    (Flit.Flit_intf.name transform)
    (T.mix_name mix) (total_served r) (throughput r) r.K.cycles
    (if r.K.faulted > 0 then Fmt.str "  faulted=%d" r.K.faulted else "")
    ((if r.K.timed_out > 0 then Fmt.str "  timed_out=%d" r.K.timed_out else "")
    ^ (if r.K.dropped > 0 then Fmt.str "  dropped=%d" r.K.dropped else "")
    ^ (if r.K.failovers > 0 || r.K.rejoins > 0 then
         Fmt.str "  failovers=%d rejoins=%d" r.K.failovers r.K.rejoins
       else "")
    ^
    if r.K.availability < 1.0 then Fmt.str "  avail=%.3f" r.K.availability
    else "");
  Array.iteri
    (fun i h ->
      if Obs.Hist.count h > 0 then
        Fmt.pr
          "    %-7s n=%-6d mean=%-8.1f p50=%-6d p90=%-6d p99=%-6d max=%d@."
          op_names.(i) (Obs.Hist.count h) (Obs.Hist.mean h) (Obs.Hist.p50 h)
          (Obs.Hist.p90 h) (Obs.Hist.p99 h) (Obs.Hist.max_value h))
    r.K.latencies

let run sessions ops rate theta keys mixes transforms shards servers machines
    replicas deadline storm seed crash faults check sig_only trace json
    label explain_tail timeline window trace_out =
  (* typed argument validation, exit 2 with the offending field named;
     the traffic fields share Traffic.validate with the library so the
     CLI and Kv.serve reject with the same message *)
  let reject msg =
    Fmt.epr "cxl0-kv: %s@." msg;
    exit 2
  in
  (match
     T.validate
       { T.default_spec with T.sessions; ops_per_session = ops; rate; theta;
         keyspace = keys; seed }
   with
  | Error m -> reject m
  | Ok () -> ());
  if machines <= 0 then reject "machines must be positive";
  if machines > Fabric.max_machines then
    reject
      (Printf.sprintf "machines (%d) must not exceed %d" machines
         Fabric.max_machines);
  if shards <= 0 then reject "shards must be positive";
  if servers <= 0 then reject "servers must be positive";
  if replicas <= 0 then reject "replicas must be positive";
  if replicas > machines then
    reject
      (Printf.sprintf "replicas (%d) must not exceed the machine count (%d)"
         replicas machines);
  if storm < 0 then reject "storm must be non-negative";
  if deadline <= 0 then reject "deadline must be positive";
  if explain_tail < 0 then reject "explain-tail must be non-negative";
  if window <= 0 then reject "window must be positive";
  let home = machines - 1 in
  (* worker: a serving machine that is not the shard-0 home *)
  let crashed =
    match crash with
    | Cli.No_crash -> None
    | Worker_crash -> Some 0
    | Home_crash -> Some home
  in
  let config transform mix =
    let traffic =
      { T.default_spec with T.sessions; ops_per_session = ops; rate; theta;
        keyspace = keys; mix; seed }
    in
    let base = K.default_serve_config ~transform ~traffic in
    { base with
      K.env =
        Fuzz.Gen.serving_env
          { base.K.env with R.n_machines = machines; home }
          ~crash:crashed ~storm ~faults;
      shards;
      servers_per_machine = servers;
      replicas;
      deadline;
      record_history = check }
  in
  if trace_out <> None && List.length transforms * List.length mixes > 1 then
    reject "--trace-out needs exactly one transform x mix combo";
  let merged_report = Obs.Report.create () in
  let failures = ref 0 in
  (* span/timeline features imply tracing for that combo; spans come
     from the tracer's mark log, so they cover the whole run at the
     default ring capacity *)
  let traced =
    trace || explain_tail > 0 || timeline <> None || trace_out <> None
  in
  let series_acc = ref [] in
  let results =
    List.concat_map
      (fun transform ->
        List.map
          (fun mix ->
            let c = config transform mix in
            let tracer =
              if traced then
                let series =
                  if timeline <> None then Some (Obs.Series.create ~window)
                  else None
                in
                Some (Obs.Tracer.create ?series ())
              else None
            in
            let r = K.serve ?tracer c in
            Option.iter
              (fun t ->
                Obs.Report.merge ~into:merged_report (Obs.Tracer.report t);
                Option.iter
                  (fun s -> series_acc := (transform, mix, s) :: !series_acc)
                  (Obs.Tracer.series t))
              tracer;
            let spans =
              match tracer with
              | Some tr when explain_tail > 0 || sig_only ->
                  Some (Obs.Span.assemble tr)
              | _ -> None
            in
            if sig_only then print_endline (signature transform mix ?spans r)
            else begin
              print_combo transform mix r;
              match spans with
              | Some sp ->
                  let attrib = Obs.Attrib.of_spans sp in
                  Fmt.pr "  tail attribution (exact per-phase cycle totals; \
                          dominant = heaviest phase over the p99 tail):@.";
                  Fmt.pr "  @[<v>%a@]@." Obs.Attrib.pp attrib;
                  List.iteri
                    (fun i s ->
                      Fmt.pr "  #%d %a@." (i + 1) Obs.Span.pp s)
                    (Obs.Attrib.slowest attrib explain_tail)
              | _ -> ()
            end;
            (match trace_out with
            | Some file ->
                Option.iter
                  (fun tr ->
                    Obs.Export.write tr file;
                    Fmt.epr "wrote %s@." file)
                  tracer
            | None -> ());
            if check then begin
              let v = K.check_run c r in
              match v.Lincheck.Durable.skipped with
              | Some _ ->
                  (* undecided is not a pass: the bitmask search tops out
                     at 62 ops — shrink the domain to get a verdict *)
                  incr failures;
                  Fmt.pr "  durability: undecided@.%a@."
                    Lincheck.Durable.pp_verdict v
              | None ->
                  if not v.Lincheck.Durable.durable then begin
                    incr failures;
                    Fmt.pr "  durability VIOLATION:@.%a@."
                      Lincheck.Durable.pp_verdict v
                  end
                  else Fmt.pr "  durability: ok@."
            end;
            (transform, mix, r))
          mixes)
      transforms
  in
  if trace && not sig_only then
    Fmt.pr "@.merged fabric-wide report (all combos):@.%a@." Obs.Report.pp
      merged_report;
  (match json with
  | None -> ()
  | Some file ->
      let oc = open_out file in
      Printf.fprintf oc
        "{ \"label\": %S, \"seed\": %d, \"sessions\": %d, \
         \"ops_per_session\": %d, \"rate\": %.1f, \"theta\": %.2f, \
         \"keys\": %d, \"shards\": %d, \"machines\": %d, \"replicas\": %d, \
         \"deadline\": %d, \"storm\": %d, \"crash\": %S, \"faults\": %S,\n\
         \  \"combos\": [\n\
         %s\n\
         \  ] }\n"
        label seed sessions ops rate theta keys shards machines replicas
        deadline storm (Cli.name Cli.crash crash)
        (Cli.name Cli.fault_env faults)
        (String.concat ",\n"
           (List.map
              (fun (t, m, r) -> combo_json t m r)
              results));
      close_out oc;
      Fmt.epr "wrote %s@." file);
  (match timeline with
  | None -> ()
  | Some file ->
      let oc = open_out file in
      Printf.fprintf oc
        "{ \"label\": %S, \"seed\": %d, \"window\": %d, \"combos\": [\n%s\n] }\n"
        label seed window
        (String.concat ",\n"
           (List.rev_map
              (fun (t, m, s) ->
                Printf.sprintf
                  "  { \"transform\": %S, \"mix\": %S, \"series\": %s }"
                  (Flit.Flit_intf.name t) (T.mix_name m)
                  (Obs.Series.to_json s))
              !series_acc));
      close_out oc;
      Fmt.epr "wrote %s@." file);
  if !failures > 0 then 1 else 0

let sessions =
  Arg.(
    value & opt int 64
    & info [ "sessions" ] ~docv:"N" ~doc:"Simulated client sessions.")

let ops =
  Arg.(
    value & opt int 32
    & info [ "ops" ] ~docv:"N" ~doc:"Operations per session.")

let rate =
  Arg.(
    value & opt float 2.0
    & info [ "rate" ] ~docv:"R"
        ~doc:"Aggregate offered load, ops per 1000 simulated cycles.")

let theta =
  Arg.(
    value & opt float 0.9
    & info [ "theta" ] ~docv:"F"
        ~doc:"Zipfian skew in [0, 1): 0 uniform, 0.99 YCSB-hot.")

let keys =
  Arg.(
    value & opt int 256
    & info [ "keys" ] ~docv:"N" ~doc:"Preloaded keyspace size.")

let mix =
  let mix_conv =
    Arg.conv' ~docv:"MIX"
      ( (fun s ->
          try Ok (T.mix_of_string s) with Invalid_argument m -> Error m),
        fun ppf m -> Fmt.string ppf (T.mix_name m) )
  in
  Arg.(
    value
    & opt (list mix_conv) [ T.mix_of_string "b" ]
    & info [ "mix" ] ~docv:"MIXES"
        ~doc:
          "Comma-separated op mixes: R:U:I weights (95:4:1) or YCSB \
           letters a (50/50), b (95/5), c (read-only), d (95r/5i).")

let transform =
  Arg.(
    value
    & opt Cli.transforms
        Flit.Registry.[ alg2_mstore; alg3'_weakest; adaptive ]
    & info [ "transform" ] ~docv:"TS"
        ~doc:
          "Comma-separated transformations to sweep; the aliases \
           $(b,flit) (or $(b,durable)), $(b,all) and $(b,noflush) expand \
           as in cxl0-fuzz.")

let shards =
  Arg.(
    value & opt int 4
    & info [ "shards" ] ~docv:"N"
        ~doc:"Hash-map shards, homed round-robin across machines.")

let servers =
  Arg.(
    value & opt int 2
    & info [ "servers" ] ~docv:"N" ~doc:"Serving threads per machine.")

let machines =
  Arg.(value & opt int 3 & info [ "machines" ] ~docv:"N" ~doc:"Fabric size.")

let replicas =
  Arg.(
    value & opt int 1
    & info [ "replicas" ] ~docv:"N"
        ~doc:
          "Replicas per shard on distinct machines (1 = unreplicated).  \
           Writes acknowledge on every replica; while the primary's \
           home is down, reads go to the lowest trusted backup and the \
           restarted replica is re-synced, so acknowledged updates \
           survive.")

let deadline =
  Arg.(
    value & opt int 4_000
    & info [ "deadline" ] ~docv:"CYCLES"
        ~doc:
          "Per-request budget before a replicated op gives up and \
           counts as timed out (accounted in waiting heartbeats, so \
           requests that never wait never expire).")

let storm =
  Arg.(
    value & opt int 0
    & info [ "storm" ] ~docv:"N"
        ~doc:
          "Chaos storm: $(docv) sequential crash/restart cycles \
           rotating over the machines, layered onto --crash.  With \
           --replicas 2 every cycle is a survivable shard-home crash; \
           --check proves acknowledged writes outlived it.")

let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Run seed.")

let crash =
  Arg.(
    value
    & opt Cli.crash Cli.No_crash
    & info [ "crash" ] ~docv:"WHO"
        ~doc:
          "Crash regime: none, worker (serving machine), home (shard-0 \
           owner); deterministic schedule per seed, restarted machines \
           rejoin serving.")

let faults =
  Arg.(
    value
    & opt Cli.fault_env Fuzz.Gen.Fault_free
    & info [ "faults" ] ~docv:"ENV"
        ~doc:
          "RAS fault envelope layered onto the crash regime: none, \
           transient, degraded, poison — deterministic per seed.")

let check =
  Arg.(
    value & flag
    & info [ "check" ]
        ~doc:
          "Record each combo's history while serving it and run the \
           durability checker against the map spec (keep the domain \
           small: the checker is exponential).  Exit 1 on a violation \
           or an undecided verdict.")

let sig_only =
  Arg.(
    value & flag
    & info [ "sig" ]
        ~doc:
          "Print one deterministic signature line per combo instead of \
           the human tables (for byte-for-byte comparison across runs).")

let trace =
  Arg.(
    value & flag
    & info [ "trace" ]
        ~doc:
          "Attach an event tracer to every combo and print the merged \
           fabric-wide per-primitive latency report after the sweep.")

let json =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:"Write the full sweep results as a JSON document to $(docv).")

let label =
  Arg.(
    value & opt string "run"
    & info [ "label" ] ~docv:"S" ~doc:"Label echoed into JSON output.")

let explain_tail =
  Arg.(
    value & opt int 0
    & info [ "explain-tail" ] ~docv:"N"
        ~doc:
          "Trace every request as a span and print the tail-latency \
           attribution per op type (queue / service / replication / \
           retry / failover-wait, exact cycle totals plus the dominant \
           p99 phase), then the $(docv) slowest requests as annotated \
           span trees.  Spans cover every claimed request of the run, \
           however many raw events the trace ring dropped.")

let timeline =
  Arg.(
    value
    & opt (some string) None
    & info [ "timeline" ] ~docv:"FILE"
        ~doc:
          "Write a windowed time-series JSON (per --window bucket: \
           dispatches, completions by outcome, failovers, crashes, \
           trusted-replica and in-flight gauges) per combo to $(docv).")

let window =
  Arg.(
    value & opt int 2_000
    & info [ "window" ] ~docv:"CYCLES"
        ~doc:"Timeline bucket width in simulated cycles.")

let trace_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Write the combo's Chrome/Perfetto trace JSON to $(docv), \
           request spans nested as a synthetic \"requests\" process \
           (sexp dump when $(docv) ends in .sexp).  The raw events are \
           the newest 65,536 the trace ring kept; the request spans \
           cover the whole run.  Needs exactly one transform x mix \
           combo.")

let cmd =
  Cmd.v
    (Cmd.info "cxl0-kv"
       ~doc:
         "Sharded durable KV serving under open-loop Zipfian traffic")
    Term.(
      const run $ sessions $ ops $ rate $ theta $ keys $ mix $ transform
      $ shards $ servers $ machines $ replicas $ deadline $ storm $ seed
      $ crash $ faults $ check $ sig_only $ trace $ json $ label
      $ explain_tail $ timeline $ window $ trace_out)

let () = exit (Cmd.eval' cmd)
