(* cxl0-fuzz: randomized crash-fault campaigns over the transformed
   objects, with shrinking, a counterexample corpus, and replay.

     dune exec bin/cxl0_fuzz.exe -- --campaign 500 --seed 1
     dune exec bin/cxl0_fuzz.exe -- --campaign 200 --transform flit \
       --max-violations 0
     dune exec bin/cxl0_fuzz.exe -- --replay corpus/noflush-queue-xxxx.sexp

   Each transform is fuzzed inside its guarantee envelope (see
   Fuzz.Gen): violations from the durable transforms are real bugs;
   the noflush control is expected to fail. *)

open Cmdliner

let print_summary (s : Fuzz.Campaign.summary) =
  Fmt.pr "%-16s %5d cells: %5d ok, %3d skipped, %3d violation(s)@."
    s.transform_name s.cells s.ok s.skipped
    (List.length s.violations);
  Fmt.pr "  stats: %s@." (Fabric.Stats.to_json s.stats);
  List.iter
    (fun (v : Fuzz.Campaign.violation) ->
      Fmt.pr "  cell %d: %s@." v.index
        (Harness.Workload.describe v.shrunk);
      Fmt.pr "    shrunk from: %s@."
        (Harness.Workload.describe v.original);
      Fmt.pr "    corpus: %s%s@." v.corpus_path
        (if v.fresh then "" else " (already known)"))
    s.violations

(* Replay always runs traced: a replay exists to explain a counterexample
   and the tracer is free here (one short run).  With --trace FILE the
   timeline is exported; without, the per-primitive latency report is
   printed instead. *)
let replay_file path ~trace =
  match Fuzz.Corpus.load path with
  | Error e ->
      Fmt.epr "cannot replay %s: %a@." path Harness.Codec.pp_error e;
      2
  | Ok c ->
      Fmt.pr "replaying %s@." (Harness.Workload.describe c);
      let tracer = Obs.Tracer.create () in
      let history, verdict, ok = Fuzz.Campaign.replay ~tracer c in
      Fmt.pr "@[<v>history:@,%a@]@." Lincheck.History.pp history;
      Fmt.pr "%s@." verdict;
      (match trace with
      | Some file ->
          Obs.Export.write tracer file;
          Fmt.pr "traced %d event(s) to %s@." (Obs.Tracer.length tracer) file
      | None -> Fmt.pr "%a@." Obs.Report.pp (Obs.Tracer.report tracer));
      if ok then 0 else 1

let run campaign seed jobs transforms kind fault_env corpus_dir
    min_violations max_violations replay trace =
  match replay with
  | Some path -> replay_file path ~trace
  | None -> (
      (* a kind outside the profile's envelope (e.g. a queue under the
         buffered oracle) is honoured too: the campaign flags nothing *)
      let restrict p =
        let p =
          match kind with
          | None -> p
          | Some k -> { p with Fuzz.Gen.kinds = [ k ] }
        in
        match fault_env with
        | None -> p
        | Some env -> { p with Fuzz.Gen.fault_env = env }
      in
      let profiles =
        List.map
          (fun t -> restrict (Fuzz.Gen.profile_of_transform t))
          transforms
      in
      Fmt.pr "fuzzing %d transform(s), %d cells each, seed %d, %d job(s)@."
        (List.length profiles) campaign seed jobs;
      let summaries =
        List.map
          (fun p ->
            let s =
              Fuzz.Campaign.run ~jobs ~corpus_dir p ~cells:campaign ~seed ()
            in
            print_summary s;
            s)
          profiles
      in
      let total =
        List.fold_left
          (fun acc (s : Fuzz.Campaign.summary) ->
            acc + List.length s.violations)
          0 summaries
      in
      Fmt.pr "total: %d violation(s)@." total;
      if total < min_violations then begin
        Fmt.epr "FAIL: expected at least %d violation(s), found %d@."
          min_violations total;
        1
      end
      else
        match max_violations with
        | Some m when total > m ->
            Fmt.epr "FAIL: expected at most %d violation(s), found %d@." m
              total;
            1
        | _ -> 0)

let campaign =
  Arg.(
    value & opt int 100
    & info [ "campaign"; "n" ] ~docv:"N"
        ~doc:"Number of random configs per transform.")

let seed =
  Arg.(
    value & opt int 1
    & info [ "seed"; "s" ] ~docv:"S"
        ~doc:
          "Campaign seed.  Results (including corpus file names) are \
           fully deterministic in the seed, for every $(b,--jobs) value.")

let jobs =
  Cli.jobs
    ~doc:"Worker domains to shard cells over (default: the number of cores)."

let transforms =
  Arg.(
    value
    & opt Cli.transforms [ Flit.Registry.noflush ]
    & info [ "transform"; "t" ] ~docv:"NAMES"
        ~doc:
          "Comma-separated transforms to fuzz; $(b,flit) expands to the \
           four durable FliT algorithms (so does $(b,durable)), $(b,all) \
           to everything including the extensions, $(b,noflush) to the \
           control.")

let kind =
  Arg.(
    value
    & opt (some Cli.kind) None
    & info [ "kind"; "k" ] ~docv:"KIND"
        ~doc:"Restrict sampling to one object kind.")

let fault_env =
  Arg.(
    value
    & opt (some Cli.fault_env) None
    & info [ "fault-env" ] ~docv:"ENV"
        ~doc:
          "Override every profile's fault envelope: $(b,none) (the \
           default, fault-free), $(b,transient) (mildly degraded links — \
           NACKs and delays the retry policy absorbs), $(b,degraded) \
           (heavy degradation plus a down window), or $(b,poison) \
           (poisoned lines).  Sampled fault schedules ride in each \
           cell's config, so $(b,--replay) reproduces them \
           deterministically.")

let corpus_dir =
  Arg.(
    value & opt string "corpus"
    & info [ "corpus" ] ~docv:"DIR"
        ~doc:"Directory for shrunk counterexamples.")

let min_violations =
  Arg.(
    value & opt int 0
    & info [ "min-violations" ] ~docv:"N"
        ~doc:"Exit non-zero unless at least $(docv) violations are found.")

let max_violations =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-violations" ] ~docv:"N"
        ~doc:"Exit non-zero if more than $(docv) violations are found.")

let replay =
  Arg.(
    value
    & opt (some file) None
    & info [ "replay" ] ~docv:"FILE"
        ~doc:
          "Replay one corpus file deterministically, printing the \
           recorded history and verdict, instead of running a campaign.  \
           Replays always run with the event tracer attached: without \
           $(b,--trace) the per-primitive latency report is printed.")

let trace =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "With $(b,--replay): write the replayed run's timeline to \
           $(docv) as Chrome/Perfetto trace-event JSON (compact sexp \
           dump if $(docv) ends in .sexp).")

let cmd =
  Cmd.v
    (Cmd.info "cxl0-fuzz"
       ~doc:"Randomized crash-fault campaigns with shrinking and replay")
    Term.(
      const run $ campaign $ seed $ jobs $ transforms $ kind $ fault_env
      $ corpus_dir $ min_violations $ max_violations $ replay $ trace)

let () = exit (Cmd.eval' cmd)
