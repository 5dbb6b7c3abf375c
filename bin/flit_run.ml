(* flit-run: execute a crash-injected concurrent workload on a
   transformed object and check the recorded history with the oracle of
   the transform's fuzz profile: durable linearizability, or buffered
   durability (consistent cuts) for buffered-sync.

     dune exec bin/flit_run.exe -- --object queue --transform alg3-rstore
     dune exec bin/flit_run.exe -- --object stack --crash home --seeds 50
     dune exec bin/flit_run.exe -- --matrix            # the whole E7 matrix *)

open Cmdliner

(* The crashed machine per regime: the default config runs 3 machines,
   workers on 0 and 1, the object on machine 2. *)
let crash_machine : Cli.crash -> int option = function
  | No_crash -> None
  | Worker_crash -> Some 0
  | Home_crash -> Some 2

(* One phase row of --stats: the Stats.diff of a workload phase as the
   canonical counter JSON, keyed so phases line up across seeds. *)
let print_phase name (s : Fabric.Stats.t) =
  Fmt.pr "  %-9s %s@." name (Fabric.Stats.to_json s)

let run_one kind transform ~crash ~faults ~seeds ~verbose ~stats ~trace =
  let profile = Fuzz.Gen.profile_of_transform transform in
  let config =
    Fuzz.Gen.closed_loop_config kind transform ~crash:(crash_machine crash)
      ~faults
  in
  let failures = ref [] in
  for seed = 1 to seeds do
    let c = config seed in
    let r = Harness.Workload.run c in
    (* an undecided history fails the seed, like a violation *)
    (match Fuzz.Campaign.judge profile c r.Harness.Workload.history with
    | `Ok, _ -> ()
    | (`Violation | `Skipped _), verdict ->
        failures := seed :: !failures;
        if verbose then
          Fmt.pr "@.seed %d violation:@.%s@." seed (Lazy.force verdict));
    if stats then begin
      Fmt.pr "seed %d phases:@." seed;
      print_phase "setup" r.Harness.Workload.phases.Harness.Workload.setup;
      print_phase "measured" r.Harness.Workload.phases.Harness.Workload.measured;
      print_phase "recovery" r.Harness.Workload.phases.Harness.Workload.recovery
    end
  done;
  (* one traced re-run per invocation: the first failing seed if any
     (the interesting one), else seed 1 — deterministic either way *)
  (match trace with
  | None -> ()
  | Some file ->
      let seed = match List.rev !failures with s :: _ -> s | [] -> 1 in
      let tracer = Obs.Tracer.create () in
      let c = config seed in
      ignore (Harness.Workload.run ~tracer c);
      Obs.Export.write tracer file;
      Fmt.pr "traced seed %d (%d events, %d dropped) to %s@." seed
        (Obs.Tracer.length tracer) (Obs.Tracer.dropped tracer) file);
  let fails = List.length !failures in
  Fmt.pr "%-10s %-16s crash=%-6s%s  %d/%d seeds %s%s@."
    (Harness.Objects.kind_name kind)
    (Flit.Flit_intf.name transform)
    (Cli.name Cli.crash crash)
    (if faults = Fuzz.Gen.Fault_free then ""
     else " faults=" ^ Cli.name Cli.fault_env faults)
    (seeds - fails) seeds
    (match profile.Fuzz.Gen.oracle with
    | Durable -> "durably linearizable"
    | Buffered_cut -> "buffered durably linearizable")
    (if fails > 0 then
       Fmt.str "  (failing seeds: %a)" Fmt.(list ~sep:sp int) (List.rev !failures)
     else "");
  fails

let run kind transform crash faults seeds matrix verbose stats trace =
  if matrix then begin
    (* the full E7 matrix: every object x every transformation x both
       crash regimes; per-seed stats/trace output would drown the table *)
    List.iter
      (fun crash ->
        Fmt.pr "@.=== crash regime: %s ===@." (Cli.name Cli.crash crash);
        List.iter
          (fun t ->
            List.iter
              (fun kind ->
                ignore
                  (run_one kind t ~crash ~faults ~seeds ~verbose
                     ~stats:false ~trace:None))
              Harness.Objects.all_kinds)
          Flit.Registry.all)
      [ Cli.Worker_crash; Cli.Home_crash ];
    Fmt.pr
      "@.expected: durable transformations never fail under worker crashes; \
       Alg 3/3' may fail under home crashes (Finding F1, see DESIGN.md); \
       the noflush control fails under either.@.";
    0
  end
  else if
    run_one kind transform ~crash ~faults ~seeds ~verbose ~stats ~trace > 0
  then 1
  else 0

let kind =
  Arg.(
    value
    & opt Cli.kind Harness.Objects.Queue
    & info [ "object" ] ~docv:"OBJ"
        ~doc:"Object kind: register, counter, stack, queue, set, map.")

let transform =
  Arg.(
    value
    & opt Cli.transform Flit.Registry.alg3'_weakest
    & info [ "transform" ] ~docv:"T"
        ~doc:
          "Transformation: simple, alg2-mstore, alg3-rstore, alg3'-weakest, \
           weakest-lflush, noflush-control.")

let crash =
  Arg.(
    value
    & opt Cli.crash Cli.Worker_crash
    & info [ "crash" ] ~docv:"WHO"
        ~doc:"Crash regime: none, worker (compute node), home (data owner).")

let faults =
  Arg.(
    value
    & opt Cli.fault_env Fuzz.Gen.Fault_free
    & info [ "faults" ] ~docv:"ENV"
        ~doc:
          "RAS fault envelope, layered onto the crash regime: none, \
           transient (mild link degradation the retry policy absorbs), \
           degraded (heavy degradation plus a down window), poison \
           (a poisoned line per seed).  Schedules are deterministic in \
           the seed.")

let seeds =
  Arg.(value & opt int 20 & info [ "seeds" ] ~docv:"N" ~doc:"Seeds to sweep.")

let matrix =
  Arg.(
    value & flag
    & info [ "matrix" ] ~doc:"Run the full object x transformation matrix.")

let verbose =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print violating histories.")

let stats =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "Print per-seed workload-phase counter diffs (setup / measured \
           ops / recovery) as JSON lines.")

let trace =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Re-run one seed (the first failing one, else seed 1) with the \
           event tracer attached and write a Chrome/Perfetto trace-event \
           timeline to $(docv) (compact sexp dump if $(docv) ends in \
           .sexp).")

let cmd =
  Cmd.v
    (Cmd.info "flit-run"
       ~doc:"Crash-injected durability runs for transformed objects")
    Term.(
      const run $ kind $ transform $ crash $ faults $ seeds $ matrix
      $ verbose $ stats $ trace)

let () = exit (Cmd.eval' cmd)
