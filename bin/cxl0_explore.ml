(* cxl0-explore: decide feasibility of arbitrary event sequences written
   in the paper's litmus notation, and inspect the reachable states.

     dune exec bin/cxl0_explore.exe -- \
       "LStore_1(x^2,1); RFlush_1(x^2); crash_2; Load_1(x^2,0)"

     dune exec bin/cxl0_explore.exe -- -n 3 --volatile \
       "MStore_1(x^2,1); crash_2" --outcomes-for "x^2"

   Machine count defaults to the highest index the events mention; an
   --outcomes-for location must be owned by one of the machines.  The
   reachable sets come from the map-based reference engine
   ({!Cxl0.Explore.run}), unreduced. *)

open Cmdliner

let max_machine_in labels =
  List.fold_left
    (fun acc l ->
      let m = match Cxl0.Label.machine l with Some m -> m | None -> 0 in
      let o =
        match Cxl0.Label.loc l with Some x -> Cxl0.Loc.owner x | None -> 0
      in
      max acc (max m o))
    0 labels

(* The events, machine count and --outcomes-for location, or the
   message for an invocation that names something the system lacks:
   such an invocation is rejected like a parse error, never explored. *)
let validate events n outcomes_for =
  let ( let* ) = Result.bind in
  let* labels =
    Result.map_error (Fmt.str "parse error: %s") (Cxl0.Parse.program events)
  in
  let named = max_machine_in labels + 1 in
  let* n =
    match n with
    | Some n when n < named ->
        Error
          (Fmt.str "cxl0-explore: -n %d, but the events name machine %d" n
             named)
    | Some n -> Ok n
    | None -> Ok named
  in
  let* x =
    match Option.map Cxl0.Parse.loc outcomes_for with
    | None -> Ok None
    | Some (Error e) -> Error (Fmt.str "bad --outcomes-for location: %s" e)
    | Some (Ok x) when Cxl0.Loc.owner x >= n ->
        Error
          (Fmt.str
             "cxl0-explore: --outcomes-for %a, but the system has %d \
              machine(s)"
             Cxl0.Loc.pp x n)
    | Some (Ok x) -> Ok (Some x)
  in
  Ok (labels, n, x)

let run events n volatile outcomes_for verbose =
  match validate events n outcomes_for with
  | Error msg ->
      Fmt.epr "%s@." msg;
      2
  | Ok (labels, n, outcomes_for) ->
      let sys =
        Cxl0.Machine.uniform
          ~persistence:
            (if volatile then Cxl0.Machine.Volatile
             else Cxl0.Machine.Non_volatile)
          n
      in
      Fmt.pr "system: %a@." Cxl0.Machine.pp_system sys;
      Fmt.pr "events: %a@." Cxl0.Litmus.pp_events labels;
      let reach = Cxl0.Explore.run sys Cxl0.Config.init labels in
      let feasible = not (Cxl0.Config.Set.is_empty reach) in
      Fmt.pr "verdict: %s@."
        (if feasible then "ALLOWED (some execution realises this sequence)"
         else "FORBIDDEN (no execution realises this sequence)");
      if feasible && verbose then begin
        Fmt.pr "reachable final configurations (%d):@."
          (Cxl0.Explore.cardinal reach);
        List.iter
          (fun c -> Fmt.pr "  %a@." Cxl0.Config.pp c)
          (Cxl0.Explore.elements reach)
      end;
      (match outcomes_for with
      | Some x when feasible ->
          List.iter
            (fun i ->
              Fmt.pr "next Load_%d(%a) could observe: %a@." (i + 1)
                Cxl0.Loc.pp x
                Fmt.(list ~sep:(any ", ") int)
                (Cxl0.Explore.load_outcomes sys reach i x))
            (Cxl0.Machine.ids sys)
      | _ -> ());
      if feasible then 0 else 1

let events =
  Arg.(
    non_empty & pos_all string []
    & info [] ~docv:"EVENTS"
        ~doc:
          "Event sequence in litmus notation, e.g. 'LStore_1(x^2,1); \
           crash_2; Load_1(x^2,0)'.  Multiple arguments are concatenated.")

let n =
  Arg.(
    value
    & opt (some int) None
    & info [ "n" ] ~docv:"N"
        ~doc:"Number of machines (default: highest index the events mention).")

let volatile =
  Arg.(value & flag & info [ "volatile" ] ~doc:"All shared memory volatile.")

let outcomes_for =
  Arg.(
    value
    & opt (some string) None
    & info [ "outcomes-for" ] ~docv:"LOC"
        ~doc:"Also print the possible next-load values of LOC per machine.")

let verbose =
  Arg.(
    value & flag
    & info [ "v"; "verbose" ] ~doc:"Print the reachable configurations.")

let cmd =
  Cmd.v
    (Cmd.info "cxl0-explore"
       ~doc:"Decide feasibility of CXL0 event sequences")
    Term.(
      const run $ events $ n $ volatile $ outcomes_for $ verbose)

let () = exit (Cmd.eval' cmd)
