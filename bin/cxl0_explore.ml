(* cxl0-explore: decide feasibility of arbitrary event sequences written
   in the paper's litmus notation, and inspect the reachable states.

     dune exec bin/cxl0_explore.exe -- \
       "LStore_1(x^2,1); RFlush_1(x^2); crash_2; Load_1(x^2,0)"

     dune exec bin/cxl0_explore.exe -- -n 3 --volatile \
       "MStore_1(x^2,1); crash_2" --outcomes-for "x^2"

   Machine count defaults to the highest index mentioned. *)

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

let run events n volatile outcomes_for verbose reduction =
  match (Cxl0.Parse.program events, n) with
  | Error e, _ ->
      Fmt.epr "parse error: %s@."
        e;
      2
  | Ok labels, Some n when n <= max_machine_in labels ->
      (* a system without a machine the events name: rejected like a
         parse error, never explored *)
      Fmt.epr "cxl0-explore: -n %d, but the events name machine %d@." n
        (max_machine_in labels + 1);
      2
  | Ok labels, n ->
      let n =
        match n with Some n -> n | None -> max_machine_in labels + 1
      in
      let sys =
        Cxl0.Machine.uniform
          ~persistence:
            (if volatile then Cxl0.Machine.Volatile
             else Cxl0.Machine.Non_volatile)
          n
      in
      Fmt.pr "system: %a@." Cxl0.Machine.pp_system sys;
      Fmt.pr "events: %a@." Cxl0.Litmus.pp_events labels;
      (* Reductions preserve feasibility exactly; symmetry keeps only
         orbit representatives, so it is switched off whenever the
         reachable set itself is printed or queried. *)
      let reduction =
        {
          reduction with
          Cxl0.Explore.Fast.sym =
            reduction.Cxl0.Explore.Fast.sym && (not verbose)
            && outcomes_for = None;
        }
      in
      let reach =
        let fast () =
          let locs =
            List.filter_map Cxl0.Label.loc labels
            |> List.sort_uniq Cxl0.Loc.compare
          in
          let ctx = Cxl0.Packed.make sys ~locs in
          let cache = Cxl0.Explore.Fast.create ~reduction ctx in
          let set = Cxl0.Explore.Fast.run cache (Cxl0.Packed.init ctx) labels in
          let st = Cxl0.Explore.Fast.stats cache in
          Fmt.epr
            "reduction: por=%b sym=%b; %d state(s), %d transition(s) explored@."
            reduction.Cxl0.Explore.Fast.por reduction.Cxl0.Explore.Fast.sym
            st.Cxl0.Explore.Fast.states st.Cxl0.Explore.Fast.transitions;
          Cxl0.Explore.Fast.to_set cache set
        in
        try fast ()
        with Cxl0.Packed.Unrepresentable _ ->
          Cxl0.Explore.run sys Cxl0.Config.init labels
      in
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
      | None -> ()
      | Some locstr -> (
          match Cxl0.Parse.loc locstr with
          | Error e -> Fmt.epr "bad --outcomes-for location: %s@." e
          | Ok x ->
              if feasible then
                List.iter
                  (fun i ->
                    Fmt.pr "next Load_%d(%a) could observe: %a@." (i + 1)
                      Cxl0.Loc.pp x
                      Fmt.(list ~sep:(any ", ") int)
                      (Cxl0.Explore.load_outcomes sys reach i x))
                  (Cxl0.Machine.ids sys)));
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
        ~doc:"Number of machines (default: highest index mentioned).")

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
      const run $ events $ n $ volatile $ outcomes_for $ verbose
      $ Cli.reduction)

let () = exit (Cmd.eval' cmd)
