(* cxl0-props: bounded model checking of Proposition 1 (the eight
   simulation items, proved in Coq by the authors and re-verified here
   by exhaustive state-space exploration).

     dune exec bin/cxl0_props.exe                      # default domain
     dune exec bin/cxl0_props.exe -- -n 3 --locs 2     # bigger domain
     dune exec bin/cxl0_props.exe -- --item 7          # one item *)

open Cmdliner

let run n locs vals item volatile jobs =
  let persistence =
    if volatile then Cxl0.Machine.Volatile else Cxl0.Machine.Non_volatile
  in
  let sys = Cxl0.Machine.uniform ~persistence n in
  let locations =
    List.init locs (fun i -> Cxl0.Loc.v ~owner:(i mod n) (i / n))
  in
  let values = List.init vals Fun.id in
  let items = match item with None -> Cxl0.Props.items | Some it -> [ it ] in
  match Cxl0.Props.enum_configs_count sys ~locs:locations ~vals:values with
  | exception Invalid_argument msg -> `Error (false, msg)
  | n_configs ->
      Fmt.pr
        "checking %d item(s) over %d machines (%s), %d locations, %d \
         values: %d start configurations, %d job(s)@."
        (List.length items) n
        (if volatile then "volatile" else "non-volatile")
        locs vals n_configs jobs;
      let failures, stats =
        Cxl0.Props.check_exhaustive_stats ~items ~jobs sys
          ~locs:locations ~vals:values
      in
      (* Stats go to stderr: the stdout verdict table stays byte-comparable
         across job counts. *)
      Fmt.epr
        "%d of %d start configuration(s) checked, %d state(s), %d \
         transition(s)@."
        stats.Cxl0.Props.sweep_starts stats.Cxl0.Props.sweep_configs
        stats.Cxl0.Props.sweep_states stats.Cxl0.Props.sweep_transitions;
      List.iter
        (fun it ->
          let f =
            List.filter
              (fun f -> f.Cxl0.Props.item_id = it.Cxl0.Props.id)
              failures
          in
          Fmt.pr "  (%d) %-55s %s@." it.Cxl0.Props.id it.Cxl0.Props.name
            (if f = [] then "HOLDS" else "FAILS"))
        items;
      if failures = [] then begin
        Fmt.pr "@.Proposition 1 verified exhaustively over this domain@.";
        `Ok 0
      end
      else begin
        List.iter (fun f -> Fmt.pr "%a@." Cxl0.Props.pp_failure f) failures;
        `Ok 1
      end

let n =
  Arg.(
    value & opt Cli.positive 2
    & info [ "n" ] ~docv:"N" ~doc:"Number of machines.")

let locs =
  Arg.(
    value & opt Cli.positive 2
    & info [ "locs" ] ~docv:"L"
        ~doc:"Number of locations (owners assigned round-robin).")

let vals =
  Arg.(
    value & opt Cli.positive 2
    & info [ "vals" ] ~docv:"V" ~doc:"Number of distinct values (including 0).")

let item =
  let item =
    Arg.enum
      (List.map
         (fun it -> (string_of_int it.Cxl0.Props.id, it))
         Cxl0.Props.items)
  in
  Arg.(
    value
    & opt (some item) None
    & info [ "item" ] ~docv:"I" ~doc:"Check a single Proposition 1 item (1-8).")

let volatile =
  Arg.(value & flag & info [ "volatile" ] ~doc:"Use volatile shared memory.")

let jobs =
  Cli.jobs
    ~doc:
      "Worker domains to shard the sweep over (default: the number of \
       cores).  The failure list is identical for every value."

let cmd =
  Cmd.v
    (Cmd.info "cxl0-props" ~doc:"Exhaustively check Proposition 1")
    Term.(
      ret
        (const run $ n $ locs $ vals $ item $ volatile $ jobs))

let () = exit (Cmd.eval' cmd)
