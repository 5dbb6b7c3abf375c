(* cxl0-litmus: run the paper's litmus tests (Fig. 4 / Fig. 5) through
   the CXL0 model checker and print the verdict table.

     dune exec bin/cxl0_litmus.exe                 # all paper tests
     dune exec bin/cxl0_litmus.exe -- --only fig4  # just the Fig. 4 table
     dune exec bin/cxl0_litmus.exe -- --name fig4.5 --configs
     dune exec bin/cxl0_litmus.exe -- --name fig4.5 --trace fig4.5.json *)

open Cmdliner

(* Execute the instruction labels of each selected test on the simulated
   fabric with the event tracer attached, and write one timeline.  The
   model checker explores *all* interleavings; this executes *one*
   deterministic schedule (the label order, with forcing flushes), which
   is what a timeline can show.  Locations are allocated on their owner
   at first use; loads execute for their traffic — the fabric's value may
   legitimately differ from the litmus-annotated observation, which
   stands for one nondeterministic outcome. *)
let trace_tests tests file =
  let tracer = Obs.Tracer.create () in
  List.iter
    (fun (t : Cxl0.Litmus.t) ->
      let sys = t.Cxl0.Litmus.system in
      let fab =
        Fabric.create ~seed:0 ~evict_prob:0.0 ~tracer
          (Array.init (Cxl0.Machine.n_machines sys) (fun i ->
               Fabric.machine
                 ~volatile:(Cxl0.Machine.is_volatile sys i)
                 (Printf.sprintf "M%d" (i + 1))))
      in
      let locs = Hashtbl.create 8 in
      let loc_of x =
        let key = (Cxl0.Loc.owner x, Cxl0.Loc.off x) in
        match Hashtbl.find_opt locs key with
        | Some l -> l
        | None ->
            let l = Fabric.alloc fab ~owner:(Cxl0.Loc.owner x) in
            Hashtbl.add locs key l;
            l
      in
      List.iter
        (fun (label : Cxl0.Label.t) ->
          match label with
          | Cxl0.Label.Store (Cxl0.Label.L, i, x, v) ->
              Fabric.lstore fab i (loc_of x) v
          | Cxl0.Label.Store (Cxl0.Label.R, i, x, v) ->
              Fabric.rstore fab i (loc_of x) v
          | Cxl0.Label.Store (Cxl0.Label.M, i, x, v) ->
              Fabric.mstore fab i (loc_of x) v
          | Cxl0.Label.Load (i, x, _observed) ->
              ignore (Fabric.load fab i (loc_of x))
          | Cxl0.Label.Flush (Cxl0.Label.LF, i, x) ->
              Fabric.lflush fab i (loc_of x)
          | Cxl0.Label.Flush (Cxl0.Label.RF, i, x) ->
              Fabric.rflush fab i (loc_of x)
          | Cxl0.Label.Crash i -> Fabric.crash fab i
          | Cxl0.Label.Prop_cache_cache _ | Cxl0.Label.Prop_cache_mem _ ->
              (* silent steps: the fabric propagates internally *)
              ())
        t.Cxl0.Litmus.events)
    tests;
  Obs.Export.write tracer file;
  Fmt.pr "@.wrote %d event(s) from %d test(s) to %s@."
    (Obs.Tracer.length tracer) (List.length tests) file

let run tests name configs trace jobs =
  let tests =
    match name with
    | None -> tests
    | Some (n : Cxl0.Litmus.t) ->
        List.filter (fun t -> t.Cxl0.Litmus.name = n.Cxl0.Litmus.name) tests
  in
  if tests = [] then begin
    Fmt.epr "no litmus test matches@.";
    exit 2
  end;
  let decided = Cxl0.Litmus.decide_all ~jobs tests in
  let all_ok = ref true in
  List.iter
    (fun ((t, got) as row) ->
      Fmt.pr "%a@." Cxl0.Litmus.pp_decided row;
      if t.Cxl0.Litmus.descr <> "" then Fmt.pr "    %s@." t.Cxl0.Litmus.descr;
      if not (Cxl0.Litmus.verdict_equal got t.Cxl0.Litmus.expect) then
        all_ok := false;
      if configs then begin
        let final =
          Cxl0.Explore.run t.Cxl0.Litmus.system Cxl0.Config.init
            t.Cxl0.Litmus.events
        in
        Fmt.pr "    reachable final configurations (%d):@."
          (Cxl0.Explore.cardinal final);
        List.iter
          (fun cfg -> Fmt.pr "      %a@." Cxl0.Config.pp cfg)
          (Cxl0.Explore.elements final)
      end)
    decided;
  (match trace with None -> () | Some file -> trace_tests tests file);
  if !all_ok then begin
    Fmt.pr "@.model and paper agree on all %d tests@." (List.length tests);
    0
  end
  else begin
    Fmt.pr "@.DISAGREEMENT between model and paper@.";
    1
  end

let only =
  Arg.(
    value
    & opt
        (enum
           [
             ("all", Cxl0.Litmus.all);
             ("fig4", Cxl0.Litmus.fig4);
             ("fig5", Cxl0.Litmus.fig5);
           ])
        Cxl0.Litmus.all
    & info [ "only" ] ~docv:"SET" ~doc:"Which set to run: all, fig4, or fig5.")

let test_name =
  Arg.(
    value
    & opt
        (some
           (enum
              (List.map (fun t -> (t.Cxl0.Litmus.name, t)) Cxl0.Litmus.all)))
        None
    & info [ "name" ] ~docv:"NAME" ~doc:"Run a single litmus test by name.")

let configs =
  Arg.(
    value & flag
    & info [ "configs" ] ~doc:"Print the reachable final configurations.")

let trace =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Execute each selected test's instruction sequence on the \
           simulated fabric with the event tracer attached, and write a \
           Chrome/Perfetto trace-event timeline to $(docv) (compact sexp \
           dump if $(docv) ends in .sexp).")

let jobs =
  Cli.jobs
    ~doc:
      "Worker domains to decide tests in parallel (default: the number of \
       cores)."

let cmd =
  Cmd.v
    (Cmd.info "cxl0-litmus" ~doc:"Run the paper's CXL0 litmus tests")
    Term.(const run $ only $ test_name $ configs $ trace $ jobs)

let () = exit (Cmd.eval' cmd)
