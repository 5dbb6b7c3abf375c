(* perfbench: one benchmark for the whole CXL0 stack.

     perfbench.exe --workload kv-read|kv-storm|campaign|prop1 \
       --seed N --seconds S --trace 0|1

   With --trace 0 the workload's timed call repeats for S seconds and
   the end-to-end metrics are printed; with --trace 1 the per-layer
   numbers are measured in a separate run, with spans recorded around
   every layer call (written to .perfbench/spans-*.json at exit).  Each
   traced run also measures the layers its workload does not cross, on a
   small companion input, so every traced run reports every layer.

   Every line starting with "digest" is simulated output and repeats
   byte for byte for a given seed; the last line is one JSON object.
   The exit code is 1 when any correctness check failed. *)

open Common

let campaign_cells = 6000
let companion_cells = 40

let kv_workload name ~seed =
  match name with
  | "kv-read" -> Kvbench.kv_read ~seed
  | _ -> Kvbench.kv_storm ~seed

let run_e2e workload ~seed ~seconds =
  match workload with
  | "kv-read" | "kv-storm" ->
      Kvbench.run_e2e (kv_workload workload ~seed) ~seconds
  | "campaign" -> Campbench.run_e2e ~seed ~cells:campaign_cells ~seconds
  | _ -> Propbench.run_e2e ~seconds

(* [f] once with span recording off: the untraced reference the traced
   run's tracing overhead is measured against. *)
let untraced f =
  Trace.enabled := false;
  let p, _ = probe f in
  Trace.enabled := true;
  p.seconds

let run_layers workload ~seed ~seconds =
  Trace.enabled := true;
  let kv_companion () =
    ignore (Kvbench.run_ladder (Kvbench.companion ~seed) ~seconds:0.0)
  in
  let overhead, attempted =
    match workload with
    | "kv-read" | "kv-storm" ->
        let wl = kv_workload workload ~seed in
        let ref_s =
          untraced (fun () ->
              List.map (Kvbench.serve ~traced:false) wl.Kvbench.parts)
        in
        let serve_s = Kvbench.run_ladder wl ~seconds in
        ignore (Campbench.run_layers ~gated:false ~seed ~cells:companion_cells);
        ignore (Propbench.run_layers Propbench.companion ~seconds:0.0);
        (ratio serve_s ref_s, Kvbench.total_ops wl)
    | "campaign" ->
        let o = Campbench.run_layers ~gated:true ~seed ~cells:campaign_cells in
        kv_companion ();
        ignore (Propbench.run_layers Propbench.companion ~seconds:0.0);
        (o, campaign_cells * List.length Campbench.transforms)
    | _ ->
        let d = Propbench.full in
        let ref_s = untraced (Propbench.sweep d) in
        let sweep_s = Propbench.run_layers d ~seconds in
        kv_companion ();
        ignore (Campbench.run_layers ~gated:false ~seed ~cells:companion_cells);
        (ratio sweep_s ref_s, fst (Propbench.inputs d ()))
  in
  metric "bench.trace_overhead_ratio" "ratio" overhead
    ~note:"wall time with benchmark spans over the untraced call";
  info "self time by span name (s):";
  List.iteri
    (fun i (name, s) -> if i < 12 then info "  %-28s %10.4f" name s)
    (Trace.self_times ());
  if not (Sys.file_exists ".perfbench") then Sys.mkdir ".perfbench" 0o755;
  let file =
    Printf.sprintf ".perfbench/spans-%s-seed%d.json" workload seed
  in
  Trace.write file;
  info "wrote %s (%d spans)" file (List.length !Trace.spans);
  attempted

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let result_line ~attempted =
  let seen = Hashtbl.create 64 in
  let ms =
    List.filter
      (fun m ->
        if Hashtbl.mem seen m.name then false
        else (
          Hashtbl.add seen m.name ();
          true))
      !metrics
    |> List.rev
  in
  List.iter
    (fun m ->
      check (Float.is_finite m.value)
        (Printf.sprintf "metric %s is not a finite number" m.name))
    ms;
  let failed = List.length !failures in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (failed = 0) attempted failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
              (if Float.is_finite m.value then json_number m.value else "0.0")
              m.unit_)
          ms))

let () =
  let workload = ref "" and seed = ref 1 in
  let seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ( "--workload",
        Arg.Set_string workload,
        "W kv-read, kv-storm, campaign or prop1" );
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S how long the timed part runs");
      ( "--trace",
        Arg.Set_int trace,
        "0|1 end-to-end run, or the per-layer run" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload W --seed N --seconds S --trace 0|1";
  if not (List.mem !workload [ "kv-read"; "kv-storm"; "campaign"; "prop1" ])
  then begin
    prerr_endline ("perfbench: unknown workload " ^ !workload);
    exit 2
  end;
  let seconds = float_of_int (max 1 !seconds) in
  info "perfbench %s seed=%d seconds=%.0f trace=%d (ocaml %s, %d-bit)"
    !workload !seed seconds !trace Sys.ocaml_version Sys.word_size;
  let attempted =
    if !trace = 0 then run_e2e !workload ~seed:!seed ~seconds
    else run_layers !workload ~seed:!seed ~seconds
  in
  digest
    (Printf.sprintf "all %s"
       (Digest.to_hex
          (Digest.string (String.concat "\n" (List.rev !digests)))));
  print_endline (result_line ~attempted);
  exit (if !failures = [] then 0 else 1)
