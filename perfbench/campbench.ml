(* The campaign workload: a fixed-seed fuzz campaign over four
   transformations, and its per-layer replay that times the workload
   run, the checker and the shrinker of every cell separately. *)

open Common
module C = Fuzz.Campaign
module G = Fuzz.Gen
module W = Harness.Workload

let transforms =
  [
    Flit.Registry.noflush;
    Flit.Registry.alg2_mstore;
    Flit.Registry.weakest_lflush;
    Flit.Registry.buffered;
  ]

let control = Flit.Flit_intf.name Flit.Registry.noflush
let profiles () = List.map G.profile_of_transform transforms

(* Corpus files of found violations go under the checkout's
   scratch directory and are removed after every campaign. *)
let corpus_dir () =
  Filename.concat ".perfbench" (Printf.sprintf "corpus-%d" (Unix.getpid ()))

let cell_config (p : G.profile) ~seed i =
  G.gen p (Random.State.make [| seed; i |])

(* Set-up: the corpus directory and every cell's generated config,
   folded into a digest of the inputs. *)
let inputs ~seed ~cells () =
  if not (Sys.file_exists ".perfbench") then Sys.mkdir ".perfbench" 0o755;
  let dir = corpus_dir () in
  Bench_util.rm_rf dir;
  Sys.mkdir dir 0o755;
  let h = ref 0 in
  List.iter
    (fun p ->
      for i = 0 to cells - 1 do
        h := Hashtbl.hash (!h, W.describe (cell_config p ~seed i))
      done)
    (profiles ());
  (dir, !h)

let campaign ~dir ~seed ~cells =
  let ss =
    List.map
      (fun p -> C.run ~jobs:1 ~corpus_dir:dir p ~cells ~seed ())
      (profiles ())
  in
  Bench_util.rm_rf dir;
  ss

let summary_sig (ss : C.summary list) =
  String.concat "; "
    (List.map
       (fun (s : C.summary) ->
         Printf.sprintf "%s shrunk=[%s]" (Bench_util.campaign_sig s)
           (String.concat ","
              (List.map
                 (fun (v : C.violation) -> Filename.basename v.C.corpus_path)
                 s.C.violations)))
       ss)

let gate ~name (ss : C.summary list) =
  List.iter
    (fun (s : C.summary) ->
      let v = List.length s.C.violations in
      if s.C.transform_name = control then
        check (v >= 1)
          (Printf.sprintf "%s: the %s control found no violation" name control)
      else
        check (v = 0)
          (Printf.sprintf "%s: %d violation(s) of %s" name v
             s.C.transform_name))
    ss

let run_e2e ~seed ~cells ~seconds =
  let su = setup (inputs ~seed ~cells) in
  let dir, input_hash = sample su in
  let first = ref None in
  let runs =
    repeat_for ~seconds
      ~between:(fun () -> ignore (sample su))
      (fun () ->
        let ss = campaign ~dir ~seed ~cells in
        if !first = None then first := Some ss;
        summary_sig ss)
  in
  let ss = Option.get !first in
  let sig0 = snd (List.hd runs) in
  check
    (List.for_all (fun (_, s) -> s = sig0) runs)
    "campaign: verdicts differ between repetitions";
  gate ~name:"campaign" ss;
  let total = cells * List.length transforms in
  let skipped =
    List.fold_left (fun a (s : C.summary) -> a + s.C.skipped) 0 ss
  in
  info "campaign: %d repetitions of %d cells, median %.3f s" (List.length runs)
    total (median_seconds runs);
  metric "ops_per_s" "1/s"
    (float_of_int total /. median_seconds runs)
    ~note:"fuzz cells per second of wall time";
  metric "ops_per_ref_s" "1/s"
    (float_of_int total /. median_ref_seconds runs)
    ~note:
      (Printf.sprintf "at the reference host speed; the host ran %.2fx slower"
         (host_slowdown ()));
  let setup_wall, setup_ref = setup_seconds su in
  metric "setup_s" "s" setup_ref
    ~note:
      (Printf.sprintf "at the reference host speed; %.6f s of wall time"
         setup_wall);
  metric "heap_peak_mb" "MB" (heap_peak_mb ());
  metric "fail_ratio" "fraction"
    (per (float_of_int skipped) total)
    ~note:"cells the oracle left undecided";
  info "campaign: sim_lat_* not applicable (no open-loop requests)";
  List.iter
    (fun (s : C.summary) -> digest ("campaign " ^ Bench_util.campaign_sig s))
    ss;
  digest (Printf.sprintf "campaign seed=%d cells=%d inputs=%x sig=%s" seed cells
            input_hash sig0);
  total

(* ------------------------------------------------------------------ *)
(* Per-layer replay                                                    *)
(* ------------------------------------------------------------------ *)

type tally = {
  mutable run_s : float;
  mutable check_s : float;
  mutable shrink_s : float;
  mutable decided : int;
  mutable violations : int;
  mutable shrink_evals : int;
}

(* Replays every cell the way Campaign.run_cell does — workload run,
   the profile's checker, then the shrinker on a violation — timing
   each call; returns the tally and per-transform verdict counts. *)
let replay ~seed ~cells =
  let t =
    { run_s = 0.0; check_s = 0.0; shrink_s = 0.0; decided = 0; violations = 0;
      shrink_evals = 0 }
  in
  let timed name f =
    let p, r = probe (fun () -> Trace.with_span name f) in
    (p.seconds, r)
  in
  let counts =
    List.map
      (fun (p : G.profile) ->
        let name = Flit.Flit_intf.name p.G.transform in
        Trace.with_span ("campaign " ^ name) (fun () ->
            let ok = ref 0 and skipped = ref 0 and viol = ref 0 in
            for i = 0 to cells - 1 do
              let c = cell_config p ~seed i in
              let dt, r = timed "fuzz.run" (fun () -> W.run c) in
              t.run_s <- t.run_s +. dt;
              let dt, verdict =
                timed "lincheck" (fun () ->
                    match p.G.oracle with
                    | G.Durable ->
                        let v =
                          Lincheck.Durable.check
                            (Harness.Objects.spec c.W.kind) r.W.history
                        in
                        if v.Lincheck.Durable.skipped <> None then `Skipped
                        else if v.Lincheck.Durable.durable then `Ok
                        else `Violation
                    | G.Buffered_cut -> (
                        match
                          Lincheck.Buffered.check
                            (Harness.Objects.spec c.W.kind) r.W.history
                        with
                        | v ->
                            if v.Lincheck.Buffered.buffered_durable then `Ok
                            else `Violation
                        | exception Invalid_argument _ -> `Skipped))
              in
              t.check_s <- t.check_s +. dt;
              match verdict with
              | `Skipped -> incr skipped
              | `Ok ->
                  incr ok;
                  t.decided <- t.decided + 1
              | `Violation ->
                  incr viol;
                  t.decided <- t.decided + 1;
                  t.violations <- t.violations + 1;
                  let still_failing c' =
                    t.shrink_evals <- t.shrink_evals + 1;
                    match C.evaluate p c' with `Violation _ -> true | _ -> false
                  in
                  let dt, _ =
                    timed "fuzz.shrink" (fun () ->
                        Fuzz.Shrink.minimize ~still_failing c)
                  in
                  t.shrink_s <- t.shrink_s +. dt
            done;
            (name, !ok, !skipped, !viol)))
      (profiles ())
  in
  (t, counts)

let layer_metrics ~cells (t : tally) =
  let total = cells * List.length transforms in
  metric "lincheck.ns_per_cell" "ns" (per (t.check_s *. 1e9) total);
  metric "lincheck.decided_ratio" "fraction"
    (per (float_of_int t.decided) total);
  metric "fuzz.run_ns_per_cell" "ns" (per (t.run_s *. 1e9) total);
  metric "fuzz.shrink_ns_per_violation" "ns"
    (per (t.shrink_s *. 1e9) t.violations);
  metric "fuzz.shrink_evals_per_violation" "count"
    (per (float_of_int t.shrink_evals) t.violations);
  metric "fuzz.violation_ratio" "fraction"
    (per (float_of_int t.violations) total)
    ~note:(Printf.sprintf "%d violation(s) in %d cells" t.violations total)

(* The traced run: one untraced campaign, then the replay, whose
   verdict counts must match the campaign's.  [gated] also applies the
   workload's verdict gate (a small companion campaign may find no
   control violation). *)
let run_layers ~gated ~seed ~cells =
  let dir, _ = inputs ~seed ~cells () in
  let p_run, ss = probe (fun () -> campaign ~dir ~seed ~cells) in
  if gated then gate ~name:"campaign" ss;
  let p_rep, (t, counts) = probe (fun () -> replay ~seed ~cells) in
  List.iter2
    (fun (s : C.summary) (name, ok, skipped, viol) ->
      check
        (s.C.transform_name = name && s.C.ok = ok && s.C.skipped = skipped
        && List.length s.C.violations = viol)
        (Printf.sprintf "campaign replay: %s verdict counts differ" name))
    ss counts;
  info "campaign replay: %d cells, run %.3f s, check %.3f s, shrink %.3f s \
        (%d violations, %d shrink evaluations)"
    (cells * List.length transforms) t.run_s t.check_s t.shrink_s t.violations
    t.shrink_evals;
  layer_metrics ~cells t;
  ratio p_rep.seconds p_run.seconds
