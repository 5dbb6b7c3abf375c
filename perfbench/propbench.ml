(* The prop1 workload: the exhaustive Proposition 1 sweep of lib/core
   over a fixed domain, with reductions on, on one domain. *)

open Common

type domain = {
  label : string;
  sys : Cxl0.Machine.system;
  locs : Cxl0.Loc.t list;
  vals : int list;
}

let domain ~machines ~n_locs ~n_vals =
  {
    label = Printf.sprintf "%dm-%dl-%dv" machines n_locs n_vals;
    sys = Cxl0.Machine.uniform machines;
    locs =
      List.init n_locs (fun i ->
          Cxl0.Loc.v ~owner:(i mod machines) (i / machines));
    vals = List.init n_vals Fun.id;
  }

let full = domain ~machines:3 ~n_locs:2 ~n_vals:3
let companion = domain ~machines:2 ~n_locs:2 ~n_vals:2

(* Set-up: the packed-engine context and every start configuration of
   the domain built in packed form, folded into a digest. *)
let inputs d () =
  let ctx = Cxl0.Packed.make d.sys ~locs:d.locs in
  let n = Cxl0.Props.enum_configs_count d.sys ~locs:d.locs ~vals:d.vals in
  let h = ref n in
  for i = 0 to n - 1 do
    let c = Cxl0.Props.enum_packed_nth ctx ~vals:d.vals i in
    h := Hashtbl.hash (!h, Cxl0.Packed.hash c)
  done;
  (n, !h)

let sweep d () =
  Cxl0.Props.check_exhaustive_stats ~jobs:1 d.sys ~locs:d.locs ~vals:d.vals

let stats_sig (failures, (s : Cxl0.Props.sweep_stats)) =
  Printf.sprintf "configs=%d starts=%d states=%d transitions=%d failures=%d"
    s.Cxl0.Props.sweep_configs s.Cxl0.Props.sweep_starts
    s.Cxl0.Props.sweep_states s.Cxl0.Props.sweep_transitions
    (List.length failures)

let gate ~name (failures, _) =
  check (failures = [])
    (Printf.sprintf "%s: Proposition 1 fails from %d start(s)" name
       (List.length failures))

let run_e2e ~seconds =
  let d = full in
  let su = setup (inputs d) in
  let configs, domain_hash = sample su in
  let first = ref None in
  let runs =
    repeat_for ~seconds
      ~between:(fun () -> ignore (sample su))
      (fun () ->
        let r = sweep d () in
        if !first = None then first := Some r;
        stats_sig r)
  in
  let r = Option.get !first in
  let sig0 = snd (List.hd runs) in
  check
    (List.for_all (fun (_, s) -> s = sig0) runs)
    "prop1: sweep differs between repetitions";
  gate ~name:"prop1" r;
  info "prop1: %d repetitions of the %s domain (%d start configurations), \
        median %.3f s"
    (List.length runs) d.label configs (median_seconds runs);
  metric "ops_per_s" "1/s"
    (float_of_int configs /. median_seconds runs)
    ~note:"start configurations of the domain per second of wall time";
  metric "ops_per_ref_s" "1/s"
    (float_of_int configs /. median_ref_seconds runs)
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
    (if fst r = [] then 0.0 else 1.0)
    ~note:"0 unless the sweep errors";
  info "prop1: sim_lat_* not applicable (lib/core has no simulated clock)";
  digest
    (Printf.sprintf "prop1 domain=%s inputs=%x %s" d.label domain_hash sig0);
  configs

(* Per-layer: lib/core's engine counts per unit of wall time and
   allocation; returns the sweep's wall seconds. *)
let run_layers d ~seconds =
  let configs, _ = inputs d () in
  let runs = repeat_for ~seconds ~min_iters:1 (fun () ->
      Trace.with_span ("prop1 " ^ d.label) (sweep d))
  in
  let p, r = List.hd runs in
  gate ~name:("prop1 " ^ d.label) r;
  let s = snd r in
  let secs = median_seconds runs in
  let states = s.Cxl0.Props.sweep_states in
  metric "core.states_per_s" "1/s" (ratio (float_of_int states) secs);
  metric "core.states_per_start" "count"
    (per (float_of_int states) s.Cxl0.Props.sweep_starts);
  metric "core.transitions_per_state" "count"
    (per (float_of_int s.Cxl0.Props.sweep_transitions) states);
  metric "core.starts_ratio" "fraction"
    (per (float_of_int s.Cxl0.Props.sweep_starts) configs);
  metric "core.words_per_state" "words" (per p.words states);
  digest (Printf.sprintf "prop1 layers domain=%s %s" d.label (stats_sig r));
  secs
