(** Deterministic-signature helpers for perfbench's digests.

    The signatures are load-bearing: `dune runtest` diffs the digests
    built from them against test/data/perfbench-digests.expected, so
    every producer must format identically run to run. *)

(** [rm_rf path] — recursive delete; no-op on a missing path. *)
let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(** [campaign_sig s] — the verdict-and-stats line of one campaign
    summary.  Cells are deterministic in (seed, index) alone, so the
    line must be identical across [--jobs] values and across refactors;
    the aggregated fabric counters ride along to catch divergence that
    verdict counts alone would miss. *)
let campaign_sig (s : Fuzz.Campaign.summary) =
  Printf.sprintf "%s cells=%d ok=%d skipped=%d violations=%d stats=%s"
    s.Fuzz.Campaign.transform_name s.Fuzz.Campaign.cells s.Fuzz.Campaign.ok
    s.Fuzz.Campaign.skipped
    (List.length s.Fuzz.Campaign.violations)
    (Fabric.Stats.to_json s.Fuzz.Campaign.stats)

(** [hist_sig h] — one histogram's shape, percentiles included (bucket
    maxima, so deterministic): [n/total/p50/p90/p99/max]. *)
let hist_sig h =
  Printf.sprintf "n=%d total=%d p50=%d p90=%d p99=%d max=%d" (Obs.Hist.count h)
    (Obs.Hist.total h) (Obs.Hist.p50 h) (Obs.Hist.p90 h) (Obs.Hist.p99 h)
    (Obs.Hist.max_value h)
