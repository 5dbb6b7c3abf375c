(** The fuzz-campaign driver: sample, check, shrink, bank in the corpus.
    Deterministic in [seed] for every [jobs] value. *)

type status =
  | Ok
  | Skipped of string  (** oracle undecided (history too long) *)
  | Violation of { shrunk : Harness.Workload.config; verdict : string }

type cell = {
  index : int;
  config : Harness.Workload.config;
  status : status;
  stats : Fabric.Stats.t;  (** fabric traffic of the cell's (unshrunk) run *)
}

type violation = {
  index : int;
  original : Harness.Workload.config;
  shrunk : Harness.Workload.config;
  verdict : string;
  corpus_path : string;
  fresh : bool;  (** [false] = deduplicated against an existing entry *)
}

type summary = {
  transform_name : string;
  cells : int;
  ok : int;
  skipped : int;
  violations : violation list;
  stats : Fabric.Stats.t;
      (** campaign-wide fabric traffic, summed over every cell's
          (unshrunk) run with {!Fabric.Stats.add} *)
}

val judge :
  Gen.profile -> Harness.Workload.config -> Lincheck.History.t ->
  [ `Ok | `Violation | `Skipped of string ] * string Lazy.t
(** [judge p c h] asks [p]'s oracle about [h], the history a run of [c]
    recorded: {!Lincheck.Durable.check} or, for a [Buffered_cut] profile,
    {!Lincheck.Buffered.check}.  Returns the status ([`Skipped] = the
    oracle could not decide) and the verdict, labelled with
    [describe c] and rendered only when forced. *)

val evaluate :
  Gen.profile -> Harness.Workload.config ->
  [ `Ok | `Violation of string | `Skipped of string ]
(** Run the workload once and {!judge} it; a violation carries its
    rendered verdict. *)

val run_cell : Gen.profile -> seed:int -> int -> cell
(** Generate, check and (on violation) shrink one cell; deterministic in
    [(seed, index)] alone. *)

val run :
  ?jobs:int -> ?corpus_dir:string -> Gen.profile -> cells:int -> seed:int ->
  unit -> summary
(** The whole campaign: cells sharded across domains, shrunk minima
    written to [corpus_dir] (content-hash-deduplicated) sequentially
    afterwards. *)

val replay :
  ?tracer:Obs.Tracer.t ->
  Harness.Workload.config -> Lincheck.History.t * string * bool
(** One deterministic run of a corpus config, {!judge}d by its
    transform's profile: the recorded history, the rendered verdict, and
    [false] iff the oracle found a violation (an undecided run passes).  With
    [?tracer], every fabric event of the replayed run is captured for
    export. *)
