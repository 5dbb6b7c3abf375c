(** The campaign driver: sample N configs from a profile, check each
    against its oracle, shrink every violation to a minimum, bank the
    minima in the corpus.

    Cells are independent — cell [i] derives everything from
    [Random.State.make [| seed; i |]] — so the campaign shards across
    domains with {!Cxl0.Parallel.map_items} and its result is identical
    for every [jobs] value.  Corpus writes happen sequentially after the
    parallel phase (content-hash names make duplicates a skip, not a
    race). *)

module W = Harness.Workload

type status =
  | Ok  (** the oracle was satisfied *)
  | Skipped of string  (** the oracle could not decide (history too long) *)
  | Violation of { shrunk : W.config; verdict : string }

type cell = {
  index : int;
  config : W.config;
  status : status;
  stats : Fabric.Stats.t;  (** fabric traffic of the cell's (unshrunk) run *)
}

type violation = {
  index : int;
  original : W.config;
  shrunk : W.config;
  verdict : string;  (** the shrunk config's verdict, rendered *)
  corpus_path : string;
  fresh : bool;  (** [false] = deduplicated against an existing entry *)
}

type summary = {
  transform_name : string;
  cells : int;
  ok : int;
  skipped : int;
  violations : violation list;
  stats : Fabric.Stats.t;  (** campaign-wide fabric traffic, all cells *)
}

(** [judge profile c h] — the profile's oracle on [h], the history a run
    of [c] recorded: the status, and the verdict rendered on demand.
    Either oracle counts a history too long for the search
    ([History_too_long], beyond {!Lincheck.Check.max_ops}) as skipped.
    The rendering is lazy: formatting [describe c] for every satisfied
    cell was measurable across a campaign. *)
let judge (p : Gen.profile) (c : W.config) (h : Lincheck.History.t) :
    [ `Ok | `Violation | `Skipped of string ] * string Lazy.t =
  let spec = Harness.Objects.spec c.kind in
  match p.oracle with
  | Gen.Durable ->
      let v = Lincheck.Durable.check spec h in
      ( (match v.skipped with
        | Some e -> `Skipped (Fmt.str "%a" Lincheck.Check.pp_error e)
        | None -> if v.durable then `Ok else `Violation),
        lazy
          (Fmt.str "%a" Lincheck.Durable.pp_verdict
             { v with provenance = Some (W.describe c) }) )
  | Gen.Buffered_cut ->
      let v = Lincheck.Buffered.check spec h in
      ( (match v.skipped with
        | Some e -> `Skipped (Fmt.str "%a" Lincheck.Check.pp_error e)
        | None -> if v.buffered_durable then `Ok else `Violation),
        lazy (Fmt.str "%a [%s]" Lincheck.Buffered.pp_verdict v (W.describe c)) )

(* One run of [c] judged by [p]'s oracle, rendered on the violation path
   only, with the run's fabric stats. *)
let evaluate_run p c =
  let r = W.run c in
  ( (match judge p c r.history with
    | `Violation, verdict -> `Violation (Lazy.force verdict)
    | ((`Ok | `Skipped _) as status), _ -> status),
    r.stats )

let evaluate p c = fst (evaluate_run p c)

(** [run_cell profile ~seed i] — generate, check and (on violation)
    shrink cell [i]; deterministic in [(seed, i)] alone. *)
let run_cell (p : Gen.profile) ~seed (i : int) : cell =
  let rng = Random.State.make [| seed; i |] in
  let c = Gen.gen p rng in
  (* the banked stats are the original run's: shrink iterations probe
     ever-smaller configs whose traffic says nothing about the sampled
     workload mix the campaign is characterising *)
  match evaluate_run p c with
  | `Ok, stats -> { index = i; config = c; status = Ok; stats }
  | `Skipped why, stats -> { index = i; config = c; status = Skipped why; stats }
  | `Violation _, stats ->
      let still_failing c' =
        match evaluate p c' with `Violation _ -> true | _ -> false
      in
      let shrunk = Shrink.minimize ~still_failing c in
      let verdict =
        match evaluate p shrunk with
        | `Violation v -> v
        | _ ->
            (* minimize only ever returns still-failing configs *)
            assert false
      in
      { index = i; config = c; status = Violation { shrunk; verdict }; stats }

let split_lines s = String.split_on_char '\n' s

(** [run ?jobs ?corpus_dir profile ~cells ~seed ()] — the whole campaign.
    Results (including corpus file names) depend only on [seed] and
    [cells], never on [jobs]. *)
let run ?(jobs = 1) ?(corpus_dir = "corpus") (p : Gen.profile) ~cells ~seed ()
    : summary =
  let results =
    Cxl0.Parallel.map_items ~jobs
      ~init:(fun () -> ())
      ~f:(fun () i -> run_cell p ~seed i)
      (Array.init cells Fun.id)
  in
  let ok = ref 0 and skipped = ref 0 and violations = ref [] in
  let stats = Fabric.Stats.create () in
  Array.iter
    (fun (cell : cell) ->
      Fabric.Stats.add ~into:stats cell.stats;
      match cell.status with
      | Ok -> incr ok
      | Skipped _ -> incr skipped
      | Violation { shrunk; verdict } ->
          let comment =
            (Printf.sprintf "found by campaign seed=%d cell=%d" seed cell.index
            :: split_lines verdict)
          in
          let corpus_path, fresh = Corpus.save ~dir:corpus_dir shrunk ~comment in
          violations :=
            { index = cell.index; original = cell.config; shrunk; verdict;
              corpus_path; fresh }
            :: !violations)
    results;
  {
    transform_name = Flit.Flit_intf.name p.transform;
    cells;
    ok = !ok;
    skipped = !skipped;
    violations = List.rev !violations;
    stats;
  }

(** [replay ?tracer c] — one deterministic run of a (corpus) config: the
    recorded history plus its oracle verdict, rendered.  The boolean is
    [false] iff the oracle found a violation.  With [?tracer], every
    fabric event of the replayed run is captured for export. *)
let replay ?tracer (c : W.config) : Lincheck.History.t * string * bool =
  let r = W.run ?tracer c in
  let status, verdict =
    judge (Gen.profile_of_transform c.transform) c r.history
  in
  (r.history, Lazy.force verdict, status <> `Violation)
