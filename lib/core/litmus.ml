(** Litmus tests over the CXL0 LTS (Fig. 4 and Fig. 5 of the paper).

    A litmus test is a named sequence of visible labels (stores, flushes,
    loads-with-observed-value, crashes) together with the paper's verdict:
    *allowed* (✓ — some execution realises the sequence) or *forbidden*
    (✗ — no execution does).  The checker decides feasibility by
    reachable-set exploration ({!Explore.feasible}), inserting the silent
    propagation steps wherever needed, exactly as the paper's presentation
    ("sequences of events as they appear on the CXL fabric") prescribes. *)

type verdict = Allowed | Forbidden

let pp_verdict ppf = function
  | Allowed -> Fmt.string ppf "allowed"
  | Forbidden -> Fmt.string ppf "forbidden"

let verdict_equal a b =
  match (a, b) with
  | Allowed, Allowed | Forbidden, Forbidden -> true
  | _ -> false

type t = {
  name : string;
  descr : string;  (** short prose, e.g. which Fig. 4 row this is *)
  system : Machine.system;
  events : Label.t list;
  expect : verdict;  (** the paper's verdict *)
}

let make ?(descr = "") ~system ~expect name events =
  { name; descr; system; events; expect }

(** [decide t] is what the *model* says about [t]'s event sequence.
    Decided on the packed fast engine (the events' locations form the
    exploration context); falls back to the reference map-set engine
    when the test does not fit the packed layout. *)
let decide t =
  let fast () =
    let locs =
      List.filter_map Label.loc t.events |> List.sort_uniq Loc.compare
    in
    let ctx = Packed.make t.system ~locs in
    let cache = Explore.Fast.create ctx in
    Explore.Fast.feasible cache (Packed.init ctx) t.events
  in
  let feasible =
    try fast ()
    with Packed.Unrepresentable _ ->
      Explore.feasible t.system Config.init t.events
  in
  if feasible then Allowed else Forbidden

(** [agrees t] is [true] iff the model's verdict matches the paper's. *)
let agrees t = verdict_equal (decide t) t.expect

let pp_events ppf events =
  Fmt.pf ppf "@[<h>%a@]" Fmt.(list ~sep:(any " ;@ ") Label.pp) events

(** [pp_decided ppf (t, got)] renders a row for a verdict computed
    elsewhere (e.g. by a parallel {!decide_all}). *)
let pp_decided ppf (t, got) =
  let vs v = Fmt.str "%a" pp_verdict v in
  Fmt.pf ppf "%-12s %-9s (paper: %-9s) %s  %a" t.name (vs got) (vs t.expect)
    (if verdict_equal got t.expect then "OK " else "FAIL")
    pp_events t.events

let pp_result ppf t = pp_decided ppf (t, decide t)

(* ------------------------------------------------------------------ *)
(* The paper's litmus tests                                            *)
(* ------------------------------------------------------------------ *)

(* All Fig. 4 tests assume non-volatile shared memory ("we assume that
   all memory in the following tests is non-volatile").  Tests 6 and 7
   use three machines; we run every test on the same 3-machine NV
   system for uniformity. *)

let nv3 = Machine.uniform ~persistence:Machine.Non_volatile 3

(* Locations x^i / y^i as in the paper (1-based machine superscripts). *)
let x1 = Loc.v ~owner:0 0
let x2 = Loc.v ~owner:1 0
let x3 = Loc.v ~owner:2 0
let y1 = Loc.v ~owner:0 1

(** The nine litmus tests of Fig. 4, in order.  [Load] labels carry the
    value the test asserts is observed; crashes are the [𝑓ᵢ] events. *)
let fig4 : t list =
  let t = make ~system:nv3 in
  [
    t "fig4.1" ~expect:Allowed
      ~descr:"RStore may be lost on owner crash before write-back"
      [ Label.rstore 0 x1 1; Label.crash 0; Label.load 0 x1 0 ];
    t "fig4.2" ~expect:Forbidden
      ~descr:"MStore persists before completing"
      [ Label.mstore 0 x1 1; Label.crash 0; Label.load 0 x1 0 ];
    t "fig4.3" ~expect:Forbidden
      ~descr:"LFlush to local persistent memory survives local crash"
      [
        Label.lstore 0 x1 1;
        Label.lflush 0 x1;
        Label.crash 0;
        Label.load 0 x1 0;
      ];
    t "fig4.4" ~expect:Allowed
      ~descr:"LFlush only reaches the remote cache; owner crash loses it"
      [
        Label.lstore 0 x2 1;
        Label.lflush 0 x2;
        Label.crash 1;
        Label.load 0 x2 0;
      ];
    t "fig4.5" ~expect:Forbidden
      ~descr:"RFlush forces propagation into remote persistent memory"
      [
        Label.lstore 0 x2 1;
        Label.rflush 0 x2;
        Label.crash 1;
        Label.load 0 x2 0;
      ];
    t "fig4.6" ~expect:Forbidden
      ~descr:"load copies the value into the reader's cache"
      [
        Label.lstore 0 x3 1;
        Label.load 1 x3 1;
        Label.crash 0;
        Label.load 1 x3 0;
      ];
    t "fig4.7" ~expect:Forbidden
      ~descr:"reader's LFlush moves the value to the owner's cache"
      [
        Label.lstore 0 x3 1;
        Label.load 1 x3 1;
        Label.lflush 1 x3;
        Label.crash 0;
        Label.crash 1;
        Label.load 1 x3 0;
      ];
    t "fig4.8" ~expect:Allowed
      ~descr:"a value already observed by another op may still be lost"
      [
        Label.rstore 0 x2 1;
        Label.rstore 1 y1 1;
        Label.crash 1;
        Label.load 0 y1 1;
        Label.load 0 x2 0;
      ];
    t "fig4.9" ~expect:Forbidden
      ~descr:"MStore for the first write closes the fig4.8 inconsistency"
      [
        Label.mstore 0 x2 1;
        Label.rstore 1 y1 1;
        Label.crash 1;
        Label.load 0 y1 1;
        Label.load 0 x2 0;
      ];
  ]

(* ------------------------------------------------------------------ *)
(* The motivating example of Fig. 5 (§4.1)                             *)
(* ------------------------------------------------------------------ *)

(* Machine 1 runs [x := 1; r1 := x; r2 := x] with x ∈ Loc₂; machine 2
   crashes and recovers between the two loads.  The weak-store variants
   admit the "r1 = 1, r2 = 0" inconsistency; only a flush that reaches
   *physical* memory (RFlush) or an MStore forbids it. *)

let nv2 = Machine.uniform ~persistence:Machine.Non_volatile 2
let fx2 = Loc.v ~owner:1 0

let fig5 : t list =
  let t = make ~system:nv2 in
  [
    t "fig5.plain" ~expect:Allowed
      ~descr:"r1=1 then r2=0 is possible with a plain (local) store"
      [
        Label.lstore 0 fx2 1;
        Label.load 0 fx2 1;
        Label.crash 1;
        Label.load 0 fx2 0;
      ];
    t "fig5.lflush" ~expect:Allowed
      ~descr:"an LFlush between store and loads does not help"
      [
        Label.lstore 0 fx2 1;
        Label.lflush 0 fx2;
        Label.load 0 fx2 1;
        Label.crash 1;
        Label.load 0 fx2 0;
      ];
    t "fig5.lflush2" ~expect:Allowed
      ~descr:"nor does an additional LFlush after the first load"
      [
        Label.lstore 0 fx2 1;
        Label.lflush 0 fx2;
        Label.load 0 fx2 1;
        Label.lflush 0 fx2;
        Label.crash 1;
        Label.load 0 fx2 0;
      ];
    t "fig5.rflush" ~expect:Forbidden
      ~descr:"an RFlush (reaching physical memory) restores consistency"
      [
        Label.lstore 0 fx2 1;
        Label.rflush 0 fx2;
        Label.load 0 fx2 1;
        Label.crash 1;
        Label.load 0 fx2 0;
      ];
    t "fig5.mstore" ~expect:Forbidden
      ~descr:"so does performing the write as an MStore"
      [
        Label.mstore 0 fx2 1;
        Label.load 0 fx2 1;
        Label.crash 1;
        Label.load 0 fx2 0;
      ];
  ]

let all = fig4 @ fig5

(** [decide_all ?jobs tests] decides every test, sharding across [jobs]
    worker domains (each decision is an independent exploration); order
    is preserved. *)
let decide_all ?jobs tests =
  Parallel.map_list ?jobs (fun t -> (t, decide t)) tests

(** [run_all ?jobs ()] evaluates every paper litmus test, returning
    [(test, model_verdict, agrees)] triples. *)
let run_all ?jobs () =
  List.map
    (fun (t, got) -> (t, got, verdict_equal got t.expect))
    (decide_all ?jobs all)

let pp_table ppf tests =
  Fmt.pf ppf "@[<v>%a@]" Fmt.(list ~sep:cut pp_result) tests
