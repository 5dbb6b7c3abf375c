(* The command-line vocabulary shared by the binaries.  Every closed set
   of names (transformations, object kinds, crash regimes, fault
   envelopes) is parsed once, by a Cmdliner converter, so each binary's
   [run] receives typed values; an unknown name is a usage error (exit
   124) that lists the valid ones. *)

open Cmdliner

(* The name [conv] prints for [v]: the one it was parsed from. *)
let name conv v = Fmt.str "%a" (Arg.conv_printer conv) v

(* --jobs/-j, resolved to the core count when absent. *)
let jobs ~doc =
  let resolve = function
    | Some j -> max 1 j
    | None -> Cxl0.Parallel.default_jobs ()
  in
  Term.(
    const resolve
    $ Arg.(
        value
        & opt (some int) None
        & info [ "jobs"; "j" ] ~docv:"J" ~doc))

(* Both reductions of the litmus and Proposition 1 checks are on unless
   --no-reduction. *)
let reduction =
  let of_flag off =
    if off then Cxl0.Explore.Fast.no_reduction
    else Cxl0.Explore.Fast.full_reduction
  in
  Term.(
    const of_flag
    $ Arg.(
        value & flag
        & info [ "no-reduction" ]
            ~doc:
              "Disable both reductions (on by default): restricting the \
               tau-steps between labels to the labels' locations, and \
               checking one Proposition 1 start per symmetry orbit.  \
               Both are exact: verdicts and stdout never depend on \
               them."))

(* A count that must be at least 1. *)
let positive =
  Arg.conv' ~docv:"N"
    ( (fun s ->
        match int_of_string_opt s with
        | Some n when n > 0 -> Ok n
        | _ -> Error (Fmt.str "expected a positive integer, got %S" s)),
      Fmt.int )

let pp_transform ppf t = Fmt.string ppf (Flit.Flit_intf.name t)

let unknown_transform ~names n =
  Fmt.str "unknown transformation %S; expected one of %s" n
    (String.concat ", " names)

(* One registered transformation, by its exact name. *)
let transform =
  Arg.conv' ~docv:"T"
    ( (fun s ->
        Option.to_result
          ~none:(unknown_transform ~names:Flit.Registry.names s)
          (Flit.Registry.find s)),
      pp_transform )

(* A comma-separated list of names and aliases, per
   Flit.Registry.resolve. *)
let transforms =
  let names = Flit.Registry.names @ List.map fst Flit.Registry.aliases in
  Arg.conv' ~docv:"TS"
    ( (fun s ->
        Result.map_error (unknown_transform ~names)
          (Flit.Registry.resolve (String.split_on_char ',' s))),
      Fmt.(list ~sep:(any ",") pp_transform) )

let kind =
  Arg.enum
    (List.map
       (fun k -> (Harness.Objects.kind_name k, k))
       Harness.Objects.all_kinds)

(* Which machine a binary's crash schedule fells: none, a worker
   (compute node) or the home (data owner).  Each binary maps the regime
   to a machine; the schedules are Fuzz.Gen's fixed closed-loop and
   serving plans. *)
type crash = No_crash | Worker_crash | Home_crash

let crash =
  Arg.enum
    [ ("none", No_crash); ("worker", Worker_crash); ("home", Home_crash) ]

(* The RAS fault envelope: a fixed Fuzz.Gen schedule in flit_run and
   cxl0_kv, the sampled profile's envelope in cxl0_fuzz. *)
let fault_env =
  Arg.enum
    [
      ("none", Fuzz.Gen.Fault_free);
      ("transient", Fuzz.Gen.Transient_only);
      ("degraded", Fuzz.Gen.Degraded_env);
      ("poison", Fuzz.Gen.Poison_env);
    ]
