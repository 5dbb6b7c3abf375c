(** Replayable serialization of {!Workload.config} — the corpus format of
    the crash-fault fuzzer.

    A config is written as a small S-expression (hand-rolled: the repo
    deliberately depends only on the baked-in toolchain).  Transforms are
    encoded by their registry name and object kinds by {!Objects.kind_name},
    so a file produced on one run reconstructs the identical workload —
    byte-for-byte the same history — on another.  Lines starting with [;]
    are comments (the fuzzer records the verdict there). *)

type sexp = Atom of string | List of sexp list

(* ------------------------------------------------------------------ *)
(* printing                                                            *)
(* ------------------------------------------------------------------ *)

let rec pp_sexp ppf = function
  | Atom a -> Fmt.string ppf a
  | List l -> Fmt.pf ppf "@[<hv 1>(%a)@]" Fmt.(list ~sep:sp pp_sexp) l

let sexp_to_string (s : sexp) = Fmt.str "%a" pp_sexp s

(* ------------------------------------------------------------------ *)
(* parsing                                                             *)
(* ------------------------------------------------------------------ *)

let tokenize (s : string) : string list =
  let toks = ref [] and buf = Buffer.create 16 in
  let flush () =
    if Buffer.length buf > 0 then begin
      toks := Buffer.contents buf :: !toks;
      Buffer.clear buf
    end
  in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    (match s.[!i] with
    | ';' ->
        (* comment to end of line *)
        flush ();
        while !i < n && s.[!i] <> '\n' do
          incr i
        done
    | '(' | ')' ->
        flush ();
        toks := String.make 1 s.[!i] :: !toks
    | ' ' | '\t' | '\n' | '\r' -> flush ()
    | c -> Buffer.add_char buf c);
    incr i
  done;
  flush ();
  List.rev !toks

let sexp_of_string (s : string) : (sexp, string) result =
  let rec parse toks =
    match toks with
    | [] -> Error "unexpected end of input"
    | ")" :: _ -> Error "unexpected ')'"
    | "(" :: rest ->
        let rec elems acc toks =
          match toks with
          | ")" :: rest -> Ok (List (List.rev acc), rest)
          | [] -> Error "unclosed '('"
          | _ -> (
              match parse toks with
              | Ok (e, rest) -> elems (e :: acc) rest
              | Error _ as e -> e)
        in
        elems [] rest
    | a :: rest -> Ok (Atom a, rest)
  in
  match parse (tokenize s) with
  | Ok (e, []) -> Ok e
  | Ok (_, t :: _) -> Error (Printf.sprintf "trailing input at %S" t)
  | Error e -> Error e

(* ------------------------------------------------------------------ *)
(* config <-> sexp                                                     *)
(* ------------------------------------------------------------------ *)

let atom_int i = Atom (string_of_int i)
let atom_bool b = Atom (string_of_bool b)

(* %.17g round-trips every double exactly while staying readable *)
let atom_float f = Atom (Printf.sprintf "%.17g" f)
let field name v = List (Atom name :: v)

let crash_to_sexp (s : Runcore.crash_spec) =
  List
    [
      Atom "crash";
      field "at" [ atom_int s.Runcore.at ];
      field "machine" [ atom_int s.Runcore.machine ];
      field "restart-at" [ atom_int s.Runcore.restart_at ];
      field "recovery-threads" [ atom_int s.Runcore.recovery_threads ];
      field "recovery-ops" [ atom_int s.Runcore.recovery_ops ];
    ]

let fault_to_sexp (s : Runcore.fault_spec) =
  match s with
  | Runcore.Degrade_link { m1; m2; nack_prob; delay_prob; delay_cycles } ->
      List
        [
          Atom "degrade-link";
          field "m1" [ atom_int m1 ];
          field "m2" [ atom_int m2 ];
          field "nack-prob" [ atom_float nack_prob ];
          field "delay-prob" [ atom_float delay_prob ];
          field "delay-cycles" [ atom_int delay_cycles ];
        ]
  | Runcore.Down_link { m1; m2; from_cycle; until_cycle } ->
      List
        [
          Atom "down-link";
          field "m1" [ atom_int m1 ];
          field "m2" [ atom_int m2 ];
          field "from-cycle" [ atom_int from_cycle ];
          field "until-cycle" [ atom_int until_cycle ];
        ]
  | Runcore.Poison_at { at; loc_seed } ->
      List
        [
          Atom "poison";
          field "at" [ atom_int at ];
          field "loc-seed" [ atom_int loc_seed ];
        ]

let config_to_sexp (c : Workload.config) : sexp =
  List
    ([
       Atom "config";
       field "kind" [ Atom (Objects.kind_name c.Workload.kind) ];
       field "transform" [ Atom (Flit.Flit_intf.name c.Workload.transform) ];
       field "n-machines" [ atom_int c.Workload.n_machines ];
       field "home" [ atom_int c.Workload.home ];
       field "volatile-home" [ atom_bool c.Workload.volatile_home ];
       field "workers" [ List (List.map atom_int c.Workload.worker_machines) ];
       field "ops-per-thread" [ atom_int c.Workload.ops_per_thread ];
       field "crashes" [ List (List.map crash_to_sexp c.Workload.crashes) ];
       field "seed" [ atom_int c.Workload.seed ];
       field "evict-prob" [ atom_float c.Workload.evict_prob ];
       field "cache-capacity" [ atom_int c.Workload.cache_capacity ];
       field "value-range" [ atom_int c.Workload.value_range ];
       field "pflag" [ atom_bool c.Workload.pflag ];
     ]
    (* the faults and replicas fields are emitted only when non-default,
       so fault-free unreplicated configs serialise byte-identically to
       the earlier formats: old corpus files keep their content-hash
       names, and re-found counterexamples dedup against them *)
    @ (match c.Workload.faults with
      | [] -> []
      | fs -> [ field "faults" [ List (List.map fault_to_sexp fs) ] ])
    @
    if c.Workload.replicas <= 1 then []
    else [ field "replicas" [ atom_int c.Workload.replicas ] ])

let config_to_string c = sexp_to_string (config_to_sexp c)

(** Structural equality of configs — the transform (a transformation
    descriptor) is compared by registry name, everything else
    structurally. *)
let config_equal a b = config_to_string a = config_to_string b

(* --- decoding ----------------------------------------------------- *)

(** Decoding errors.  Every malformation is a [Msg]; a config naming a
    transformation absent from {!Flit.Registry} gets its own typed
    constructor carrying the offending name and the names the registry
    does know, so tooling (and error messages) can suggest what the
    author probably meant instead of a bare "unknown". *)
type error =
  | Unknown_transform of { name : string; known : string list }
  | Msg of string

let pp_error ppf = function
  | Msg m -> Fmt.string ppf m
  | Unknown_transform { name; known } ->
      Fmt.pf ppf "unknown transformation %S (known: %a)" name
        Fmt.(list ~sep:comma string)
        known

let error_to_string e = Fmt.str "%a" pp_error e
let msg fmt = Printf.ksprintf (fun m -> Error (Msg m)) fmt
let ( let* ) = Result.bind

let lookup fields name =
  let rec go = function
    | List (Atom n :: v) :: _ when n = name -> Ok v
    | _ :: rest -> go rest
    | [] -> msg "missing field %S" name
  in
  go fields

let as_int name = function
  | [ Atom a ] -> (
      match int_of_string_opt a with
      | Some i -> Ok i
      | None -> msg "field %S: not an int: %S" name a)
  | _ -> msg "field %S: expected one int" name

let as_float name = function
  | [ Atom a ] -> (
      match float_of_string_opt a with
      | Some f -> Ok f
      | None -> msg "field %S: not a float: %S" name a)
  | _ -> msg "field %S: expected one float" name

let as_bool name = function
  | [ Atom "true" ] -> Ok true
  | [ Atom "false" ] -> Ok false
  | _ -> msg "field %S: expected true/false" name

let as_atom name = function
  | [ Atom a ] -> Ok a
  | _ -> msg "field %S: expected one atom" name

let int_field fields name =
  let* v = lookup fields name in
  as_int name v

let crash_of_sexp = function
  | List (Atom "crash" :: fields) ->
      let* at = int_field fields "at" in
      let* machine = int_field fields "machine" in
      let* restart_at = int_field fields "restart-at" in
      let* recovery_threads = int_field fields "recovery-threads" in
      let* recovery_ops = int_field fields "recovery-ops" in
      Ok { Runcore.at; machine; restart_at; recovery_threads; recovery_ops }
  | _ -> msg "expected (crash ...)"

let float_field fields name =
  let* v = lookup fields name in
  as_float name v

let fault_of_sexp = function
  | List (Atom "degrade-link" :: fields) ->
      let* m1 = int_field fields "m1" in
      let* m2 = int_field fields "m2" in
      let* nack_prob = float_field fields "nack-prob" in
      let* delay_prob = float_field fields "delay-prob" in
      let* delay_cycles = int_field fields "delay-cycles" in
      Ok
        (Runcore.Degrade_link { m1; m2; nack_prob; delay_prob; delay_cycles })
  | List (Atom "down-link" :: fields) ->
      let* m1 = int_field fields "m1" in
      let* m2 = int_field fields "m2" in
      let* from_cycle = int_field fields "from-cycle" in
      let* until_cycle = int_field fields "until-cycle" in
      Ok (Runcore.Down_link { m1; m2; from_cycle; until_cycle })
  | List (Atom "poison" :: fields) ->
      let* at = int_field fields "at" in
      let* loc_seed = int_field fields "loc-seed" in
      Ok (Runcore.Poison_at { at; loc_seed })
  | _ -> msg "expected (degrade-link ...), (down-link ...) or (poison ...)"

let rec map_result f = function
  | [] -> Ok []
  | x :: rest ->
      let* y = f x in
      let* ys = map_result f rest in
      Ok (y :: ys)

let config_of_sexp (s : sexp) : (Workload.config, error) result =
  match s with
  | List (Atom "config" :: fields) ->
      let* kind_name =
        let* v = lookup fields "kind" in
        as_atom "kind" v
      in
      let* kind =
        match Objects.kind_of_name kind_name with
        | Some k -> Ok k
        | None -> msg "unknown object kind %S" kind_name
      in
      let* t_name =
        let* v = lookup fields "transform" in
        as_atom "transform" v
      in
      let* transform =
        match Flit.Registry.find t_name with
        | Some t -> Ok t
        | None ->
            Error
              (Unknown_transform
                 { name = t_name; known = Flit.Registry.names })
      in
      let* n_machines = int_field fields "n-machines" in
      let* home = int_field fields "home" in
      let* volatile_home =
        let* v = lookup fields "volatile-home" in
        as_bool "volatile-home" v
      in
      let* worker_machines =
        let* v = lookup fields "workers" in
        match v with
        | [ List l ] -> map_result (fun e -> as_int "workers" [ e ]) l
        | _ -> msg "field %S: expected a list" "workers"
      in
      let* ops_per_thread = int_field fields "ops-per-thread" in
      let* crashes =
        let* v = lookup fields "crashes" in
        match v with
        | [ List l ] -> map_result crash_of_sexp l
        | _ -> msg "field %S: expected a list" "crashes"
      in
      (* absent in pre-fault corpus files: default to fault-free *)
      let* faults =
        match lookup fields "faults" with
        | Error _ -> Ok []
        | Ok [ List l ] -> map_result fault_of_sexp l
        | Ok _ -> msg "field %S: expected a list" "faults"
      in
      let* seed = int_field fields "seed" in
      let* evict_prob =
        let* v = lookup fields "evict-prob" in
        as_float "evict-prob" v
      in
      let* cache_capacity = int_field fields "cache-capacity" in
      let* value_range = int_field fields "value-range" in
      let* pflag =
        let* v = lookup fields "pflag" in
        as_bool "pflag" v
      in
      (* absent in pre-replication corpus files: default to 1 copy *)
      let* replicas =
        match lookup fields "replicas" with
        | Error _ -> Ok 1
        | Ok v -> as_int "replicas" v
      in
      Ok
        {
          Workload.kind;
          transform;
          n_machines;
          home;
          volatile_home;
          worker_machines;
          ops_per_thread;
          crashes;
          faults;
          seed;
          evict_prob;
          cache_capacity;
          value_range;
          pflag;
          replicas;
        }
  | _ -> msg "expected (config ...)"

let config_of_string (s : string) : (Workload.config, error) result =
  let* e = Result.map_error (fun m -> Msg m) (sexp_of_string s) in
  config_of_sexp e

(* ------------------------------------------------------------------ *)
(* files                                                               *)
(* ------------------------------------------------------------------ *)

(** [write_config path c ~comment] — write [c] to [path], the comment
    lines (e.g. the verdict that put it in the corpus) first. *)
let write_config path (c : Workload.config) ~comment =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter (fun l -> Printf.fprintf oc "; %s\n" l) comment;
      output_string oc (config_to_string c);
      output_char oc '\n')

let read_config path : (Workload.config, error) result =
  match
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error e -> Error (Msg e)
  | contents -> config_of_string contents
