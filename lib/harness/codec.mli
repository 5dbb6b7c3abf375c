(** Replayable serialization of {!Workload.config} — the corpus format of
    the crash-fault fuzzer.  Hand-rolled S-expressions (no external
    dependency); transforms encoded by registry name, kinds by
    {!Objects.kind_name}; [;]-comments allowed. *)

type error =
  | Unknown_transform of { name : string; known : string list }
      (** The config names a transformation absent from
          {!Flit.Registry}; [known] is {!Flit.Registry.names}, so
          callers can print what the author probably meant. *)
  | Msg of string  (** any other malformation *)

val pp_error : error Fmt.t
val error_to_string : error -> string

val config_to_string : Workload.config -> string
val config_of_string : string -> (Workload.config, error) result

val config_equal : Workload.config -> Workload.config -> bool
(** Structural, with the transform compared by registry name (configs
    hold closures, so polymorphic equality is unusable). *)

val write_config : string -> Workload.config -> comment:string list -> unit
(** Write a config file, comment lines (e.g. the verdict) first. *)

val read_config : string -> (Workload.config, error) result
