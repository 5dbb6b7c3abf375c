(** The counterexample corpus: replayable S-expression config files,
    content-hash-named so identical minima deduplicate. *)

val save :
  dir:string -> Harness.Workload.config -> comment:string list ->
  string * bool
(** Write the config under its content-hash name,
    [<transform>-<kind>-<fnv1a64 prefix>.sexp] (creating [dir] if
    needed); returns the path and whether the file is new. *)

val load : string -> (Harness.Workload.config, Harness.Codec.error) result

val load_all :
  string ->
  (string * (Harness.Workload.config, Harness.Codec.error) result) list
(** Every [.sexp] entry of the directory, sorted by file name; an
    absent directory is an empty corpus. *)
