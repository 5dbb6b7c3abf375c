(** Chunked worker pool over [Domain.spawn] for the model checker's
    embarrassingly parallel sweeps.  Workers get private scratch state;
    an [Atomic] cursor load-balances index chunks; results are returned
    in index order, so output is identical for every [jobs] value. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count], at least 1. *)

val map_chunked :
  ?jobs:int -> ?chunk:int -> int -> init:(unit -> 'w) ->
  f:('w -> int -> 'a) -> 'a array
(** [map_chunked ~jobs n ~init ~f] computes [f w i] for [i] in [0, n),
    sharding chunks across [jobs] domains, each with its own worker
    state [w = init ()].  [jobs <= 1] runs inline with no spawn.
    [chunk] overrides the chunk size (default [n / (jobs * 8)],
    at least 1). *)

val map_items :
  ?jobs:int -> ?chunk:int -> init:(unit -> 'w) -> f:('w -> 'a -> 'b) ->
  'a array -> 'b array
(** The pool over arbitrary work items instead of ranked config indices;
    per-worker state as in {!map_chunked}, result order is item order. *)

val map_list : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
