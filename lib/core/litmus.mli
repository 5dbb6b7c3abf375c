(** Litmus tests over the CXL0 LTS, including the paper's Fig. 4 table
    and the Fig. 5 motivating example.

    A litmus test is a named event sequence (stores, flushes,
    loads-with-observed-value, crashes) plus the paper's verdict; the
    checker decides feasibility by reachable-set exploration. *)

type verdict = Allowed | Forbidden

val pp_verdict : verdict Fmt.t
val verdict_equal : verdict -> verdict -> bool

type t = {
  name : string;
  descr : string;
  system : Machine.system;
  events : Label.t list;
  expect : verdict;  (** the paper's verdict *)
}

val make :
  ?descr:string ->
  system:Machine.system ->
  expect:verdict ->
  string ->
  Label.t list ->
  t

val decide : t -> verdict
(** What the model says: [Allowed] iff some execution realises the
    events.  Runs on the packed fast engine ({!Explore.Fast.feasible}),
    falling back to the reference engine when the test does not fit the
    packed layout. *)

val agrees : t -> bool
(** Model verdict = paper verdict. *)

val fig4 : t list
(** The nine litmus tests of Fig. 4, in order. *)

val fig5 : t list
(** The Fig. 5 motivating example and its flush/store variants. *)

val all : t list
(** [fig4 @ fig5]. *)

val decide_all : ?jobs:int -> t list -> (t * verdict) list
(** Decide every test, sharded over [jobs] worker domains (default 1);
    order preserved. *)

val run_all : ?jobs:int -> unit -> (t * verdict * bool) list

val pp_events : Label.t list Fmt.t
val pp_decided : (t * verdict) Fmt.t
(** Render a row for an already-computed verdict. *)

val pp_result : t Fmt.t
val pp_table : t list Fmt.t
