(** Open-loop serving traffic: simulated client sessions issuing
    YCSB-style read/update/insert mixes under Zipfian key skew.

    A {!spec} describes the offered load; a {!cursor} produces the
    request schedule — every request stamped with its arrival cycle — in
    arrival order, holding O(sessions) state rather than the whole
    materialised schedule (a binary-heap merge of per-session
    generators); {!stream} is the same schedule as a lazy sequence.  It is deterministic in [seed] alone:
    every random draw comes from a per-session RNG, so evaluation order
    cannot change a byte.  The serving engine ({!Kv.serve}) drains the
    schedule open-loop: a request's latency is measured from its
    *arrival* cycle, so queueing delay under overload is visible, unlike
    the closed-loop {!Workload} shape where each worker waits for its
    previous op. *)

module Zipf : sig
  (** The YCSB Zipfian generator (Gray et al.): rank [0] is the most
      popular of [n] items, rank frequency decays as [1/(r+1)^theta].
      [theta = 0] is uniform; [theta] must be [< 1] (the usual YCSB
      skew is 0.99). *)
  type t

  val create : theta:float -> n:int -> t
  (** Precomputes the harmonic constants; O(n).
      @raise Invalid_argument on [n <= 0], [theta < 0] or [theta >= 1]. *)

  val theta : t -> float
  val n : t -> int

  val draw : t -> Random.State.t -> int
  (** A rank in [[0, n)]; rank 0 most frequent, frequencies
      non-increasing in rank. *)
end

(** Operation mix as integer weights (summing to any positive total);
    integer weights keep mix specs exact and printable. *)
type mix = { reads : int; updates : int; inserts : int }

val mix_of_string : string -> mix
(** ["R:U:I"] weights (e.g. ["95:4:1"]), or a YCSB workload letter:
    ["a"] = 50:50:0, ["b"] = 95:5:0, ["c"] = 100:0:0, ["d"] = 95:0:5.
    @raise Invalid_argument on malformed or all-zero specs. *)

val mix_name : mix -> string
(** ["r95u4i1"] — compact, filename- and JSON-key-safe. *)

type op_type = Read | Update | Insert

(** The offered load of one serving run. *)
type spec = {
  sessions : int;          (** simulated client sessions *)
  ops_per_session : int;
  rate : float;            (** aggregate offered ops per 1000 cycles *)
  theta : float;           (** Zipfian skew over [keyspace]; 0 = uniform *)
  keyspace : int;          (** keys preloaded before serving starts *)
  mix : mix;
  value_range : int;       (** update/insert payloads drawn from [1, range] *)
  seed : int;
}

val default_spec : spec
(** 64 sessions × 32 ops, rate 2/kcycle, theta 0.9 over 256 keys,
    mix b, values in [1, 1000], seed 1. *)

val describe : spec -> string
(** One-line summary for signatures and verdict provenance. *)

(** One scheduled client request.  [key] is a rank in [[0, keyspace)]
    for reads/updates and a fresh key [>= keyspace] for inserts;
    [value = 0] for reads. *)
type request = {
  session : int;
  seq : int;               (** per-session issue index *)
  arrival : int;           (** arrival cycle (open-loop timestamp) *)
  op : op_type;
  key : int;
  value : int;
}

val validate : spec -> (unit, string) result
(** Typed spec validation: [Error msg] names the offending field
    (non-positive [sessions]/[ops_per_session]/[keyspace]/[value_range],
    [rate <= 0] or NaN, [theta] outside [[0, 1)], negative or all-zero
    mix weights).  Shared by the generator and the CLI front-ends so
    both reject with the same message. *)

type cursor
(** The schedule's generator: one mutable state per session (its RNG
    advanced in place) in a binary heap keyed by each session's next
    request.  Memory is O(sessions) — independent of
    [ops_per_session]. *)

val cursor : spec -> cursor
(** A cursor at the start of the schedule.
    @raise Invalid_argument when {!validate} rejects the spec. *)

val next : cursor -> request option
(** The next request in [(arrival, session, seq)] order, advancing the
    cursor; [None] once every session is drained. *)

val stream : spec -> request Seq.t
(** The request schedule as a lazy sequence in [(arrival, session,
    seq)] order ([Array.of_seq] materialises it), a view over a fresh
    {!cursor} per traversal: each traversal from the root replays the
    identical draws, so the sequence can be shared or re-traversed from
    its root (not from an inner node, which shares its traversal's
    cursor).
    @raise Invalid_argument when {!validate} rejects the spec. *)

val total_ops : spec -> int
(** [sessions * ops_per_session]. *)
