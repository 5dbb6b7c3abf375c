(** Seeded, deterministic fault plans: the CXL RAS layer beneath the
    crash model.

    A plan is attached to a fabric at {!Fabric.create} time and scripts
    partial failures the whole-machine crash cannot express — the RAS
    features of the CXL specification:

    - a {e degraded} link between two topology ports: each message
      crossing it is independently NACKed (link-level retry visible as a
      transient error) or delayed (CRC retry absorbed by the link layer,
      surfacing only as latency) with configured probabilities;
    - a link {e down} for a cycle window: operations crossing it block
      until the completion timeout fires;
    - a {e poisoned} line: loads observe a typed [Poisoned] error
      instead of data (CXL poison semantics); any store of fresh data or
      an [rflush] writing a clean copy back heals it.

    The plan owns its own RNG (derived from its seed, independent of the
    fabric's eviction RNG and the scheduler's RNG), so attaching a plan
    never perturbs an otherwise fault-free run, and a given
    [(seed, schedule)] pair replays bit-identically. *)

type fault =
  | Nack of { from_m : int; to_m : int }
      (** the link NACKed the message; transient — retry *)
  | Link_timeout of { from_m : int; to_m : int }
      (** the link was down and the completion timeout fired; transient *)
  | Poisoned of { loc : int }
      (** the data itself is poisoned; not retryable *)

val pp_fault : fault Fmt.t

type retry_policy = {
  retries : int;       (** max transparent retries before surfacing *)
  backoff_base : int;  (** first backoff, in simulated cycles *)
  backoff_max : int;   (** backoff cap (exponential growth stops here) *)
}

val default_retry : retry_policy
(** [{ retries = 4; backoff_base = 8; backoff_max = 256 }]. *)

(** Int-coded outcomes of a {!crossing} and of a {!Fabric.attempt}
    (which never leaves [delayed]: a delayed message is delivered).
    [nack] and [timeout] are transient; [poison_hit] is not. *)

val ok : int
val nack : int
val timeout : int
val poison_hit : int
val delayed : int

type t
(** A fault plan.  Mutable: poisoning/healing and the plan's RNG evolve
    as the run progresses. *)

val plan :
  ?seed:int -> ?retry:retry_policy -> ?nack_cycles:int ->
  ?timeout_cycles:int -> unit -> t
(** A fresh plan with no faults configured.  [nack_cycles] (default 30)
    is the latency of a NACKed attempt; [timeout_cycles] (default 1000)
    the completion timeout charged when a down link swallows a message. *)

val retry : t -> retry_policy
val nack_cycles : t -> int
val timeout_cycles : t -> int

val degrade_link :
  t -> int -> int -> nack_prob:float -> delay_prob:float ->
  delay_cycles:int -> unit
(** Mark the (symmetric) link between two machines degraded.  Raises
    [Invalid_argument] on NaN / negative / >1 probabilities, a negative
    [delay_cycles], or equal endpoints.  Replaces any previous fault on
    the same link. *)

val down_link : t -> int -> int -> from_cycle:int -> until_cycle:int -> unit
(** Take the link down for the cycle window [\[from_cycle, until_cycle)].
    Raises [Invalid_argument] on a negative or empty window or equal
    endpoints. *)

val max_machine : t -> int
(** Largest machine index referenced by a link fault; [-1] if none.
    {!Fabric.create} validates it against the machine count. *)

val link_faulty : t -> cycles:int -> int -> int -> bool
(** Is there a standing fault on the link between the two machines right
    now (a degraded link always; a down one only inside its window)?
    Pure: no RNG draw.  FliT's degraded mode keys off this. *)

val crossing : t -> cycles:int -> from_m:int -> to_m:int -> int
(** Outcome code of one message crossing the fabric right now: {!ok},
    {!delayed}, {!nack} or {!timeout}, read from a dense per-pair link
    table.  Draws two floats from the plan's RNG only when the link is
    degraded (the only allocation); a down link yields {!timeout}
    deterministically; a clean link is {!ok} with no draw. *)

val delay_cycles : t -> int -> int -> int
(** What a {!delayed} crossing of the link between two machines charges. *)

(** {1 Poison} *)

val poison : t -> int -> unit
(** Mark the line poisoned.  Idempotent. *)

val heal : t -> int -> unit
(** Clear the line's poison (a store of fresh data or an [rflush]
    writing a clean copy back). *)

val is_poisoned : t -> int -> bool
