(** Concurrent histories with crash events (§4.2).

    The cooperative scheduler interleaves threads into one total order,
    so real-time order is event index.  Well-formedness follows
    Izraelevitz et al.: per-thread alternation of invocations and
    matching responses, possibly ending pending. *)

type res = Ret of int | Corrupt | Faulted
(** An operation's recorded outcome.  [Corrupt] marks a response from an
    operation that crashed on structurally corrupted object state: it is
    distinct from every integer (no sentinel aliasing), and no
    specification can explain it, so the checker flags the history.
    [Faulted] marks an operation aborted by a fabric fault that survived
    the runtime's retry policy; the checkers treat it as pending (the op
    may have taken partial effect, like an op cut by a crash). *)

val pp_res : res Fmt.t

type event =
  | Inv of { tid : int; op : Op.t }
  | Res of { tid : int; ret : res }
  | Crash of { machine : int }

val pp_event : event Fmt.t

type t = event list
(** In real-time order. *)

val pp : t Fmt.t

type op = {
  id : int;             (** index among extracted ops (stable) *)
  tid : int;
  op : Op.t;
  ret : res option;     (** [None] = pending (no response recorded) *)
  inv_at : int;         (** event index of the invocation *)
  res_at : int option;  (** event index of the response *)
}
(** A completed or pending high-level operation. *)

val pp_op : op Fmt.t

val ret_int : op -> int option
(** The integer result of a completed op; [None] if pending or corrupt. *)

val is_corrupt : op -> bool

val demote_faulted : op list -> op list
(** Rewrite every [Faulted] op as pending (no result, no response time)
    — free to be completed with any legal result or omitted, the sound
    model for fault-aborted operations.  Identity on fault-free
    histories. *)

val well_formed : t -> bool

val ops : t -> op list
(** The history's operations, pending included, in invocation order.
    Raises [Invalid_argument] on ill-formed histories.  Linear in the
    history's length.  Crash events
    produce no operations, so checking these ops is checking the
    crash-free projection. *)

val strip_crashes : t -> t
val crash_count : t -> int
