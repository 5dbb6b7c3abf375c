(** Concurrent histories with crash events (§4.2).

    A history is a sequence of invocation, response, and single-machine
    crash events.  Because the cooperative scheduler interleaves threads
    into one total order, the real-time order of events is simply their
    index in the recorded sequence.

    Well-formedness follows Izraelevitz et al.: each thread's local
    history is an alternation of invocations and matching responses,
    possibly ending with a pending invocation (the thread's machine
    crashed mid-operation, or the run was cut short). *)

(** An operation's recorded outcome.  [Corrupt] marks a response from an
    operation that crashed on structurally corrupted object state
    (possible under the broken control transformation): it is distinct
    from every integer, so a legitimate operation returning any value —
    including old sentinel-looking ones like −99 — can never be misread
    as corruption.  No specification can explain a [Corrupt] response,
    so the checker necessarily flags the history.

    [Faulted] marks an operation aborted by a fabric fault that survived
    the runtime's retry policy (exhausted link retries, or poison).  The
    operation may have taken partial effect before aborting — exactly
    the situation of an op pending at a crash — so the checkers treat a
    [Faulted] response as a pending invocation: free to be completed
    with any legal result or omitted. *)
type res = Ret of int | Corrupt | Faulted

let pp_res ppf = function
  | Ret r -> Fmt.int ppf r
  | Corrupt -> Fmt.string ppf "CORRUPT"
  | Faulted -> Fmt.string ppf "FAULT"

type event =
  | Inv of { tid : int; op : Op.t }
  | Res of { tid : int; ret : res }
  | Crash of { machine : int }

let pp_event ppf = function
  | Inv { tid; op } -> Fmt.pf ppf "inv  t%d %a" tid Op.pp op
  | Res { tid; ret } -> Fmt.pf ppf "res  t%d -> %a" tid pp_res ret
  | Crash { machine } -> Fmt.pf ppf "CRASH M%d" (machine + 1)

type t = event list
(** in real-time order *)

let pp ppf (h : t) = Fmt.pf ppf "@[<v>%a@]" Fmt.(list ~sep:cut pp_event) h

(** A completed or pending high-level operation extracted from a history. *)
type op = {
  id : int;             (** index among extracted ops (stable) *)
  tid : int;
  op : Op.t;
  ret : res option;     (** [None] = pending (no response recorded) *)
  inv_at : int;         (** event index of the invocation *)
  res_at : int option;  (** event index of the response *)
}

let pp_op ppf o =
  Fmt.pf ppf "t%d %a%a" o.tid Op.pp o.op
    Fmt.(option (fun ppf r -> Fmt.pf ppf " -> %a" pp_res r))
    o.ret

(** [ret_int o] — the integer result of a completed op, [None] if pending
    or corrupt. *)
let ret_int (o : op) = match o.ret with Some (Ret r) -> Some r | _ -> None

let is_corrupt (o : op) = o.ret = Some Corrupt

(** [demote_faulted ops] — rewrite every [Faulted] op as pending (no
    result, no response time): the sound model for fault-aborted
    operations, whose partial effects a later thread may legitimately
    help to completion.  Identity on fault-free histories. *)
let demote_faulted (ops : op list) =
  List.map
    (fun o ->
      if o.ret = Some Faulted then { o with ret = None; res_at = None }
      else o)
    ops

(** [well_formed h] — every thread alternates invocations and responses
    (at most one pending invocation, necessarily its last event), and
    every response matches a prior invocation of the same thread. *)
let well_formed (h : t) =
  (* The violations are: a response without an open invocation, and an
     invocation while another invocation of the same thread is open. *)
  let open_inv = Hashtbl.create 8 in
  List.for_all
    (fun ev ->
      match ev with
      | Inv { tid; _ } ->
          if Hashtbl.mem open_inv tid then false
          else begin
            Hashtbl.add open_inv tid ();
            true
          end
      | Res { tid; _ } ->
          if Hashtbl.mem open_inv tid then begin
            Hashtbl.remove open_inv tid;
            true
          end
          else false
      | Crash _ -> true)
    h

(** [ops h] — extract the high-level operations of [h], pending ones
    included, in invocation order.  Raises [Invalid_argument] on
    ill-formed histories.  One pass over [h] collects the invocations
    and files each response under its op's id; a last pass over the
    invocations attaches the responses. *)
let ops (h : t) : op list =
  if not (well_formed h) then invalid_arg "History.ops: ill-formed history";
  let open_inv = Hashtbl.create 8 (* tid -> id of its open op *) in
  let responses = Hashtbl.create 16 (* id -> (ret, event index) *) in
  let invs = ref [] and next_id = ref 0 in
  List.iteri
    (fun idx ev ->
      match ev with
      | Inv { tid; op } ->
          invs :=
            { id = !next_id; tid; op; ret = None; inv_at = idx; res_at = None }
            :: !invs;
          Hashtbl.replace open_inv tid !next_id;
          incr next_id
      | Res { tid; ret } ->
          Hashtbl.replace responses (Hashtbl.find open_inv tid) (ret, idx);
          Hashtbl.remove open_inv tid
      | Crash _ -> ())
    h;
  List.rev_map
    (fun o ->
      match Hashtbl.find_opt responses o.id with
      | Some (ret, idx) -> { o with ret = Some ret; res_at = Some idx }
      | None -> o)
    !invs

(** [strip_crashes h] — the crash-free history checked for
    linearizability (the §4.2 definition: a history is durably
    linearizable iff it is well-formed and linearizable after removing
    all crash events). *)
let strip_crashes (h : t) : t =
  List.filter (function Crash _ -> false | _ -> true) h

(** [crash_count h] — number of crash events. *)
let crash_count (h : t) =
  List.length (List.filter (function Crash _ -> true | _ -> false) h)
