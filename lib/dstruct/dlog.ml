(** Durable append-only log.

    A bounded array of slots plus a committed-length counter — the shape
    of a replicated-log / journal on a memory node, and a deliberately
    different concurrency pattern from the linked structures: appenders
    *claim* a slot by CASing it from empty (0) to their (positive) value,
    then publish by helping the length counter forward.

    - [append v]: read [len]; CAS slot([len]) from 0 to [v] — the
      linearization point; then help [len] past the slot; returns the
      index, or {!Absent.absent} when full.  A failed slot CAS means
      someone else claimed that index: help bump [len] and retry on the
      next slot.
    - [read i]: the value at [i] if [i] is below the committed length.
    - [size]: the committed length (helping semantics make this the
      number of *claimed* slots whose publication has been helped past).

    A crashed appender's claimed slot is completed by the next appender's
    helping (a pending append the durability checker may count either
    way).  Layout: [len] at the base location, slots at base+1 ...
    base+capacity. *)

module FI = Flit.Flit_intf

type t = {
  flit : FI.instance;
  base : Fabric.loc;  (** committed length; slots follow *)
  capacity : int;
  pflag : bool;
}

let len_of t = t.base
let slot_of t i = t.base + 1 + i

let create (ctx : Runtime.Sched.ctx) ?(pflag = true) ?(capacity = 64) ~flit
    ~home () =
  let base = Fabric.alloc ctx.fab ~owner:home in
  let slots = Fabric.alloc_n ctx.fab ~owner:home capacity in
  assert (List.nth slots 0 = base + 1);
  { flit; base; capacity; pflag }

let root t = t.base

let attach (ctx : Runtime.Sched.ctx) ?(pflag = true) ?(capacity = 64) ~flit
    base =
  ignore ctx;
  { flit; base; capacity; pflag }

(* help the committed length forward past every claimed slot *)
let rec help_len t ctx n =
  if n < t.capacity then
    let slot = t.flit.FI.shared_load ctx (slot_of t n) ~pflag:t.pflag in
    if slot <> 0 then begin
      ignore
        (t.flit.FI.shared_cas ctx (len_of t) ~expected:n ~desired:(n + 1)
           ~pflag:t.pflag);
      let n' = t.flit.FI.shared_load ctx (len_of t) ~pflag:t.pflag in
      if n' > n then help_len t ctx n'
    end

let append t ctx v =
  if v <= 0 then invalid_arg "Dlog.append: values must be positive";
  let rec loop () =
    let n = t.flit.FI.shared_load ctx (len_of t) ~pflag:t.pflag in
    if n >= t.capacity then Absent.absent
    else if
      t.flit.FI.shared_cas ctx (slot_of t n) ~expected:0 ~desired:v
        ~pflag:t.pflag
    then begin
      (* claimed: publish (or let helpers do it) *)
      ignore
        (t.flit.FI.shared_cas ctx (len_of t) ~expected:n ~desired:(n + 1)
           ~pflag:t.pflag);
      n
    end
    else begin
      (* someone claimed this slot: help its publication, retry *)
      help_len t ctx n;
      loop ()
    end
  in
  let r = loop () in
  t.flit.FI.complete_op ctx;
  r

let read t ctx i =
  let r =
    if i < 0 || i >= t.capacity then Absent.absent
    else
      let n = t.flit.FI.shared_load ctx (len_of t) ~pflag:t.pflag in
      if i >= n then Absent.absent
      else t.flit.FI.shared_load ctx (slot_of t i) ~pflag:t.pflag
  in
  t.flit.FI.complete_op ctx;
  r

let size t ctx =
  let n = t.flit.FI.shared_load ctx (len_of t) ~pflag:t.pflag in
  t.flit.FI.complete_op ctx;
  n
