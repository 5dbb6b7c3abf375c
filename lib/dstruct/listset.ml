(** Durable lock-free sorted-list set (Harris construction).

    Nodes carry an immutable [key] and a [next] field whose low bit marks
    the node as logically deleted ({!Ptr} marked pointers).  [remove]
    first marks (the linearization point) and then attempts the physical
    unlink; [find] unlinks any marked nodes it passes.  The list head is
    a bare location ([head_next]) so that unlinking at the front is the
    same CAS as anywhere else.

    Keys must be positive ({!Absent} is -1 and the op vocabulary of
    {!Lincheck.Specs.Set_} returns 0/1 flags).

    Node layout: [key] at base, [next] at base + [next_off]: 1 for the
    set's own (key, next) nodes; 2 for a {!chain}'s (key, value, next)
    nodes, whose value cell belongs to the caller ({!Hmap}). *)

module FI = Flit.Flit_intf

type t = {
  flit : FI.instance;
  head_next : Fabric.loc;  (** encoded marked-pointer to the first node *)
  home : int;
  pflag : bool;
  next_off : int;  (** offset of a node's next cell from its base *)
}

let key_of n = n
let next_of t n = n + t.next_off

let chain ~flit ~pflag ~home head_next =
  { flit; head_next; home; pflag; next_off = 2 }

let attach (ctx : Runtime.Sched.ctx) ?(pflag = true) ~flit head_next =
  let home = Fabric.owner ctx.fab head_next in
  { (chain ~flit ~pflag ~home head_next) with next_off = 1 }

let create (ctx : Runtime.Sched.ctx) ?(pflag = true) ~flit ~home () =
  (* freshly allocated memory is zero = (null, unmarked): the empty
     list needs no initialising stores *)
  attach ctx ~pflag ~flit (Fabric.alloc ctx.fab ~owner:home)

let root t = t.head_next

let alloc_node t (ctx : Runtime.Sched.ctx) =
  let k = Fabric.alloc ctx.fab ~owner:t.home in
  for i = 1 to t.next_off do
    let c = Fabric.alloc ctx.fab ~owner:t.home in
    assert (c = k + i)
  done;
  k

(* [find t ctx k] — the insertion window for [k] (see the interface).
   Unlinks marked nodes on the way, restarting from the head if an
   unlink CAS fails. *)
let rec find t ctx k =
  let rec walk pred_next cur =
    if Ptr.is_marked_null cur then (pred_next, cur, None)
    else
      let cnode = Ptr.loc_of_marked cur in
      let cnext = t.flit.FI.shared_load ctx (next_of t cnode) ~pflag:t.pflag in
      if Ptr.mark_of cnext then
        (* [cnode] is logically deleted: unlink it *)
        if
          t.flit.FI.shared_cas ctx pred_next ~expected:(Ptr.without_mark cur)
            ~desired:(Ptr.without_mark cnext) ~pflag:t.pflag
        then walk pred_next (Ptr.without_mark cnext)
        else find t ctx k (* window changed under us: restart *)
      else
        let ck = t.flit.FI.shared_load ctx (key_of cnode) ~pflag:t.pflag in
        if ck >= k then (pred_next, Ptr.without_mark cur, Some ck)
        else walk (next_of t cnode) cnext
  in
  let first = t.flit.FI.shared_load ctx t.head_next ~pflag:t.pflag in
  walk t.head_next (Ptr.without_mark first)

(** [add t ctx k] — 1 if [k] was inserted, 0 if already present. *)
let rec add_loop t ctx k =
  let pred_next, cur, ck = find t ctx k in
  if ck = Some k then 0
  else begin
    let n = alloc_node t ctx in
    t.flit.FI.private_store ctx (key_of n) k ~pflag:t.pflag;
    t.flit.FI.private_store ctx (next_of t n) cur ~pflag:t.pflag;
    if
      t.flit.FI.shared_cas ctx pred_next ~expected:cur
        ~desired:(Ptr.marked_of_loc n) ~pflag:t.pflag
    then 1
    else add_loop t ctx k
  end

let add t ctx k =
  let r = add_loop t ctx k in
  t.flit.FI.complete_op ctx;
  r

(** [remove t ctx k] — 1 if [k] was present and removed, 0 otherwise.
    Linearizes at the marking CAS. *)
let rec remove_loop t ctx k =
  let pred_next, cur, ck = find t ctx k in
  if ck <> Some k then 0
  else
    let cnode = Ptr.loc_of_marked cur in
    let cnext = t.flit.FI.shared_load ctx (next_of t cnode) ~pflag:t.pflag in
    if Ptr.mark_of cnext then remove_loop t ctx k
      (* concurrently deleted: retry to decide who won *)
    else if
      t.flit.FI.shared_cas ctx (next_of t cnode) ~expected:cnext
        ~desired:(Ptr.with_mark cnext) ~pflag:t.pflag
    then begin
      (* marked: now try the physical unlink; failure is fine, a later
         find will clean up *)
      ignore
        (t.flit.FI.shared_cas ctx pred_next ~expected:cur
           ~desired:(Ptr.without_mark cnext) ~pflag:t.pflag);
      1
    end
    else remove_loop t ctx k

let remove t ctx k =
  let r = remove_loop t ctx k in
  t.flit.FI.complete_op ctx;
  r

(** [lookup t ctx k] — the unmarked node holding [k], or -1: a
    read-only traversal (never unlinks); a marked match counts as
    absent. *)
let lookup t ctx k =
  let rec walk cur =
    if Ptr.is_marked_null cur then -1
    else
      let cnode = Ptr.loc_of_marked cur in
      let cnext = t.flit.FI.shared_load ctx (next_of t cnode) ~pflag:t.pflag in
      let ck = t.flit.FI.shared_load ctx (key_of cnode) ~pflag:t.pflag in
      if ck < k then walk (Ptr.without_mark cnext)
      else if ck = k && not (Ptr.mark_of cnext) then cnode
      else -1
  in
  let first = t.flit.FI.shared_load ctx t.head_next ~pflag:t.pflag in
  walk (Ptr.without_mark first)

let contains t ctx k =
  let r = if lookup t ctx k < 0 then 0 else 1 in
  t.flit.FI.complete_op ctx;
  r

let dispatch t ctx op args =
  match (op, args) with
  | "add", [ k ] -> add t ctx k
  | "remove", [ k ] -> remove t ctx k
  | "contains", [ k ] -> contains t ctx k
  | _ -> invalid_arg "Listset.dispatch"
