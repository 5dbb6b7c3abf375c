(** Durable Treiber stack.

    The classic lock-free stack: a [top] pointer CASed onto freshly
    allocated nodes.  Node layout: two adjacent fabric locations,
    [value] at the node's base and [next] at base+1 (allocation of both
    cells happens without a scheduling point, so adjacency is
    guaranteed).

    FliT classification of accesses (§4.3):
    - a new node's [value]/[next] fields are written *before*
      publication, so they are private stores — but flagged, because
      they must be persistent before the publishing CAS persists;
    - [top] and the fields of published nodes are shared. *)

module FI = Flit.Flit_intf

type t = {
  flit : FI.instance;
  top : Fabric.loc;  (** holds an encoded pointer ({!Ptr}) *)
  home : int;  (** machine hosting all of the stack's memory *)
  pflag : bool;
}

let create (ctx : Runtime.Sched.ctx) ?(pflag = true) ~flit ~home () =
  { flit; top = Fabric.alloc ctx.fab ~owner:home; home; pflag }

let root t = t.top

(** Rebuild a handle from a registered root (recovery); the home
    machine is recovered from the root's owner. *)
let attach (ctx : Runtime.Sched.ctx) ?(pflag = true) ~flit top =
  { flit; top; home = Fabric.owner ctx.fab top; pflag }

(* node field accessors *)
let value_of n = n
let next_of n = n + 1

let alloc_node (ctx : Runtime.Sched.ctx) t =
  let v = Fabric.alloc ctx.fab ~owner:t.home in
  let nx = Fabric.alloc ctx.fab ~owner:t.home in
  assert (nx = v + 1);
  v

let push t ctx x =
  let n = alloc_node ctx t in
  t.flit.FI.private_store ctx (value_of n) x ~pflag:t.pflag;
  let rec loop () =
    let old = t.flit.FI.shared_load ctx t.top ~pflag:t.pflag in
    (* The node is still unpublished: linking it is a private store.
       Re-done on every retry since [old] changes. *)
    t.flit.FI.private_store ctx (next_of n) old ~pflag:t.pflag;
    if
      t.flit.FI.shared_cas ctx t.top ~expected:old ~desired:(Ptr.of_loc n)
        ~pflag:t.pflag
    then ()
    else loop ()
  in
  loop ();
  t.flit.FI.complete_op ctx

let pop t ctx =
  let rec loop () =
    let old = t.flit.FI.shared_load ctx t.top ~pflag:t.pflag in
    if Ptr.is_null old then Absent.absent
    else
      let n = Ptr.to_loc old in
      let next = t.flit.FI.shared_load ctx (next_of n) ~pflag:t.pflag in
      if
        t.flit.FI.shared_cas ctx t.top ~expected:old ~desired:next
          ~pflag:t.pflag
      then t.flit.FI.shared_load ctx (value_of n) ~pflag:t.pflag
      else loop ()
  in
  let r = loop () in
  t.flit.FI.complete_op ctx;
  r
