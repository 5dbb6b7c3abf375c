(** Durable Michael–Scott queue.

    The classic lock-free FIFO: [head]/[tail] pointers into a linked list
    headed by a dummy node; enqueue links at the tail (helping to swing a
    lagging tail pointer), dequeue advances the head past the dummy.

    Node layout is as in {!Tstack}: [value] at the node base, [next] at
    base+1.  New-node initialisation uses flagged private stores; list
    pointers and node fields after publication are shared accesses. *)

module FI = Flit.Flit_intf

type t = {
  flit : FI.instance;
  head : Fabric.loc;
  tail : Fabric.loc;
  home : int;
  pflag : bool;
}

let value_of n = n
let next_of n = n + 1

let alloc_node (ctx : Runtime.Sched.ctx) ~home =
  let v = Fabric.alloc ctx.fab ~owner:home in
  let nx = Fabric.alloc ctx.fab ~owner:home in
  assert (nx = v + 1);
  v

(* [head] is the root; [tail] is allocated immediately after it, so a
   handle is recoverable from the root alone. *)
let root t = t.head

let attach (ctx : Runtime.Sched.ctx) ?(pflag = true) ~flit head =
  { flit; head; tail = head + 1; home = Fabric.owner ctx.fab head; pflag }

(** [create ctx ~flit ~home ()] — the queue starts as a single dummy
    node pointed to by both [head] and [tail].  The initial linking uses
    flagged private stores: nobody races with creation, but the empty
    queue must be recoverable. *)
let create (ctx : Runtime.Sched.ctx) ?(pflag = true) ~flit ~home () =
  let head = Fabric.alloc ctx.fab ~owner:home in
  let tail = Fabric.alloc ctx.fab ~owner:home in
  let dummy = alloc_node ctx ~home in
  let t = { flit; head; tail; home; pflag } in
  t.flit.FI.private_store ctx (next_of dummy) Ptr.null ~pflag;
  t.flit.FI.private_store ctx head (Ptr.of_loc dummy) ~pflag;
  t.flit.FI.private_store ctx tail (Ptr.of_loc dummy) ~pflag;
  t.flit.FI.complete_op ctx;
  t

let enq t ctx x =
  let n = alloc_node ctx ~home:t.home in
  t.flit.FI.private_store ctx (value_of n) x ~pflag:t.pflag;
  t.flit.FI.private_store ctx (next_of n) Ptr.null ~pflag:t.pflag;
  let rec loop () =
    let tl = t.flit.FI.shared_load ctx t.tail ~pflag:t.pflag in
    let tl_node = Ptr.to_loc tl in
    let nx = t.flit.FI.shared_load ctx (next_of tl_node) ~pflag:t.pflag in
    (* re-check tail to avoid acting on a stale snapshot *)
    if tl = t.flit.FI.shared_load ctx t.tail ~pflag:t.pflag then
      if Ptr.is_null nx then begin
        if
          t.flit.FI.shared_cas ctx (next_of tl_node) ~expected:Ptr.null
            ~desired:(Ptr.of_loc n) ~pflag:t.pflag
        then
          (* linked: swing the tail (failure is fine — someone helped) *)
          ignore
            (t.flit.FI.shared_cas ctx t.tail ~expected:tl
               ~desired:(Ptr.of_loc n) ~pflag:t.pflag)
        else loop ()
      end
      else begin
        (* tail lagging: help swing it, then retry *)
        ignore
          (t.flit.FI.shared_cas ctx t.tail ~expected:tl ~desired:nx
             ~pflag:t.pflag);
        loop ()
      end
    else loop ()
  in
  loop ();
  t.flit.FI.complete_op ctx

let deq t ctx =
  let rec loop () =
    let h = t.flit.FI.shared_load ctx t.head ~pflag:t.pflag in
    let tl = t.flit.FI.shared_load ctx t.tail ~pflag:t.pflag in
    let h_node = Ptr.to_loc h in
    let nx = t.flit.FI.shared_load ctx (next_of h_node) ~pflag:t.pflag in
    if h = t.flit.FI.shared_load ctx t.head ~pflag:t.pflag then
      if h = tl then
        if Ptr.is_null nx then Absent.absent
        else begin
          (* tail lagging behind a completed enqueue: help *)
          ignore
            (t.flit.FI.shared_cas ctx t.tail ~expected:tl ~desired:nx
               ~pflag:t.pflag);
          loop ()
        end
      else
        let nx_node = Ptr.to_loc nx in
        (* read the value before the CAS: after head moves, the node
           could be recycled by a real allocator *)
        let v = t.flit.FI.shared_load ctx (value_of nx_node) ~pflag:t.pflag in
        if
          t.flit.FI.shared_cas ctx t.head ~expected:h ~desired:nx
            ~pflag:t.pflag
        then v
        else loop ()
    else loop ()
  in
  let r = loop () in
  t.flit.FI.complete_op ctx;
  r
