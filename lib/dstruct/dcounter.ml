(** Durable fetch-and-increment counter.

    [inc] is a CAS loop (read the current value, publish [v+1] with the
    transformation's CAS protocol); [get] is a shared load.  The CAS loop
    makes the counter a genuinely contended lock-free object, so it
    exercises the transformation's CAS path under retries. *)

module FI = Flit.Flit_intf

type t = {
  flit : FI.instance;
  cell : Fabric.loc;
  pflag : bool;
}

let create (ctx : Runtime.Sched.ctx) ?(pflag = true) ~flit ~home () =
  { flit; cell = Fabric.alloc ctx.fab ~owner:home; pflag }

let root t = t.cell

let attach (_ctx : Runtime.Sched.ctx) ?(pflag = true) ~flit cell =
  { flit; cell; pflag }

(** [inc t ctx] — atomically increment; returns the previous value. *)
let inc t ctx =
  let rec loop () =
    let v = t.flit.FI.shared_load ctx t.cell ~pflag:t.pflag in
    if
      t.flit.FI.shared_cas ctx t.cell ~expected:v ~desired:(v + 1)
        ~pflag:t.pflag
    then v
    else loop ()
  in
  let v = loop () in
  t.flit.FI.complete_op ctx;
  v

let get t ctx =
  let v = t.flit.FI.shared_load ctx t.cell ~pflag:t.pflag in
  t.flit.FI.complete_op ctx;
  v
