(** Durable read/write register.

    The smallest linearizable object: a single shared location wrapped
    with the transformation — reads are [shared_load]s (which may help
    persist a concurrent writer's value), writes are [shared_store]s.
    This is the object on which the Fig. 5 anomaly manifests with the
    noflush control and is repaired by every durable transformation. *)

module FI = Flit.Flit_intf

type t = {
  flit : FI.instance;
  cell : Fabric.loc;
  pflag : bool;
}

(** [create ctx ~flit ~home ()] — allocate the register on machine
    [home], initial value 0. *)
let create (ctx : Runtime.Sched.ctx) ?(pflag = true) ~flit ~home () =
  { flit; cell = Fabric.alloc ctx.fab ~owner:home; pflag }

(** [root t] — the location to register in a {!Runtime.Rootdir};
    [attach] rebuilds a handle from it after recovery. *)
let root t = t.cell

let attach (_ctx : Runtime.Sched.ctx) ?(pflag = true) ~flit cell =
  { flit; cell; pflag }

let read t ctx =
  let v = t.flit.FI.shared_load ctx t.cell ~pflag:t.pflag in
  t.flit.FI.complete_op ctx;
  v

let write t ctx v =
  t.flit.FI.shared_store ctx t.cell v ~pflag:t.pflag;
  t.flit.FI.complete_op ctx
