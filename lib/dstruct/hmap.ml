(** Durable lock-free hash map.

    Fixed-size bucket array; each bucket is a {!Listset.chain}, the
    Harris sorted list whose nodes additionally carry a mutable [value]
    field: [key] at the node base, [value] at base+1, [next] at base+2.
    The list owns the traversals; this module owns the value cell.

    [put] updates the value in place when the key exists (a plain shared
    store — the value field of a published node is raced on by
    readers/writers), otherwise inserts a fresh node.  [del] is
    {!Listset.remove}: mark, then unlink.  Keys must be positive; values
    must be positive (get returns {!Absent.absent} for missing keys). *)

module FI = Flit.Flit_intf

type t = {
  flit : FI.instance;
  chains : Listset.t array;  (** one per bucket *)
  pflag : bool;
}

let key_of n = n
let value_of n = n + 1
let next_of n = n + 2

let make ~flit ~pflag ~home heads =
  { flit; chains = Array.map (Listset.chain ~flit ~pflag ~home) heads; pflag }

let create (ctx : Runtime.Sched.ctx) ?(pflag = true) ?(buckets = 8) ~flit
    ~home () =
  (* bucket head-next cells are consecutive so a handle is
     recoverable from the first one *)
  make ~flit ~pflag ~home
    (Array.of_list (Fabric.alloc_n ctx.fab ~owner:home buckets))

let root t = Listset.root t.chains.(0)

let attach (ctx : Runtime.Sched.ctx) ?(pflag = true) ?(buckets = 8) ~flit base
    =
  make ~flit ~pflag ~home:(Fabric.owner ctx.fab base)
    (Array.init buckets (fun i -> base + i))

let chain t k = t.chains.(k mod Array.length t.chains)

(** [put t ctx k v] — bind [k] to [v] (insert or overwrite); returns 0. *)
let rec put_loop t ctx k v =
  let c = chain t k in
  let pred_next, cur, ck = Listset.find c ctx k in
  if ck = Some k then begin
    (* in-place update of a live node; if the node is concurrently
       deleted, the put linearizes before the delete (they overlap) *)
    let cnode = Ptr.loc_of_marked cur in
    t.flit.FI.shared_store ctx (value_of cnode) v ~pflag:t.pflag
  end
  else begin
    let n = Listset.alloc_node c ctx in
    t.flit.FI.private_store ctx (key_of n) k ~pflag:t.pflag;
    t.flit.FI.private_store ctx (value_of n) v ~pflag:t.pflag;
    t.flit.FI.private_store ctx (next_of n) cur ~pflag:t.pflag;
    if
      not
        (t.flit.FI.shared_cas ctx pred_next ~expected:cur
           ~desired:(Ptr.marked_of_loc n) ~pflag:t.pflag)
    then put_loop t ctx k v
  end

let put t ctx k v =
  put_loop t ctx k v;
  t.flit.FI.complete_op ctx;
  0

(** [get t ctx k] — the bound value, or {!Absent.absent}. *)
let get t ctx k =
  let n = Listset.lookup (chain t k) ctx k in
  let r =
    if n < 0 then Absent.absent
    else t.flit.FI.shared_load ctx (value_of n) ~pflag:t.pflag
  in
  t.flit.FI.complete_op ctx;
  r

(** [del t ctx k] — 1 if [k] was bound (now removed), 0 otherwise. *)
let del t ctx k = Listset.remove (chain t k) ctx k

let dispatch t ctx op args =
  match (op, args) with
  | "put", [ k; v ] -> put t ctx k v
  | "get", [ k ] -> get t ctx k
  | "del", [ k ] -> del t ctx k
  | _ -> invalid_arg "Hmap.dispatch"
