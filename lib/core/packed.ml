(** Bit-packed CXL0 configurations — the model checker's hot-path
    representation.

    {!Config.t} keeps a configuration as two balanced-tree maps, which is
    the right *reference* representation (canonical, ordered, easy to
    audit) but a poor fit for state-space enumeration: every membership
    test is an O(log n) structural comparison and every τ-step allocates a
    tree path.  This module exploits the single-value coherence invariant
    of §3.3 — all caches holding [x] hold the same value — exactly as the
    executable fabric ({!Fabric}) does: a location's whole state is

    {[ { holders : machine bitmask; cval : Value.t; mem : Value.t } ]}

    packed into a single OCaml [int] (holders in the low [n] bits, then
    the cached value, then the memory value), and a configuration is one
    [int array] indexed by a dense location index.  Equality and hashing
    are a handful of word operations, so a {!Tbl}-backed visited set
    makes τ-closure a plain worklist algorithm.

    The packing is {e sound} because of the coherence invariant: a
    per-machine cache map with at most one distinct value per location
    carries exactly the information (holder set, that value).  Canonical
    form is maintained by construction: [cval = 0] whenever [holders = 0],
    mirroring {!Config}'s absent-binding conventions, so packed equality
    coincides with {!Config.equal} through {!of_config}/{!to_config}.

    Everything is scoped to a {!ctx}: the static system descriptor plus
    the (finite) location domain under exploration.  Values must fit the
    per-field width; anything else raises {!Unrepresentable}, and callers
    (e.g. {!Litmus.decide}) fall back to the reference engine. *)

exception Unrepresentable of string

let unrepresentable fmt = Fmt.kstr (fun s -> raise (Unrepresentable s)) fmt

(* ------------------------------------------------------------------ *)
(* Bitmask helpers (shared with lib/fabric's holder sets)              *)
(* ------------------------------------------------------------------ *)

let bit i = 1 lsl i

(** [iter_bits f mask] applies [f] to the index of every set bit of
    [mask], lowest first. *)
let iter_bits f mask =
  let m = ref mask and i = ref 0 in
  while !m <> 0 do
    if !m land 1 <> 0 then f !i;
    m := !m lsr 1;
    incr i
  done

(* ------------------------------------------------------------------ *)
(* Context: system + location domain + field layout                    *)
(* ------------------------------------------------------------------ *)

type ctx = {
  sys : Machine.system;
  n : int;                        (** machines; holder bits [0, n) *)
  locs : Loc.t array;             (** dense index -> location *)
  owners : int array;             (** owner per dense index *)
  volatile : bool array;          (** per-machine volatility (crash rule) *)
  index : (Loc.t, int) Hashtbl.t; (** location -> dense index *)
  vbits : int;                    (** width of each value field *)
  vmask : int;
  hmask : int;                    (** (1 lsl n) - 1 *)
}

let make sys ~locs =
  let n = Machine.n_machines sys in
  let vbits = min 20 ((Sys.int_size - 1 - n) / 2) in
  if vbits < 1 then unrepresentable "Packed.make: %d machines leave no value bits" n;
  let locs = Array.of_list locs in
  let index = Hashtbl.create (2 * Array.length locs) in
  Array.iteri
    (fun i x ->
      if Hashtbl.mem index x then
        unrepresentable "Packed.make: duplicate location %a" Loc.pp x;
      Hashtbl.add index x i)
    locs;
  {
    sys;
    n;
    locs;
    owners = Array.map Loc.owner locs;
    volatile = Array.init n (Machine.is_volatile sys);
    index;
    vbits;
    vmask = (1 lsl vbits) - 1;
    hmask = (1 lsl n) - 1;
  }

let system ctx = ctx.sys
let n_locs ctx = Array.length ctx.locs
let locs ctx = Array.to_list ctx.locs

let loc_index ctx x =
  match Hashtbl.find_opt ctx.index x with
  | Some i -> i
  | None -> unrepresentable "Packed: location %a outside the context" Loc.pp x

let fits_value ctx v = v >= 0 && v <= ctx.vmask

let check_value ctx v =
  if not (fits_value ctx v) then
    unrepresentable "Packed: value %d outside [0, %d]" v ctx.vmask

(* ------------------------------------------------------------------ *)
(* Per-location word layout                                            *)
(* ------------------------------------------------------------------ *)

let holders ctx w = w land ctx.hmask
let cval ctx w = (w lsr ctx.n) land ctx.vmask
let memv ctx w = (w lsr (ctx.n + ctx.vbits)) land ctx.vmask

let word ctx ~holders ~cval ~mem =
  holders lor (cval lsl ctx.n) lor (mem lsl (ctx.n + ctx.vbits))

(* ------------------------------------------------------------------ *)
(* Configurations                                                      *)
(* ------------------------------------------------------------------ *)

type t = int array
(** one word per location, indexed like [ctx.locs] *)

let init ctx : t = Array.make (n_locs ctx) 0

let equal (a : t) (b : t) =
  a == b
  ||
  let la = Array.length a in
  la = Array.length b
  &&
  let rec go i = i >= la || (Array.unsafe_get a i = Array.unsafe_get b i && go (i + 1)) in
  go 0

let hash (c : t) =
  let h = ref 0x9e3779b9 in
  for i = 0 to Array.length c - 1 do
    h := (!h * 0x01000193) lxor Array.unsafe_get c i
  done;
  !h land max_int

let compare (a : t) (b : t) = Stdlib.compare a b

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

(* ------------------------------------------------------------------ *)
(* Conversion to/from the reference representation                     *)
(* ------------------------------------------------------------------ *)

let of_config ctx (cfg : Config.t) : t =
  (* Refuse configurations mentioning locations outside the context:
     they would alias distinct states. *)
  Config.Cmap.iter (fun (_, x) _ -> ignore (loc_index ctx x)) cfg.Config.cache;
  Config.Mmap.iter (fun x _ -> ignore (loc_index ctx x)) cfg.Config.mem;
  Array.init (n_locs ctx) (fun xi ->
      let x = ctx.locs.(xi) in
      let mem = Config.mem_get cfg x in
      check_value ctx mem;
      let holders = ref 0 and cv = ref 0 in
      for i = 0 to ctx.n - 1 do
        match Config.cache_get cfg i x with
        | None -> ()
        | Some v ->
            check_value ctx v;
            holders := !holders lor bit i;
            cv := v
      done;
      word ctx ~holders:!holders ~cval:!cv ~mem)

let to_config ctx (c : t) : Config.t =
  let cfg = ref Config.init in
  Array.iteri
    (fun xi w ->
      let x = ctx.locs.(xi) in
      let m = memv ctx w in
      if m <> Value.zero then cfg := Config.mem_set !cfg x m;
      let h = holders ctx w in
      if h <> 0 then begin
        let v = cval ctx w in
        iter_bits (fun i -> cfg := Config.cache_set !cfg i x v) h
      end)
    c;
  !cfg

(* ------------------------------------------------------------------ *)
(* Step rules on the packed form (mirror of {!Semantics})              *)
(* ------------------------------------------------------------------ *)

let with_word (c : t) xi w' : t =
  let c' = Array.copy c in
  c'.(xi) <- w';
  c'

let lstore ctx c i xi v =
  check_value ctx v;
  (* issuer's cache takes the value; every other cache invalidates *)
  with_word c xi (word ctx ~holders:(bit i) ~cval:v ~mem:(memv ctx c.(xi)))

let rstore ctx c xi v =
  check_value ctx v;
  let k = ctx.owners.(xi) in
  with_word c xi (word ctx ~holders:(bit k) ~cval:v ~mem:(memv ctx c.(xi)))

let mstore ctx c xi v =
  check_value ctx v;
  with_word c xi (word ctx ~holders:0 ~cval:0 ~mem:v)

(** [load ctx c i xi] is the observed value and successor (loads from a
    cache copy the line into the loader's cache; loads from memory do
    not populate any cache — decision 2 of DESIGN.md). *)
let load ctx c i xi =
  let w = c.(xi) in
  if holders ctx w <> 0 then begin
    let w' = w lor bit i in
    (cval ctx w, if w' = w then c else with_word c xi w')
  end
  else (memv ctx w, c)

let lflush_enabled ctx c i xi = holders ctx c.(xi) land bit i = 0
let rflush_enabled ctx c xi = holders ctx c.(xi) = 0

let crash ctx c i =
  Array.mapi
    (fun xi w ->
      let h = holders ctx w land lnot (bit i) in
      let cv = if h = 0 then 0 else cval ctx w in
      let m =
        if ctx.volatile.(i) && ctx.owners.(xi) = i then 0 else memv ctx w
      in
      word ctx ~holders:h ~cval:cv ~mem:m)
    c

let prop_cache_cache ctx c i xi =
  let k = ctx.owners.(xi) in
  if i = k then None
  else
    let w = c.(xi) in
    let h = holders ctx w in
    if h land bit i = 0 then None
    else
      Some
        (with_word c xi
           (word ctx
              ~holders:(h land lnot (bit i) lor bit k)
              ~cval:(cval ctx w) ~mem:(memv ctx w)))

let prop_cache_mem ctx c xi =
  let w = c.(xi) in
  let h = holders ctx w in
  if h land bit ctx.owners.(xi) = 0 then None
  else Some (with_word c xi (word ctx ~holders:0 ~cval:0 ~mem:(cval ctx w)))

(** [word_taus ctx xi w f] applies [f] to every τ-successor word of
    word [w] at dense location index [xi]: τ-steps touch one location's
    word, so the τ-system is a product of these per-location chains. *)
let word_taus ctx xi w f =
  let h = holders ctx w in
  if h <> 0 then begin
    let k = ctx.owners.(xi) in
    let cv = cval ctx w and m = memv ctx w in
    (* cache->cache: each non-owner holder hands the line to the owner *)
    iter_bits
      (fun i ->
        if i <> k then
          f (word ctx ~holders:(h land lnot (bit i) lor bit k) ~cval:cv ~mem:m))
      h;
    (* cache->mem: the owner writes back, every cache drops the line *)
    if h land bit k <> 0 then f (word ctx ~holders:0 ~cval:0 ~mem:cv)
  end

(** [tau_reaches ctx xi w w'] — the closed form of [w →τ* w'] on the
    chain of location [xi] (owner [k]).  Zero steps reach [w] itself.
    From holders [h ≠ ∅], cache->cache steps hand a non-empty set of
    non-owner holders to [k], reaching every [h'] with [k ∈ h'],
    [h' ⊆ h ∪ {k}] and [h ∖ h' ≠ ∅] with value and memory kept; and
    the owner's write-back (after one hand-off if [k ∉ h]) reaches
    [(∅, 0, cval)].  Nothing else: τ only drains caches toward memory. *)
let tau_reaches ctx xi w w' =
  w = w'
  ||
  let h = holders ctx w in
  h <> 0
  &&
  let h' = holders ctx w' in
  if h' = 0 then w' = word ctx ~holders:0 ~cval:0 ~mem:(cval ctx w)
  else
    let k = bit ctx.owners.(xi) in
    w lxor w' land lnot ctx.hmask = 0
    && h' land k <> 0
    && h' land lnot (h lor k) = 0
    && h land lnot h' <> 0

(** [apply ctx c l] — packed mirror of {!Semantics.apply}: the successor
    under label [l], or [None] when [l] is not enabled. *)
let apply ctx (c : t) (l : Label.t) : t option =
  match l with
  | Label.Store (k, i, x, v) -> (
      let xi = loc_index ctx x in
      match k with
      | Label.L -> Some (lstore ctx c i xi v)
      | Label.R -> Some (rstore ctx c xi v)
      | Label.M -> Some (mstore ctx c xi v))
  | Label.Load (i, x, v) ->
      let v', c' = load ctx c i (loc_index ctx x) in
      if Value.equal v v' then Some c' else None
  | Label.Flush (Label.LF, i, x) ->
      if lflush_enabled ctx c i (loc_index ctx x) then Some c else None
  | Label.Flush (Label.RF, _, x) ->
      if rflush_enabled ctx c (loc_index ctx x) then Some c else None
  | Label.Prop_cache_cache (i, x) -> prop_cache_cache ctx c i (loc_index ctx x)
  | Label.Prop_cache_mem x -> prop_cache_mem ctx c (loc_index ctx x)
  | Label.Crash i -> Some (crash ctx c i)

let pp ctx ppf c = Config.pp ppf (to_config ctx c)
