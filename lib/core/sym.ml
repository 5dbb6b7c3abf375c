(** Machine/location symmetries of a packed exploration context.

    The CXL0 step rules (§3.3) treat machines and locations uniformly:
    no rule inspects a machine id or a location beyond equality,
    ownership and the volatility attribute.  Consequently any bijection
    of machines (preserving volatility) together with a compatible
    bijection of locations (preserving ownership through the machine
    map) is an automorphism of the labelled transition system —
    applying the permutation to a configuration and to a label commutes
    with {!Semantics.apply}.  This module materialises that group for a
    fixed {!Packed.ctx} and provides the orbit machinery the {!Props}
    sweep's orbit skipping builds on:

    - {!group}: every non-identity automorphism of the context;
    - {!apply}: the action on packed states (holder masks are remapped
      through a precomputed table, location words are shuffled);
    - {!canon}: the lexicographically least element of a state's orbit,
      its representative ({!is_canonical} tests for it).

    Conventions: the identity is never stored — an empty group array
    means "no usable symmetry" and costs nothing.  Machine counts above
    {!max_machines} yield the empty group (the factorial blow-up is not
    worth chasing; packed domains are small by construction). *)

type perm = {
  mperm : int array;  (** machine [i] ↦ [mperm.(i)] *)
  lperm : int array;  (** dense location index ↦ image index *)
  masks : int array;  (** holder-mask remap table, size [2^n] *)
  hmask : int;        (** [(1 lsl n) - 1], to split packed words *)
}

let max_machines = 7

let is_identity p =
  let id a = Array.for_all Fun.id (Array.mapi (fun i x -> i = x) a) in
  id p.mperm && id p.lperm

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let make_masks mperm =
  let n = Array.length mperm in
  Array.init (1 lsl n) (fun m ->
      let out = ref 0 in
      Packed.iter_bits (fun i -> out := !out lor Packed.bit mperm.(i)) m;
      !out)

let make_perm ~mperm ~lperm =
  {
    mperm;
    lperm;
    masks = make_masks mperm;
    hmask = (1 lsl Array.length mperm) - 1;
  }

(* All permutations of [0, n), as image arrays. *)
let all_perms n =
  let rec go placed rest =
    match rest with
    | [] -> [ List.rev placed ]
    | _ ->
        List.concat_map
          (fun x ->
            go (x :: placed) (List.filter (fun y -> y <> x) rest))
          rest
  in
  List.map Array.of_list (go [] (List.init n Fun.id))

(* All bijections [src -> dst] between two same-length index lists,
   as association lists. *)
let rec bijections src dst =
  match src with
  | [] -> [ [] ]
  | s :: src' ->
      List.concat_map
        (fun d ->
          List.map
            (fun rest -> (s, d) :: rest)
            (bijections src' (List.filter (fun y -> y <> d) dst)))
        dst

(** [group ctx] — every non-identity automorphism of [ctx]: machine
    permutations preserving volatility and per-owner location counts,
    composed with every ownership-compatible location bijection. *)
let group ctx : perm array =
  let sys = Packed.system ctx in
  let n = Machine.n_machines sys in
  if n > max_machines then [||]
  else begin
    let locs = Array.of_list (Packed.locs ctx) in
    let k = Array.length locs in
    (* dense indices owned by each machine *)
    let owned = Array.make n [] in
    Array.iteri
      (fun xi x ->
        let o = Loc.owner x in
        if o < n then owned.(o) <- xi :: owned.(o))
      locs;
    let owned = Array.map List.rev owned in
    let vol i = Machine.is_volatile sys i in
    let ok_mperm mperm =
      let ok = ref true in
      Array.iteri
        (fun i j ->
          if vol i <> vol j then ok := false;
          if List.length owned.(i) <> List.length owned.(j) then ok := false)
        mperm;
      !ok
    in
    let perms =
      List.concat_map
        (fun mperm ->
          if not (ok_mperm mperm) then []
          else
            (* per-owner bijections: locations of [o] map onto locations
               of [mperm.(o)]; take the product over owners *)
            let rec per_owner o acc =
              if o >= n then
                List.map
                  (fun assoc ->
                    let lperm = Array.init k Fun.id in
                    List.iter (fun (s, d) -> lperm.(s) <- d) assoc;
                    make_perm ~mperm ~lperm)
                  acc
              else
                let bs = bijections owned.(o) owned.(mperm.(o)) in
                per_owner (o + 1)
                  (List.concat_map
                     (fun acc1 -> List.map (fun b -> b @ acc1) bs)
                     acc)
            in
            per_owner 0 [ [] ])
        (all_perms n)
    in
    perms
    |> List.filter (fun p -> not (is_identity p))
    |> Array.of_list
  end

(* ------------------------------------------------------------------ *)
(* Action                                                              *)
(* ------------------------------------------------------------------ *)

(** [apply p st] — the permuted packed state: location words move to
    their image index with the holder mask remapped; cached and memory
    values ride along unchanged. *)
let apply p (st : Packed.t) : Packed.t =
  let dst = Array.make (Array.length st) 0 in
  Array.iteri
    (fun xi w ->
      dst.(p.lperm.(xi)) <-
        w land lnot p.hmask lor p.masks.(w land p.hmask))
    st;
  dst

let on_loc locs p xi = locs.(p.lperm.(xi))

(** [on_label ctx p l] — the action on transition labels. *)
let on_label ctx p (l : Label.t) : Label.t =
  let locs = Array.of_list (Packed.locs ctx) in
  let xl x = on_loc locs p (Packed.loc_index ctx x) in
  match l with
  | Label.Store (k, i, x, v) -> Label.Store (k, p.mperm.(i), xl x, v)
  | Label.Load (i, x, v) -> Label.Load (p.mperm.(i), xl x, v)
  | Label.Flush (k, i, x) -> Label.Flush (k, p.mperm.(i), xl x)
  | Label.Prop_cache_cache (i, x) -> Label.Prop_cache_cache (p.mperm.(i), xl x)
  | Label.Prop_cache_mem x -> Label.Prop_cache_mem (xl x)
  | Label.Crash i -> Label.Crash p.mperm.(i)

(* ------------------------------------------------------------------ *)
(* Canonical representatives                                          *)
(* ------------------------------------------------------------------ *)

(** [canon g st] — the lexicographically least element of [st]'s orbit
    under [g] (with the empty group, [st] itself). *)
let canon (g : perm array) (st : Packed.t) : Packed.t =
  if Array.length g = 0 then st
  else begin
    let best = ref st in
    Array.iter
      (fun p ->
        let c = apply p st in
        if Packed.compare c !best < 0 then best := c)
      g;
    !best
  end

(** [is_canonical g st] — is [st] its own orbit representative?  (The
    sweep uses this to skip non-representative start configurations
    without materialising [canon].) *)
let is_canonical (g : perm array) (st : Packed.t) =
  Array.for_all (fun p -> Packed.compare (apply p st) st >= 0) g

let pp ppf p =
  Fmt.pf ppf "@[<h>m:[%a] l:[%a]@]"
    Fmt.(array ~sep:(any " ") int)
    p.mperm
    Fmt.(array ~sep:(any " ") int)
    p.lperm
