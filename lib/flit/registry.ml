(** Enumeration of the transformations, for tests and benches. *)

let simple : Flit_intf.t = Simple.t
let alg2_mstore : Flit_intf.t = Mstore.t
let alg3_rstore : Flit_intf.t = Rstore.t
let alg3'_weakest : Flit_intf.t = Weakest.t
let weakest_lflush : Flit_intf.t = Weakest_lflush.t
let noflush : Flit_intf.t = Noflush.t

(** The transformations the paper proves durably linearizable under the
    general failure model (§5). *)
let durable : Flit_intf.t list =
  [ simple; alg2_mstore; alg3_rstore; alg3'_weakest ]

(** Everything, including the conditional Prop-2 variant and the broken
    control. *)
let all : Flit_intf.t list = durable @ [ weakest_lflush; noflush ]

(** Beyond the paper's algorithms: the address-adaptive variant (§4.4
    implementation notes), the buffered-durability transformation with
    explicit sync (§7), and the counter-less ablation (E9). *)
let adaptive : Flit_intf.t = Adaptive.t
let buffered : Flit_intf.t = Buffered.t
let naive_flush : Flit_intf.t = Naive_flush.t
let extensions : Flit_intf.t list = [ adaptive; buffered; naive_flush ]

let find name = List.find_opt (fun t -> Flit_intf.name t = name) (all @ extensions)
let names = List.map Flit_intf.name (all @ extensions)

(** Names that stand for several transformations at once. *)
let aliases =
  [ ("flit", durable); ("durable", durable); ("all", all @ extensions);
    ("noflush", [ noflush ]) ]

let resolve names =
  let expand name =
    match List.assoc_opt name aliases with
    | Some ts -> Some ts
    | None -> Option.map (fun t -> [ t ]) (find name)
  in
  let add acc t =
    if List.exists (fun u -> Flit_intf.name u = Flit_intf.name t) acc then acc
    else t :: acc
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | name :: rest -> (
        match expand name with
        | None -> Error name
        | Some ts -> go (List.fold_left add acc ts) rest)
  in
  go [] names
