(** Sequential specifications of the objects in [lib/dstruct].

    Conventions (shared with the implementations):
    - unit-returning operations return [0];
    - "empty/missing" results are {!Spec.absent} ([-1]);
    - payload values are positive. *)

(** Read/write register: [Write v -> 0], [Read -> current]. *)
module Register : Spec.S = struct
  type state = int

  let name = "register"
  let init = 0

  let step s : Op.t -> _ = function
    | Write v -> Some (0, v)
    | Read -> Some (s, s)
    | _ -> None

  let equal = Int.equal
  let hash = Hashtbl.hash
end

(** Monotonic counter: [Inc -> previous value], [Get -> value]. *)
module Counter : Spec.S = struct
  type state = int

  let name = "counter"
  let init = 0

  let step s : Op.t -> _ = function
    | Inc -> Some (s, s + 1)
    | Get -> Some (s, s)
    | _ -> None

  let equal = Int.equal
  let hash = Hashtbl.hash
end

(** LIFO stack: [Push v -> 0], [Pop -> top | absent]. *)
module Stack : Spec.S = struct
  type state = int list
  (* top first *)

  let name = "stack"
  let init = []

  let step s (op : Op.t) =
    match (op, s) with
    | Push v, _ -> Some (0, v :: s)
    | Pop, [] -> Some (Spec.absent, [])
    | Pop, top :: rest -> Some (top, rest)
    | _ -> None

  let equal = ( = )
  let hash = Hashtbl.hash
end

(** FIFO queue: [Enq v -> 0], [Deq -> head | absent]. *)
module Queue : Spec.S = struct
  type state = int list
  (* head first *)

  let name = "queue"
  let init = []

  let step s (op : Op.t) =
    match (op, s) with
    | Enq v, _ -> Some (0, s @ [ v ])
    | Deq, [] -> Some (Spec.absent, [])
    | Deq, h :: rest -> Some (h, rest)
    | _ -> None

  let equal = ( = )
  let hash = Hashtbl.hash
end

(** Integer set: [Add v]/[Remove v -> 1 if changed else 0],
    [Contains v -> 1/0]. *)
module Set_ : Spec.S = struct
  type state = int list
  (* sorted *)

  let name = "set"
  let init = []

  let mem v s = List.mem v s
  let add v s = List.sort_uniq compare (v :: s)
  let remove v s = List.filter (fun x -> x <> v) s

  let step s : Op.t -> _ = function
    | Add v -> Some ((if mem v s then 0 else 1), add v s)
    | Remove v -> Some ((if mem v s then 1 else 0), remove v s)
    | Contains v -> Some ((if mem v s then 1 else 0), s)
    | _ -> None

  let equal = ( = )
  let hash = Hashtbl.hash
end

(** Key-value map: [Put (k, v) -> 0], [Get_key k -> v | absent],
    [Del k -> 1 if present else 0]. *)
module Map_ : Spec.S = struct
  type state = (int * int) list
  (* sorted by key, unique keys *)

  let name = "map"
  let init = []

  let step s : Op.t -> _ = function
    | Put (k, v) ->
        Some (0, List.sort compare ((k, v) :: List.remove_assoc k s))
    | Get_key k ->
        Some (Option.value ~default:Spec.absent (List.assoc_opt k s), s)
    | Del k ->
        Some ((if List.mem_assoc k s then 1 else 0), List.remove_assoc k s)
    | _ -> None

  let equal = ( = )
  let hash = Hashtbl.hash
end

(** Append-only log: [Append v -> index], [Read_at i -> v | absent],
    [Size -> length]. *)
module Log : Spec.S = struct
  type state = int list
  (* oldest first *)

  let name = "log"
  let init = []

  let step s : Op.t -> _ = function
    | Append v -> Some (List.length s, s @ [ v ])
    | Read_at i ->
        let n = List.length s in
        Some ((if i >= 0 && i < n then List.nth s i else Spec.absent), s)
    | Size -> Some (List.length s, s)
    | _ -> None

  let equal = ( = )
  let hash = Hashtbl.hash
end

let register : Spec.t = (module Register)
let counter : Spec.t = (module Counter)
let stack : Spec.t = (module Stack)
let queue : Spec.t = (module Queue)
let set : Spec.t = (module Set_)
let map : Spec.t = (module Map_)
let log : Spec.t = (module Log)
