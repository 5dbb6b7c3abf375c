(** Seeded, deterministic fault plans — see faults.mli for the model.

    Implementation notes.  The plan never touches the fabric's own RNG:
    it derives a private [Random.State.t] from its seed, so a plan with
    no configured faults (or no plan at all) leaves every other random
    stream untouched — the byte-identity invariant the corpus replay
    gate checks.  Links are symmetric, stored in both orientations of a
    dense per-pair table that a crossing reads without allocating.
    Machine indices are plain ints here (no dependency on the fabric
    record); {!Fabric.create} validates them against its machine count
    via {!max_machine}. *)

type fault =
  | Nack of { from_m : int; to_m : int }
  | Link_timeout of { from_m : int; to_m : int }
  | Poisoned of { loc : int }

let pp_fault ppf = function
  | Nack { from_m; to_m } -> Fmt.pf ppf "nack(M%d->M%d)" from_m to_m
  | Link_timeout { from_m; to_m } ->
      Fmt.pf ppf "link-timeout(M%d->M%d)" from_m to_m
  | Poisoned { loc } -> Fmt.pf ppf "poisoned(x%d)" loc

type retry_policy = { retries : int; backoff_base : int; backoff_max : int }

let default_retry = { retries = 4; backoff_base = 8; backoff_max = 256 }

type link_fault =
  | Degraded of { nack_prob : float; delay_prob : float; delay_cycles : int }
  | Down of { from_cycle : int; until_cycle : int }

let ok = 0
let nack = 1
let timeout = 2
let poison_hit = 3
let delayed = 4

type t = {
  retry : retry_policy;
  nack_cycles : int;
  timeout_cycles : int;
  rng : Random.State.t;  (** private to the plan — never the fabric's *)
  mutable dim : int;  (** 1 + the largest machine a link fault names *)
  mutable links : link_fault option array;  (** [a * dim + b] *)
  poisoned_set : (int, unit) Hashtbl.t;
}

let plan ?(seed = 0) ?(retry = default_retry) ?(nack_cycles = 30)
    ?(timeout_cycles = 1000) () =
  if retry.retries < 0 then invalid_arg "Faults.plan: retries < 0";
  if retry.backoff_base < 0 || retry.backoff_max < retry.backoff_base then
    invalid_arg "Faults.plan: bad backoff";
  if nack_cycles < 0 || timeout_cycles < 0 then
    invalid_arg "Faults.plan: negative fault latency";
  {
    retry;
    nack_cycles;
    timeout_cycles;
    rng = Random.State.make [| seed; 0x7a0157 |];
    dim = 0;
    links = [||];
    poisoned_set = Hashtbl.create 7;
  }

let retry t = t.retry

let check_endpoints name a b =
  if a < 0 || b < 0 then invalid_arg (name ^ ": negative machine index");
  if a = b then invalid_arg (name ^ ": link endpoints equal")

(* NaN fails every comparison, so [not (0 <= p <= 1)] catches it too. *)
let check_prob name p =
  if not (p >= 0.0 && p <= 1.0) then
    invalid_arg (Printf.sprintf "%s: probability %g not in [0,1]" name p)

(* Store [f] in both orientations, growing the table to cover [a] and
   [b]. *)
let set_link t a b f =
  let need = 1 + max a b in
  if need > t.dim then begin
    let links = Array.make (need * need) None in
    for r = 0 to t.dim - 1 do
      Array.blit t.links (r * t.dim) links (r * need) t.dim
    done;
    t.dim <- need;
    t.links <- links
  end;
  t.links.((a * t.dim) + b) <- Some f;
  t.links.((b * t.dim) + a) <- Some f

let link t a b =
  if a >= 0 && b >= 0 && a < t.dim && b < t.dim then
    t.links.((a * t.dim) + b)
  else None

let degrade_link t a b ~nack_prob ~delay_prob ~delay_cycles =
  check_endpoints "Faults.degrade_link" a b;
  check_prob "Faults.degrade_link" nack_prob;
  check_prob "Faults.degrade_link" delay_prob;
  if delay_cycles < 0 then
    invalid_arg "Faults.degrade_link: negative delay_cycles";
  set_link t a b (Degraded { nack_prob; delay_prob; delay_cycles })

let down_link t a b ~from_cycle ~until_cycle =
  check_endpoints "Faults.down_link" a b;
  if from_cycle < 0 || until_cycle <= from_cycle then
    invalid_arg "Faults.down_link: bad cycle window";
  set_link t a b (Down { from_cycle; until_cycle })

let max_machine t = t.dim - 1

let link_faulty t ~cycles a b =
  a <> b
  &&
  match link t a b with
  | None -> false
  | Some (Degraded _) -> true
  | Some (Down { from_cycle; until_cycle }) ->
      from_cycle <= cycles && cycles < until_cycle

let crossing t ~cycles ~from_m ~to_m =
  if from_m = to_m then ok
  else
    match link t from_m to_m with
    | None -> ok
    | Some (Down { from_cycle; until_cycle }) ->
        if from_cycle <= cycles && cycles < until_cycle then timeout else ok
    | Some (Degraded { nack_prob; delay_prob; _ }) ->
        (* two independent draws, always both taken, so the stream does
           not depend on the first outcome *)
        let n = Random.State.float t.rng 1.0 in
        let d = Random.State.float t.rng 1.0 in
        if n < nack_prob then nack else if d < delay_prob then delayed else ok

let delay_cycles t a b =
  match link t a b with
  | Some (Degraded { delay_cycles; _ }) -> delay_cycles
  | _ -> 0

let nack_cycles t = t.nack_cycles
let timeout_cycles t = t.timeout_cycles
let poison t x = Hashtbl.replace t.poisoned_set x ()
let heal t x = Hashtbl.remove t.poisoned_set x
let is_poisoned t x = Hashtbl.mem t.poisoned_set x
