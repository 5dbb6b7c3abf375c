(** Open-loop serving traffic: sessions, arrival schedules, Zipfian
    skew, op mixes.  See the interface for the determinism contract —
    the short version is that every random draw comes from a per-session
    [Random.State] seeded by [(spec.seed, session)], so evaluation order
    cannot change a byte of the schedule. *)

module Zipf = struct
  (* The YCSB generator (Gray et al., "Quickly generating
     billion-record synthetic databases"): draw u ~ U(0,1), compare
     u * zeta(n) against the head-of-distribution masses, else invert
     the tail power law.  All constants precomputed at [create]. *)
  type t = {
    theta : float;
    n : int;
    zetan : float;   (* sum_{i=1..n} 1/i^theta *)
    alpha : float;   (* 1 / (1 - theta) *)
    eta : float;
    half_pow : float; (* 0.5^theta: the rank-1 boundary *)
  }

  let theta t = t.theta
  let n t = t.n

  let zeta ~theta n =
    let s = ref 0.0 in
    for i = 1 to n do
      s := !s +. (1.0 /. Float.pow (float_of_int i) theta)
    done;
    !s

  let create ~theta ~n =
    if n <= 0 then invalid_arg "Traffic.Zipf.create: n must be positive";
    if theta < 0.0 || theta >= 1.0 then
      invalid_arg "Traffic.Zipf.create: theta must be in [0, 1)";
    let zetan = zeta ~theta n in
    let zeta2 = zeta ~theta (min 2 n) in
    let alpha = 1.0 /. (1.0 -. theta) in
    let eta =
      (1.0 -. Float.pow (2.0 /. float_of_int n) (1.0 -. theta))
      /. (1.0 -. (zeta2 /. zetan))
    in
    { theta; n; zetan; alpha; eta; half_pow = Float.pow 0.5 theta }

  let draw t rng =
    if t.n = 1 then 0
    else
      let u = Random.State.float rng 1.0 in
      let uz = u *. t.zetan in
      if uz < 1.0 then 0
      else if uz < 1.0 +. t.half_pow then 1
      else
        let r =
          float_of_int t.n
          *. Float.pow ((t.eta *. u) -. t.eta +. 1.0) t.alpha
        in
        (* clamp: float rounding can land exactly on n *)
        min (t.n - 1) (int_of_float r)
end

type mix = { reads : int; updates : int; inserts : int }

let mix_of_string s =
  let named r u i = { reads = r; updates = u; inserts = i } in
  match String.lowercase_ascii (String.trim s) with
  | "a" -> named 50 50 0
  | "b" -> named 95 5 0
  | "c" -> named 100 0 0
  | "d" -> named 95 0 5
  | s -> (
      match String.split_on_char ':' s with
      | [ r; u; i ] -> (
          match (int_of_string_opt r, int_of_string_opt u, int_of_string_opt i)
          with
          | Some reads, Some updates, Some inserts
            when reads >= 0 && updates >= 0 && inserts >= 0
                 && reads + updates + inserts > 0 ->
              { reads; updates; inserts }
          | _ ->
              invalid_arg
                (Printf.sprintf "Traffic.mix_of_string: bad weights %S" s))
      | _ ->
          invalid_arg
            (Printf.sprintf
               "Traffic.mix_of_string: expected R:U:I or a/b/c/d, got %S" s))

let mix_name m = Printf.sprintf "r%du%di%d" m.reads m.updates m.inserts

type op_type = Read | Update | Insert

type spec = {
  sessions : int;
  ops_per_session : int;
  rate : float;
  theta : float;
  keyspace : int;
  mix : mix;
  value_range : int;
  seed : int;
}

let default_spec =
  {
    sessions = 64;
    ops_per_session = 32;
    rate = 2.0;
    theta = 0.9;
    keyspace = 256;
    mix = { reads = 95; updates = 5; inserts = 0 };
    value_range = 1000;
    seed = 1;
  }

let describe (s : spec) =
  Printf.sprintf
    "sessions=%d ops=%d rate=%.1f theta=%.2f keys=%d mix=%s range=%d seed=%d"
    s.sessions s.ops_per_session s.rate s.theta s.keyspace (mix_name s.mix)
    s.value_range s.seed

type request = {
  session : int;
  seq : int;
  arrival : int;
  op : op_type;
  key : int;
  value : int;
}

let total_ops (s : spec) = s.sessions * s.ops_per_session

(* Mean inter-arrival gap per session, in cycles: [rate] is the
   aggregate offered load per 1000 cycles, spread evenly across
   sessions.  [stream] validated [rate > 0]. *)
let mean_gap (s : spec) =
  float_of_int s.sessions *. 1000.0 /. s.rate

(* Exponential inter-arrival (Poisson session), truncated to a whole
   cycle >= 1 so arrivals strictly advance within a session. *)
let draw_gap rng mean =
  let u = 1.0 -. Random.State.float rng 1.0 (* in (0, 1] *) in
  max 1 (int_of_float (Float.round (-.mean *. log u)))

let compare_request (a : request) (b : request) =
  (* total order: sort stability is irrelevant, so any sort gives the
     same schedule *)
  match compare a.arrival b.arrival with
  | 0 -> (
      match compare a.session b.session with
      | 0 -> compare a.seq b.seq
      | c -> c)
  | c -> c

(** [validate s] — the typed spec validation shared by the generator and
    the CLI: every rejection names its field, and NaNs fail the positive
    checks (comparisons are written to reject them). *)
let validate (s : spec) : (unit, string) result =
  if s.sessions <= 0 then Error "sessions must be positive"
  else if s.ops_per_session <= 0 then Error "ops per session must be positive"
  else if not (s.rate > 0.0) then Error "rate must be positive"
  else if not (s.theta >= 0.0 && s.theta < 1.0) then
    Error "theta must be in [0, 1)"
  else if s.keyspace <= 0 then Error "keyspace must be positive"
  else if s.value_range <= 0 then Error "value range must be positive"
  else if
    s.mix.reads < 0 || s.mix.updates < 0 || s.mix.inserts < 0
    || s.mix.reads + s.mix.updates + s.mix.inserts <= 0
  then Error "mix weights must be non-negative and sum to > 0"
  else Ok ()

(* ------------------------------------------------------------------ *)
(* Streaming generation                                                *)
(* ------------------------------------------------------------------ *)

(* One session's merge cursor: the request it offers next plus the
   frozen generator state that produces its successor.  Cells are
   immutable — stepping a cell *copies* its RNG before drawing — so the
   request sequence built from them is a persistent [Seq.t]: forcing a
   node twice replays the identical draws. *)
type cell = {
  c_rng : Random.State.t;  (** state *before* generating the successor *)
  c_session : int;
  c_clock : int;
  c_inserted : int;
  c_pending : request;     (** what this session offers the merge next *)
}

(* Persistent pairing heap over cells ordered by [compare_request] on
   the pending request — [(arrival, session, seq)] is a total order, so
   the pop sequence equals the sorted order of the materialised
   schedule, element for element. *)
type heap = E | N of cell * heap list

let heap_merge a b =
  match (a, b) with
  | E, h | h, E -> h
  | N (x, xs), N (y, ys) ->
      if compare_request x.c_pending y.c_pending <= 0 then N (x, b :: xs)
      else N (y, a :: ys)

let rec heap_merge_pairs = function
  | [] -> E
  | [ h ] -> h
  | a :: b :: rest -> heap_merge (heap_merge a b) (heap_merge_pairs rest)

(* The per-request draw sequence — gap, op weight, key, value, in that
   order — is the byte-identity contract: it must match the PR-8
   materialising generator draw for draw, which test_traffic pins. *)
let draw_request (s : spec) zipf rng ~session ~seq ~clock ~inserted =
  let clock = clock + draw_gap rng (mean_gap s) in
  let w = Random.State.int rng (s.mix.reads + s.mix.updates + s.mix.inserts) in
  let op =
    if w < s.mix.reads then Read
    else if w < s.mix.reads + s.mix.updates then Update
    else Insert
  in
  let key, inserted =
    match op with
    | Read | Update -> (Zipf.draw zipf rng, inserted)
    | Insert ->
        (* fresh keys live above the preloaded keyspace, in a
           per-session block so streams never collide *)
        (s.keyspace + (session * s.ops_per_session) + inserted, inserted + 1)
  in
  let value =
    match op with
    | Read -> 0
    | Update | Insert -> 1 + Random.State.int rng s.value_range
  in
  ({ session; seq; arrival = clock; op; key; value }, clock, inserted)

let step_cell (s : spec) zipf (c : cell) : cell option =
  let seq = c.c_pending.seq + 1 in
  if seq >= s.ops_per_session then None
  else
    let rng = Random.State.copy c.c_rng in
    let pending, clock, inserted =
      draw_request s zipf rng ~session:c.c_session ~seq ~clock:c.c_clock
        ~inserted:c.c_inserted
    in
    Some
      {
        c_rng = rng;
        c_session = c.c_session;
        c_clock = clock;
        c_inserted = inserted;
        c_pending = pending;
      }

let stream (s : spec) : request Seq.t =
  (match validate s with
  | Ok () -> ()
  | Error m -> invalid_arg ("Traffic.stream: " ^ m));
  let zipf = Zipf.create ~theta:s.theta ~n:s.keyspace in
  let init = ref E in
  for session = s.sessions - 1 downto 0 do
    (* one RNG per session, derived only from (seed, session): the
       stream is independent of every other session and of evaluation
       order *)
    let rng = Random.State.make [| s.seed; session; 0x5e55 |] in
    let pending, clock, inserted =
      draw_request s zipf rng ~session ~seq:0 ~clock:0 ~inserted:0
    in
    init :=
      heap_merge
        (N
           ( { c_rng = rng; c_session = session; c_clock = clock;
               c_inserted = inserted; c_pending = pending },
             [] ))
        !init
  done;
  let rec seq_of = function
    | E -> Seq.empty
    | N (c, hs) ->
        fun () ->
          let rest = heap_merge_pairs hs in
          let rest =
            match step_cell s zipf c with
            | None -> rest
            | Some c' -> heap_merge (N (c', [])) rest
          in
          Seq.Cons (c.c_pending, seq_of rest)
  in
  seq_of !init
