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

(* One session's generator: the request it offers the merge next, and
   the state that draws its successor.  The RNG is advanced in place. *)
type session_state = {
  rng : Random.State.t;
  mutable inserted : int;  (** inserts drawn so far *)
  mutable pending : request;
}

(* Replace [st.pending] by its successor in the session.  The
   per-request draw sequence — gap, op weight, key, value, in that order
   — is the byte-identity contract: it must match the PR-8 materialising
   generator draw for draw, which test_traffic pins. *)
let advance (s : spec) zipf st =
  let { session; seq; arrival; _ } = st.pending in
  let rng = st.rng in
  let arrival = arrival + draw_gap rng (mean_gap s) in
  let w = Random.State.int rng (s.mix.reads + s.mix.updates + s.mix.inserts) in
  let op =
    if w < s.mix.reads then Read
    else if w < s.mix.reads + s.mix.updates then Update
    else Insert
  in
  let key =
    match op with
    | Read | Update -> Zipf.draw zipf rng
    | Insert ->
        (* fresh keys live above the preloaded keyspace, in a
           per-session block so streams never collide *)
        st.inserted <- st.inserted + 1;
        s.keyspace + (session * s.ops_per_session) + st.inserted - 1
  in
  let value =
    match op with
    | Read -> 0
    | Update | Insert -> 1 + Random.State.int rng s.value_range
  in
  st.pending <- { session; seq = seq + 1; arrival; op; key; value }

(* A binary min-heap of the sessions that still have requests, ordered
   by their pending request's [(arrival, session, seq)] — a total order,
   so the pop sequence is the sorted order of the materialised schedule,
   element for element. *)
type cursor = {
  spec : spec;
  zipf : Zipf.t;
  heap : session_state array;  (** [0, size) is the heap *)
  mutable size : int;
}

let before a b =
  let ra = a.pending and rb = b.pending in
  ra.arrival < rb.arrival
  || ra.arrival = rb.arrival
     && (ra.session < rb.session
        || (ra.session = rb.session && ra.seq < rb.seq))

let rec sift_down c i =
  let l = (2 * i) + 1 in
  if l < c.size then begin
    let r = l + 1 in
    let m = if r < c.size && before c.heap.(r) c.heap.(l) then r else l in
    if before c.heap.(m) c.heap.(i) then begin
      let x = c.heap.(i) in
      c.heap.(i) <- c.heap.(m);
      c.heap.(m) <- x;
      sift_down c m
    end
  end

let validated entry (s : spec) =
  match validate s with
  | Ok () -> ()
  | Error m -> invalid_arg (entry ^ ": " ^ m)

let cursor (s : spec) : cursor =
  validated "Traffic.cursor" s;
  let zipf = Zipf.create ~theta:s.theta ~n:s.keyspace in
  let heap =
    Array.init s.sessions (fun session ->
        (* one RNG per session, derived only from (seed, session): the
           stream is independent of every other session and of
           evaluation order *)
        let st =
          {
            rng = Random.State.make [| s.seed; session; 0x5e55 |];
            inserted = 0;
            (* the start of the session, before its request 0 *)
            pending =
              { session; seq = -1; arrival = 0; op = Read; key = 0; value = 0 };
          }
        in
        advance s zipf st;
        st)
  in
  let c = { spec = s; zipf; heap; size = s.sessions } in
  for i = (c.size / 2) - 1 downto 0 do
    sift_down c i
  done;
  c

let next c =
  if c.size = 0 then None
  else begin
    let top = c.heap.(0) in
    let r = top.pending in
    if r.seq + 1 < c.spec.ops_per_session then advance c.spec c.zipf top
    else begin
      c.size <- c.size - 1;
      c.heap.(0) <- c.heap.(c.size)
    end;
    sift_down c 0;
    Some r
  end

(* A view over a fresh cursor per traversal from the root. *)
let stream (s : spec) : request Seq.t =
  validated "Traffic.stream" s;
  fun () ->
    let c = cursor s in
    let rec from () =
      match next c with None -> Seq.Nil | Some r -> Seq.Cons (r, from)
    in
    from ()
