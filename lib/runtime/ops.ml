(** Thread-level CXL0 primitives.

    These are the high-level load/store/flush primitives the paper assumes
    a language binding would expose (§3.5: "a mapping from CXL
    transactions to higher-level languages will be available").  Each
    primitive executes atomically on the fabric and then yields, creating
    a scheduling point between any two primitives — matching the paper's
    in-order, one-instruction-at-a-time presentation.

    When the fabric carries a RAS fault plan, every primitive goes
    through a retry engine: transient link faults (NACKs, completion
    timeouts) are transparently retried with exponential backoff in
    simulated cycles plus jitter drawn from the sched seed's dedicated
    retry stream; only exhausted retries and non-transient faults
    (poison) surface, as the {!Fault} exception.  Under a plan every
    primitive is one loop over its {!Obs.Event.prim} code around
    {!Fabric.attempt}, the fabric's one faultable entry point.  Without
    a plan each primitive is the fabric's un-faultable call plus one
    yield: the instruction stream, charges, and RNG draws are
    byte-identical to the pre-fault runtime. *)

type loc = Fabric.loc

let yield = Sched.yield

exception Fault of Fabric.Faults.fault

let () =
  Printexc.register_printer (function
    | Fault f -> Some (Fmt.str "Ops.Fault(%a)" Fabric.Faults.pp_fault f)
    | _ -> None)

module Faults = Fabric.Faults

(* One primitive, named by its code: a {!Fabric.attempt} per try, under
   the plan's retry policy.  Each attempt — including the last, failed
   one — ends in exactly one yield, so a faulted primitive is still one
   scheduling point per fabric access.  A fault that survives the policy
   (or is not retryable, like poison) raises {!Fault}; its value is
   built only then.  Only reached when a plan is attached: without one,
   every primitive below is the un-faultable fabric call plus one
   yield. *)
let rec issue (ctx : Sched.ctx) prim x a b kind n =
  let fab = ctx.fab in
  let v = Fabric.attempt fab prim ctx.machine x a b kind in
  let o = Fabric.outcome fab in
  if o = Faults.ok then begin
    yield ctx;
    v
  end
  else
    let pol = Faults.retry (Option.get (Fabric.faults fab)) in
    (* NACKs and timeouts are transient; poison is not *)
    if o <> Faults.poison_hit && n < pol.Faults.retries then begin
      let st = Fabric.stats fab in
      st.Fabric.Stats.retries <- st.Fabric.Stats.retries + 1;
      let backoff = min pol.Faults.backoff_max (pol.Faults.backoff_base lsl n) in
      let charged = backoff + Sched.jitter ctx pol.Faults.backoff_base in
      Fabric.charge fab charged;
      (match Fabric.tracer fab with
      | None -> ()
      | Some tr ->
          Sched.note_retry_cycles ctx charged;
          Obs.Tracer.emit tr
            (Obs.Event.Retry
               {
                 machine = ctx.machine;
                 attempt = n;
                 backoff;
                 cycle = Fabric.cycles fab;
               }));
      yield ctx;
      issue ctx prim x a b kind (n + 1)
    end
    else begin
      let f = Fabric.fault fab ctx.machine x in
      yield ctx;
      raise (Fault f)
    end

(** [load ctx x] — coherent load (the model's single [Load]). *)
let load (ctx : Sched.ctx) x =
  match Fabric.faults ctx.fab with
  | None ->
      let v = Fabric.load ctx.fab ctx.machine x in
      yield ctx;
      v
  | Some _ -> issue ctx Load x 0 0 L 0

(** [lstore ctx x v] — LStore: complete once in the local cache. *)
let lstore (ctx : Sched.ctx) x v =
  match Fabric.faults ctx.fab with
  | None -> Fabric.lstore ctx.fab ctx.machine x v; yield ctx
  | Some _ -> ignore (issue ctx Lstore x v 0 L 0)

(** [rstore ctx x v] — RStore: complete once at the owner's cache. *)
let rstore (ctx : Sched.ctx) x v =
  match Fabric.faults ctx.fab with
  | None -> Fabric.rstore ctx.fab ctx.machine x v; yield ctx
  | Some _ -> ignore (issue ctx Rstore x v 0 L 0)

(** [mstore ctx x v] — MStore: complete once in the owner's physical
    memory. *)
let mstore (ctx : Sched.ctx) x v =
  match Fabric.faults ctx.fab with
  | None -> Fabric.mstore ctx.fab ctx.machine x v; yield ctx
  | Some _ -> ignore (issue ctx Mstore x v 0 L 0)

(** [lflush ctx x] — LFlush: write the line back one hierarchy level. *)
let lflush (ctx : Sched.ctx) x =
  match Fabric.faults ctx.fab with
  | None -> Fabric.lflush ctx.fab ctx.machine x; yield ctx
  | Some _ -> ignore (issue ctx Lflush x 0 0 L 0)

(** [rflush ctx x] — RFlush: force the line into the owner's physical
    memory. *)
let rflush (ctx : Sched.ctx) x =
  match Fabric.faults ctx.fab with
  | None -> Fabric.rflush ctx.fab ctx.machine x; yield ctx
  | Some _ -> ignore (issue ctx Rflush x 0 0 L 0)

(** [rflush_all ctx locs] — RFlush every location in order.  Without a
    plan the flushes run back to back and end in a {e single} scheduling
    point (none for an empty list): one multi-line sweep, not N
    primitives.  With a plan each flush is a separate {!rflush}, because
    the retry policy must see every link crossing; a surviving fault
    raises {!Fault}, leaving later locations unflushed. *)
let rflush_all (ctx : Sched.ctx) locs =
  match Fabric.faults ctx.fab with
  | Some _ -> List.iter (rflush ctx) locs
  | None ->
      if locs <> [] then begin
        List.iter (fun x -> Fabric.rflush ctx.fab ctx.machine x) locs;
        yield ctx
      end

(** [store ctx kind x v] — store with dynamic strength. *)
let store ctx (kind : Cxl0.Label.store_kind) x v =
  match kind with
  | L -> lstore ctx x v
  | R -> rstore ctx x v
  | M -> mstore ctx x v

(** [flush ctx kind x] — flush with dynamic strength. *)
let flush ctx (kind : Cxl0.Label.flush_kind) x =
  match kind with LF -> lflush ctx x | RF -> rflush ctx x

(** [faa ctx x d] — atomic fetch-and-add; returns the previous value. *)
let faa (ctx : Sched.ctx) x d =
  match Fabric.faults ctx.fab with
  | None ->
      let v = Fabric.faa ctx.fab ctx.machine x d in
      yield ctx;
      v
  | Some _ -> issue ctx Faa x d 0 L 0

(** [cas ctx x ~expected ~desired ~kind] — atomic compare-and-swap whose
    successful store has strength [kind]. *)
let cas (ctx : Sched.ctx) x ~expected ~desired ~kind =
  match Fabric.faults ctx.fab with
  | None ->
      let ok = Fabric.cas ctx.fab ctx.machine x ~expected ~desired ~kind in
      yield ctx;
      ok
  | Some _ -> issue ctx Cas x expected desired kind 0 = 1

(** [alloc ctx ~owner] — allocate a fresh zero-initialised location on
    machine [owner]. *)
let alloc (ctx : Sched.ctx) ~owner = Fabric.alloc ctx.fab ~owner

(** [alloc_local ctx] — allocate on the calling thread's machine. *)
let alloc_local (ctx : Sched.ctx) = Fabric.alloc ctx.fab ~owner:ctx.machine
