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
    (poison) surface, as the {!Fault} exception.  Without a plan each
    primitive is the fabric's un-faultable call plus one yield: the
    instruction stream, charges, and RNG draws are byte-identical to the
    pre-fault runtime. *)

type loc = Fabric.loc

let yield = Sched.yield

exception Fault of Fabric.Faults.fault

let () =
  Printexc.register_printer (function
    | Fault f -> Some (Fmt.str "Ops.Fault(%a)" Fabric.Faults.pp_fault f)
    | _ -> None)

(* One primitive under the plan's retry policy.  Each attempt —
   including the last, failed one — ends in exactly one yield, so a
   faulted primitive is still one scheduling point per fabric access.  A
   fault that survives the policy (or is not retryable, like poison)
   raises {!Fault}.  Only reached when a plan is attached: without one,
   every primitive below is the un-faultable fabric call plus one
   yield. *)
let protect (ctx : Sched.ctx) plan
    (f : unit -> ('a, Fabric.Faults.fault) result) : 'a =
  let pol = Fabric.Faults.retry plan in
  let rec attempt n =
    match f () with
    | Ok v ->
        yield ctx;
        v
    | Error e
      when Fabric.Faults.is_transient e && n < pol.Fabric.Faults.retries ->
        let st = Fabric.stats ctx.fab in
        st.Fabric.Stats.retries <- st.Fabric.Stats.retries + 1;
        let backoff =
          min pol.Fabric.Faults.backoff_max
            (pol.Fabric.Faults.backoff_base lsl n)
        in
        let charged =
          backoff + Sched.jitter ctx pol.Fabric.Faults.backoff_base
        in
        Fabric.charge ctx.fab charged;
        (match Fabric.tracer ctx.fab with
        | None -> ()
        | Some tr ->
            Sched.note_retry_cycles ctx charged;
            Obs.Tracer.emit tr
              (Obs.Event.Retry
                 {
                   machine = ctx.machine;
                   attempt = n;
                   backoff;
                   cycle = Fabric.cycles ctx.fab;
                 }));
        yield ctx;
        attempt (n + 1)
    | Error e ->
        yield ctx;
        raise (Fault e)
  in
  attempt 0

(** [load ctx x] — coherent load (the model's single [Load]). *)
let load (ctx : Sched.ctx) x =
  match Fabric.faults ctx.fab with
  | None ->
      let v = Fabric.load ctx.fab ctx.machine x in
      yield ctx;
      v
  | Some plan ->
      protect ctx plan (fun () -> Fabric.load_result ctx.fab ctx.machine x)

(** [lstore ctx x v] — LStore: complete once in the local cache. *)
let lstore (ctx : Sched.ctx) x v =
  match Fabric.faults ctx.fab with
  | None ->
      Fabric.lstore ctx.fab ctx.machine x v;
      yield ctx
  | Some plan ->
      protect ctx plan (fun () -> Fabric.lstore_result ctx.fab ctx.machine x v)

(** [rstore ctx x v] — RStore: complete once at the owner's cache. *)
let rstore (ctx : Sched.ctx) x v =
  match Fabric.faults ctx.fab with
  | None ->
      Fabric.rstore ctx.fab ctx.machine x v;
      yield ctx
  | Some plan ->
      protect ctx plan (fun () -> Fabric.rstore_result ctx.fab ctx.machine x v)

(** [mstore ctx x v] — MStore: complete once in the owner's physical
    memory. *)
let mstore (ctx : Sched.ctx) x v =
  match Fabric.faults ctx.fab with
  | None ->
      Fabric.mstore ctx.fab ctx.machine x v;
      yield ctx
  | Some plan ->
      protect ctx plan (fun () -> Fabric.mstore_result ctx.fab ctx.machine x v)

(** [lflush ctx x] — LFlush: write the line back one hierarchy level. *)
let lflush (ctx : Sched.ctx) x =
  match Fabric.faults ctx.fab with
  | None ->
      Fabric.lflush ctx.fab ctx.machine x;
      yield ctx
  | Some plan ->
      protect ctx plan (fun () -> Fabric.lflush_result ctx.fab ctx.machine x)

(** [rflush ctx x] — RFlush: force the line into the owner's physical
    memory. *)
let rflush (ctx : Sched.ctx) x =
  match Fabric.faults ctx.fab with
  | None ->
      Fabric.rflush ctx.fab ctx.machine x;
      yield ctx
  | Some plan ->
      protect ctx plan (fun () -> Fabric.rflush_result ctx.fab ctx.machine x)

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
  | Some plan ->
      protect ctx plan (fun () -> Fabric.faa_result ctx.fab ctx.machine x d)

(** [cas ctx x ~expected ~desired ~kind] — atomic compare-and-swap whose
    successful store has strength [kind]. *)
let cas (ctx : Sched.ctx) x ~expected ~desired ~kind =
  match Fabric.faults ctx.fab with
  | None ->
      let ok = Fabric.cas ctx.fab ctx.machine x ~expected ~desired ~kind in
      yield ctx;
      ok
  | Some plan ->
      protect ctx plan (fun () ->
          Fabric.cas_result ctx.fab ctx.machine x ~expected ~desired ~kind)

(** [alloc ctx ~owner] — allocate a fresh zero-initialised location on
    machine [owner]. *)
let alloc (ctx : Sched.ctx) ~owner = Fabric.alloc ctx.fab ~owner

(** [alloc_local ctx] — allocate on the calling thread's machine. *)
let alloc_local (ctx : Sched.ctx) = Fabric.alloc ctx.fab ~owner:ctx.machine
