(** The reusable core of every harness run — fabric construction, crash
    plans, RAS fault plans — shared by the closed-loop {!Workload} runner
    and the open-loop serving engine ({!Kv.serve}).  Both runners' configs
    carry these crash and fault specs; the corpus replay gate pins that
    the split preserved every run byte for byte. *)

type crash_spec = {
  at : int;            (** scheduler step of the crash *)
  machine : int;
  restart_at : int;    (** recovery step (clamped to [>= at]) *)
  recovery_threads : int;
  recovery_ops : int;
}

type fault_spec =
  | Degrade_link of {
      m1 : int;
      m2 : int;
      nack_prob : float;
      delay_prob : float;
      delay_cycles : int;
    }
  | Down_link of { m1 : int; m2 : int; from_cycle : int; until_cycle : int }
  | Poison_at of { at : int; loc_seed : int }
      (** poison location [loc_seed mod n_locs] at scheduler step [at] *)
(** A scheduled RAS fault, shrunk/serialised exactly like a
    {!crash_spec}. *)

(** The fabric/crash/fault slice of a run config — what the core can set
    up without knowing anything about the traffic that runs on it. *)
type env = {
  n_machines : int;
  home : int;                (** machine hosting the object's memory *)
  volatile_home : bool;
  crashes : crash_spec list;
  faults : fault_spec list;  (** [] = no fault plan: byte-identical runs *)
  seed : int;
  evict_prob : float;
  cache_capacity : int;
}

val build_fabric : ?tracer:Obs.Tracer.t -> env -> Fabric.t
(** The fabric of a run: [n_machines] machines, [cache_capacity]-line
    caches, the home volatile iff [volatile_home], seeded evictions, and
    iff [faults <> []] a fault plan seeded [seed*31 + 17] with the
    standing link faults configured ([Poison_at] specs fire later, via
    {!install_fault_plan}). *)

val install_crash_plan :
  Runtime.Sched.t -> env ->
  record:(Lincheck.History.event -> unit) ->
  recovery:(ci:int -> crash_spec -> Runtime.Sched.t -> unit) -> unit
(** Register the env's crash plan on a scheduler: each spec crashes its
    machine at [at] (recording the event), restarts it at
    [max restart_at at], then calls [recovery ~ci spec sched] — the
    traffic layer's hook for spawning recovery work. *)

val install_fault_plan : Runtime.Sched.t -> env -> unit
(** Register the env's scheduled fault actions ([Poison_at]); standing
    link faults are already in the fabric's plan ({!build_fabric}). *)
