(** Performance measurement in *simulated* cycles (experiments E5/E8/E9).

    Wall-clock time of the simulator measures the simulator, not the
    system; what the paper's performance discussion is about is fabric
    traffic — which primitives each transformation issues and what they
    cost under a CXL-shaped latency model.  [run] executes a crash-free
    concurrent workload (no history recording — workloads here are long)
    and reports simulated cycles per operation plus the primitive mix. *)

type point = {
  transform_name : string;
  kind : Objects.kind;
  read_ratio : float;
  n_machines : int;
  n_threads : int;
  total_ops : int;
  cycles : int;
  cycles_per_op : float;
  stats : Fabric.Stats.t;
}

type config = {
  kind : Objects.kind;
  transform : Flit.Flit_intf.t;
  n_machines : int;       (** total; the last machine hosts the object *)
  threads_per_machine : int;  (** worker threads on each compute machine *)
  ops_per_thread : int;
  read_ratio : float;
  seed : int;
  evict_prob : float;
  cache_capacity : int;
  model : Fabric.Latency.t;
  topology : Fabric.Topology.t option;  (** default: single switch *)
  sync_every : int;
      (** if > 0, workers call the transformation instance's [sync]
          every [n] operations (experiment E11; a no-op for
          non-buffering transformations); 0 = never *)
}

let default_config kind transform =
  {
    kind;
    transform;
    n_machines = 3;
    threads_per_machine = 1;
    ops_per_thread = 300;
    read_ratio = 0.5;
    seed = 1;
    evict_prob = 0.05;
    cache_capacity = 64;
    model = Fabric.Latency.default;
    topology = None;
    sync_every = 0;
  }

let run ?tracer (c : config) : point =
  let home = c.n_machines - 1 in
  let fab =
    Fabric.create ~model:c.model ?topology:c.topology ~seed:c.seed
      ~evict_prob:c.evict_prob ?tracer
      (Array.init c.n_machines (fun i ->
           Fabric.machine ~cache_capacity:c.cache_capacity
             (Fabric.default_name i)))
  in
  let flit = Flit.Flit_intf.instantiate c.transform fab in
  (* sync is a no-op for transformations without buffering (nothing is
     ever dirty), so gating on the instance field preserves behaviour *)
  let sync ctx =
    match flit.Flit.Flit_intf.sync with Some s -> s ctx | None -> ()
  in
  let sched = Runtime.Sched.create ~seed:(c.seed + 17) fab in
  let total_ops = ref 0 in
  ignore
    (Runtime.Sched.spawn sched ~machine:home ~name:"init" (fun ctx ->
         let inst = Objects.create c.kind flit ctx ~home ~pflag:true in
         (* measure steady-state traffic, not object creation — the
            tracer's report gets the same treatment so its histograms
            describe exactly the measured window *)
         Fabric.Stats.reset (Fabric.stats fab);
         (match tracer with
         | None -> ()
         | Some tr -> Obs.Tracer.clear tr);
         for m = 0 to c.n_machines - 2 do
           for t = 0 to c.threads_per_machine - 1 do
             ignore
               (Runtime.Sched.spawn sched ~machine:m
                  ~name:(Printf.sprintf "w%d.%d" m t)
                  (fun ctx ->
                    let rng =
                      Random.State.make [| c.seed; m; t |]
                    in
                    for i = 1 to c.ops_per_thread do
                      let op =
                        Objects.ratio_op c.kind rng ~read_ratio:c.read_ratio
                      in
                      ignore (inst.Objects.apply ctx op);
                      incr total_ops;
                      if c.sync_every > 0 && i mod c.sync_every = 0 then
                        sync ctx
                    done))
           done
         done));
  ignore (Runtime.Sched.run sched);
  let stats = Fabric.Stats.copy (Fabric.stats fab) in
  {
    transform_name = Flit.Flit_intf.name c.transform;
    kind = c.kind;
    read_ratio = c.read_ratio;
    n_machines = c.n_machines;
    n_threads = (c.n_machines - 1) * c.threads_per_machine;
    total_ops = !total_ops;
    cycles = stats.Fabric.Stats.cycles;
    cycles_per_op =
      float_of_int stats.Fabric.Stats.cycles /. float_of_int (max 1 !total_ops);
    stats;
  }

let pp_point ppf p =
  Fmt.pf ppf
    "%-22s %-9s reads=%.0f%% machines=%d threads=%d ops=%d: %8.1f cycles/op"
    p.transform_name
    (Objects.kind_name p.kind)
    (100. *. p.read_ratio) p.n_machines p.n_threads p.total_ops p.cycles_per_op
