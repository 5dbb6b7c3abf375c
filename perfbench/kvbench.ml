(* The kv-read and kv-storm workloads: open-loop serving through
   Harness.Kv.serve, their correctness gate, and the layer ladder that
   drives each workload's exact request streams through more and more of
   the stack. *)

open Common
module K = Harness.Kv
module T = Harness.Traffic
module R = Harness.Runcore

(* ------------------------------------------------------------------ *)
(* Workload definitions                                                *)
(* ------------------------------------------------------------------ *)

(* A workload is one or more independent serving runs ("parts"); one
   repetition serves all of them. *)
type workload = {
  name : string;
  parts : K.serve_config list;
  e2e_traced : bool;
      (* the timed call carries the E19 diagnostic setup: tracer with
         series attached, spans assembled after the run *)
  planned_crashes : int;  (* per part *)
}

(* kv-read: YCSB-b over a small Zipf-hot keyspace, unreplicated, no
   crashes or faults, offered below the knee (this configuration
   saturates near 0.4 requests per kilocycle). *)
let read_config ~seed ~sessions ~ops =
  K.default_serve_config ~transform:Flit.Registry.alg3'_weakest
    ~traffic:
      {
        T.sessions;
        ops_per_session = ops;
        rate = 0.05;
        theta = 0.99;
        keyspace = 256;
        mix = T.mix_of_string "b";
        value_range = 1000;
        seed;
      }

let kv_read ~seed =
  {
    name = "kv-read";
    parts = [ read_config ~seed ~sessions:64 ~ops:200 ];
    e2e_traced = false;
    planned_crashes = 0;
  }

(* The small kv-read stream the traced runs of campaign and prop1 send
   through the ladder, so every traced run reports every layer. *)
let companion ~seed =
  {
    name = "kv-companion";
    parts = [ read_config ~seed ~sessions:16 ~ops:50 ];
    e2e_traced = false;
    planned_crashes = 0;
  }

(* kv-storm: YCSB-a, milder skew, two replicas, transient link faults
   (NACKs the retry engine absorbs, and delays), and crash/restart
   cycles rotating over the machines, spread over the whole run.

   The crash plan is in scheduler steps, so it is placed from an
   estimate: a crash-free run takes about [steps_per_req] steps per
   request, preload included, and crashes are spread over 85% of that.
   Every run reports how many crashes fired while requests were served.

   Rotating crashes sometimes leave a shard with no trusted replica for
   the rest of a run (no-last-resort unavailability), so availability
   varies between seeds.  A short deadline keeps requests to a dead
   shard cheap, and each repetition serves eight independent parts, so
   the host time per offered request stays steady across seeds. *)
let storm_parts = 8
let storm_crashes = 6
let steps_per_req = 245
let outage_steps = 2_000

let storm_config ~seed =
  let traffic =
    {
      T.sessions = 64;
      ops_per_session = 50;
      rate = 0.02;
      theta = 0.6;
      keyspace = 128;
      mix = T.mix_of_string "a";
      value_range = 1000;
      seed;
    }
  in
  let base =
    K.default_serve_config ~transform:Flit.Registry.alg3'_weakest ~traffic
  in
  let span = T.total_ops traffic * steps_per_req * 85 / 100 in
  let crashes =
    List.init storm_crashes (fun i ->
        let at = (((2 * i) + 1) * span / (2 * storm_crashes)) + (seed mod 13) in
        {
          R.at;
          machine = i mod base.K.env.R.n_machines;
          restart_at = at + outage_steps;
          recovery_threads = 0;
          recovery_ops = 0;
        })
  in
  {
    base with
    K.env =
      {
        base.K.env with
        R.crashes;
        faults =
          [
            R.Degrade_link
              {
                m1 = seed mod 2;
                m2 = base.K.env.R.home;
                nack_prob = 0.03;
                delay_prob = 0.1;
                delay_cycles = 40;
              };
          ];
      };
    replicas = 2;
    deadline = 1_000;
  }

let kv_storm ~seed =
  {
    name = "kv-storm";
    parts =
      List.init storm_parts (fun j ->
          storm_config ~seed:((seed * storm_parts) + j));
    e2e_traced = true;
    planned_crashes = storm_crashes;
  }

let total_ops wl =
  List.fold_left (fun a c -> a + T.total_ops c.K.traffic) 0 wl.parts

(* ------------------------------------------------------------------ *)
(* Generated inputs and one serving run                                *)
(* ------------------------------------------------------------------ *)

(* A part's offered schedule, drained once from Traffic.stream during
   set-up: the gate's per-op-type offered counts and the arrival
   stamps. *)
type offered = { total : int; by_op : int array; arrivals : int array }

let offered_of (spec : T.spec) =
  let by_op = [| 0; 0; 0 |] in
  let arr = ref [] in
  Seq.iter
    (fun (rq : T.request) ->
      let i = K.op_index rq.T.op in
      by_op.(i) <- by_op.(i) + 1;
      arr := rq.T.arrival :: !arr)
    (T.stream spec);
  let arrivals = Array.of_list (List.rev !arr) in
  { total = Array.length arrivals; by_op; arrivals }

let series_window = 4_000

let e19_tracer () =
  Obs.Tracer.create ~capacity:(1 lsl 20)
    ~series:(Obs.Series.create ~window:series_window)
    ()

type outcome = {
  r : K.serve_result;
  traced : (Obs.Tracer.t * Obs.Span.t list) option;
}

let serve ~traced c =
  if traced then begin
    let tr = e19_tracer () in
    let r = K.serve ~tracer:tr c in
    { r; traced = Some (tr, Obs.Span.assemble tr) }
  end
  else { r = K.serve c; traced = None }

let served_total (r : K.serve_result) =
  r.K.served.(0) + r.K.served.(1) + r.K.served.(2)

let merge_latency rs =
  let h = Obs.Hist.create () in
  List.iter
    (fun (r : K.serve_result) ->
      Array.iter (fun x -> Obs.Hist.merge ~into:h x) r.K.latencies)
    rs;
  h

(* The untraced part of a run's simulated output. *)
let result_sig (r : K.serve_result) =
  Printf.sprintf
    "served=%d/%d/%d faulted=%d timed_out=%d dropped=%d failovers=%d \
     rejoins=%d cycles=%d read:[%s] update:[%s] insert:[%s] all:[%s] stats=%s"
    r.K.served.(0) r.K.served.(1) r.K.served.(2) r.K.faulted r.K.timed_out
    r.K.dropped r.K.failovers r.K.rejoins r.K.cycles
    (Bench_util.hist_sig r.K.latencies.(0))
    (Bench_util.hist_sig r.K.latencies.(1))
    (Bench_util.hist_sig r.K.latencies.(2))
    (Bench_util.hist_sig (merge_latency [ r ]))
    (Fabric.Stats.to_json r.K.stats)

let outcome_sig o =
  match o.traced with
  | None -> result_sig o.r
  | Some (tr, spans) ->
      Printf.sprintf "%s spans=%s events=%d" (result_sig o.r)
        (Obs.Span.digest spans) (Obs.Tracer.emitted tr)

(* ------------------------------------------------------------------ *)
(* Series totals and the correctness gate                              *)
(* ------------------------------------------------------------------ *)

type totals = {
  dispatches : int;
  acked : int;
  s_timed_out : int;
  s_faulted : int;
  crashes : int;
  crashes_in_serving : int;
  first_dispatch_cycle : int;  (* start of the first window with a dispatch *)
}

let series_totals tr =
  match Obs.Tracer.series tr with
  | None -> invalid_arg "series_totals: no series attached"
  | Some s ->
      let rows = Obs.Series.rows s in
      let sum f = List.fold_left (fun a row -> a + f row) 0 rows in
      let first =
        List.fold_left
          (fun a (row : Obs.Series.row) ->
            if a < 0 && row.dispatches > 0 then row.index else a)
          (-1) rows
      in
      let last =
        List.fold_left
          (fun a (row : Obs.Series.row) ->
            if row.dispatches + row.acked + row.timed_out + row.faulted > 0
            then row.index
            else a)
          (-1) rows
      in
      {
        dispatches = sum (fun r -> r.Obs.Series.dispatches);
        acked = sum (fun r -> r.Obs.Series.acked);
        s_timed_out = sum (fun r -> r.Obs.Series.timed_out);
        s_faulted = sum (fun r -> r.Obs.Series.faulted);
        crashes = sum (fun r -> r.Obs.Series.crashes);
        crashes_in_serving =
          sum (fun r ->
              if r.Obs.Series.index >= first && r.Obs.Series.index <= last then
                r.Obs.Series.crashes
              else 0);
        first_dispatch_cycle = max 0 first * Obs.Series.window s;
      }

type span_counts = {
  n_spans : int;
  sp_acked : int;
  sp_timed_out : int;
  sp_faulted : int;
  component_sums : int array;  (* over complete spans *)
  n_complete : int;
}

let span_counts spans =
  let c = Array.make Obs.Span.n_components 0 in
  let a = ref 0 and t = ref 0 and f = ref 0 in
  List.iter
    (fun s ->
      match Obs.Span.outcome s with
      | Obs.Span.Incomplete -> ()
      | o ->
          (match o with
          | Obs.Span.Acked -> incr a
          | Obs.Span.Timed_out -> incr t
          | _ -> incr f);
          Array.iteri (fun j v -> c.(j) <- c.(j) + v) (Obs.Span.components s))
    spans;
  {
    n_spans = List.length spans;
    sp_acked = !a;
    sp_timed_out = !t;
    sp_faulted = !f;
    component_sums = c;
    n_complete = !a + !t + !f;
  }

(* What the gate of one part found, for the report. *)
type checked = {
  totals : totals;
  spans : span_counts;
  during_preload : int;  (* requests that arrived before serving began *)
  result : K.serve_result;
  sig_ : string;
}

(* The gate of one traced serving run: the engine's counters against the
   online series totals and the span outcomes, request conservation with
   every term counted, and the exact span decomposition. *)
let gate ~name (c : K.serve_config) ~(offered : offered) (o : outcome) =
  let r = o.r in
  let served = served_total r in
  Array.iteri
    (fun i n ->
      check (r.K.served.(i) <= n)
        (Printf.sprintf "%s: op %d served %d > offered %d" name i
           r.K.served.(i) n))
    offered.by_op;
  check
    (Obs.Hist.count (merge_latency [ r ]) = served)
    (name ^ ": latency samples <> served");
  let tr, spans = Option.get o.traced in
  let t = series_totals tr in
  check (t.acked = served)
    (Printf.sprintf "%s: series acked %d <> served %d" name t.acked served);
  check (t.s_timed_out = r.K.timed_out)
    (Printf.sprintf "%s: series timed_out %d <> %d" name t.s_timed_out
       r.K.timed_out);
  check (t.s_faulted = r.K.faulted)
    (Printf.sprintf "%s: series faulted %d <> %d" name t.s_faulted r.K.faulted);
  (* conservation with every term counted: requests never claimed plus
     requests killed in flight by a crash make up [dropped] *)
  let never_claimed = offered.total - t.dispatches in
  let killed = t.dispatches - t.acked - t.s_timed_out - t.s_faulted in
  check
    (never_claimed >= 0 && killed >= 0)
    (Printf.sprintf "%s: %d never claimed, %d killed in flight" name
       never_claimed killed);
  check
    (killed <= t.crashes * c.K.servers_per_machine)
    (Printf.sprintf "%s: %d requests killed in flight by %d crashes" name
       killed t.crashes);
  check
    (never_claimed + killed = r.K.dropped)
    (Printf.sprintf "%s: dropped %d <> never-claimed %d + killed %d" name
       r.K.dropped never_claimed killed);
  let sc = span_counts spans in
  let cmp what got want =
    if Obs.Tracer.dropped tr = 0 then
      check (got = want)
        (Printf.sprintf "%s: %d %s spans <> %d" name got what want)
    else
      check (got <= want)
        (Printf.sprintf "%s: %d %s spans > %d" name got what want)
  in
  cmp "acked" sc.sp_acked served;
  cmp "timed-out" sc.sp_timed_out r.K.timed_out;
  cmp "faulted" sc.sp_faulted r.K.faulted;
  let bad =
    List.filter
      (fun s ->
        Obs.Span.complete s
        && Array.fold_left ( + ) 0 (Obs.Span.components s)
           <> Obs.Span.latency s)
      spans
  in
  check (bad = [])
    (Printf.sprintf "%s: %d spans whose components do not sum to latency" name
       (List.length bad));
  {
    totals = t;
    spans = sc;
    during_preload =
      Array.fold_left
        (fun a arr -> if arr < t.first_dispatch_cycle then a + 1 else a)
        0 offered.arrivals;
    result = r;
    sig_ = outcome_sig o;
  }

(* ------------------------------------------------------------------ *)
(* End-to-end run                                                      *)
(* ------------------------------------------------------------------ *)

let inputs wl () =
  List.map
    (fun c ->
      (match T.validate c.K.traffic with Ok () -> () | Error m -> failwith m);
      ignore
        (T.Zipf.create ~theta:c.K.traffic.T.theta ~n:c.K.traffic.T.keyspace);
      offered_of c.K.traffic)
    wl.parts

let sum f xs = List.fold_left (fun a x -> a + f x) 0 xs

let report_latency (cs : checked list) =
  let h = merge_latency (List.map (fun c -> c.result) cs) in
  let n = Obs.Hist.count h in
  let note = Printf.sprintf "n=%d, bucket maximum" n in
  metric ~note "sim_lat_p50_cycles" "cycles" (float_of_int (Obs.Hist.p50 h));
  metric ~note "sim_lat_p99_cycles" "cycles" (float_of_int (Obs.Hist.p99 h));
  metric
    ~note:(Printf.sprintf "n=%d, exact" n)
    "sim_lat_mean_cycles" "cycles"
    (ratio (float_of_int (Obs.Hist.total h)) (float_of_int n));
  let during_preload = sum (fun c -> c.during_preload) cs in
  metric
    ~note:
      (if during_preload > 0 then
         Printf.sprintf
           "n=%d; includes %d requests that arrived during the keyspace \
            preload, which ended near cycle %s"
           n during_preload
           (String.concat "/"
              (List.map
                 (fun c -> string_of_int c.totals.first_dispatch_cycle)
                 cs))
       else Printf.sprintf "n=%d" n)
    "sim_lat_max_cycles" "cycles"
    (float_of_int (Obs.Hist.max_value h))

let run_e2e wl ~seconds =
  let su = setup (inputs wl) in
  let offered = sample su in
  (* the gate reads one untimed traced run of every part, of which only
     the result and signature are kept.  When the timed call is itself
     traced, that run comes first and warms the heap; otherwise it comes
     after the timed repetitions, so its trace ring stays out of their
     heap peak. *)
  let verify () =
    List.map2
      (fun c off -> gate ~name:wl.name c ~offered:off (serve ~traced:true c))
      wl.parts offered
  in
  let pre = if wl.e2e_traced then Some (verify ()) else None in
  let runs =
    repeat_for ~seconds
      ~between:(fun () -> ignore (sample su))
      (fun () ->
        List.map
          (fun c -> outcome_sig (serve ~traced:wl.e2e_traced c))
          wl.parts)
  in
  let heap_mb = heap_peak_mb () in
  let cs = match pre with Some v -> v | None -> verify () in
  (* every repetition is the same simulated work; an untraced one must
     match the traced run apart from the trace itself *)
  let want =
    List.map
      (fun c -> if wl.e2e_traced then c.sig_ else result_sig c.result)
      cs
  in
  check
    (List.for_all (fun (_, s) -> s = want) runs)
    (wl.name ^ ": simulated output differs between repetitions");
  let total = sum (fun o -> o.total) offered in
  let served = sum (fun c -> served_total c.result) cs in
  info "%s: %d repetitions of %d offered requests in %d part(s), median %.3f s"
    wl.name (List.length runs) total (List.length wl.parts)
    (median_seconds runs);
  metric "ops_per_s" "1/s"
    (float_of_int total /. median_seconds runs)
    ~note:"offered requests per second of wall time";
  metric "ops_per_ref_s" "1/s"
    (float_of_int total /. median_ref_seconds runs)
    ~note:
      (Printf.sprintf "at the reference host speed; the host ran %.2fx slower"
         (host_slowdown ()));
  let setup_wall, setup_ref = setup_seconds su in
  metric "setup_s" "s" setup_ref
    ~note:
      (Printf.sprintf "at the reference host speed; %.6f s of wall time"
         setup_wall);
  metric "heap_peak_mb" "MB" heap_mb;
  metric "fail_ratio" "fraction"
    (ratio (float_of_int (total - served)) (float_of_int total));
  report_latency cs;
  List.iteri
    (fun j c ->
      let r = c.result in
      info
        "%s part %d: served=%d faulted=%d timed_out=%d dropped=%d \
         failovers=%d rejoins=%d crashes=%d (planned %d, %d fired while \
         serving) complete spans=%d"
        wl.name j (served_total r) r.K.faulted r.K.timed_out r.K.dropped
        r.K.failovers r.K.rejoins c.totals.crashes wl.planned_crashes
        c.totals.crashes_in_serving c.spans.n_complete;
      digest
        (Printf.sprintf "%s part=%d seed=%d %s" wl.name j
           (List.nth wl.parts j).K.traffic.T.seed c.sig_);
      digest
        (Printf.sprintf "%s part=%d crashes=%d in_serving=%d \
                         first_dispatch_cycle=%d"
           wl.name j c.totals.crashes c.totals.crashes_in_serving
           c.totals.first_dispatch_cycle))
    cs;
  total

(* ------------------------------------------------------------------ *)
(* The layer ladder                                                    *)
(* ------------------------------------------------------------------ *)

(* A FliT descriptor whose accesses call Fabric directly: the same
   primitives as the noflush control, with no scheduling point. *)
let direct : Flit.Flit_intf.t =
  {
    Flit.Flit_intf.name = "direct-fabric";
    durable = false;
    create =
      Flit.Flit_intf.stateless
        ~private_load:(fun (ctx : Runtime.Sched.ctx) x ->
          Fabric.load ctx.fab ctx.machine x)
        ~private_store:(fun ctx x v ~pflag:_ ->
          Fabric.lstore ctx.fab ctx.machine x v)
        ~shared_load:(fun ctx x ~pflag:_ -> Fabric.load ctx.fab ctx.machine x)
        ~shared_store:(fun ctx x v ~pflag:_ ->
          Fabric.lstore ctx.fab ctx.machine x v)
        ~shared_cas:(fun ctx x ~expected ~desired ~pflag:_ ->
          Fabric.cas ctx.fab ctx.machine x ~expected ~desired
            ~kind:Cxl0.Label.L)
        ~complete_op:(fun _ -> ());
  }

(* One fibre on a part's fabric, running [body].  The crash plan is left
   out: a single fibre has nothing to fail over to. *)
let in_one_fibre (c : K.serve_config) ~flit_t body =
  let env = { c.K.env with R.crashes = [] } in
  let fab = R.build_fabric env in
  let flit = Flit.Flit_intf.instantiate flit_t fab in
  let sched = Runtime.Sched.create ~seed:((env.R.seed * 7919) + 1) fab in
  ignore
    (Runtime.Sched.spawn sched ~machine:env.R.home ~name:"rung" (fun ctx ->
         body ctx flit));
  let steps = Runtime.Sched.run sched in
  (steps, Fabric.cycles fab, Fabric.Stats.to_json (Fabric.stats fab))

let survive f =
  try ignore (f ()) with Runtime.Ops.Fault _ | K.Unavailable -> ()

(* The request stream after the keyspace preload, through [get]/[put]. *)
let drive (c : K.serve_config) ~get ~put =
  for k = 1 to c.K.traffic.T.keyspace do
    survive (fun () -> put k k)
  done;
  Seq.iter
    (fun (rq : T.request) ->
      let k = rq.T.key + 1 in
      match rq.T.op with
      | T.Read -> survive (fun () -> get k)
      | T.Update | T.Insert -> survive (fun () -> put k rq.T.value))
    (T.stream c.K.traffic)

(* Bare Hmaps in the Kv shard layout: shard [i] on machine
   [(home + i) mod n], keys placed by the same multiplicative hash. *)
let hmap_rung ~flit_t (c : K.serve_config) =
  in_one_fibre c ~flit_t (fun ctx flit ->
      let n = c.K.env.R.n_machines in
      let maps =
        Array.init c.K.shards (fun i ->
            Dstruct.Hmap.create ctx ~pflag:c.K.pflag ?buckets:c.K.buckets ~flit
              ~home:((c.K.env.R.home + i) mod n) ())
      in
      let shard k = maps.(k * 2654435761 lsr 11 mod c.K.shards) in
      drive c
        ~get:(fun k -> Dstruct.Hmap.get (shard k) ctx k)
        ~put:(fun k v -> Dstruct.Hmap.put (shard k) ctx k v))

let kv_rung (c : K.serve_config) =
  in_one_fibre c ~flit_t:c.K.transform (fun ctx flit ->
      let kv =
        K.create ctx ~pflag:c.K.pflag ~shards:c.K.shards ?buckets:c.K.buckets
          ~replicas:c.K.replicas ~deadline:c.K.deadline ~flit
          ~home:c.K.env.R.home ()
      in
      drive c
        ~get:(fun k -> K.dispatch kv ctx "get" [ k ])
        ~put:(fun k v -> K.dispatch kv ctx "put" [ k; v ]))

let traffic_rung (c : K.serve_config) =
  let n, s =
    Seq.fold_left
      (fun (n, s) (rq : T.request) -> (n + 1, s + rq.T.arrival + rq.T.key))
      (0, 0) (T.stream c.K.traffic)
  in
  (0, 0, Printf.sprintf "{\"requests\": %d, \"sum\": %d}" n s)

type rung = {
  rname : string;
  p : probe;
  steps : int;  (* scheduler decisions; 0 where the rung does not schedule *)
  cycles : int;
  sim : string;  (* per part: simulated cycles, steps and fabric stats *)
}

let rung_names = [ "traffic"; "fabric"; "sched"; "flit"; "kv"; "serve"; "obs" ]

(* Switches of a traced serve run until its last request completed (a
   crash plan can keep the scheduler stepping after that).  Idle
   switches (a fibre resumed and yielded again without issuing a
   primitive) are counted in the retained ring and scaled to the whole
   run when the ring wrapped. *)
let switch_counts tr =
  let step = ref 0 and at_last_mark = ref 0 in
  let in_ring = ref 0 and idle = ref 0 and prev_switch = ref false in
  Obs.Tracer.iter
    (fun e ->
      match e with
      | Obs.Event.Switch { step = s; _ } ->
          step := s;
          incr in_ring;
          if !prev_switch then incr idle;
          prev_switch := true
      | Obs.Event.Prim _ -> prev_switch := false
      | Obs.Event.Mark _ -> at_last_mark := !step
      | _ -> ())
    tr;
  let idle_scaled =
    if !in_ring = 0 then 0.0
    else
      float_of_int !idle *. float_of_int !at_last_mark /. float_of_int !in_ring
  in
  (!at_last_mark, idle_scaled)

(* What the ladder keeps of one traced serve run: everything it
   reports, without the trace ring. *)
type traced_summary = {
  t_result : K.serve_result;
  switches : int;
  idle : float;
  sc : span_counts;
  counter_ops : int;
  emitted : int;
  dropped : int;
}

let summarize (o : outcome) =
  let tr, spans = Option.get o.traced in
  let switches, idle = switch_counts tr in
  let hc p = Obs.Hist.count (Obs.Report.hist (Obs.Tracer.report tr) p) in
  {
    t_result = o.r;
    switches;
    idle;
    sc = span_counts spans;
    counter_ops = hc Obs.Event.Meta_faa + hc Obs.Event.Meta_read;
    emitted = Obs.Tracer.emitted tr;
    dropped = Obs.Tracer.dropped tr;
  }

(* One pass over every rung, each over every part; returns the rungs,
   the untraced serve results and the traced runs' summaries.  Each
   part's serve is timed alone and reduced (and gated) before the next
   part runs, so one trace ring is alive at a time. *)
let ladder_round wl offered =
  let timed name f =
    probe (fun () -> Trace.with_span name (fun () -> List.map f wl.parts))
  in
  let rung name f =
    let p, xs = timed name f in
    {
      rname = name;
      p;
      steps = sum (fun (s, _, _) -> s) xs;
      cycles = sum (fun (_, c, _) -> c) xs;
      sim =
        String.concat " | "
          (List.map
             (fun (s, c, st) ->
               Printf.sprintf "cycles=%d steps=%d stats=%s" c s st)
             xs);
    }
  in
  let served name traced keep =
    let xs =
      List.map2
        (fun c off ->
          let p, o =
            probe (fun () -> Trace.with_span name (fun () -> serve ~traced c))
          in
          (p, o.r, keep c off o))
        wl.parts offered
    in
    let total f = List.fold_left (fun a (p, _, _) -> a +. f p) 0.0 xs in
    ( {
        rname = name;
        p =
          {
            seconds = total (fun p -> p.seconds);
            ref_seconds = total (fun p -> p.ref_seconds);
            words = total (fun p -> p.words);
          };
        steps = 0;
        cycles = sum (fun (_, r, _) -> r.K.cycles) xs;
        sim =
          String.concat " | "
            (List.map
               (fun (_, r, _) ->
                 Printf.sprintf "cycles=%d stats=%s" r.K.cycles
                   (Fabric.Stats.to_json r.K.stats))
               xs);
      },
      List.map (fun (_, _, k) -> k) xs )
  in
  let rungs =
    [
      rung "traffic" traffic_rung;
      rung "fabric" (hmap_rung ~flit_t:direct);
      rung "sched" (hmap_rung ~flit_t:Flit.Registry.noflush);
      rung "flit" (fun c -> hmap_rung ~flit_t:c.K.transform c);
      rung "kv" kv_rung;
    ]
  in
  let sv_rung, svs = served "serve" false (fun _ _ o -> o.r) in
  let ob_rung, obs =
    served "obs" true (fun c off o ->
        ignore (gate ~name:(wl.name ^ " ladder") c ~offered:off o);
        summarize o)
  in
  (rungs @ [ sv_rung; ob_rung ], svs, obs)

let run_ladder wl ~seconds =
  let offered = List.map (fun c -> offered_of c.K.traffic) wl.parts in
  let n = sum (fun o -> o.total) offered in
  (* rounds repeat until [seconds] have passed; the counts come from
     the first round *)
  let t_end = now () +. seconds in
  let round () =
    Trace.with_span ("ladder " ^ wl.name) (fun () -> ladder_round wl offered)
  in
  let rungs0, svs, obs = round () in
  let rec more acc =
    if now () >= t_end then List.rev acc
    else
      let rungs, _, _ = round () in
      more (rungs :: acc)
  in
  let all = rungs0 :: more [] in
  (* every round is the same simulated work: its output must repeat *)
  List.iter
    (List.iter2
       (fun a b ->
         check
           (a.sim = b.sim && a.steps = b.steps)
           (Printf.sprintf "%s ladder: rung %s differs between rounds" wl.name
              a.rname))
       rungs0)
    all;
  let find name rungs = List.find (fun r -> r.rname = name) rungs in
  let words_repeat =
    List.for_all
      (List.for_all2 (fun a b -> a.p.words = b.p.words) rungs0)
      all
  in
  let med name = median (List.map (fun rs -> (find name rs).p.seconds) all) in
  let ns name = med name *. 1e9 /. float_of_int n in
  let wpr name = (find name rungs0).p.words /. float_of_int n in
  info
    "%s ladder: %d round(s) over %d requests (ns and minor words per \
     request; self = difference from the rung above; minor words %s \
     across rounds)"
    wl.name (List.length all) n
    (if words_repeat then "repeat exactly" else "differ");
  info "  %-8s %12s %12s %10s %10s %12s %10s" "rung" "ns/req" "self"
    "words/req" "self" "sim cycles" "steps";
  let prev = ref (0.0, 0.0) in
  let selfs =
    List.map
      (fun r ->
        let cum_ns = ns r.rname and cum_w = wpr r.rname in
        let self_ns = cum_ns -. fst !prev and self_w = cum_w -. snd !prev in
        prev := (cum_ns, cum_w);
        info "  %-8s %12.1f %12.1f %10.1f %10.1f %12d %10d" r.rname cum_ns
          self_ns cum_w self_w r.cycles r.steps;
        digest (Printf.sprintf "%s ladder %s %s" wl.name r.rname r.sim);
        (r.rname, self_ns, self_w))
      rungs0
  in
  let self name = List.find (fun (n', _, _) -> n' = name) selfs in
  let below_obs = List.filter (fun (nm, _, _) -> nm <> "obs") selfs in
  let dom, dom_ns, _ =
    List.fold_left
      (fun ((_, best, _) as b) ((_, s, _) as x) -> if s > best then x else b)
      ("none", neg_infinity, 0.0) below_obs
  in
  info "  rung differences traffic..serve sum to %.1f ns/req (serve rung %.1f)"
    (List.fold_left (fun a (_, s, _) -> a +. s) 0.0 below_obs)
    (ns "serve");
  info "  largest self time: %s, %.1f of %.1f ns/req (%.0f%%)" dom dom_ns
    (ns "serve")
    (100.0 *. dom_ns /. ns "serve");
  List.iter
    (fun nm ->
      let _, s, w = self nm in
      metric (nm ^ ".ns_per_req") "ns" s;
      metric (nm ^ ".words_per_req") "words" w)
    rung_names;
  (* counts: Fabric.Stats of the untraced serve runs; the event streams
     and spans of the traced ones *)
  let st = Fabric.Stats.create () in
  List.iter
    (fun (r : K.serve_result) -> Fabric.Stats.add ~into:st r.K.stats)
    svs;
  let nf = float_of_int in
  let prims =
    Fabric.Stats.loads st + Fabric.Stats.stores st + Fabric.Stats.flushes st
    + st.Fabric.Stats.faas + st.Fabric.Stats.cass
  in
  metric "fabric.prims_per_req" "count" (per (nf prims) n);
  metric "fabric.load_hit_ratio" "fraction"
    (ratio (nf st.Fabric.Stats.loads_local_cache) (nf (Fabric.Stats.loads st)))
    ~note:"loads served from the issuer's own cache";
  metric "fabric.evictions_per_req" "count"
    (per (nf (Fabric.Stats.evictions st)) n);
  let _, sched_self, _ = self "sched" in
  metric "sched.ns_per_switch" "ns"
    (ratio (sched_self *. nf n) (nf (find "sched" rungs0).steps))
    ~note:"sched-rung self time over its one-fibre switches";
  let dropped = sum (fun t -> t.dropped) obs in
  metric "sched.switches_per_req" "count"
    (per (nf (sum (fun t -> t.switches) obs)) n);
  metric "sched.idle_switches_per_req" "count"
    (per (List.fold_left (fun a t -> a +. t.idle) 0.0 obs) n)
    ~note:(if dropped > 0 then "scaled from the retained ring" else "exact");
  metric "ops.retries_per_req" "count" (per (nf st.Fabric.Stats.retries) n);
  let n_spans = sum (fun t -> t.sc.n_spans) obs in
  let n_complete = sum (fun t -> t.sc.n_complete) obs in
  let comp c' =
    per
      (nf
         (sum
            (fun t -> t.sc.component_sums.(Obs.Span.component_index c'))
            obs))
      n_complete
  in
  metric "ops.retry_cycles_per_req" "cycles" (comp Obs.Span.Retry)
    ~note:(Printf.sprintf "mean over %d complete spans" n_complete);
  metric "flit.flushes_per_req" "count" (per (nf (Fabric.Stats.flushes st)) n);
  metric "flit.counter_ops_per_req" "count"
    (per (nf (sum (fun t -> t.counter_ops) obs)) n);
  metric "kv.replication_cycles_per_req" "cycles" (comp Obs.Span.Replication);
  metric "kv.failover_wait_cycles_per_req" "cycles"
    (comp Obs.Span.Failover_wait);
  metric "kv.failovers" "count"
    (nf (sum (fun (r : K.serve_result) -> r.K.failovers) svs));
  metric "kv.rejoins" "count"
    (nf (sum (fun (r : K.serve_result) -> r.K.rejoins) svs));
  metric "serve.queue_cycles_per_req" "cycles" (comp Obs.Span.Queue);
  metric "serve.service_cycles_per_req" "cycles" (comp Obs.Span.Service);
  metric "obs.overhead_ratio" "ratio"
    (ratio (med "obs") (med "serve"))
    ~note:"traced serve over untraced serve";
  metric "obs.events_per_req" "count"
    (per (nf (sum (fun t -> t.emitted) obs)) n);
  metric "obs.span_coverage" "fraction" (per (nf n_spans) n)
    ~note:
      (Printf.sprintf "%d of %d requests have a span in the ring" n_spans n);
  metric "obs.dropped_events" "count" (nf dropped);
  List.iter2
    (fun t sv ->
      check
        (result_sig t.t_result = result_sig sv)
        (wl.name ^ " ladder: tracing changed the simulated output"))
    obs svs;
  med "serve"
