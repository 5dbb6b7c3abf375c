(* Shared plumbing for the benchmark: wall-clock and allocation probes,
   medians, the benchmark's own span recorder, metric and digest lines,
   and the correctness gate. *)

let now = Unix.gettimeofday

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* One timed call: wall seconds, the same at the reference host speed
   (see [calibrate]; equal to [seconds] outside [repeat_for]), and minor
   words allocated.  Minor-word counts repeat exactly for a given input
   on one domain. *)
type probe = { seconds : float; ref_seconds : float; words : float }

let probe f =
  let w0 = Gc.minor_words () in
  let t0 = now () in
  let r = f () in
  let t1 = now () in
  let w1 = Gc.minor_words () in
  ({ seconds = t1 -. t0; ref_seconds = t1 -. t0; words = w1 -. w0 }, r)

(* Host speed drifts by up to 2x within minutes on shared hosts.  A
   fixed loop in this file (hash-table probes with allocation, then
   effect round trips like the scheduler's), which no change to the
   repository's libraries can alter, is timed right after every timed
   repetition; scaling the repetition by [reference_s] over the loop's
   time gives its duration at a reference host speed.  On one host the
   scaled times spread several times less than the raw ones. *)
let reference_s = 0.010

type _ Effect.t += Tick : unit Effect.t

let calibration_loop () =
  let h = Hashtbl.create 1024 in
  let acc = ref 0 and l = ref [] in
  for i = 0 to 99_999 do
    let k = i * 7919 land 8191 in
    (match Hashtbl.find_opt h k with
    | Some v -> acc := !acc + v
    | None -> Hashtbl.replace h k i);
    l := (i, k) :: (if i land 255 = 0 then [] else !l)
  done;
  let rec ticks n =
    if n > 0 then begin
      Effect.perform Tick;
      acc := !acc + Array.length (Array.make 4 n);
      ticks (n - 1)
    end
  in
  Effect.Deep.match_with ticks 200_000
    {
      retc = (fun () -> !acc);
      exnc = raise;
      effc =
        (fun (type a) (e : a Effect.t) ->
          match e with
          | Tick ->
              Some
                (fun (k : (a, _) Effect.Deep.continuation) ->
                  Effect.Deep.continue k ())
          | _ -> None);
    }

let calibrations = ref []

let calibrate () =
  let p, _ = probe calibration_loop in
  calibrations := p.seconds :: !calibrations;
  p.seconds

(* How much slower than the reference this host ran the loop, over the
   whole run so far. *)
let host_slowdown () =
  if !calibrations = [] then ignore (calibrate ());
  median !calibrations /. reference_s

(* Set-up is timed many times and reported as the median: once before
   the timed repetitions, once after each of them, and then until
   [min_samples] are taken, so a millisecond-scale phase is sampled
   across the whole run rather than in one burst. *)
type 'a setup = { run : unit -> 'a; mutable times : float list }

let setup run = { run; times = [] }

let sample s =
  let p, r = probe s.run in
  s.times <- p.seconds :: s.times;
  r

(* The median set-up time, in wall seconds and at the reference speed. *)
let setup_seconds ?(min_samples = 9) s =
  while List.length s.times < min_samples do
    ignore (sample s)
  done;
  let wall = median s.times in
  (wall, wall /. host_slowdown ())

(* Call [f] until [seconds] of wall time have passed, at least
   [min_iters] times, with a calibration and then [between] (both
   untimed) after each call; returns every (probe, result) in call
   order. *)
let repeat_for ~seconds ?(min_iters = 3) ?(between = ignore) f =
  let t_end = now () +. seconds in
  let rec go acc i =
    if i >= min_iters && now () >= t_end then List.rev acc
    else begin
      let p, r = probe f in
      let c = calibrate () in
      between ();
      go (({ p with ref_seconds = p.seconds *. reference_s /. c }, r) :: acc)
        (i + 1)
    end
  in
  go [] 0

let median_seconds runs = median (List.map (fun (p, _) -> p.seconds) runs)

let median_ref_seconds runs =
  median (List.map (fun (p, _) -> p.ref_seconds) runs)

let heap_peak_mb () =
  let st = Gc.quick_stat () in
  float_of_int (st.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

let ratio a b = if b = 0.0 then 0.0 else a /. b
let per a n = if n = 0 then 0.0 else a /. float_of_int n

(* ------------------------------------------------------------------ *)
(* The benchmark's own spans                                           *)
(* ------------------------------------------------------------------ *)

(* Spans recorded around calls into each layer from this benchmark's
   code: name, wall start/end and parent.  Kept in memory while the
   traced run executes and written out once at exit. *)
module Trace = struct
  type span = { id : int; parent : int; name : string; t0 : float; t1 : float }

  let enabled = ref false
  let spans = ref []
  let next_id = ref 0
  let stack = ref []

  let with_span name f =
    if not !enabled then f ()
    else begin
      let id = !next_id in
      incr next_id;
      let parent = match !stack with p :: _ -> p | [] -> -1 in
      stack := id :: !stack;
      let t0 = now () in
      Fun.protect
        ~finally:(fun () ->
          stack := List.tl !stack;
          spans := { id; parent; name; t0; t1 = now () } :: !spans)
        f
    end

  (* Self time per span name: duration minus the part of it covered by
     child spans, summed over every span of that name. *)
  let self_times () =
    let child = Hashtbl.create 64 in
    List.iter
      (fun s ->
        if s.parent >= 0 then
          Hashtbl.replace child s.parent
            ((s.t1 -. s.t0)
            +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
      !spans;
    let by_name = Hashtbl.create 32 in
    List.iter
      (fun s ->
        let self =
          s.t1 -. s.t0
          -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id)
        in
        Hashtbl.replace by_name s.name
          (self +. Option.value ~default:0.0 (Hashtbl.find_opt by_name s.name)))
      !spans;
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_name []
    |> List.sort (fun (_, a) (_, b) -> compare b a)

  (* Chrome trace-event JSON, one complete ("X") event per span. *)
  let write file =
    let oc = open_out file in
    let base =
      List.fold_left (fun m s -> Float.min m s.t0) infinity !spans
    in
    output_string oc "{\"traceEvents\":[";
    List.iteri
      (fun i s ->
        Printf.fprintf oc
          "%s\n{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.1f,\
           \"dur\":%.1f,\"args\":{\"id\":%d,\"parent\":%d}}"
          (if i = 0 then "" else ",")
          s.name
          ((s.t0 -. base) *. 1e6)
          ((s.t1 -. s.t0) *. 1e6)
          s.id s.parent)
      (List.rev !spans);
    output_string oc "\n]}\n";
    close_out oc
end

(* ------------------------------------------------------------------ *)
(* Metrics, digests and the correctness gate                           *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; unit_ : string; value : float }

let metrics : metric list ref = ref []

(* Every metric is printed by name with its unit; run.py picks the ones
   BENCHMARK.json names into the result line. *)
let metric ?(note = "") name unit_ value =
  metrics := { name; unit_; value } :: !metrics;
  Printf.printf "metric %-36s %.6g %s%s\n%!" name value unit_
    (if note = "" then "" else "  (" ^ note ^ ")")

let digests : string list ref = ref []

(* A digest line is a simulated output: it must repeat byte for byte for
   a given seed, whatever the host and whatever the host-side speed. *)
let digest line =
  digests := line :: !digests;
  Printf.printf "digest %s\n%!" line

let failures : string list ref = ref []

let check ok what =
  if not ok then begin
    failures := what :: !failures;
    Printf.printf "CHECK FAILED: %s\n%!" what
  end

let info fmt = Printf.ksprintf (fun s -> Printf.printf "%s\n%!" s) fmt
