(** A hand-rolled chunked worker pool over [Domain.spawn] (OCaml 5
    stdlib only — no extra dependencies).

    The model checker's sweeps are embarrassingly parallel over start
    configurations / litmus tests, but each worker wants private mutable
    state (a search context with plain, non-atomic work counters).  So
    the pool hands each domain its own worker state ([init]) and
    dynamically load-balances chunk of indices via an [Atomic] cursor;
    results land in a per-index slot array, so output order is
    deterministic and independent of [jobs] — parallel and sequential
    runs return identical results. *)

let default_jobs () = max 1 (Domain.recommended_domain_count ())

(** [map_chunked ?jobs ?chunk n ~init ~f] is
    [[| f w 0; f w 1; …; f w (n-1) |]] where each worker domain applies
    [f] to its own [w = init ()].  With [jobs <= 1] everything runs in
    the calling domain (no spawn).  [f] must be safe to run concurrently
    against distinct worker states; result order is always index order. *)
let map_chunked ?(jobs = 1) ?(chunk = 0) n ~(init : unit -> 'w)
    ~(f : 'w -> int -> 'a) : 'a array =
  if n < 0 then invalid_arg "Parallel.map_chunked: negative size";
  if n = 0 then [||]
  else if jobs <= 1 || n = 1 then begin
    let w = init () in
    Array.init n (f w)
  end
  else begin
    let jobs = min jobs n in
    let chunk =
      if chunk > 0 then chunk else max 1 (n / (jobs * 8))
    in
    let results = Array.make n None in
    let cursor = Atomic.make 0 in
    let worker () =
      let w = init () in
      let rec loop () =
        let lo = Atomic.fetch_and_add cursor chunk in
        if lo < n then begin
          let hi = min n (lo + chunk) in
          for m = lo to hi - 1 do
            results.(m) <- Some (f w m)
          done;
          loop ()
        end
      in
      loop ()
    in
    let domains = List.init (jobs - 1) (fun _ -> Domain.spawn worker) in
    let main_exn = (try worker (); None with e -> Some e) in
    let helper_exns =
      List.filter_map
        (fun d -> try Domain.join d; None with e -> Some e)
        domains
    in
    (match (main_exn, helper_exns) with
    | Some e, _ | None, e :: _ -> raise e
    | None, [] -> ());
    Array.map Option.get results
  end

(** [map_items ?jobs ?chunk ~init ~f a] — the same pool over arbitrary
    work items instead of ranked config indices: each worker domain
    applies [f] to its own [init ()] state and the items of its chunks.
    Result order is item order, for every [jobs]. *)
let map_items ?jobs ?chunk ~(init : unit -> 'w) ~(f : 'w -> 'a -> 'b)
    (a : 'a array) : 'b array =
  map_chunked ?jobs ?chunk (Array.length a) ~init ~f:(fun w i -> f w a.(i))

(** [map_array ?jobs f a] — parallel [Array.map], order-preserving. *)
let map_array ?jobs f a =
  map_items ?jobs ~init:(fun () -> ()) ~f:(fun () x -> f x) a

(** [map_list ?jobs f l] — parallel [List.map], order-preserving. *)
let map_list ?jobs f l =
  Array.to_list (map_array ?jobs f (Array.of_list l))
