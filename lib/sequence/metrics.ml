type kind = Counter | Gauge

(* A counter is a slot in every domain's private cell array; a gauge is one
   shared atomic ([gauge] is unused for counters). *)
type counter = { slot : int; kind : kind; gauge : int Atomic.t }

(* Each domain adds into its own [int array]; [pad] unused words at either
   end keep two domains' cells off a shared cache line. Only the owning
   domain writes a live array's cells (bar [reset]); readers sum them. *)
let pad = 8

type cells = { mutable a : int array }

(* [lock] guards the registry, the slot count, [retired] and [live], and
   every replacement of a [cells.a]. Registration, reads and domain exits
   take it; [hit] and [add] never do. *)
let lock = Mutex.create ()

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let registry : (string * kind * counter) list ref = ref []
let slots = ref 0
let retired = ref [||] (* totals folded in from exited domains, by slot *)
let live : cells list ref = ref []

let fresh_cells () = Array.make (!slots + (2 * pad)) 0

let fold_and_unregister c =
  with_lock (fun () ->
      Array.iteri (fun i v -> !retired.(i) <- !retired.(i) + v) c.a;
      live := List.filter (fun c' -> c' != c) !live)

(* [Domain.at_exit] is per-domain, so each domain registers its own fold in
   the initialiser that creates its cells. *)
let cells_key =
  Domain.DLS.new_key (fun () ->
      let c = with_lock (fun () ->
          let c = { a = fresh_cells () } in
          live := c :: !live;
          c)
      in
      Domain.at_exit (fun () -> fold_and_unregister c);
      c)

(* Slow path: the counter was registered after this domain sized its
   cells. *)
let grow_and_add cells c n =
  with_lock (fun () ->
      let a = fresh_cells () in
      Array.blit cells.a 0 a 0 (Array.length cells.a);
      cells.a <- a);
  cells.a.(c.slot) <- cells.a.(c.slot) + n

let add_cell c n =
  let cells = Domain.DLS.get cells_key in
  let a = cells.a in
  if c.slot < Array.length a then
    Array.unsafe_set a c.slot (Array.unsafe_get a c.slot + n)
  else grow_and_add cells c n

let hit c =
  match c.kind with Counter -> add_cell c 1 | Gauge -> Atomic.incr c.gauge

let add c n =
  if n <> 0 then
    match c.kind with
    | Counter -> add_cell c n
    | Gauge -> ignore (Atomic.fetch_and_add c.gauge n)

let read_locked c =
  match c.kind with
  | Gauge -> Atomic.get c.gauge
  | Counter ->
    List.fold_left
      (fun acc cells ->
        if c.slot < Array.length cells.a then acc + cells.a.(c.slot) else acc)
      !retired.(c.slot) !live

let value c = with_lock (fun () -> read_locked c)

let gauge_only name c =
  if c.kind = Counter then invalid_arg ("Metrics." ^ name ^ ": not a gauge")

let set c v =
  gauge_only "set" c;
  Atomic.set c.gauge v

let observe_max c v =
  gauge_only "observe_max" c;
  let rec loop () =
    let cur = Atomic.get c.gauge in
    if v > cur && not (Atomic.compare_and_set c.gauge cur v) then loop ()
  in
  loop ()

let register name kind =
  with_lock (fun () ->
      if List.exists (fun (n, _, _) -> n = name) !registry then
        invalid_arg (Printf.sprintf "Metrics.register: duplicate name %S" name);
      let slot = !slots + pad in
      incr slots;
      let r = Array.make (!slots + (2 * pad)) 0 in
      Array.blit !retired 0 r 0 (Array.length !retired);
      retired := r;
      let c = { slot; kind; gauge = Atomic.make 0 } in
      registry := (name, kind, c) :: !registry;
      c)

let insgrow_calls = register "insgrow_calls" Counter
let full_insgrow_calls = register "full_insgrow_calls" Counter
let next_calls = register "next_calls" Counter
let cursor_advances = register "cursor_advances" Counter
let cursor_gallops = register "cursor_gallops" Counter
let dfs_nodes = register "dfs_nodes" Counter
let patterns_emitted = register "patterns_emitted" Counter
let lb_prunes = register "lb_prunes" Counter
let closure_bound_checks = register "closure_bound_checks" Counter
let closure_bound_rejects = register "closure_bound_rejects" Counter
let closure_base_grows = register "closure_base_grows" Counter
let closure_full_grows = register "closure_full_grows" Counter
let budget_stops = register "budget_stops" Counter
let checkpoint_writes = register "checkpoint_writes" Counter
let checkpoint_io_retries = register "checkpoint_io_retries" Counter
let checkpoint_io_failures = register "checkpoint_io_failures" Counter
let checkpoint_salvaged_roots = register "checkpoint_salvaged_roots" Counter
let pool_workers = register "pool_workers" Counter
let root_retries = register "root_retries" Counter
let quarantined_roots = register "quarantined_roots" Counter
let trace_dropped_events = register "trace_dropped_events" Counter
let parse_errors_skipped = register "parse_errors_skipped" Counter
let query_targeted_cuts = register "query_targeted_cuts" Counter
let query_floor_prunes = register "query_floor_prunes" Counter
let query_topk_floor = register "query_topk_floor" Gauge
let query_delta_reps = register "query_delta_reps" Gauge
let query_delta_covered = register "query_delta_covered" Counter
let peak_live_words = register "peak_live_words" Gauge
let store_opens = register "store_opens" Counter
let store_open_ns = register "store_open_ns" Counter
let store_mapped_words = register "store_mapped_words" Gauge
let store_resident_words = register "store_resident_words" Counter
let store_crc_checks = register "store_crc_checks" Counter
let store_crc_failures = register "store_crc_failures" Counter
let steal_attempts = register "steal_attempts" Counter
let steal_successes = register "steal_successes" Counter
let shard_merge_ns = register "shard_merge_ns" Counter
let deque_max_depth = register "deque_max_depth" Gauge
let worker_spawns = register "worker_spawns" Counter
let worker_restarts = register "worker_restarts" Counter
let worker_heartbeats_missed = register "worker_heartbeats_missed" Counter
let shard_quarantines = register "shard_quarantines" Counter
let supervisor_degraded = register "supervisor_degraded" Gauge

let sample_live_words () =
  (* force a full major first: without it [Gc.stat]'s [live_words] includes
     whatever floating garbage the last cycle left, which varies with
     allocation rhythm rather than retention and made backend memory
     comparisons meaningless *)
  Gc.full_major ();
  let live = (Gc.stat ()).Gc.live_words in
  observe_max peak_live_words live;
  live

let reset () =
  with_lock (fun () ->
      Array.fill !retired 0 (Array.length !retired) 0;
      List.iter (fun cells -> Array.fill cells.a 0 (Array.length cells.a) 0) !live;
      List.iter (fun (_, _, c) -> Atomic.set c.gauge 0) !registry)

(* --- snapshots --- *)

type snapshot = (string * kind * int) list

let snapshot () =
  with_lock (fun () -> List.map (fun (n, k, c) -> (n, k, read_locked c)) !registry)
  |> List.sort compare

let diff ~before ~after =
  List.map
    (fun (n, k, v) ->
      match k with
      | Gauge -> (n, k, v)
      | Counter ->
        let v0 =
          match List.find_opt (fun (n0, _, _) -> n0 = n) before with
          | Some (_, _, v0) -> v0
          | None -> 0
        in
        (n, k, v - v0))
    after

let to_list s = List.map (fun (n, _, v) -> (n, v)) s

let find s name =
  match List.find_opt (fun (n, _, _) -> n = name) s with
  | Some (_, _, v) -> v
  | None -> 0

let dump () =
  List.filter (fun (_, v) -> v <> 0) (to_list (snapshot ()))

let pp ppf () =
  List.iter (fun (n, v) -> Format.fprintf ppf "%s = %d@." n v) (dump ())

let pp_prometheus ppf s =
  List.iter
    (fun (n, k, v) ->
      Format.fprintf ppf "# TYPE rgs_%s %s@." n
        (match k with Counter -> "counter" | Gauge -> "gauge");
      Format.fprintf ppf "rgs_%s %d@." n v)
    s

let pp_json ppf s =
  Format.fprintf ppf "{";
  List.iteri
    (fun i (n, k, v) ->
      Format.fprintf ppf "%s@\n  %S: {\"kind\": %S, \"value\": %d}"
        (if i = 0 then "" else ",")
        n
        (match k with Counter -> "counter" | Gauge -> "gauge")
        v)
    s;
  Format.fprintf ppf "@\n}@."

let write_stats ~path s =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      let ppf = Format.formatter_of_out_channel oc in
      if Filename.check_suffix path ".json" then pp_json ppf s
      else pp_prometheus ppf s;
      Format.pp_print_flush ppf ())
