(* The traced run's in-process replay: the work a workload's system binary
   does, driven through each layer's public functions so every layer can
   be timed and counted from the benchmark's side. Store.open_db,
   Inverted_index.build, then Engine.run (or Parallel_miner.mine_steal,
   or the top-k collector plan the daemon's jobs use) on the strategy the
   CLI would pick, then Miner.pp_report of the full answer. Traced, the
   strategy's growth and closure check are wrapped with per-domain
   timers; untraced, the same replay runs bare, which prices the tracing
   itself. *)

open Rgs_sequence
open Rgs_core
module Store = Rgs_store.Store

type mode = All | Closed

type job = {
  corpus : Corpus.t;
  min_sup : int;
  max_length : int option;
  mode : mode;
  top_k : int option;
  steal_domains : int option;  (** mined by the work-stealing executor *)
  print : bool;  (** the user sees Miner.pp_report of the whole answer *)
}

let config job =
  Miner.config
    ~mode:(match job.mode with All -> Miner.All | Closed -> Miner.Closed)
    ?query:(Option.map (fun k -> Query.Top_k k) job.top_k)
    ?max_length:job.max_length ?domains:job.steal_domains
    ~steal:(job.steal_domains <> None) ~min_sup:job.min_sup ()

let strategy job =
  match job.mode with
  | All -> Gsgrow.strategy
  | Closed -> Clogsgrow.strategy ~use_lb_check:true ~use_c_check:true

(* Miner.mine with the mode, query and executor of [job] — the reference
   every answer of the workload is checked against. *)
let reference ~dir job =
  let db, codec = Store.open_db (Corpus.store_path ~dir job.corpus) in
  (db, codec, Miner.mine ~config:(config { job with steal_domains = None }) db)

let mine_results ~strategy job idx =
  match (job.steal_domains, job.top_k) with
  | Some domains, _ ->
    let results, _, _ =
      Parallel_miner.mine_steal ~domains ?max_length:job.max_length
        ?query:(Option.map (fun k -> Query.Top_k k) job.top_k)
        ~strategy idx ~min_sup:job.min_sup
    in
    results
  | None, None ->
    let acc = ref [] in
    ignore
      (Engine.run ?max_length:job.max_length strategy idx ~min_sup:job.min_sup
         ~emit:(fun m -> acc := m :: !acc));
    List.rev !acc
  | None, Some k ->
    (* Miner's top-k path: roots by occurrence count, the query's plan
       pruning inside the DFS, its collector keeping the k best *)
    let events = Inverted_index.frequent_events idx ~min_sup:job.min_sup in
    let collector =
      Query.collector ?max_length:job.max_length ~events ~min_sup:job.min_sup (Query.Top_k k)
    in
    let roots =
      List.stable_sort
        (fun a b ->
          Int.compare (Inverted_index.occurrence_count idx b)
            (Inverted_index.occurrence_count idx a))
        events
    in
    ignore
      (Engine.run ?max_length:job.max_length ~events ~roots ~plan:collector.Query.plan
         strategy idx ~min_sup:job.min_sup ~emit:collector.Query.offer);
    collector.Query.results ()

let report_of results =
  { Miner.results; truncated = false; outcome = Budget.Completed; elapsed_s = 0.;
    quarantined = 0 }

type outcome = {
  answer : Answer.t option;  (** as printed (jobs with [print]) *)
  rows : (int list * int) list;  (** the (pattern, support) rows *)
  wall_s : float;  (** open to printed answer *)
  metrics : (string * float) list;  (** traced replays only *)
  misattributed : (string * float) list;
      (** traced replays only: spans whose self time is negative beyond
          [self_time_tolerance] of the wall, i.e. whose children outran
          them (say, grow and check timers that exceed engine.mine) *)
}

(* Layer self times must add up to the traced wall: the share of it no
   layer span accounts for may not exceed this, nor may any span's self
   time fall below minus this share. *)
let self_time_tolerance = 0.02

let counter_names =
  [ "next_calls"; "cursor_advances"; "cursor_gallops"; "dfs_nodes"; "patterns_emitted";
    "lb_prunes"; "closure_bound_checks"; "closure_bound_rejects"; "closure_full_grows";
    "steal_attempts"; "steal_successes"; "query_floor_prunes" ]

let counters () =
  let snap = Metrics.snapshot () in
  List.map (fun n -> (n, Metrics.find snap n)) counter_names

(* One replay. With [spans] it is traced: the layers become spans under a
   root span of run id [run_id] and the layer metrics are returned. *)
let run ?spans ~run_id ~dir job =
  let path = Corpus.store_path ~dir job.corpus in
  let timers = Spans.timers () in
  let strategy =
    match spans with None -> strategy job | Some _ -> Spans.wrap timers (strategy job)
  in
  let domains = Option.value job.steal_domains ~default:1 in
  let gc0 = Gc.quick_stat () in
  let c0 = counters () in
  let root = Option.map (fun t -> Spans.start t ~run_id "replay") spans in
  let t0 = Probe.now_ns () in
  let span_of ?(width = 1) name f =
    match (spans, root) with
    | Some t, Some parent ->
      let x, s = Spans.within t ~parent ~width ~run_id name f in
      (x, Some s)
    | _ -> (f (), None)
  in
  let (db, codec), _ = span_of "store.open" (fun () -> Store.open_db path) in
  let idx, _ = span_of "inverted_index.build" (fun () -> Inverted_index.build db) in
  let results, mine =
    span_of ~width:domains "engine.mine" (fun () -> mine_results ~strategy job idx)
  in
  if job.print then
    ignore
      (span_of "report.print" (fun () ->
           let b = Buffer.create (1 lsl 16) in
           Format.fprintf (Format.formatter_of_buffer b) "%a@."
             (Miner.pp_report ?codec ~limit:max_int) (report_of results);
           Buffer.length b));
  Option.iter Spans.finish root;
  let wall_s = Probe.seconds_since t0 in
  let c1 = counters () in
  let gc1 = Gc.quick_stat () in
  let answer = if job.print then Answer.of_report ?codec (report_of results) else None in
  let rows = if job.print then [] else Answer.rows_of_report (report_of results) in
  let metrics, misattributed =
    match spans with
    | None -> ([], [])
    | Some t ->
      let d name = float_of_int (List.assoc name c1 - List.assoc name c0) in
      let secs ns = float_of_int ns /. 1e9 in
      let per_domain = float_of_int domains in
      let busy =
        List.map (fun c -> secs (c.Spans.grow_ns + c.Spans.check_ns)) (Spans.cells timers)
      in
      (match mine with Some mine -> Spans.attach_cells timers t ~mine ~run_id | None -> ());
      let selfs = match root with Some r -> Spans.self_times t r | None -> [] in
      let misattributed =
        List.filter (fun (_, s) -> s < -.self_time_tolerance *. wall_s) selfs
      in
      let self name =
        List.fold_left (fun acc (n, s) -> if n = name then acc +. s else acc) 0. selfs
      in
      let parallel = job.steal_domains <> None in
      let mine_s = Option.fold ~none:0. ~some:Spans.seconds mine in
      ( [ ("store.open_s", self "store.open");
          ("inverted_index.build_s", self "inverted_index.build");
          ("inverted_index.next_calls", d "next_calls");
          ("inverted_index.cursor_advances", d "cursor_advances");
          ("inverted_index.cursor_gallops", d "cursor_gallops");
          ("support_set.grow_calls", float_of_int (Spans.sum (fun c -> c.Spans.grow_n) timers));
          ("support_set.grow_s", self "support_set.grow");
          ("closure.check_calls", float_of_int (Spans.sum (fun c -> c.Spans.check_n) timers));
          ("closure.check_s", self "closure.check");
          ("closure.bound_checks", d "closure_bound_checks");
          ("raw.bound_rejects", d "closure_bound_rejects");
          ("closure.full_grows", d "closure_full_grows");
          ("closure.lb_prunes", d "lb_prunes");
          ("engine.dfs_nodes", d "dfs_nodes");
          ("engine.patterns_emitted", d "patterns_emitted");
          ("engine.self_s", self "engine.mine");
          ("parallel_miner.steal_attempts", d "steal_attempts");
          ("parallel_miner.steal_successes", d "steal_successes");
          ("raw.busy_s", if parallel then List.fold_left ( +. ) 0. busy else 0.);
          ( "raw.busy_max_x_domains",
            if parallel then per_domain *. List.fold_left max 0. busy else 0. );
          ("raw.domain_s", if parallel then per_domain *. mine_s else 0.);
          ("report.print_s", self "report.print");
          ("query.floor_prunes", d "query_floor_prunes");
          ( "gc.minor_collections",
            float_of_int (gc1.Gc.minor_collections - gc0.Gc.minor_collections) );
          ( "gc.major_collections",
            float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections) );
          ("gc.top_heap_words", float_of_int gc1.Gc.top_heap_words);
          ( "gc.allocated_words",
            gc1.Gc.minor_words -. gc0.Gc.minor_words +. (gc1.Gc.major_words -. gc0.Gc.major_words)
            -. (gc1.Gc.promoted_words -. gc0.Gc.promoted_words) );
          ("mined.retained_words", float_of_int (Obj.reachable_words (Obj.repr results)));
          ("raw.traced_wall_s", wall_s);
          ("raw.unattributed_s", self "replay") ],
        misattributed )
  in
  { answer; rows; wall_s; metrics; misattributed }

(* --- combining replays into the per-layer metrics --- *)

let ratio a b = if b = 0. then 0. else a /. b

(* Sum the metrics of several replays (the daemon mix replays one job of
   each kind); the heap high-water mark is a maximum, not a sum. *)
let merge a b =
  List.map
    (fun (name, v) ->
      let w = Option.value (List.assoc_opt name b) ~default:0. in
      (name, if name = "gc.top_heap_words" then Float.max v w else v +. w))
    a

(* Ratios, from the summed raw quantities; the raw entries are dropped.
   [self_time_gap] is the share of the traced wall no layer span
   accounts for. *)
let derive m =
  let v name = Option.value (List.assoc_opt name m) ~default:0. in
  List.filter (fun (name, _) -> not (String.starts_with ~prefix:"raw." name)) m
  @ [ ( "inverted_index.advances_per_seek",
        ratio (v "inverted_index.cursor_advances") (v "inverted_index.next_calls") );
      ("closure.bound_reject_ratio", ratio (v "raw.bound_rejects") (v "closure.bound_checks"));
      ( "parallel_miner.steal_success_ratio",
        ratio (v "parallel_miner.steal_successes") (v "parallel_miner.steal_attempts") );
      ("parallel_miner.busy_ratio", ratio (v "raw.busy_s") (v "raw.domain_s"));
      ("parallel_miner.imbalance", ratio (v "raw.busy_max_x_domains") (v "raw.busy_s"));
      ("bench.self_time_gap", ratio (Float.abs (v "raw.unattributed_s")) (v "raw.traced_wall_s")) ]
