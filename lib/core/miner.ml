open Rgs_sequence

type mode = All | Closed

type config = {
  min_sup : int;
  mode : mode;
  query : Query.t;
  max_length : int option;
  max_patterns : int option;
  max_gap : int option;
  domains : int option;
  shards : int option;
  shard_dispatch : Shard_merge.dispatch option;
  index_kind : Inverted_index.kind option;
  deadline_s : float option;
  max_nodes : int option;
  max_words : int option;
}

let at_least name bound = function
  | Some n when n < bound ->
    invalid_arg (Printf.sprintf "Miner: %s must be >= %d" name bound)
  | _ -> ()

(* Range checks, plus the combination rules every entry point shares:
   [max_patterns] truncates to a prefix of the DFS order, so it excludes
   a top-k query and needs the sequential path (no [domains]; no
   checkpoint either, checked in [mine_resumable]). *)
let validate_config cfg =
  if cfg.min_sup < 1 then invalid_arg "Miner: min_sup must be >= 1";
  Query.validate cfg.query;
  at_least "max_gap" 0 cfg.max_gap;
  at_least "domains" 1 cfg.domains;
  at_least "shards" 1 cfg.shards;
  (match cfg.deadline_s with
  | Some d when d < 0.0 -> invalid_arg "Miner: deadline_s must be >= 0"
  | _ -> ());
  at_least "max_nodes" 0 cfg.max_nodes;
  at_least "max_words" 1 cfg.max_words;
  (match (cfg.query, cfg.max_patterns) with
  | Query.Top_k _, Some _ ->
    invalid_arg "Miner: max_patterns cannot be combined with a top-k query"
  | _ -> ());
  if cfg.max_patterns <> None && cfg.domains <> None then
    invalid_arg "Miner: domains cannot be combined with max_patterns";
  if cfg.shard_dispatch <> None && cfg.shards = None then
    invalid_arg "Miner: shard_dispatch requires shards"

let config ?(mode = Closed) ?(query = Query.All) ?max_length ?max_patterns
    ?max_gap ?domains ?shards ?shard_dispatch ?steal:(_ : bool option)
    ?index_kind ?deadline_s ?max_nodes ?max_words ~min_sup () =
  let cfg =
    {
      min_sup;
      mode;
      query;
      max_length;
      max_patterns;
      max_gap;
      domains;
      shards;
      shard_dispatch;
      index_kind;
      deadline_s;
      max_nodes;
      max_words;
    }
  in
  validate_config cfg;
  cfg

let build_index cfg db =
  match cfg.index_kind with
  | Some kind -> Inverted_index.build_kind kind db
  | None -> Inverted_index.build db

type report = {
  results : Mined.t list;
  truncated : bool;
  outcome : Budget.outcome;
  elapsed_s : float;
  quarantined : int;
}

let log_src = Logs.Src.create "rgs.miner" ~doc:"Repetitive gapped subsequence mining"

module Log = (val Logs.src_log log_src : Logs.LOG)

let describe cfg =
  String.concat ""
    [
      (match cfg.max_gap with
      | Some g -> Printf.sprintf "gap-constrained (<= %d) " g
      | None -> "");
      (match cfg.mode with All -> "all" | Closed -> "closed");
      (match cfg.query with
      | Query.All -> ""
      | q -> Printf.sprintf ", query=%s" (Query.to_string q));
      (match cfg.domains with Some d -> Printf.sprintf ", %d domains" d | None -> "");
      (match cfg.shards with Some s -> Printf.sprintf ", %d shards" s | None -> "");
      (if cfg.shard_dispatch <> None then " (supervised)" else "");
      (match cfg.max_length with Some l -> Printf.sprintf ", max_length=%d" l | None -> "");
      (match cfg.max_patterns with Some b -> Printf.sprintf ", max_patterns=%d" b | None -> "");
      (match cfg.deadline_s with Some d -> Printf.sprintf ", deadline=%gs" d | None -> "");
      (match cfg.max_nodes with Some n -> Printf.sprintf ", max_nodes=%d" n | None -> "");
      (match cfg.max_words with Some w -> Printf.sprintf ", max_words=%d" w | None -> "");
    ]

(* With signal handlers installed every run needs a budget, even a
   limitless one: [Budget.check] is where the process-global shutdown flag
   is polled, so without it SIGTERM could not stop the DFS gracefully. *)
let budget_of cfg =
  match (cfg.deadline_s, cfg.max_nodes, cfg.max_words) with
  | None, None, None ->
    if Budget.signals_installed () then Some (Budget.create ()) else None
  | deadline_s, max_nodes, max_words ->
    Some (Budget.create ?deadline_s ?max_nodes ?max_words ())

(* The strategy a config's DFS runs under, on either path. *)
let strategy_of cfg =
  match (cfg.max_gap, cfg.mode) with
  | Some max_gap, _ -> Gap_constrained.strategy ~min_gap:0 ~max_gap
  | None, All -> Gsgrow.strategy
  | None, Closed -> Clogsgrow.strategy ~use_lb_check:true ~use_c_check:true

(* Under a top-k query the floor rises fastest when big subtrees are
   explored first, so roots are visited in descending single-event
   support; everything else keeps the index's canonical event order (the
   output order contract). Ties keep that canonical order too. *)
let query_root_order cfg idx events =
  match cfg.query with
  | Query.Top_k _ ->
    Some
      (List.stable_sort
         (fun a b ->
           Int.compare
             (Inverted_index.occurrence_count idx b)
             (Inverted_index.occurrence_count idx a))
         events)
  | Query.All | Query.Targeted _ -> None

(* The sequential path: one engine run under the query's plan, with the
   query's collector as the sink. The reference DFS every differential
   compares against, and the only path that honours [max_patterns]. *)
let mine_sequential ?trace cfg idx ~budget =
  let events = Inverted_index.frequent_events idx ~min_sup:cfg.min_sup in
  let collector =
    Query.collector ?max_length:cfg.max_length ~events ~min_sup:cfg.min_sup
      cfg.query
  in
  let count = ref 0 in
  let emit r =
    collector.Query.offer r;
    incr count;
    match cfg.max_patterns with
    | Some b when !count >= b -> raise Engine.Budget_exhausted
    | _ -> ()
  in
  let strategy =
    Shard_merge.wrap ?dispatch:cfg.shard_dispatch ?shards:cfg.shards ?trace
      (Inverted_index.db idx) (strategy_of cfg)
  in
  let s =
    Engine.run ?max_length:cfg.max_length ~events
      ?roots:(query_root_order cfg idx events) ?budget ?trace
      ~plan:collector.Query.plan strategy idx ~min_sup:cfg.min_sup ~emit
  in
  (collector.Query.results (), s.Engine.outcome)

let finished_report ~start results outcome quarantined =
  let elapsed_s = Unix.gettimeofday () -. start in
  Log.info (fun m ->
      m "found %d pattern(s) (%a) in %.3fs" (List.length results) Budget.pp outcome
        elapsed_s);
  { results; truncated = Budget.is_stop outcome; outcome; elapsed_s; quarantined }

(* The query and the gap bound are appended only when set, so checkpoints
   written before either existed keep their fingerprints; a resumed run
   under a {e different} query or gap is refused (Checkpoint.Corrupt). *)
let checkpoint_fingerprint cfg db =
  Checkpoint.fingerprint
    ~params:
      ([
         (match cfg.mode with All -> "all" | Closed -> "closed");
         string_of_int cfg.min_sup;
         (match cfg.max_length with Some l -> string_of_int l | None -> "-");
       ]
      @ (match cfg.query with
        | Query.All -> []
        | q -> [ "query=" ^ Query.to_string q ])
      @
      match cfg.max_gap with
      | None -> []
      | Some g -> [ "max_gap=" ^ string_of_int g ])
    db

(* The partitioned path: the stealing executor over the frontier roots
   (every frequent root minus those a resumed checkpoint already covers),
   one domain unless [domains] says otherwise. *)
let mine_partitioned ?budget ?checkpoint ?(resume = false)
    ?(retry_quarantined = false) ?(trace = Trace.null) cfg idx =
  let start = Unix.gettimeofday () in
  let events = Inverted_index.frequent_events idx ~min_sup:cfg.min_sup in
  (* hashes the database content, so only a checkpointed run pays it *)
  let fp = lazy (checkpoint_fingerprint cfg (Inverted_index.db idx)) in
  let prior =
    match (resume, checkpoint) with
    | true, Some path ->
      Checkpoint.load_opt ~path ~expected_fingerprint:(Lazy.force fp)
    | _ -> None
  in
  let completed_results : (Event.t, Mined.t list) Hashtbl.t = Hashtbl.create 64 in
  Option.iter
    (fun c ->
      List.iter
        (fun { Checkpoint.root; results } ->
          Hashtbl.replace completed_results root results)
        c.Checkpoint.completed)
    prior;
  (* Quarantined roots stay off the frontier — a poison root must not
     re-crash every resume — unless the caller explicitly asks to re-mine
     them ([retry_quarantined], e.g. after fixing the cause). *)
  let quarantined_skipped : (Event.t, unit) Hashtbl.t = Hashtbl.create 8 in
  (match prior with
  | Some c when not retry_quarantined ->
    List.iter
      (fun (q : Checkpoint.quarantine) ->
        if not (Hashtbl.mem completed_results q.root) then
          Hashtbl.replace quarantined_skipped q.root ())
      c.Checkpoint.quarantined
  | _ -> ());
  let remaining =
    List.filter
      (fun root ->
        (not (Hashtbl.mem completed_results root))
        && not (Hashtbl.mem quarantined_skipped root))
      events
  in
  Log.info (fun m ->
      m "mining %s patterns, min_sup=%d: %d/%d root(s) to mine%s%s" (describe cfg)
        cfg.min_sup (List.length remaining) (List.length events)
        (if prior <> None then " (resumed)" else "")
        (match Hashtbl.length quarantined_skipped with
        | 0 -> ""
        | n -> Printf.sprintf " (%d quarantined root(s) skipped)" n));
  (* An external budget (the daemon's per-job budget) wins over the
     config-derived one: the caller owns its limits and its cancellation. *)
  let budget =
    match budget with Some b -> Some b | None -> budget_of cfg
  in
  let writer =
    Option.map
      (fun path ->
        let initial =
          match prior with Some c -> Checkpoint.records_of c | None -> []
        in
        Checkpoint.Writer.create ~trace ~initial ~path
          ~fingerprint:(Lazy.force fp) ())
      checkpoint
  in
  (* Append one [Root_done] record the moment a root completes — that is
     the durability unit: a kill -9 loses at most the root being appended.
     [logged] feeds the Checkpoint_write span args (completed, remaining). *)
  let total_roots = List.length events in
  let logged = Atomic.make (Hashtbl.length completed_results) in
  let on_root_done =
    Option.map
      (fun w root results ->
        let t0 = Trace.now trace in
        Checkpoint.Writer.append w (Checkpoint.Root_done { root; results });
        let done_now = 1 + Atomic.fetch_and_add logged 1 in
        Trace.span trace Trace.Checkpoint_write ~a0:done_now
          ~a1:(total_roots - done_now) ~start:t0)
      writer
  in
  let shared =
    Query.shared ?max_length:cfg.max_length ~events ~min_sup:cfg.min_sup
      cfg.query
  in
  let statuses, stats =
    Parallel_miner.mine_roots
      ~domains:(Option.value cfg.domains ~default:1)
      ?max_length:cfg.max_length ?budget ~trace ?shards:cfg.shards
      ?shard_dispatch:cfg.shard_dispatch ~shared ~roots:remaining ?on_root_done
      ~strategy:(strategy_of cfg) idx ~min_sup:cfg.min_sup
  in
  (* Finished roots advance the frontier; quarantined roots are recorded
     so the next resume skips them; partial roots stay on the frontier,
     and their patterns reach the report but never the log. *)
  let partials = Hashtbl.create 16 in
  let quarantined_now =
    List.concat
      (List.mapi
         (fun k root ->
           match statuses.(k) with
           | Parallel_miner.Done results ->
             Hashtbl.replace completed_results root results;
             []
           | Parallel_miner.Quarantined { exn; backtrace } ->
             [ { Checkpoint.root; reason = Printexc.to_string exn; backtrace } ]
           | Parallel_miner.Partial results ->
             Hashtbl.replace partials root results;
             [])
         remaining)
  in
  let outcome =
    if Hashtbl.length quarantined_skipped > 0 then
      (* the output is missing the skipped roots' patterns *)
      Budget.combine stats.Engine.outcome Budget.Worker_failed
    else stats.Engine.outcome
  in
  (* Assemble in the full root order, so a resumed run completes to
     exactly the uninterrupted run's output; a top-k answer is re-ranked
     over the union, ties resolved canonically. *)
  let results =
    shared.Query.finalize
      (List.concat_map
         (fun root ->
           match Hashtbl.find_opt completed_results root with
           | Some rs -> rs
           | None -> Option.value (Hashtbl.find_opt partials root) ~default:[])
         events)
  in
  (match writer with
  | None -> ()
  | Some w ->
    List.iter
      (fun q -> Checkpoint.Writer.append w (Checkpoint.Root_quarantined q))
      quarantined_now;
    Checkpoint.Writer.append w (Checkpoint.Run_outcome outcome);
    Checkpoint.Writer.close w);
  finished_report ~start results outcome
    (Hashtbl.length quarantined_skipped + List.length quarantined_now)

let mine_indexed ?trace cfg idx =
  validate_config cfg;
  match cfg.domains with
  | None ->
    Log.info (fun m ->
        m "mining %s patterns, min_sup=%d" (describe cfg) cfg.min_sup);
    let start = Unix.gettimeofday () in
    let results, outcome =
      mine_sequential ?trace cfg idx ~budget:(budget_of cfg)
    in
    finished_report ~start results outcome 0
  | Some _ -> mine_partitioned ?trace cfg idx

let mine ?config:cfg ?min_sup ?trace db =
  let cfg =
    match (cfg, min_sup) with
    | Some c, _ -> c
    | None, Some min_sup -> config ~min_sup ()
    | None, None -> invalid_arg "Miner.mine: provide ~config or ~min_sup"
  in
  let idx = build_index cfg db in
  mine_indexed ?trace cfg idx

let mine_resumable ?budget ?checkpoint ?resume ?retry_quarantined ?trace cfg db
    =
  validate_config cfg;
  if cfg.max_patterns <> None then
    invalid_arg "Miner: checkpointing is not supported with max_patterns";
  if resume = Some true && checkpoint = None then
    invalid_arg "Miner: resume requires a checkpoint path";
  mine_partitioned ?budget ?checkpoint ?resume ?retry_quarantined ?trace cfg
    (build_index cfg db)

let landmarks db p = Sup_comp.landmarks (Inverted_index.build db) p
let support db p = Sup_comp.support (Inverted_index.build db) p

let pp_report ?codec ?(limit = 20) ppf report =
  let pp_one =
    match codec with Some c -> Mined.pp_with c | None -> Mined.pp
  in
  let sorted = List.sort Mined.compare_by_support_desc report.results in
  let total = List.length sorted in
  let suffix =
    match report.outcome with
    | Budget.Completed -> ""
    | Budget.Truncated -> " (truncated)"
    | o -> Printf.sprintf " (partial: %s)" (Budget.to_string o)
  in
  Format.fprintf ppf "@[<v>%d pattern%s%s in %.3fs@," total
    (if total = 1 then "" else "s")
    suffix report.elapsed_s;
  List.iteri
    (fun k r -> if k < limit then Format.fprintf ppf "  %a@," pp_one r)
    sorted;
  if total > limit then Format.fprintf ppf "  ... (%d more)@," (total - limit);
  Format.fprintf ppf "@]"
