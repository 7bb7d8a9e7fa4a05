open Rgs_sequence

let default_domains () = max 1 (min (Domain.recommended_domain_count ()) 8)
let auto_shards () = max 1 (Domain.recommended_domain_count ())

type root_status =
  | Done of Mined.t list
  | Partial of Mined.t list
  | Quarantined of { exn : exn; backtrace : string }

(* Largest DFS subtrees first. A root's size-1 support (its event's total
   occurrence count) is a cheap proxy for its subtree's mining cost;
   claiming heavy roots first keeps one late heavy root from leaving a
   single domain mining alone at the tail, and lets a top-k floor rise
   early. Ties break toward the lower index so the permutation is
   deterministic. *)
let largest_first_order idx roots =
  let n = Array.length roots in
  let weight = Array.map (fun e -> Inverted_index.occurrence_count idx e) roots in
  let order = Array.init n (fun i -> i) in
  Array.sort
    (fun a b ->
      if weight.(a) <> weight.(b) then compare weight.(b) weight.(a)
      else compare a b)
    order;
  order

(* Chaos/testing knob: slow every root down so an external harness has a
   deterministic window to deliver signals or kill -9 mid-run. Unset (the
   default) costs one load per root. *)
let chaos_root_delay_s =
  lazy
    (match Sys.getenv_opt "RGS_CHAOS_ROOT_DELAY_MS" with
    | None -> 0.0
    | Some v -> ( try float_of_string v /. 1000.0 with Failure _ -> 0.0))

let chaos_root_delay () =
  match Lazy.force chaos_root_delay_s with
  | 0.0 -> ()
  | d -> ( try Unix.sleepf d with Unix.Unix_error (Unix.EINTR, _, _) -> ())

(* One pending unit of DFS work. [t_path] is the list of child ranks from
   the root ([] = the root node itself): task boundaries follow the DFS
   tree, so sorting a root's per-task result lists by path (lexicographic,
   prefix first — exactly OCaml's structural compare on int lists) and
   concatenating reproduces the sequential preorder emission byte for
   byte, whatever domain mined which piece. *)
type task = {
  t_root : int;  (* slot in the roots array *)
  t_path : int list;
  t_node : [ `Root of Event.t | `Frame of Engine.frame ];
}

type worker = {
  w_id : int;
  w_ctx : Engine.ctx;
  w_trace : Trace.t;
  mutable w_claimed : int;
  mutable w_attempts : int;
  mutable w_successes : int;
  mutable w_depth : int;
  mutable w_idle : int;  (* failed steal rounds in a row *)
}

let rec atomic_cons cell x =
  let old = Atomic.get cell in
  if not (Atomic.compare_and_set cell old (x :: old)) then atomic_cons cell x

let sum_stats ~outcome stats =
  List.fold_left
    (fun acc (s : Engine.stats) ->
      {
        acc with
        Engine.emitted = acc.Engine.emitted + s.Engine.emitted;
        dfs_nodes = acc.Engine.dfs_nodes + s.Engine.dfs_nodes;
        insgrow_calls = acc.Engine.insgrow_calls + s.Engine.insgrow_calls;
        lb_pruned = acc.Engine.lb_pruned + s.Engine.lb_pruned;
        non_closed_dropped =
          acc.Engine.non_closed_dropped + s.Engine.non_closed_dropped;
        query_cuts = acc.Engine.query_cuts + s.Engine.query_cuts;
        floor_prunes = acc.Engine.floor_prunes + s.Engine.floor_prunes;
      })
    {
      Engine.emitted = 0;
      dfs_nodes = 0;
      insgrow_calls = 0;
      lb_pruned = 0;
      non_closed_dropped = 0;
      query_cuts = 0;
      floor_prunes = 0;
      truncated = Budget.is_stop outcome;
      outcome;
    }
    stats

(* The executor. Every worker owns a {!Deque}: it claims fresh roots from
   the shared counter while any remain (independent work first, in LPT
   order), splits shallow nodes (pattern length <= [split_len]) into one
   task per admitted child via [Engine.expand] and pushes them
   bottom-LIFO (so its own pops follow DFS order), and mines deeper
   subtrees whole with [Engine.run_frame]. A worker that is out of roots
   and out of local work steals the oldest task from a sibling's deque —
   the largest deferred subtree — so one giant root does not serialize
   the tail of the run. With one domain there is no thief, so nothing is
   split: each root is mined whole, exactly like the sequential DFS.

   Determinism: results are keyed by (root, path) and stitched in path
   order, so each root's results are identical to the sequential DFS for
   every schedule; the [@steal] differential suite pins this across
   backends, shard counts and seeds.

   Accounting per root: [pending] counts that root's outstanding tasks
   and the worker that drops it to zero finishes the root — [Done] with
   the stitched results (after [on_root_done] accepted them), or a
   failure when any task raised ([failed] keeps the first exception;
   remaining tasks of that root short-circuit). A budget stop aborts the
   running tasks ([aborted]); after the joins every unfinished root is
   [Partial] with whatever its tasks mined, stitched the same way.
   Failed roots are retried once, sequentially, after the joins, and
   quarantined when the retry fails too. *)
let mine_roots ?(domains = default_domains ()) ?max_length ?budget
    ?(trace = Trace.null) ?shards ?shard_dispatch ?shared ?(split_len = 2)
    ?roots ?(on_root_done = fun _ _ -> ()) ~strategy idx ~min_sup =
  if min_sup < 1 then invalid_arg "Parallel_miner: min_sup must be >= 1";
  if domains < 1 then invalid_arg "Parallel_miner: domains must be >= 1";
  let events = Inverted_index.frequent_events idx ~min_sup in
  let shared =
    match shared with
    | Some s -> s
    | None -> Query.shared ?max_length ~events ~min_sup Query.All
  in
  let roots = Array.of_list (Option.value roots ~default:events) in
  let num_roots = Array.length roots in
  let split_len = if domains = 1 then 0 else split_len in
  let order = largest_first_order idx roots in
  let deques = Array.init domains (fun _ -> Deque.create ()) in
  let states = Array.make domains None in
  let next = Atomic.make 0 in
  let live = Atomic.make 0 in
  let halted = Atomic.make false in
  let halt_reason = Atomic.make None in
  let pending = Array.init num_roots (fun _ -> Atomic.make 0) in
  let started = Array.make num_roots 0 in
  let parts = Array.init num_roots (fun _ -> Atomic.make []) in
  let failed = Array.init num_roots (fun _ -> Atomic.make None) in
  let aborted = Array.init num_roots (fun _ -> Atomic.make false) in
  let slots = Array.make num_roots (Partial []) in
  let strategy_for wtr =
    Shard_merge.wrap ?dispatch:shard_dispatch ?shards ~trace:wtr
      (Inverted_index.db idx) strategy
  in
  let emit_into results m =
    shared.Query.shared_offer m;
    results := m :: !results
  in
  (* a root's task results in path order: its DFS preorder, with gaps
     where tasks were aborted or never ran *)
  let stitch r =
    List.concat_map snd
      (List.sort
         (fun (p, _) (q, _) -> compare (p : int list) q)
         (Atomic.get parts.(r)))
  in
  (* a finished root is [Done] only once [on_root_done] (the checkpoint
     append) has accepted it; a raising hook fails the root like a
     crashed task *)
  let complete wtr r ~start results =
    match on_root_done roots.(r) results with
    | () ->
      slots.(r) <- Done results;
      Trace.span wtr Trace.Root ~a0:roots.(r) ~a1:(List.length results) ~start
    | exception e -> ignore (Atomic.compare_and_set failed.(r) None (Some e))
  in
  let finish_root st r =
    if Atomic.get failed.(r) = None && not (Atomic.get aborted.(r)) then
      complete st.w_trace r ~start:started.(r) (stitch r)
  in
  let exec ?(stolen = false) st task =
    let r = task.t_root in
    (if Atomic.get failed.(r) <> None || Atomic.get aborted.(r) then ()
     else if Atomic.get halted then Atomic.set aborted.(r) true
     else begin
       let results = ref [] in
       let emit = emit_into results in
       try
         if stolen then Budget.Fault.fire (Budget.Fault.Steal st.w_id);
         (match task.t_node with
         | `Root _ ->
           chaos_root_delay ();
           Budget.Fault.fire (Budget.Fault.Worker r)
         | `Frame _ -> ());
         (match
            match task.t_node with
            | `Root e -> Engine.root_frame st.w_ctx e
            | `Frame f -> Some f
          with
         | None -> ()
         | Some f ->
           if Pattern.length (Engine.frame_pattern f) <= split_len then begin
             let children = Array.of_list (Engine.expand st.w_ctx ~emit f) in
             let n = Array.length children in
             if n > 0 then begin
               ignore (Atomic.fetch_and_add pending.(r) n);
               ignore (Atomic.fetch_and_add live n);
               (* reversed, so the owner pops child 0 first (DFS order)
                  and thieves take the last child — order is irrelevant
                  for the output, only for locality *)
               for i = n - 1 downto 0 do
                 Deque.push deques.(st.w_id)
                   {
                     t_root = r;
                     t_path = task.t_path @ [ i ];
                     t_node = `Frame children.(i);
                   }
               done;
               st.w_depth <- max st.w_depth (Deque.size deques.(st.w_id))
             end
           end
           else Engine.run_frame st.w_ctx ~emit f);
         atomic_cons parts.(r) (task.t_path, List.rev !results)
       with
       | Budget.Stop reason ->
         if Atomic.compare_and_set halt_reason None (Some reason) then
           Engine.note_stop st.w_ctx reason;
         Atomic.set halted true;
         atomic_cons parts.(r) (task.t_path, List.rev !results);
         Atomic.set aborted.(r) true
       | Engine.Budget_exhausted ->
         (* only reachable once [halted] is set (the ctx's should_stop):
            some other worker already recorded the reason *)
         Atomic.set halted true;
         atomic_cons parts.(r) (task.t_path, List.rev !results);
         Atomic.set aborted.(r) true
       | e -> ignore (Atomic.compare_and_set failed.(r) None (Some e))
     end);
    if Atomic.fetch_and_add pending.(r) (-1) = 1 then finish_root st r;
    ignore (Atomic.fetch_and_add live (-1))
  in
  let try_steal st =
    let stolen = ref None in
    let i = ref 1 in
    while !stolen = None && !i < domains do
      let v = (st.w_id + !i) mod domains in
      st.w_attempts <- st.w_attempts + 1;
      (match Deque.steal deques.(v) with
      | Deque.Stolen t ->
        st.w_successes <- st.w_successes + 1;
        Trace.instant st.w_trace Trace.Steal ~a0:st.w_id ~a1:v;
        stolen := Some t
      | Deque.Empty | Deque.Retry -> incr i)
    done;
    !stolen
  in
  (* An idle thief backs off: a few spins first (a split usually lands
     within microseconds), then sleeps doubling from 10 us to 1 ms. With
     more domains than cores, spinning thieves would take the CPU from the
     workers holding the work; a sleeping domain is also outside the
     runtime, so it does not slow every stop-the-world minor GC. *)
  let back_off st =
    st.w_idle <- st.w_idle + 1;
    if st.w_idle <= 32 then Domain.cpu_relax ()
    else
      let d = 1e-5 *. Float.of_int (1 lsl min 7 (st.w_idle - 33)) in
      try Unix.sleepf (Float.min d 1e-3)
      with Unix.Unix_error (Unix.EINTR, _, _) -> ()
  in
  let worker slot () =
    Metrics.hit Metrics.pool_workers;
    let wtr = Trace.for_domain trace in
    let t0 = Trace.now wtr in
    let st =
      {
        w_id = slot;
        w_ctx =
          Engine.make_ctx ?max_length ~events
            ~should_stop:(fun () -> Atomic.get halted)
            ?budget ~trace:wtr ~plan:shared.Query.shared_plan
            (strategy_for wtr) idx ~min_sup;
        w_trace = wtr;
        w_claimed = 0;
        w_attempts = 0;
        w_successes = 0;
        w_depth = 0;
        w_idle = 0;
      }
    in
    states.(slot) <- Some st;
    let rec loop () =
      if not (Atomic.get halted) then
        match Deque.pop deques.(slot) with
        | Some t ->
          exec st t;
          loop ()
        | None ->
          let k = Atomic.fetch_and_add next 1 in
          if k < num_roots then begin
            let k = order.(k) in
            st.w_claimed <- st.w_claimed + 1;
            started.(k) <- Trace.now wtr;
            Atomic.set pending.(k) 1;
            ignore (Atomic.fetch_and_add live 1);
            exec st { t_root = k; t_path = []; t_node = `Root roots.(k) };
            loop ()
          end
          else if Atomic.get live > 0 then begin
            (match try_steal st with
            | Some t ->
              st.w_idle <- 0;
              exec ~stolen:true st t
            | None -> back_off st);
            loop ()
          end
    in
    (try loop () with _ -> ());
    Metrics.add Metrics.steal_attempts st.w_attempts;
    Metrics.add Metrics.steal_successes st.w_successes;
    Metrics.observe_max Metrics.deque_max_depth st.w_depth;
    ignore (Metrics.sample_live_words ());
    Trace.span wtr Trace.Worker ~a0:slot ~a1:st.w_claimed ~start:t0
  in
  let spawned =
    List.init (domains - 1) (fun i -> Domain.spawn (worker (i + 1)))
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun d -> try Domain.join d with _ -> ()) spawned)
    (worker 0);
  let all_stats =
    ref
      (Array.to_list states
      |> List.filter_map Fun.id
      |> List.map (fun st -> Engine.finish st.w_ctx ~outcome:Budget.Completed)
      )
  in
  (* after a stop, every unfinished root keeps what its tasks mined *)
  Array.iteri
    (fun r status ->
      match status with
      | Done _ | Quarantined _ -> ()
      | Partial _ ->
        if Atomic.get failed.(r) = None then slots.(r) <- Partial (stitch r))
    slots;
  (* One sequential retry for roots that crashed, after a short backoff
     (transient failures — an injected once-armed fault, a blip of memory
     pressure — recover). The {!Budget.Fault.Worker} site fires again, so
     a persistent fault fails both attempts and the root is quarantined
     with its exception and backtrace, for a checkpoint to record. A
     budget stop during the retry leaves the root [Partial].

     The retry does not offer to [shared]: the failed attempt may already
     have offered some of the same patterns, and a top-k heap holding a
     pattern twice would lift the floor above the true k-th support.
     Leaving them out only keeps the floor lower, which is sound. *)
  let retry r =
    Metrics.hit Metrics.root_retries;
    Trace.instant trace Trace.Root_retry ~a0:r ~a1:0;
    Unix.sleepf 0.01;
    let quarantine exn backtrace =
      Metrics.hit Metrics.quarantined_roots;
      Trace.instant trace Trace.Quarantine ~a0:r ~a1:0;
      slots.(r) <- Quarantined { exn; backtrace }
    in
    let wtr = Trace.for_domain trace in
    let ctx =
      Engine.make_ctx ?max_length ~events ?budget ~trace:wtr
        ~plan:shared.Query.shared_plan (strategy_for wtr) idx ~min_sup
    in
    let results = ref [] in
    let start = Trace.now wtr in
    Atomic.set failed.(r) None;
    (match
       Budget.Fault.fire (Budget.Fault.Worker r);
       Option.iter
         (Engine.run_frame ctx ~emit:(fun m -> results := m :: !results))
         (Engine.root_frame ctx roots.(r))
     with
    | () -> (
      complete wtr r ~start (List.rev !results);
      match Atomic.get failed.(r) with
      | Some e -> quarantine e ""
      | None -> ())
    | exception Budget.Stop reason ->
      if Atomic.compare_and_set halt_reason None (Some reason) then
        Engine.note_stop ctx reason;
      slots.(r) <- Partial (List.rev !results)
    | exception e -> quarantine e (Printexc.get_backtrace ()));
    all_stats := Engine.finish ctx ~outcome:Budget.Completed :: !all_stats
  in
  Array.iteri (fun r f -> if Atomic.get f <> None then retry r) failed;
  let stop = Option.value (Atomic.get halt_reason) ~default:Budget.Completed in
  let stop =
    if Array.exists (function Quarantined _ -> true | _ -> false) slots then
      Budget.combine stop Budget.Worker_failed
    else stop
  in
  let outcome =
    if
      Array.exists (function Partial _ -> true | _ -> false) slots
      && not (Budget.is_stop stop)
    then (* halted without a recorded reason: treat as cancelled *)
      Budget.Cancelled
    else stop
  in
  (slots, sum_stats ~outcome !all_stats)

let quarantined statuses =
  Array.fold_left
    (fun n -> function Quarantined _ -> n + 1 | Done _ | Partial _ -> n)
    0 statuses

let mine_steal ?domains ?max_length ?budget ?trace ?shards ?(query = Query.All)
    ?split_len ~strategy idx ~min_sup =
  let events = Inverted_index.frequent_events idx ~min_sup in
  let shared = Query.shared ?max_length ~events ~min_sup query in
  let statuses, stats =
    mine_roots ?domains ?max_length ?budget ?trace ?shards ~shared ?split_len
      ~strategy idx ~min_sup
  in
  let results =
    List.concat_map
      (function Done rs | Partial rs -> rs | Quarantined _ -> [])
      (Array.to_list statuses)
  in
  (shared.Query.finalize results, stats, quarantined statuses)
