(* Tests for the parallel executor: output identical (order included) to
   the sequential miners across domain counts and datasets, and per-root
   statuses keyed by root under faults and budget stops. *)

open Rgs_sequence
open Rgs_core

let signatures results =
  List.map (fun r -> (Pattern.to_string r.Mined.pattern, r.Mined.support)) results

let dbs =
  lazy
    [
      ("table3", Seqdb.of_strings [ "ABCACBDDB"; "ACDBACADD" ]);
      ( "quest",
        Rgs_datagen.Quest_gen.generate
          (Rgs_datagen.Quest_gen.params ~d:50 ~c:15 ~n:40 ~s:4 ~seed:11 ()) );
      ( "traces",
        Rgs_datagen.Trace_gen.generate
          (Rgs_datagen.Trace_gen.params ~num_sequences:40 ~num_events:20 ~seed:12 ()) );
    ]

let closed_strategy = Clogsgrow.strategy ~use_lb_check:true ~use_c_check:true

let steal ?(strategy = Gsgrow.strategy) ?max_length ~domains idx ~min_sup =
  let results, stats, quarantined =
    Parallel_miner.mine_steal ~domains ?max_length ~strategy idx ~min_sup
  in
  Alcotest.(check int) "no quarantines" 0 quarantined;
  (results, stats)

let test_parallel_all_matches () =
  List.iter
    (fun (name, db) ->
      let idx = Inverted_index.build db in
      let sequential, seq_stats = Gsgrow.mine ~max_length:4 idx ~min_sup:5 in
      List.iter
        (fun domains ->
          let parallel, par_stats = steal ~domains ~max_length:4 idx ~min_sup:5 in
          Alcotest.(check (list (pair string int)))
            (Printf.sprintf "%s all d%d" name domains)
            (signatures sequential) (signatures parallel);
          Alcotest.(check int)
            (Printf.sprintf "%s stats d%d" name domains)
            seq_stats.Gsgrow.patterns par_stats.Engine.emitted)
        [ 1; 2; 4 ])
    (Lazy.force dbs)

let test_parallel_closed_matches () =
  List.iter
    (fun (name, db) ->
      let idx = Inverted_index.build db in
      let sequential, _ = Clogsgrow.mine ~max_length:4 idx ~min_sup:5 in
      List.iter
        (fun domains ->
          let parallel, _ =
            steal ~strategy:closed_strategy ~domains ~max_length:4 idx ~min_sup:5
          in
          Alcotest.(check (list (pair string int)))
            (Printf.sprintf "%s closed d%d" name domains)
            (signatures sequential) (signatures parallel))
        [ 1; 3 ])
    (Lazy.force dbs)

let test_parallel_determinism () =
  let _, db = List.nth (Lazy.force dbs) 1 in
  let idx = Inverted_index.build db in
  let runs =
    List.init 3 (fun _ ->
        signatures
          (fst
             (steal ~strategy:closed_strategy ~domains:4 ~max_length:3 idx
                ~min_sup:5)))
  in
  match runs with
  | first :: rest ->
    List.iter
      (fun r -> Alcotest.(check (list (pair string int))) "stable across runs" first r)
      rest
  | [] -> assert false

let test_parallel_validation () =
  let idx = Inverted_index.build (Seqdb.of_strings [ "AB" ]) in
  Alcotest.check_raises "domains 0"
    (Invalid_argument "Parallel_miner: domains must be >= 1") (fun () ->
      ignore (steal ~domains:0 idx ~min_sup:1));
  Alcotest.check_raises "min_sup 0"
    (Invalid_argument "Parallel_miner: min_sup must be >= 1") (fun () ->
      ignore
        (Parallel_miner.mine_roots ~strategy:Gsgrow.strategy idx ~min_sup:0));
  Alcotest.(check bool) "default domains >= 1" true (Parallel_miner.default_domains () >= 1)

let test_more_domains_than_roots () =
  let idx = Inverted_index.build (Seqdb.of_strings [ "ABAB" ]) in
  let results, _ = steal ~domains:6 idx ~min_sup:2 in
  let sequential, _ = Gsgrow.mine idx ~min_sup:2 in
  Alcotest.(check (list (pair string int))) "tiny db" (signatures sequential)
    (signatures results)

(* --- the root-keyed entry point ---

   Statuses are indexed like [roots], whatever order the executor claims
   them in: a root's [Done] results are exactly its sequential subtree,
   mining a subset of the roots changes nothing for the roots mined, and
   [on_root_done] reports each finished root once. *)

let per_root_sequential idx ~events roots =
  Array.map
    (fun e ->
      signatures
        (fst (Gsgrow.mine ~max_length:3 ~events ~roots:[ e ] idx ~min_sup:5)))
    roots

let status_sig = function
  | Parallel_miner.Done r -> "done " ^ String.concat "," (List.map fst (signatures r))
  | Parallel_miner.Partial [] -> "partial"
  | Parallel_miner.Partial r ->
    "partial " ^ String.concat "," (List.map fst (signatures r))
  | Parallel_miner.Quarantined _ -> "quarantined"

let test_roots_subset () =
  let _, db = List.nth (Lazy.force dbs) 2 in
  let idx = Inverted_index.build db in
  let events = Inverted_index.frequent_events idx ~min_sup:5 in
  let subset = List.filteri (fun i _ -> i mod 2 = 1) events in
  Alcotest.(check bool) "subset nonempty" true (subset <> []);
  let expected = per_root_sequential idx ~events (Array.of_list subset) in
  List.iter
    (fun domains ->
      let mu = Mutex.create () and reported = ref [] in
      let on_root_done root results =
        Mutex.protect mu (fun () -> reported := (root, results) :: !reported)
      in
      let statuses, stats =
        Parallel_miner.mine_roots ~domains ~max_length:3 ~roots:subset
          ~on_root_done ~strategy:Gsgrow.strategy idx ~min_sup:5
      in
      Alcotest.(check bool) "completed" true (stats.Engine.outcome = Budget.Completed);
      Array.iteri
        (fun k status ->
          Alcotest.(check string)
            (Printf.sprintf "d%d root %d" domains k)
            ("done " ^ String.concat "," (List.map fst expected.(k)))
            (status_sig status))
        statuses;
      let reported = !reported in
      Alcotest.(check (list int))
        (Printf.sprintf "d%d on_root_done once per root" domains)
        (List.sort compare subset)
        (List.sort compare (List.map fst reported));
      List.iteri
        (fun k root ->
          Alcotest.(check (list (pair string int)))
            (Printf.sprintf "d%d hook results of root %d" domains k)
            expected.(k)
            (signatures (List.assoc root reported)))
        subset)
    [ 1; 3 ]

let test_largest_first_order_shape () =
  let _, db = List.nth (Lazy.force dbs) 2 in
  let idx = Inverted_index.build db in
  let roots =
    Array.of_list (Inverted_index.frequent_events idx ~min_sup:5)
  in
  let order = Parallel_miner.largest_first_order idx roots in
  Alcotest.(check int) "permutation length" (Array.length roots)
    (Array.length order);
  let seen = Array.make (Array.length roots) false in
  Array.iter (fun k -> seen.(k) <- true) order;
  Alcotest.(check bool) "is a permutation" true (Array.for_all Fun.id seen);
  (* weights nonincreasing along the claim order *)
  let w k = Inverted_index.occurrence_count idx roots.(k) in
  let ok = ref true in
  for j = 1 to Array.length order - 1 do
    if w order.(j - 1) < w order.(j) then ok := false
  done;
  Alcotest.(check bool) "weights nonincreasing" true !ok

(* Regression: equal occurrence counts must order by root index, not by
   whatever permutation Array.sort (which is unstable) happens to leave.
   Every event below occurs exactly twice, so any tie-break bug shows up
   as a non-identity order. *)
let test_largest_first_order_tie_break () =
  let idx = Inverted_index.build (Seqdb.of_strings [ "ABCABC"; "DD" ]) in
  let roots = Array.of_list (Inverted_index.frequent_events idx ~min_sup:2) in
  Alcotest.(check bool) "all-tied fixture" true (Array.length roots >= 3);
  let counts =
    Array.map (fun e -> Inverted_index.occurrence_count idx e) roots
  in
  Array.iter (fun c -> Alcotest.(check int) "uniform weight" counts.(0) c) counts;
  let order = Parallel_miner.largest_first_order idx roots in
  Alcotest.(check (array int))
    "ties resolve to the identity permutation"
    (Array.init (Array.length roots) Fun.id)
    order

(* Faults stay keyed by root under every domain count: a persistent fault
   at [Budget.Fault.Worker 1] crashes that root in the executor and in
   its retry, so it is quarantined; every other root's results are its
   sequential subtree, and the outcome is Worker_failed. *)
let test_schedule_fault_injection () =
  let _, db = List.nth (Lazy.force dbs) 2 in
  let idx = Inverted_index.build db in
  let events = Inverted_index.frequent_events idx ~min_sup:5 in
  let roots = Array.of_list events in
  Alcotest.(check bool) "enough roots" true (Array.length roots >= 3);
  let crash_root = 1 in
  let expected = per_root_sequential idx ~events roots in
  List.iter
    (fun domains ->
      let statuses, stats =
        Budget.Fault.with_hook
          (function
            | Budget.Fault.Worker k when k = crash_root -> failwith "injected"
            | _ -> ())
          (fun () ->
            Parallel_miner.mine_roots ~domains ~max_length:3
              ~strategy:Gsgrow.strategy idx ~min_sup:5)
      in
      Alcotest.(check bool)
        (Printf.sprintf "d%d worker failed" domains)
        true
        (stats.Engine.outcome = Budget.Worker_failed);
      Array.iteri
        (fun k status ->
          let expect =
            if k = crash_root then "quarantined"
            else "done " ^ String.concat "," (List.map fst expected.(k))
          in
          Alcotest.(check string)
            (Printf.sprintf "d%d root %d status" domains k)
            expect (status_sig status))
        statuses)
    [ 1; 2; 3 ]

(* A budget stop halts the claims: every root is either [Done] with its
   whole sequential subtree or [Partial] with an in-order part of it, at
   least one root is unfinished, and only the [Done] roots reach
   [on_root_done]. *)

(* [sub] is [full] with some elements left out, order kept *)
let rec is_subsequence sub full =
  match (sub, full) with
  | [], _ -> true
  | _, [] -> false
  | x :: sub', y :: full' ->
    if x = y then is_subsequence sub' full' else is_subsequence sub full'

let test_schedule_halt_preserves_skips () =
  let _, db = List.nth (Lazy.force dbs) 2 in
  let idx = Inverted_index.build db in
  let events = Inverted_index.frequent_events idx ~min_sup:5 in
  let roots = Array.of_list events in
  let expected = per_root_sequential idx ~events roots in
  let finished = ref 0 in
  let statuses, stats =
    Parallel_miner.mine_roots ~domains:1 ~max_length:3
      ~budget:(Budget.create ~max_nodes:30 ())
      ~on_root_done:(fun _ _ -> incr finished)
      ~strategy:Gsgrow.strategy idx ~min_sup:5
  in
  Alcotest.(check bool) "truncated" true (stats.Engine.outcome = Budget.Truncated);
  let done_count = ref 0 and skipped = ref 0 in
  Array.iteri
    (fun k status ->
      match status with
      | Parallel_miner.Done r ->
        incr done_count;
        Alcotest.(check (list (pair string int)))
          (Printf.sprintf "root %d complete" k)
          expected.(k) (signatures r)
      | Parallel_miner.Partial r ->
        incr skipped;
        Alcotest.(check bool)
          (Printf.sprintf "root %d partial is a DFS-order part" k)
          true
          (is_subsequence (signatures r) expected.(k))
      | Parallel_miner.Quarantined _ -> Alcotest.failf "root %d quarantined" k)
    statuses;
  Alcotest.(check bool) "some roots unfinished" true (!skipped > 0);
  Alcotest.(check int) "hook saw the finished roots" !done_count !finished

(* A root that crashed once is retried after the joins; if the shared
   budget has stopped by then, the retry stops too and the root stays
   [Partial] for a resume — a budget stop never quarantines a root. *)
let test_retry_under_stopped_budget () =
  let _, db = List.nth (Lazy.force dbs) 2 in
  let idx = Inverted_index.build db in
  let budget = Budget.create () in
  let fired = Atomic.make false in
  let statuses, stats =
    Budget.Fault.with_hook
      (function
        | Budget.Fault.Worker 0 when not (Atomic.exchange fired true) ->
          Budget.cancel budget;
          failwith "injected"
        | _ -> ())
      (fun () ->
        Parallel_miner.mine_roots ~domains:2 ~max_length:3 ~budget
          ~strategy:Gsgrow.strategy idx ~min_sup:5)
  in
  Alcotest.(check string) "crashed root unfinished" "partial" (status_sig statuses.(0));
  Alcotest.(check bool) "nothing quarantined" true
    (Array.for_all
       (function Parallel_miner.Quarantined _ -> false | _ -> true)
       statuses);
  Alcotest.(check bool) "cancelled" true (stats.Engine.outcome = Budget.Cancelled)

(* --- the one executor behind checkpoints ---

   For every domain count and answer mode, a checkpointed run stopped by
   a node budget and then resumed without one equals the uninterrupted
   sequential [Miner.mine], order included. Top-k answers differ from
   the sequential path only in which equal-support patterns fill the
   k-th place: their supports match it, and their patterns are the
   canonical ones (the full answer sorted by support, first [k]). *)

let modes = [ "all"; "closed"; "gap"; "top-k"; "targeted" ]

let mode_config mode ~target ~k ?domains ?max_nodes () =
  let max_length = 4 and min_sup = 2 in
  match mode with
  | "all" -> Miner.config ~mode:Miner.All ~max_length ?domains ?max_nodes ~min_sup ()
  | "closed" -> Miner.config ~max_length ?domains ?max_nodes ~min_sup ()
  | "gap" -> Miner.config ~max_gap:1 ~max_length ?domains ?max_nodes ~min_sup ()
  | "top-k" ->
    Miner.config ~query:(Query.Top_k k) ~max_length ?domains ?max_nodes ~min_sup ()
  | _ ->
    Miner.config ~query:(Query.Targeted target) ~max_length ?domains ?max_nodes
      ~min_sup ()

let with_checkpoint f =
  let path = Filename.temp_file "rgs_par" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let prop_checkpointed_resume =
  Gens.make ~name:"checkpoint + resume ≡ sequential (domains × modes)"
    ~count:10
    QCheck2.Gen.(
      quad
        (Gens.db ~num_seqs:6 ~alphabet:4 ~max_len:9)
        (Gens.pattern ~alphabet:4 ~max_len:2)
        (int_range 1 4) (int_range 1 40))
    (fun (db, target, k, max_nodes) ->
      Printf.sprintf "target %s, k %d, max_nodes %d\n%s"
        (Pattern.to_string target) k max_nodes (Gens.print_db db))
    (fun (db, target, k, max_nodes) ->
      List.for_all
        (fun mode ->
          let config = mode_config mode ~target ~k in
          let sequential = (Miner.mine ~config:(config ()) db).Miner.results in
          let expected =
            if mode <> "top-k" then signatures sequential
            else
              let full = (Miner.mine ~config:(mode_config "closed" ~target ~k ()) db).Miner.results in
              signatures
                (List.filteri
                   (fun i _ -> i < k)
                   (List.sort Mined.compare_by_support_desc full))
          in
          List.for_all
            (fun domains ->
              with_checkpoint (fun path ->
                  let stopped =
                    Miner.mine_resumable ~checkpoint:path
                      (config ~domains ~max_nodes ())
                      db
                  in
                  let resumed =
                    Miner.mine_resumable ~checkpoint:path ~resume:true
                      (config ~domains ())
                      db
                  in
                  let got = signatures resumed.Miner.results in
                  let ok =
                    (stopped.Miner.outcome = Budget.Completed
                    || stopped.Miner.outcome = Budget.Truncated)
                    && resumed.Miner.outcome = Budget.Completed
                    && got = expected
                    && List.map snd got = List.map snd (signatures sequential)
                  in
                  if not ok then
                    QCheck2.Test.fail_reportf "%s, %d domain(s): got %s" mode
                      domains
                      (String.concat " "
                         (List.map (fun (p, s) -> Printf.sprintf "%s:%d" p s) got));
                  ok))
            [ 1; 2; 4 ])
        modes)

(* A budget stop inside the one root that holds most of the work still
   reports what was mined under it: every reported pattern is a real
   pattern of the full answer, in its order, and the log keeps no record
   of the unfinished root, so a resume completes to the full answer. *)
let test_partial_root_reported () =
  let db =
    Seqdb.of_strings
      [ "AAAABAAACAAAB"; "AABAAAACAAAAB"; "AAACAAABAAAAA"; "BAAAAACAAAAAA" ]
  in
  let config ?max_nodes ?domains () =
    Miner.config ~mode:Miner.All ~max_length:6 ?max_nodes ?domains ~min_sup:2 ()
  in
  let full = signatures (Miner.mine ~config:(config ()) db).Miner.results in
  List.iter
    (fun domains ->
      with_checkpoint (fun path ->
          let stopped =
            Miner.mine_resumable ~checkpoint:path
              (config ~max_nodes:20 ?domains ())
              db
          in
          let got = signatures stopped.Miner.results in
          let d = Option.value domains ~default:1 in
          Alcotest.(check bool) (Printf.sprintf "d%d truncated" d) true
            (stopped.Miner.outcome = Budget.Truncated);
          Alcotest.(check bool)
            (Printf.sprintf "d%d reports the interrupted root" d)
            true
            (List.exists (fun (p, _) -> p.[0] = 'A') got);
          Alcotest.(check bool)
            (Printf.sprintf "d%d a DFS-order part of the answer" d)
            true (is_subsequence got full);
          let c =
            Checkpoint.load ~path
              ~expected_fingerprint:
                (Checkpoint.fingerprint ~params:[ "all"; "2"; "6" ] db)
          in
          (* event 0 is 'A' *)
          Alcotest.(check bool)
            (Printf.sprintf "d%d unfinished root not logged" d)
            false
            (List.exists
               (fun (e : Checkpoint.entry) -> e.Checkpoint.root = 0)
               c.Checkpoint.completed);
          let resumed =
            Miner.mine_resumable ~checkpoint:path ~resume:true
              (config ?domains ()) db
          in
          Alcotest.(check (list (pair string int)))
            (Printf.sprintf "d%d resume completes" d)
            full (signatures resumed.Miner.results)))
    [ None; Some 2 ]

(* A one-shot crash part-way through a root, under a top-k query: the
   crashed root's first attempt already offered some patterns to the
   shared top-k heap, and its retry must not offer them again — a heap
   holding a pattern twice would lift the floor and prune real answers.
   The answer equals the fault-free one, with nothing quarantined. *)
let prop_topk_transient_fault =
  Gens.make ~name:"top-k: transient insgrow fault ≡ fault-free" ~count:40
    QCheck2.Gen.(
      triple
        (Gens.skewed_db ~num_seqs:6 ~alphabet:4 ~len:10)
        (int_range 1 6) (int_range 1 60))
    (fun (db, k, nth) ->
      Printf.sprintf "k %d, fault at insgrow %d\n%s" k nth (Gens.print_db db))
    (fun (db, k, nth) ->
      let config domains =
        Miner.config ~mode:Miner.All ~query:(Query.Top_k k) ~max_length:5
          ~domains ~min_sup:2 ()
      in
      List.for_all
        (fun domains ->
          let clean = Miner.mine ~config:(config domains) db in
          let fired = Atomic.make 0 in
          let faulty =
            Budget.Fault.with_hook
              (function
                | Budget.Fault.Insgrow ->
                  if Atomic.fetch_and_add fired 1 = nth then failwith "transient"
                | _ -> ())
              (fun () -> Miner.mine ~config:(config domains) db)
          in
          let ok =
            faulty.Miner.quarantined = 0
            && faulty.Miner.outcome = Budget.Completed
            && signatures faulty.Miner.results = signatures clean.Miner.results
          in
          if not ok then
            QCheck2.Test.fail_reportf "%d domain(s): got %s, want %s" domains
              (String.concat " "
                 (List.map
                    (fun (p, s) -> Printf.sprintf "%s:%d" p s)
                    (signatures faulty.Miner.results)))
              (String.concat " "
                 (List.map
                    (fun (p, s) -> Printf.sprintf "%s:%d" p s)
                    (signatures clean.Miner.results)));
          ok)
        [ 1; 2 ])

let suite =
  [
    Alcotest.test_case "parallel all = sequential" `Quick test_parallel_all_matches;
    Alcotest.test_case "parallel closed = sequential" `Quick test_parallel_closed_matches;
    Alcotest.test_case "deterministic across runs" `Quick test_parallel_determinism;
    Alcotest.test_case "validation" `Quick test_parallel_validation;
    Alcotest.test_case "more domains than roots" `Quick test_more_domains_than_roots;
    Alcotest.test_case "roots subset + on_root_done" `Quick test_roots_subset;
    Alcotest.test_case "schedule: largest-first order shape" `Quick
      test_largest_first_order_shape;
    Alcotest.test_case "schedule: tie-break is deterministic" `Quick
      test_largest_first_order_tie_break;
    Alcotest.test_case "schedule: faults keyed by root" `Quick
      test_schedule_fault_injection;
    Alcotest.test_case "schedule: halt preserves skips" `Quick
      test_schedule_halt_preserves_skips;
    Alcotest.test_case "retry under a stopped budget" `Quick
      test_retry_under_stopped_budget;
    prop_checkpointed_resume;
    Alcotest.test_case "partial root reaches the report" `Quick
      test_partial_root_reported;
    prop_topk_transient_fault;
  ]
