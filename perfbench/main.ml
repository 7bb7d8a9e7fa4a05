(* perfbench: the repository benchmark. One invocation runs one workload:

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   from the root of a source tree whose binaries are built (run.sh builds
   them). With --trace 0 it times the real rgsminer / rgsminerd binaries
   from outside and prints the end-to-end metrics; with --trace 1 it
   replays the same work in-process through each layer and prints the
   per-layer metrics. Every answer is checked against Miner.mine. The last
   line of stdout is the result object; the line before it, the host and
   run facts. README.md documents the workloads and the metrics. *)

open Rgs_core

let exe name =
  List.fold_left Filename.concat (Filename.dirname Sys.executable_name) [ ".."; "bin"; name ]

(* --- statistics --- *)

let sorted l = List.sort Float.compare l

let median l =
  match Array.of_list (sorted l) with
  | [||] -> 0.
  | a ->
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* nearest rank: the value with a tenth of the samples above it *)
let p90 l =
  match Array.of_list (sorted l) with
  | [||] -> 0.
  | a -> a.(max 0 (int_of_float (Float.ceil (0.9 *. float_of_int (Array.length a))) - 1))

(* --- results --- *)

type result = {
  attempted : int;
  failures : string list;
  metrics : (string * float * string) list;  (** name, value, unit *)
  facts : (string * string) list;  (** name, JSON value *)
}

let str = Spans.json_string

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

let print_result r =
  let facts =
    String.concat ", " (List.map (fun (k, v) -> str k ^ ": " ^ v) r.facts)
  in
  let metrics =
    String.concat ", "
      (List.map
         (fun (name, v, u) ->
           Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (str name) (json_number v) (str u))
         r.metrics)
  in
  List.iter (fun f -> Printf.eprintf "perfbench: failed: %s\n" f) r.failures;
  Printf.printf "{\"facts\": {%s}}\n" facts;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (r.failures = []) r.attempted (List.length r.failures) metrics

(* --- set-up --- *)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    Sys.mkdir path 0o755
  end

(* The traced run's parse and pack times: repeated at least [setup_reps]
   times and for at least [setup_min_s], median. *)
let setup_reps = 5
let setup_min_s = 1.0

let repeat_median f =
  let t0 = Probe.now_ns () in
  let rec go n acc =
    if n >= setup_reps && (Probe.seconds_since t0 >= setup_min_s || n >= 200) then median acc
    else go (n + 1) (f () :: acc)
  in
  go 0 []

let time_packs ~dir corpora =
  repeat_median (fun () ->
      let t0 = Probe.now_ns () in
      List.iter (Corpus.pack ~dir) corpora;
      Probe.seconds_since t0)

let time_parse corpora =
  repeat_median (fun () ->
      let t0 = Probe.now_ns () in
      List.iter Corpus.parse_text corpora;
      Probe.seconds_since t0)

(* Pack [corpora] into [dir] and time parsing and packing them, all in a
   forked child: this process never holds a corpus, so the first traced
   replay's heap high-water mark is the replay's own. *)
let traced_setup ~dir corpora =
  Scanf.sscanf
    (Probe.in_child (fun () ->
         List.iter (Corpus.pack ~dir) corpora;
         Printf.sprintf "%.17g %.17g" (time_parse corpora) (time_packs ~dir corpora)))
    "%f %f" (fun parse_s pack_s -> (parse_s, pack_s))

(* setup_s, untraced: Store.write of the corpora, timed in a forked
   packer ([Probe.repeater]) that first packs the stores the system
   binaries read and then, on request, packs the corpora into a separate
   directory, so the measured stores are never rewritten. A tiny corpus
   packs in about a millisecond, where the fsync in Store.write
   dominates, and the host's fsync and CPU speed drift over tens of
   seconds: the packs are spread over the whole run in batches of at
   least [setup_batch_s], and setup_s is the median of all of them. *)
let setup_batch_s = 0.25

let packer ~dir corpora =
  let timed = Filename.concat dir "setup" in
  Probe.repeater
    ~prepare:(fun () ->
      mkdir_p timed;
      List.iter (Corpus.pack ~dir) corpora)
    (fun () -> List.iter (Corpus.pack ~dir:timed) corpora)

(* --- CLI workloads --- *)

let cli_args ~dir (job : Replay.job) =
  [ "--store"; Corpus.store_path ~dir job.corpus; "--min-sup"; string_of_int job.min_sup ]
  @ (match job.mode with Replay.All -> [ "--all" ] | Replay.Closed -> [])
  @ (match job.max_length with Some l -> [ "--max-length"; string_of_int l ] | None -> [])
  @ (if job.steal_domains <> None then [ "--steal" ] else [])
  @ [ "-n"; "1000000000" ]

let min_invocations = 4

(* Store.digest of every packed corpus, so results on different corpora
   are never compared silently *)
let digest_facts ~dir corpora =
  [ ( "corpus_digests",
      "{"
      ^ String.concat ", "
          (List.map (fun c -> str c.Corpus.name ^ ": " ^ str (Corpus.digest ~dir c)) corpora)
      ^ "}" ) ]

let cli_untraced ~dir ~seconds job =
  let packer = packer ~dir [ job.Replay.corpus ] in
  let out = Filename.concat dir "answer.txt" in
  let args = cli_args ~dir job in
  let runs, setups =
    Fun.protect
      ~finally:(fun () -> Probe.close_repeater packer)
      (fun () ->
        (* a batch of packs before the first invocation and after each
           one; the window counts everything but the packing *)
        let t0 = Probe.now_ns () in
        let pack_batch () =
          let t = Probe.now_ns () in
          let s = Probe.repeat packer ~min_s:setup_batch_s in
          (s, Probe.seconds_since t)
        in
        let rec loop acc setups packing_s =
          if List.length acc >= min_invocations
             && Probe.seconds_since t0 -. packing_s >= float_of_int seconds
          then (List.rev acc, setups)
          else begin
            let u = Probe.run ~stdout:out (exe "rgsminer.exe") args in
            let got = if u.Probe.exit_code = 0 then Answer.of_file out else None in
            let s, spent = pack_batch () in
            loop ((u, got) :: acc) (s @ setups) (packing_s +. spent)
          end
        in
        let s, spent = pack_batch () in
        loop [] s spent)
  in
  let setup_s = median setups in
  let own_mb = Probe.vm_hwm_mb "self" in
  (* the reference is mined only now, so this process stays small while
     the measured children run (see Probe.run) *)
  let _, codec, report = Replay.reference ~dir job in
  let expected = Answer.of_report ?codec report in
  let failures =
    List.concat
      (List.mapi
         (fun i (u, got) ->
           if u.Probe.exit_code <> 0 then
             [ Printf.sprintf "invocation %d exited %d" i u.Probe.exit_code ]
           else
             match (got, expected) with
             | Some g, Some e when Answer.equal g e -> []
             | Some g, Some e ->
               [ Format.asprintf "invocation %d: answer %a, expected %a" i Answer.pp g Answer.pp e ]
             | _ -> [ Printf.sprintf "invocation %d: no complete answer printed" i ])
         runs)
  in
  let walls = List.map (fun (u, _) -> u.Probe.wall_s) runs in
  let metrics =
    [ ("wall_s", median walls);
      ("cpu_s", median (List.map (fun (u, _) -> u.Probe.cpu_s) runs));
      ("peak_rss_mb", median (List.map (fun (u, _) -> u.Probe.peak_rss_mb) runs));
      ("setup_s", setup_s);
      ("job_latency_p50_s", median walls);
      ("job_latency_p90_s", p90 walls);
      ("jobs_per_s", float_of_int (List.length walls) /. List.fold_left ( +. ) 0. walls) ]
  in
  ( List.length runs,
    failures,
    metrics,
    ("invocations", string_of_int (List.length runs))
    :: ("setup_packs", string_of_int (List.length setups))
    :: ("bench_peak_rss_mb_while_measuring", Printf.sprintf "%.1f" own_mb)
    :: digest_facts ~dir [ job.corpus ] )

let end_to_end_units =
  [ ("wall_s", "s"); ("cpu_s", "s"); ("peak_rss_mb", "MB"); ("setup_s", "s");
    ("job_latency_p50_s", "s"); ("job_latency_p90_s", "s"); ("jobs_per_s", "1/s") ]

(* Per-layer metrics of the daemon path; zero where a workload does not
   use the daemon. *)
let daemon_layer_names =
  [ ("client.admit_s", "s"); ("daemon.run_s", "s"); ("daemon.wait_and_stream_s", "s");
    ("protocol.frames", "count"); ("protocol.bytes_per_pattern", "B"); ("protocol.decode_s", "s");
    ("checkpoint.writes", "count"); ("checkpoint.overhead_s", "s");
    ("scheduler.overloaded", "count") ]

let layer_units =
  [ ("seq_io.parse_s", "s"); ("store.pack_s", "s"); ("store.open_s", "s");
    ("inverted_index.build_s", "s"); ("inverted_index.next_calls", "count");
    ("inverted_index.cursor_advances", "count"); ("inverted_index.cursor_gallops", "count");
    ("inverted_index.advances_per_seek", "ratio"); ("support_set.grow_calls", "count");
    ("support_set.grow_s", "s"); ("closure.check_calls", "count"); ("closure.check_s", "s");
    ("closure.bound_checks", "count"); ("closure.bound_reject_ratio", "ratio");
    ("closure.full_grows", "count"); ("closure.lb_prunes", "count"); ("engine.dfs_nodes", "count");
    ("engine.patterns_emitted", "count"); ("engine.self_s", "s");
    ("parallel_miner.steal_attempts", "count"); ("parallel_miner.steal_successes", "count");
    ("parallel_miner.steal_success_ratio", "ratio"); ("parallel_miner.busy_ratio", "ratio");
    ("parallel_miner.imbalance", "ratio"); ("mined.retained_words", "words");
    ("report.print_s", "s"); ("gc.minor_collections", "count"); ("gc.major_collections", "count");
    ("gc.top_heap_words", "words"); ("gc.allocated_words", "words");
    ("query.floor_prunes", "count") ]
  @ daemon_layer_names
  @ [ ("bench.trace_overhead_ratio", "ratio"); ("bench.self_time_gap", "ratio") ]

type pair = {
  layers : (string * float) list;  (** the traced replay's, summed over jobs *)
  traced_s : float;
  bare_s : float;
  outs : Replay.outcome list;  (** every replay of the pair *)
}

(* Traced/untraced replay pairs until [seconds] have passed (at least
   one pair). *)
let replay_pairs ~spans ~dir ~seconds ~run_id jobs =
  let t0 = Probe.now_ns () in
  let rec loop k acc =
    if k > 0 && Probe.seconds_since t0 >= float_of_int seconds then List.rev acc
    else begin
      let run ?spans tag =
        let outs =
          List.map
            (fun job ->
              Replay.run ?spans ~run_id:(Printf.sprintf "%s-rep%d-%s" run_id k tag) ~dir job)
            jobs
        in
        Gc.compact ();
        outs
      in
      let traced = run ~spans "traced" in
      let bare = run "untraced" in
      let wall outs = List.fold_left (fun acc o -> acc +. o.Replay.wall_s) 0. outs in
      let layers =
        match List.map (fun o -> o.Replay.metrics) traced with
        | m :: ms -> List.fold_left Replay.merge m ms
        | [] -> []
      in
      let pair = { layers; traced_s = wall traced; bare_s = wall bare; outs = traced @ bare } in
      loop (k + 1) (pair :: acc)
    end
  in
  loop 0 []

(* each pair's ratios derived from its own sums, then every metric's
   median over the pairs — except the heap high-water mark, which only
   the first replay of the process reads for itself alone *)
let medians_of pairs =
  match List.map (fun p -> Replay.derive p.layers) pairs with
  | [] -> []
  | first :: _ as derived ->
    List.map
      (fun (name, v) ->
        (name, if name = "gc.top_heap_words" then v else median (List.map (List.assoc name) derived)))
      first

let overhead_ratio pairs = median (List.map (fun p -> p.traced_s /. p.bare_s) pairs)

(* The share of the traced wall no layer span accounts for (median over
   the pairs), and every traced replay's spans whose children outran
   them, against Replay.self_time_tolerance. *)
let self_time_failures pairs layer =
  let tolerance = Replay.self_time_tolerance in
  let gap = Option.value (List.assoc_opt "bench.self_time_gap" layer) ~default:0. in
  (if gap > tolerance then
     [ Printf.sprintf "layer self times miss the traced wall by %.2f%% (tolerance %.0f%%)"
         (100. *. gap) (100. *. tolerance) ]
   else [])
  @ List.concat_map
      (fun p ->
        List.concat_map
          (fun o ->
            List.map
              (fun (name, s) ->
                Printf.sprintf
                  "%s self time %.4f s is below -%.0f%% of its replay's wall: its children outran \
                   it"
                  name s (100. *. tolerance))
              o.Replay.misattributed)
          p.outs)
      pairs

let cli_traced ~dir ~seconds ~spans ~run_id job =
  let corpus = job.Replay.corpus in
  let parse_s, pack_s = traced_setup ~dir [ corpus ] in
  let reps = replay_pairs ~spans ~dir ~seconds ~run_id [ job ] in
  let _, codec, report = Replay.reference ~dir job in
  let expected = Answer.of_report ?codec report in
  let outs = List.concat_map (fun p -> p.outs) reps in
  let failures =
    List.filter_map
      (fun o ->
        match (o.Replay.answer, expected) with
        | Some g, Some e when Answer.equal g e -> None
        | g, _ ->
          Some
            (Format.asprintf "replay answer %a differs from Miner.mine's"
               (Format.pp_print_option Answer.pp) g))
      outs
  in
  let layer = medians_of reps in
  let metrics =
    [ ("seq_io.parse_s", parse_s); ("store.pack_s", pack_s) ]
    @ layer
    @ List.map (fun (n, _) -> (n, 0.)) daemon_layer_names
    @ [ ("bench.trace_overhead_ratio", overhead_ratio reps) ]
  in
  ( List.length outs,
    failures @ self_time_failures reps layer,
    metrics,
    ("replay_pairs", string_of_int (List.length reps)) :: digest_facts ~dir [ corpus ] )

(* --- daemon_mix --- *)

(* One deployment: Store.write of the corpora (timed by the packer)
   plus daemon spawn until the first Pong, over the stores the packer
   prepared. setup_s is the median over [daemon_setups_before] of them
   before the mix, the last of which serves it, and [daemon_setups_after]
   after it, so the set-up samples straddle the mix. *)
let daemon_setups_before = 8
let daemon_setups_after = 8

let daemon_setup ~dir ~packer kinds k =
  let pack_s = List.fold_left ( +. ) 0. (Probe.repeat packer ~min_s:0.) in
  let t0 = Probe.now_ns () in
  let d =
    Daemon_mix.start ~exe:(exe "rgsminerd.exe") ~dir ~tag:(Printf.sprintf "d%d" k)
      (List.map (Corpus.store_path ~dir) (Daemon_mix.corpora kinds))
  in
  (d, pack_s +. Probe.seconds_since t0)

(* Check every job against Miner.mine of its spec, loaded through
   Job.load_db the way the daemon loads it. *)
let check_jobs ~dir kinds results =
  let refs =
    Array.map
      (fun k ->
        let spec = Daemon_mix.spec ~dir ~job_id:"reference" k.Daemon_mix.job in
        match Rgs_server.Job.load_db spec with
        | Error e -> failwith e
        | Ok db ->
          let report = Miner.mine ~config:(Rgs_server.Job.config_of spec) db in
          let rows = Answer.rows_of_report report in
          (db, rows, Answer.of_rows rows))
      kinds
  in
  let ok kind (answer, rows) =
    let db, ref_rows, expected = refs.(kind) in
    match kinds.(kind).Daemon_mix.job.Replay.top_k with
    | None -> Answer.equal answer expected
    | Some _ ->
      Answer.topk_ok db
        ~max_length:(Option.value kinds.(kind).job.Replay.max_length ~default:max_int)
        ~reference:ref_rows rows
  in
  let failures =
    List.concat
      (Array.to_list
         (Array.mapi
            (fun i r ->
              match r with
              | None -> [ Printf.sprintf "job %d never submitted" i ]
              | Some r -> (
                match r.Daemon_mix.failure with
                | Some f -> [ Printf.sprintf "job %d (%s): %s" i kinds.(r.kind).label f ]
                | None when ok r.kind (r.answer, r.rows) -> []
                | None ->
                  [ Format.asprintf "job %d (%s): answer %a differs from Miner.mine's" i
                      kinds.(r.kind).label Answer.pp r.answer ]))
            results))
  in
  (ok, failures)

let completed results = List.filter_map Fun.id (Array.to_list results)

let daemon_untraced ~dir ~seed =
  let kinds = Daemon_mix.kinds ~seed in
  let order = Daemon_mix.schedule ~seed kinds in
  let corpora = Daemon_mix.corpora kinds in
  let packer = packer ~dir corpora in
  let (results, cpu_s, peak_rss_mb), setups =
    Fun.protect
      ~finally:(fun () -> Probe.close_repeater packer)
      (fun () ->
        let setup k =
          let d, s = daemon_setup ~dir ~packer kinds k in
          Daemon_mix.stop d;
          s
        in
        let before = List.init (daemon_setups_before - 1) setup in
        let d, s = daemon_setup ~dir ~packer kinds (daemon_setups_before - 1) in
        let mix =
          Fun.protect
            ~finally:(fun () -> Daemon_mix.stop d)
            (fun () ->
              let cpu0 = Probe.cpu_s_of_live d.pid in
              let results = Daemon_mix.drive ~counted:false ~dir ~seed kinds order d in
              let cpu1 = Probe.cpu_s_of_live d.pid in
              (results, cpu1 -. cpu0, Probe.vm_hwm_mb (string_of_int d.pid)))
        in
        let after = List.init daemon_setups_after (fun i -> setup (daemon_setups_before + i)) in
        (mix, before @ (s :: after)))
  in
  let setup_s = median setups in
  let _, failures = check_jobs ~dir kinds results in
  let done_ = completed results in
  let first = List.fold_left (fun m r -> min m r.Daemon_mix.submitted_ns) max_int done_ in
  let last = List.fold_left (fun m r -> max m r.Daemon_mix.done_ns) 0 done_ in
  let wall_s = float_of_int (last - first) /. 1e9 in
  let latencies = List.map (fun r -> r.Daemon_mix.latency_s) done_ in
  let ok = List.length (List.filter (fun r -> r.Daemon_mix.failure = None) done_) in
  let metrics =
    [ ("wall_s", wall_s); ("cpu_s", cpu_s); ("peak_rss_mb", peak_rss_mb); ("setup_s", setup_s);
      ("job_latency_p50_s", median latencies); ("job_latency_p90_s", p90 latencies);
      ("jobs_per_s", if wall_s > 0. then float_of_int ok /. wall_s else 0.) ]
  in
  ( Array.length order,
    failures,
    metrics,
    ("jobs", string_of_int (Array.length order)) :: digest_facts ~dir corpora )

(* Miner.mine_resumable with a durable checkpoint log against Miner.mine
   on the same specs: what the daemon's per-job log costs. *)
let checkpoint_overhead ~dir kinds =
  let per_kind k =
    let spec = Daemon_mix.spec ~dir ~job_id:"overhead" k.Daemon_mix.job in
    let db = match Rgs_server.Job.load_db spec with Ok db -> db | Error e -> failwith e in
    let config = Rgs_server.Job.config_of spec in
    let time f =
      let t0 = Probe.now_ns () in
      ignore (f ());
      Probe.seconds_since t0
    in
    median
      (List.init 3 (fun i ->
           let path = Filename.concat dir (Printf.sprintf "overhead-%s-%d.ckpt" k.label i) in
           let with_log = time (fun () -> Miner.mine_resumable ~checkpoint:path config db) in
           let without = time (fun () -> Miner.mine ~config db) in
           with_log -. without))
  in
  Array.fold_left (fun acc k -> acc +. per_kind k) 0. kinds

let daemon_traced ~dir ~seed ~spans ~run_id =
  let kinds = Daemon_mix.kinds ~seed in
  let order = Daemon_mix.schedule ~seed kinds in
  let corpora = Daemon_mix.corpora kinds in
  let parse_s, pack_s = traced_setup ~dir corpora in
  (* the replays come first, so the first one's heap high-water mark is
     its own and not the mix's or the references' *)
  let jobs = Array.to_list (Array.map (fun k -> k.Daemon_mix.job) kinds) in
  let reps = replay_pairs ~spans ~dir ~seconds:0 ~run_id jobs in
  let d =
    Daemon_mix.start ~exe:(exe "rgsminerd.exe") ~dir ~tag:"d0"
      (List.map (Corpus.store_path ~dir) corpora)
  in
  let stat c name = Option.value (List.assoc_opt name (Rgs_server.Client.stats c)) ~default:0 in
  let results, checkpoint_writes =
    Fun.protect
      ~finally:(fun () -> Daemon_mix.stop d)
      (fun () ->
        let c = Rgs_server.Client.connect ~timeout_s:30. d.socket in
        Fun.protect
          ~finally:(fun () -> Rgs_server.Client.close c)
          (fun () ->
            let before = stat c "checkpoint_writes" in
            let results = Daemon_mix.drive ~counted:true ~dir ~seed kinds order d in
            (results, stat c "checkpoint_writes" - before)))
  in
  let ok, failures = check_jobs ~dir kinds results in
  let done_ = completed results in
  List.iter
    (fun r ->
      let run_id = r.Daemon_mix.job_id in
      let job =
        Spans.record spans ~run_id "client.job" ~start_ns:r.submitted_ns ~end_ns:r.done_ns
      in
      let accepted = r.submitted_ns + int_of_float (r.admit_s *. 1e9) in
      ignore
        (Spans.record spans ~parent:job ~run_id "client.admit" ~start_ns:r.submitted_ns
           ~end_ns:accepted);
      let await =
        Spans.record spans ~parent:job ~run_id "client.await_done" ~start_ns:accepted
          ~end_ns:r.done_ns
      in
      await.Spans.args <- [ ("daemon_run_s", r.run_s) ])
    done_;
  let sum f = List.fold_left (fun acc r -> acc +. f r) 0. done_ in
  let patterns = sum (fun r -> float_of_int r.Daemon_mix.patterns) in
  let daemon_layers =
    [ ("client.admit_s", median (List.map (fun r -> r.Daemon_mix.admit_s) done_));
      ("daemon.run_s", median (List.map (fun r -> r.Daemon_mix.run_s) done_));
      ( "daemon.wait_and_stream_s",
        median (List.map (fun r -> r.Daemon_mix.latency_s -. r.admit_s -. r.run_s) done_) );
      ("protocol.frames", sum (fun r -> float_of_int r.Daemon_mix.frames));
      ( "protocol.bytes_per_pattern",
        if patterns > 0. then sum (fun r -> float_of_int r.Daemon_mix.frame_bytes) /. patterns
        else 0. );
      ("protocol.decode_s", sum (fun r -> r.Daemon_mix.decode_s));
      ("checkpoint.writes", float_of_int checkpoint_writes);
      ("checkpoint.overhead_s", checkpoint_overhead ~dir kinds);
      ( "scheduler.overloaded",
        float_of_int
          (List.length (List.filter (fun r -> r.Daemon_mix.failure = Some "Overloaded") done_)) ) ]
  in
  let replay_failures =
    List.concat_map
      (fun { outs; _ } ->
        List.concat
          (List.mapi
             (fun i o ->
               let kind = i mod Array.length kinds in
               if ok kind (Answer.of_rows o.Replay.rows, o.Replay.rows) then []
               else [ Printf.sprintf "replay of %s differs from Miner.mine's" kinds.(kind).label ])
             outs))
      reps
  in
  let layer = medians_of reps in
  let metrics =
    [ ("seq_io.parse_s", parse_s); ("store.pack_s", pack_s) ] @ layer @ daemon_layers
    @ [ ("bench.trace_overhead_ratio", overhead_ratio reps) ]
  in
  ( Array.length order + List.length (List.concat_map (fun p -> p.outs) reps),
    failures @ replay_failures @ self_time_failures reps layer,
    metrics,
    ("jobs", string_of_int (Array.length order)) :: digest_facts ~dir corpora )

(* --- the workloads --- *)

let workloads = [ "paper_all"; "jboss_all"; "quest_closed_steal"; "daemon_mix" ]

let cli_job ~seed = function
  | "paper_all" ->
    { Replay.corpus = Corpus.quest_paper ~seed; min_sup = 2000; max_length = Some 2;
      mode = Replay.All; top_k = None; steal_domains = None; print = true }
  | "jboss_all" ->
    { Replay.corpus = Corpus.jboss ~seed; min_sup = 18; max_length = Some 4; mode = Replay.All;
      top_k = None; steal_domains = None; print = true }
  | "quest_closed_steal" ->
    (* rgsminer --steal mines with Parallel_miner.default_domains () *)
    { Replay.corpus = Corpus.quest_fig2 ~seed; min_sup = 6; max_length = None;
      mode = Replay.Closed; top_k = None;
      steal_domains = Some (Parallel_miner.default_domains ()); print = true }
  | w -> invalid_arg w

let work_root = ".perfbench-run"

let run ~workload ~seed ~seconds ~trace =
  let tag = Printf.sprintf "%s-seed%d-trace%d" workload seed (if trace then 1 else 0) in
  let dir = Filename.concat work_root (Printf.sprintf "%s-%d" tag (Unix.getpid ())) in
  mkdir_p dir;
  Fun.protect
    ~finally:(fun () ->
      Probe.reap_live ();
      rm_rf dir)
    (fun () ->
      let spans = Spans.create () in
      let attempted, failures, metrics, run_facts =
        match (workload, trace) with
        | "daemon_mix", false -> daemon_untraced ~dir ~seed
        | "daemon_mix", true -> daemon_traced ~dir ~seed ~spans ~run_id:tag
        | w, false -> cli_untraced ~dir ~seconds (cli_job ~seed w)
        | w, true -> cli_traced ~dir ~seconds ~spans ~run_id:tag (cli_job ~seed w)
      in
      let metrics =
        List.map
          (fun (name, unit) -> (name, List.assoc name metrics, unit))
          (if trace then layer_units else end_to_end_units)
      in
      let trace_file =
        if trace then begin
          let traces = Filename.concat work_root "traces" in
          mkdir_p traces;
          let path = Filename.concat traces (tag ^ ".json") in
          Spans.write_chrome spans path;
          [ ("trace_file", str path) ]
        end
        else []
      in
      let facts =
        [ ("workload", str workload); ("seed", string_of_int seed);
          ("trace", string_of_bool trace); ("seconds", string_of_int seconds);
          ("commit", str (Probe.commit ()));
          ("source_digest", str (Probe.source_digest ()));
          ("nproc", string_of_int (Probe.nproc ()));
          ("ocaml_version", str Sys.ocaml_version);
          ("steal_domains", string_of_int (Parallel_miner.default_domains ()));
          ("daemon_workers", string_of_int Daemon_mix.workers);
          ("bench_peak_rss_mb", Printf.sprintf "%.1f" (Probe.vm_hwm_mb "self")) ]
        @ run_facts @ trace_file
      in
      { attempted; failures; metrics; facts })

let () =
  let workload = ref "" and seed = ref Corpus.canonical_seed in
  let seconds = ref 10 and trace = ref 0 in
  let spec =
    [ ("--workload", Arg.Set_string workload, " one of " ^ String.concat ", " workloads);
      ("--seed", Arg.Set_int seed, " input seed (default 42)");
      ("--seconds", Arg.Set_int seconds, " measuring time (default 10)");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics; 1: per-layer metrics") ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if not (List.mem !workload workloads) || (!trace <> 0 && !trace <> 1) || !seconds < 1 then begin
    prerr_endline
      ("perfbench: need --workload in {" ^ String.concat ", " workloads
     ^ "}, --seconds >= 1 and --trace 0|1");
    exit 2
  end;
  if not (Sys.file_exists (exe "rgsminer.exe") && Sys.file_exists (exe "rgsminerd.exe")) then begin
    prerr_endline "perfbench: rgsminer/rgsminerd are not built next to the benchmark (use run.sh)";
    exit 2
  end;
  (* a dead child or daemon turns into an EPIPE failure, not a silent exit *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Probe.arm_deadline 170;
  print_result (run ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1))
