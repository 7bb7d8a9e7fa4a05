(** High-level mining facade.

    One-call API over the {!Engine} DFS: build the inverted index, mine,
    and present results. This is the entry point example programs and the
    CLI use; the per-algorithm modules remain available for finer
    control.

    A run takes one of two paths. The {b sequential} path is one
    {!Engine.run} under the query's {!Query.collector}: the reference
    DFS, used when [domains] is unset and there is no checkpoint. The
    {b partitioned} path is the work-stealing executor
    ({!Parallel_miner.mine_roots}) over the frontier roots: every run
    with [domains] and every {!mine_resumable} run (one domain when
    [domains] is unset). Both return the same answer.

    Resilience: a config may carry runtime limits (wall-clock deadline,
    DFS-node budget, GC heap-words ceiling). The miners stop cooperatively
    when a limit is hit and the report always carries the patterns mined so
    far plus an explicit {!Budget.outcome}. {!mine_resumable} additionally
    checkpoints completed DFS roots to disk so a stopped run can resume
    without redoing them. *)

open Rgs_sequence

type mode =
  | All  (** GSgrow: every frequent pattern *)
  | Closed  (** CloGSgrow: closed frequent patterns only *)

type config = {
  min_sup : int;
  mode : mode;
  query : Query.t;
      (** answer mode, pruned inside the DFS ({!Query}): everything
          (default), only patterns containing a target subsequence, or the
          k best by support. [Targeted] answers keep DFS order; [Top_k]
          answers come support-descending, with equal-support ties at the
          [k] boundary resolved deterministically but path-specifically
          (first DFS arrival on the sequential path, smallest by
          {!Mined.compare_by_support_desc} on the partitioned path) *)
  max_length : int option;  (** bound on pattern length *)
  max_patterns : int option;
      (** output budget: the answer becomes a prefix of the full DFS
          order, so only the sequential path honours it *)
  max_gap : int option;
      (** gap-constrained mining ({!Gap_constrained}): sound greedy lower
          bound, mines all patterns — [mode] is ignored *)
  domains : int option;
      (** mine on the partitioned path with this many work-stealing
          domains ({!Parallel_miner}); any [mode], [query] and [max_gap],
          but not [max_patterns] *)
  shards : int option;
      (** run every instance growth shard-by-shard over this many balanced
          database shards and merge ({!Shard_merge}) — output identical by
          construction, in every mode including checkpoint/resume *)
  shard_dispatch : Shard_merge.dispatch option;
      (** how the per-shard grown parts are computed: [None] (default)
          computes them in-process; a supervisor ([Rgs_server.Supervisor])
          supplies a closure that ships slices to isolated worker
          processes, falling back in-process per shard on failure —
          output identical either way. Requires [shards]; called
          concurrently from every domain on the partitioned path *)
  index_kind : Inverted_index.kind option;
      (** index backend; [None] keeps the default (CSR) *)
  deadline_s : float option;
      (** wall-clock budget in seconds; on expiry the run stops with
          [Deadline_exceeded] and partial results *)
  max_nodes : int option;
      (** DFS-node budget; on exhaustion the run stops with [Truncated] *)
  max_words : int option;
      (** GC heap-words ceiling; on excess the run stops with
          [Memory_limit] *)
}

val config :
  ?mode:mode ->
  ?query:Query.t ->
  ?max_length:int ->
  ?max_patterns:int ->
  ?max_gap:int ->
  ?domains:int ->
  ?shards:int ->
  ?shard_dispatch:Shard_merge.dispatch ->
  ?steal:bool ->
  ?index_kind:Inverted_index.kind ->
  ?deadline_s:float ->
  ?max_nodes:int ->
  ?max_words:int ->
  min_sup:int ->
  unit ->
  config
(** Defaults: [mode = Closed], [query = All], CSR index, sequential,
    unsharded, no bounds. [steal] is accepted and ignored: work stealing
    is the only parallel executor, selected by [domains].
    @raise Invalid_argument when [min_sup < 1], [max_gap < 0],
    [domains < 1], [shards < 1], a limit is out of range, the query is
    invalid ({!Query.validate}), [max_patterns] is combined with a top-k
    query or with [domains], or [shard_dispatch] is given without
    [shards]. *)

type report = {
  results : Mined.t list;  (** in DFS order *)
  truncated : bool;  (** [true] iff [outcome <> Completed] *)
  outcome : Budget.outcome;  (** why the run ended *)
  elapsed_s : float;
  quarantined : int;
      (** poison roots excluded from [results]: quarantined this run after
          crashing twice on the partitioned path, or skipped on resume
          because a prior run quarantined them. Always [0] on the
          sequential path, where a crash propagates to the caller. *)
}

val mine : ?config:config -> ?min_sup:int -> ?trace:Trace.t -> Seqdb.t -> report
(** Mines [db]. Pass either a full [config] or just [min_sup] (with the
    defaults of {!config}). A live [trace] (default {!Trace.null}) records
    the run's DFS spans and instants — see {!Trace}.
    With [domains] set the run takes the partitioned path: a crashing
    root is retried once and then quarantined ([Worker_failed] outcome,
    [report.quarantined]), and a budget stop keeps only the roots that
    finished. Without [domains] a crash propagates, and a budget stop
    keeps every pattern emitted before it.
    @raise Invalid_argument when neither [config] nor [min_sup] is given,
    or when [config] fails the checks of {!config}. *)

val mine_indexed : ?trace:Trace.t -> config -> Inverted_index.t -> report
(** As {!mine} on a prebuilt index (amortises index construction across
    parameter sweeps; [config.index_kind] is ignored). *)

val mine_resumable :
  ?budget:Budget.t ->
  ?checkpoint:string ->
  ?resume:bool ->
  ?retry_quarantined:bool ->
  ?trace:Trace.t ->
  config ->
  Seqdb.t ->
  report
(** Partitioned mining with durable checkpoint/resume. Roots (frequent
    size-1 patterns) are mined by the work-stealing executor with
    [config.domains] workers (one when unset); a crashing root is retried once
    (with backoff) and, if it crashes again, {e quarantined}: its patterns
    are missing from [results] ([Worker_failed] outcome,
    [report.quarantined] counts it) and the checkpoint records it so a
    resumed run skips it instead of re-crashing. Pass
    [retry_quarantined:true] to put previously quarantined roots back on
    the frontier (e.g. after fixing the cause) — a successful re-mine
    appends a superseding record. When a budget stops the run, the
    patterns already mined under unfinished roots are in [results] too,
    but only finished roots are logged.

    With [checkpoint:path], the log at [path] gains one record {e per
    completed root, as it completes} ({!Checkpoint.Writer}) — a run killed
    outright loses at most the record being appended — plus quarantine
    records and a final {!Checkpoint.Run_outcome}. With [resume:true] a
    matching checkpoint is loaded first (salvaging a torn tail) and only
    the remaining roots are mined, so the finished report equals an
    uninterrupted run's. A checkpoint written for a different database,
    [min_sup], [mode], [max_length], [query] or [max_gap] is rejected
    ({!Checkpoint.Corrupt}); checkpoints that predate queries or gap
    mining resume cleanly under [query = All] and no [max_gap], whose
    fingerprint is unchanged. A top-k answer is re-ranked over the
    union of the resumed and the fresh roots.
    Runtime limits may differ between the original and the resumed run.
    Checkpoint appends are recorded into [trace] as [Checkpoint_write]
    spans ([a0] = completed roots, [a1] = remaining); I/O failures degrade
    gracefully (see {!Checkpoint.Writer}) rather than killing the run.

    When {!Budget.install_signal_handlers} has been called, a limitless
    cooperative budget is created even without configured limits, so
    SIGINT/SIGTERM stop the run with [Interrupted] after the final
    checkpoint records are appended.

    An explicit [budget] overrides the config-derived one entirely (the
    config's [deadline_s]/[max_nodes]/[max_words] are ignored): the caller
    owns the limits and may {!Budget.cancel} from another domain — this is
    how the daemon ({!Rgs_server}) cancels a job whose client vanished.

    @raise Invalid_argument with [max_patterns] (it needs the sequential
    path), when [resume] is set without [checkpoint], or when [config]
    fails the checks of {!config}. *)

val landmarks : Seqdb.t -> Pattern.t -> Instance.full list
(** Full-landmark leftmost support set of a pattern, for displaying where
    instances occur. *)

val support : Seqdb.t -> Pattern.t -> int
(** One-off repetitive support query. *)

val pp_report : ?codec:Codec.t -> ?limit:int -> Format.formatter -> report -> unit
(** Prints up to [limit] results (default 20) ordered by decreasing
    support; non-[Completed] outcomes are flagged in the header line. *)

val log_src : Logs.src
(** The [rgs.miner] log source ([Info]: run start/finish). *)
