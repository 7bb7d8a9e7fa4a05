(** The parallel executor (OCaml 5 multicore): work stealing over DFS
    subtrees, with crash isolation.

    The DFS subtrees rooted at distinct size-1 patterns are independent:
    the inverted index is read-only after construction and support sets
    are subtree-local. Every worker domain owns a {!Deque}. It claims
    fresh roots from a shared counter in {!largest_first_order}, splits
    shallow nodes into one task per admitted child, and mines deeper
    subtrees whole. A worker with no roots left and no local work steals
    the oldest task from a sibling, so one heavy root does not leave the
    other domains idle. Results are keyed by root and DFS path, so each
    root's output is {b identical} to the sequential DFS whatever the
    schedule.

    Resilience: an exception raised while mining a root is contained to
    that root. Every spawned domain is always joined, the root is retried
    once sequentially, and if the retry fails too the root is
    quarantined: only its patterns are missing, and the run's outcome is
    [Worker_failed]. A shared {!Budget.t} stops every worker
    cooperatively; roots finished before the stop keep their results,
    and unfinished roots keep what was mined under them. A worker with
    nothing to claim or steal spins briefly, then sleeps with
    exponential backoff (10 us up to 1 ms), so idle domains do not take
    CPU from busy ones.

    This executor serves every parallel and every checkpointed run
    ({!Miner}); a checkpointed run without [domains] uses one domain.
    An extension beyond the paper (the 2009 evaluation was single-core),
    kept orthogonal: all correctness arguments are the sequential
    algorithms'. *)

open Rgs_sequence

val default_domains : unit -> int
(** [min (Domain.recommended_domain_count ()) 8], at least 1. *)

val auto_shards : unit -> int
(** [Domain.recommended_domain_count ()], at least 1 — the shard count
    the CLIs' [--shards auto] resolves to (uncapped, unlike
    {!default_domains}: shards are index views, not running domains,
    so there is no oversubscription cost to matching the machine). *)

type root_status =
  | Done of Mined.t list
      (** the root's whole subtree was mined; its results in DFS order *)
  | Partial of Mined.t list
      (** not finished: a budget stop halted the run first. Carries the
          patterns mined under the root before the stop, in DFS order
          with gaps where tasks did not finish ([[]] for a root never
          claimed). A resume mines the root again, so a checkpoint
          reports these but never logs them. *)
  | Quarantined of { exn : exn; backtrace : string }
      (** poison root: it raised in the executor {e and} in the
          sequential retry. {!Miner.mine_resumable} records these in the
          checkpoint so a resumed run skips them instead of re-crashing. *)

val largest_first_order :
  Inverted_index.t -> Rgs_sequence.Event.t array -> int array
(** The executor's claim order: root indices sorted by their event's
    occurrence count descending, {b ties broken by the lower root index}
    — the comparator is a total order, so the permutation is identical
    on every OCaml version and backend ([Array.sort] is not stable, so
    an array-order tie-break would not be). Heavy DFS subtrees start
    first: longest-processing-time-first on the size-1 support proxy. *)

val mine_roots :
  ?domains:int ->
  ?max_length:int ->
  ?budget:Budget.t ->
  ?trace:Trace.t ->
  ?shards:int ->
  ?shard_dispatch:Shard_merge.dispatch ->
  ?shared:Query.shared ->
  ?split_len:int ->
  ?roots:Event.t list ->
  ?on_root_done:(Event.t -> Mined.t list -> unit) ->
  strategy:Engine.strategy ->
  Inverted_index.t ->
  min_sup:int ->
  root_status array * Engine.stats
(** [mine_roots ~strategy idx ~min_sup] mines the subtree of every root
    in [roots] (default: the frequent events of [idx]) with [domains]
    workers (default {!default_domains}) and returns one status per
    root, indexed like [roots], plus the stats summed over every worker.

    - Nodes of pattern length at most [split_len] (default 2) are split
      into one task per child ([Engine.expand]); deeper subtrees are
      mined whole ([Engine.run_frame]). With one domain nothing is
      split.
    - [shared] (default: {!Query.shared} of [Query.All]) is the query
      plan every worker consults; the caller applies its
      [finalize] to the union of the results. The sequential retry of
      a crashed root does not offer to it (the first attempt may have
      offered the same patterns already).
    - [shards] wraps the strategy with {!Shard_merge.strategy} per
      worker; [shard_dispatch] computes the per-shard growths (for
      example in supervised processes). It is called concurrently from
      every worker, so it must be thread-safe.
    - [on_root_done root results] is called once per finished root, by
      the worker that finished it (so concurrently): this is where a
      checkpoint appends its [Root_done] record. A root counts as
      [Done] only after the call returns; a raising hook fails the root
      like a crashed task.
    - [Budget.Fault.Worker i] fires as root [i] (an index into [roots])
      is claimed and again on its retry; [Budget.Fault.Steal w] fires
      when worker [w] runs a stolen task. [RGS_CHAOS_ROOT_DELAY_MS]
      sleeps that long before each root, a window for signal and
      kill tests.

    [stats.outcome] is the budget stop that halted the run, combined
    with [Worker_failed] when a root was quarantined; [Cancelled] when
    roots were left [Partial] without a recorded stop. Metrics:
    [pool_workers], [steal_attempts]/[steal_successes],
    [deque_max_depth], [root_retries], [quarantined_roots]; trace: a
    [Worker] span per worker, a [Root] span per finished root, [Steal],
    [Root_retry] and [Quarantine] instants.
    @raise Invalid_argument when [min_sup < 1], [domains < 1] or
    [shards < 1]. *)

val mine_steal :
  ?domains:int ->
  ?max_length:int ->
  ?budget:Budget.t ->
  ?trace:Trace.t ->
  ?shards:int ->
  ?query:Query.t ->
  ?split_len:int ->
  strategy:Engine.strategy ->
  Inverted_index.t ->
  min_sup:int ->
  Mined.t list * Engine.stats * int
(** {!mine_roots} over every frequent root, assembled: the results of
    the [Done] and [Partial] roots in root order, then [query]'s
    {!Query.shared} [finalize] (the top-k floor is a shared atomic inherited by stolen
    subtrees; ties at the k-th support are resolved canonically, not
    by arrival). Without a budget stop the output is identical to the
    sequential miner's for every schedule, shard count and domain
    count. The third result is
    the number of quarantined roots.
    @raise Invalid_argument as {!mine_roots}. *)
