(** The unified pattern-growth DFS behind {!Gsgrow}, {!Clogsgrow} and
    {!Gap_constrained} — one grow loop, parameterized by a {!strategy}.

    All three miners share the same skeleton: depth-first growth of a
    pattern [P] with its leftmost support set, Apriori pruning on support
    (Theorem 1), per-node budget/stop checks, [Node]/[Extension]/[Root]
    tracing, and batched metric flushes. They differ only in

    - {b how a support set grows} (plain [INSgrow], or the gap-bounded
      skip-on-failure variant), and
    - {b whether closure machinery runs} (CloGSgrow's CCheck/LBCheck
      before expansion; absent for the all-patterns miners).

    A {!strategy} captures exactly those two choices; the miner modules
    are thin instantiations and their outputs are byte-identical to the
    pre-engine implementations (pinned by the [@query] differential
    suite).

    Orthogonally, a {!Query.plan} prunes the {e answer} inside the same
    DFS: per-child cuts before the instance growth, a dynamic support
    floor on top of [min_sup], and an emission predicate. The default
    plan ({!Query.trivial}) is a no-op; the soundness of the non-trivial
    plans is argued in [Query] and DESIGN.md. *)

open Rgs_sequence

(** Closure machinery for strategies that emit only closed patterns. *)
type closure_spec = {
  check :
    pattern:Pattern.t ->
    support_set:Support_set.t ->
    prefix_rev_chain:Support_set.t list ->
    Closure.verdict;
      (** per-node verdict, called {e before} appends are grown
          (prunability never depends on them); [prefix_rev_chain] is the
          DFS stack of prefix support sets, most recent first, including
          the node's own set *)
  detect_equal_append : bool;
      (** treat an equal-support append as proof of non-closedness (the
          CCheck contribution CloGSgrow gets for free from the appends it
          grows anyway) *)
}

type strategy = {
  name : string;  (** used in [Invalid_argument] messages *)
  grow : Inverted_index.t -> Support_set.t -> Event.t -> Support_set.t;
      (** instance growth: the leftmost support set of [P ◦ e] from that
          of [P] *)
  closure :
    (Inverted_index.t -> events:Event.t list -> trace:Trace.t -> closure_spec)
    option;
      (** when present, built once per run (so it can own per-run caches);
          nodes then follow the check-first CloGSgrow shape *)
}

type stats = {
  emitted : int;  (** patterns passed to [emit] *)
  dfs_nodes : int;  (** DFS nodes visited *)
  insgrow_calls : int;  (** instance-growth invocations *)
  lb_pruned : int;  (** subtrees cut by the closure verdict *)
  non_closed_dropped : int;  (** nodes rejected by closure checking *)
  query_cuts : int;  (** subtrees cut by {!Query.plan.cut} (never grown) *)
  floor_prunes : int;
      (** frequent extensions pruned by the dynamic floor only *)
  truncated : bool;  (** [true] iff [outcome <> Completed] *)
  outcome : Budget.outcome;  (** why the search ended *)
}

exception Budget_exhausted
(** Raise from [emit] to abort the search with [outcome = Truncated]
    (how the miners implement [max_patterns]); also raised internally
    when [should_stop] fires. *)

(** {1 The reified DFS}

    {!run} drives the whole search itself. The pieces below expose the
    same search one node at a time, which is what the work-stealing
    executor ({!Parallel_miner}) needs: a {!ctx} holds the per-run state
    (strategy, query plan, limits, counters), a {!frame} is one pending
    DFS node, {!expand} visits a node and returns its admitted children
    instead of recursing, and {!run_frame} walks a whole subtree exactly
    like the recursive miner. Emissions and counter increments are
    identical whichever driver is used; only the {e sibling growth
    order} differs ([expand] grows all of a node's extensions before any
    child is visited, [run_frame] interleaves lazily). *)

type ctx
(** Per-run search state. Not safe to share across domains — each pool
    worker builds its own [ctx] (they may share one {!Query.plan} whose
    closures are thread-safe, e.g. {!Query.shared}). *)

type frame
(** A pending DFS node: pattern, leftmost support set, query state and
    the prefix support-set chain (for LBCheck). Immutable; safe to hand
    to another domain whose [ctx] shares the same index and plan. Frames
    are the only holders of support sets: an emitted {!Mined.t} keeps the
    pattern and its support, so a set is garbage once its subtree is done. *)

val make_ctx :
  ?max_length:int ->
  ?events:Event.t list ->
  ?should_stop:(unit -> bool) ->
  ?budget:Budget.t ->
  ?trace:Trace.t ->
  ?plan:Query.plan ->
  strategy ->
  Inverted_index.t ->
  min_sup:int ->
  ctx
(** Arguments exactly as {!run}; counters start at zero.
    @raise Invalid_argument when [min_sup < 1]. *)

val ctx_events : ctx -> Event.t list
(** The resolved candidate event list (the [events] argument, or the
    frequent events of the index). *)

val ctx_emitted : ctx -> int
(** Patterns emitted through this [ctx] so far. *)

val root_frame : ctx -> Event.t -> frame option
(** The root node of event [e]'s subtree: builds the size-1 support set
    and applies the root-level query cut and floor admission. [None]
    when the root is cut or below the floor (the same roots {!run}
    skips). *)

val frame_pattern : frame -> Pattern.t
val frame_support : frame -> Support_set.t

val expand : ctx -> emit:(Mined.t -> unit) -> frame -> frame list
(** Visit one node: stop/budget checks, the node's own emission (or
    closure verdict), growth of its extensions, and query/floor
    admission of the children — returned in left-to-right (DFS) order
    instead of recursed into.
    @raise Budget_exhausted and [Budget.Stop] as {!run_frame}. *)

val run_frame : ctx -> emit:(Mined.t -> unit) -> frame -> unit
(** Mine the whole subtree under a frame depth-first, with the original
    miner's lazy sibling interleaving (one extension grown, recursed,
    then the next). Raises {!Budget_exhausted} when [should_stop] fires
    (or [emit] raises it) and lets [Budget.Stop] propagate — the caller
    owns the stop handling, unlike {!run}. *)

val note_stop : ctx -> Budget.outcome -> unit
(** Record a stop the way {!run} does: bumps [Metrics.budget_stops] and
    traces a [Budget_stop] instant. Call once per run when a
    [Budget_exhausted] / [Budget.Stop] ended the search. *)

val finish : ctx -> outcome:Budget.outcome -> stats
(** Flush the [ctx]'s batched counters into {!Metrics} (once — do not
    call twice) and return them as {!stats}. *)

val run :
  ?max_length:int ->
  ?events:Event.t list ->
  ?roots:Event.t list ->
  ?should_stop:(unit -> bool) ->
  ?budget:Budget.t ->
  ?trace:Trace.t ->
  ?plan:Query.plan ->
  strategy ->
  Inverted_index.t ->
  min_sup:int ->
  emit:(Mined.t -> unit) ->
  stats
(** [run strategy idx ~min_sup ~emit] walks the pattern tree rooted at
    [roots] (default: all frequent events), growing with [events]
    (default likewise), and hands each answer pattern to [emit] in DFS
    order. [plan] defaults to {!Query.trivial} — identical behaviour to
    the pre-engine miners. All other optionals behave exactly as
    documented on {!Gsgrow.mine} / {!Clogsgrow.mine}.
    @raise Invalid_argument when [min_sup < 1]. *)
