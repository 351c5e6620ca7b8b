(** Unified query answering: one entry point running any {!Strategy}.

    This is the demonstration's engine room: given a store (whose RDFS
    triples are its constraints) and a CQ, [answer] runs the selected
    technique and reports the answers together with the per-phase timings
    and reformulation metrics the demo GUI displays (evaluation runtime,
    reformulation sizes, chosen covers, GCov's explored space, saturation
    statistics). *)

open Refq_rdf
open Refq_query
open Refq_schema
open Refq_storage
open Refq_engine
open Refq_cost

module Config = Config
(** Consolidated answering options — see {!Config.t}. *)

module Cache = Refq_cache.Cache
(** Re-exported cache building blocks (LRU, canonical forms, stats). *)

module Views = Refq_views.Views
(** Re-exported materialized-view building blocks (catalog, policy,
    maintenance). *)

type env
(** A prepared database: the store, its schema closure, its statistics, a
    lazily computed, cached saturation (shared by repeated [Saturation]
    runs, as a real Sat deployment would, and maintained across data
    writes — see {!invalidate}), and the three answering caches —
    reformulations, GCov cover traces and materialized fragment
    results. *)

type mutation = [ `Add of Triple.t | `Remove of Triple.t ]
(** One effective store mutation, as {!invalidate} and
    {!inherit_saturation} record it. *)

val make_env : ?cache:Cache.policy -> Store.t -> env
(** [cache] sizes the per-level LRUs ({!Cache.default_policy} when
    omitted). *)

val snapshot_env : env -> env
(** A sealed read environment over a copy of [src]'s store, for a
    serving snapshot. [src] is re-synced first ({!invalidate}, a no-op
    when its epochs are current); the store is copied ({!Store.copy}, no
    work in proportion to the store) and sealed. The closure, its
    fingerprint and the statistics are [src]'s, shared rather than
    recomputed — statistics are a function of the triple set, which the
    copy holds under the same ids — so the snapshot costs no statistics
    pass. The view catalog is shared; the caches start empty and the
    saturation absent (see {!inherit_saturation}). *)

val release_saturation : env -> unit
(** Forget the cached saturation, whatever its state, so the
    environment no longer keeps a saturated store alive. The next
    [Saturation] run computes a fresh one. *)

val store : env -> Store.t

val epochs : env -> int * int
(** The (data, schema) epoch pair the environment is synced at — the pair
    every answer out of this environment is {e served at}. Set by
    {!make_env} and advanced only by {!invalidate}, so after store
    mutations (and until the next [invalidate]) it still names the state
    the caches and statistics describe. The serving front-end pins this
    pair at admission and reports it with each response; [refq cache
    stats] and [answer --explain] print the same pair, so server logs and
    CLI agree on isolation semantics. *)

val closure : env -> Closure.t

val closure_of_store : Store.t -> Closure.t
(** The closure of the store's schema, read from the POS ranges of the
    four RDFS constraint predicates only
    ({!Refq_saturation.Saturate.schema_of_store}) — equal to
    [Closure.of_graph (Store.to_graph store)] without decoding the
    instance data. {!make_env} and {!invalidate} build theirs this way. *)

val card_env : env -> Cardinality.env

val saturated : env -> Store.t * Refq_saturation.Saturate.info
(** The saturation of the store, sealed. The cached value is in one of
    three states: absent (computed from scratch here, in one round for
    standard graphs), current (returned as is), or pending — the
    saturation of an earlier state of the same data plus the effective
    mutations since, brought up to date here in O(delta): copied into
    this environment's dictionary, maintained with
    {!Refq_saturation.Saturate.remove_incremental} and
    {!Refq_saturation.Saturate.add_incremental} under the environment's
    closure, sealed and published as current (counter
    [saturate.maintained]). A maintained saturation's info has
    [rounds = 0]. *)

val saturated_card_env : env -> Cardinality.env
(** The cardinality environment [Saturation] plans against: the
    saturation of the store ({!saturated}, forced like it) and its
    statistics. A maintained saturation's statistics are derived from its
    source's with {!Refq_storage.Stats.update} over the maintenance's own
    effective mutations, so forcing a pending saturation costs no
    statistics pass; a fresh or re-saturated one is counted with
    {!Refq_storage.Stats.compute}. *)

val install_saturated : ?delta:mutation list -> env -> Store.t -> unit
(** Install an externally restored saturation (a snapshot's closure) so
    the first [Saturation] run skips the fixpoint. The store must share
    the environment's dictionary and describe the state before [delta]
    (default: none), the effective mutations replayed on top of it since,
    oldest first — the persistence layer guarantees both. With a delta,
    the saturation is installed as pending. The store is sealed. *)

val inherit_saturation : from:env -> delta:mutation list -> env -> unit
(** Start [env]'s saturation from [from]'s state followed by [delta],
    the effective data mutations (oldest first) that lead from [from]'s
    store to [env]'s: current becomes pending on it, pending keeps its
    source and appends [delta], absent stays absent. The two stores must
    descend from one dictionary lineage (one is a copy of a later state
    of the other's). When the epochs of the two environments are not
    exactly [delta] apart (a schema move, or mutations [delta] does not
    list), [env]'s saturation is absent. Nothing is computed here; the
    serving front-end calls this per snapshot. *)

val views : env -> Views.t
(** The environment's materialized-view catalog (empty until views are
    materialized into it or a loaded catalog is installed with
    {!set_views}). When [config.views.use] is on, {!answer}'s
    reformulation strategies consult it per cover fragment — canonical-CQ
    equality first, then equivalence via the containment cores — and a
    fresh match replaces both the fragment's reformulation and its
    evaluation with the stored extent. *)

val set_views : env -> Views.t -> unit

val views_ctx : env -> Views.ctx
(** The environment's store/closure/statistics bundle, as
    materialization and maintenance want it. *)

val refresh_views :
  ?delta:Views.delta -> ?full_threshold:int -> env -> Views.refresh_outcome
(** Re-sync the environment ({!invalidate}) and bring the catalog up to
    the store's current epochs — see {!Views.refresh} for the delta
    re-evaluation rules. A schema change drops every view (already done
    by {!invalidate}); a data change refreshes affected views, using
    [delta] to keep or append provably-unaffected extents. *)

val invalidate : ?delta:mutation list -> env -> env
(** Refresh the environment after the underlying store changed (demo step
    4: modify data or constraints, re-run), driven by the store's
    monotonic epochs. When [delta] lists every effective mutation since
    the last sync (oldest first, data and schema alike), the statistics
    follow from the synced ones and [delta] by
    {!Refq_storage.Stats.update}, in O(delta · log n); otherwise they are
    counted afresh ({!Refq_storage.Stats.compute}). A data-only change
    drops the cover traces and materialized fragments, but keeps the schema
    closure, its fingerprint and the reformulation cache (reformulation
    depends only on the schema). When [delta] lists every effective
    mutation since the last sync (oldest first), the cached saturation
    is kept as pending and brought up to date on its next read (see
    {!saturated}); without it, or past a fixed share of the store, the
    saturation is dropped. No saturation work runs here.
    A schema change additionally re-derives the closure, drops the
    saturation and clears every cache level.
    A schema change additionally drops every materialized view (their
    reformulations were computed under the old closure); data-stale views
    are kept but become unusable until {!refresh_views} runs, because
    lookups check the recorded epochs. With unchanged epochs this is a
    no-op. Returns the same (mutated) environment. *)

val cache_stats : env -> Cache.stats list
(** Lifetime hit/miss/eviction statistics of the reformulation, cover and
    result caches, in that order. *)

val clear_caches : env -> unit
(** Drop every cached entry (statistics are kept). *)

type backend = Config.backend =
  | Nested_loop  (** index nested loops + hash joins ({!Refq_engine.Evaluator}) *)
  | Sort_merge  (** materialize + sort-merge joins ({!Refq_engine.Sortmerge}) *)

type engine = Config.engine =
  | Binary  (** the configured [backend]'s binary join trees *)
  | Wco
      (** worst-case-optimal leapfrog triejoin
          ({!Refq_wco.Leapfrog}) wherever a feasible variable order
          exists; per-fragment fallback to the binary engine otherwise *)
  | Auto
      (** per fragment, whichever of the two the cost model
          ({!Refq_cost.Cost_model.leapfrog_ucq}) estimates cheaper *)

(** {1 Degraded-answer reporting}

    Shared vocabulary for answering under endpoint failure and execution
    budgets (produced by {!Refq_federation.Federation.answer_ref}, and by
    {!answer} when a {!Refq_fault.Budget.t} trips). Missing contributions
    only ever {e lose} answers — reformulation-based answering never
    invents rows — so a degraded answer is sound, and the verdict records
    whether it is also provably complete. *)

type endpoint_contribution =
  | Complete  (** the endpoint returned everything it had for this fragment *)
  | Truncated of { returned : int }
      (** an answer limit or injected truncation cut the result *)
  | Failed of {
      attempts : int;  (** call attempts made, including retries *)
      error : string;  (** the last error observed *)
    }
  | Skipped_open_circuit
      (** the endpoint's circuit breaker was open; no call was attempted *)

type fragment_report = {
  fragment : int;  (** 0-based fragment index in the JUCQ *)
  contributions : (string * endpoint_contribution) list;
      (** per endpoint name, in federation endpoint order *)
}

type completeness =
  | Sound_and_complete
      (** every fragment got every endpoint's full contribution and no
          budget tripped: the answer equals the fault-free one *)
  | Sound_but_possibly_incomplete
      (** some contribution was lost or cut; the returned rows are still
          correct answers *)

type federation_report = {
  fragment_reports : fragment_report list;
  verdict : completeness;
  budget_stop : string option;
      (** why evaluation stopped early, when the budget tripped *)
}

val completeness_verdict :
  ?budget_stop:string -> fragment_report list -> completeness
(** Derive the overall verdict: complete iff no budget stop and every
    contribution of every fragment is [Complete]. *)

val pp_completeness : completeness Fmt.t

val pp_contribution : endpoint_contribution Fmt.t

val pp_federation_report : federation_report Fmt.t

type detail =
  | Reformulated of {
      cover : Cover.t;
      jucq_size : int;  (** total CQ disjuncts across fragments *)
      n_fragments : int;
      fragment_cardinalities : int list;
          (** materialized fragment sizes, in fragment order — Example 1
              reports these (33,328,108 vs 2,296...) *)
      view_hits : bool list;
          (** per fragment: was it served from a materialized view? When
              every fragment hit, [jucq_size] is 0 — no reformulation was
              needed at all *)
      engines : string list;
          (** per fragment, the chosen physical operator ("leapfrog",
              "binary", "view", or the leapfrog-infeasible fallback
              wording) — empty under the default [Binary] policy, which
              never consults the wco planner *)
      gcov : Gcov.trace option;  (** present for the [Gcov] strategy *)
    }
  | Saturated of Refq_saturation.Saturate.info
  | Datalog_run of Refq_datalog.Datalog.stats

type report = {
  strategy : Strategy.t;
  answers : Relation.t;
  planning_s : float;
      (** cover-search time (GCov); 0 for the fixed-cover strategies *)
  reformulation_s : float;
      (** reformulation / saturation / program build time *)
  evaluation_s : float;
  detail : detail;
}

val n_answers : report -> int

val total_s : report -> float
(** [planning_s +. reformulation_s +. evaluation_s]. *)

type failure = {
  f_strategy : Strategy.t;
  reason : string;  (** e.g. reformulation exceeded the size limit *)
  f_reformulation_s : float;
}

val answer :
  ?config:Config.t -> env -> Cq.t -> Strategy.t -> (report, failure) result
(** Run one strategy under a {!Config.t} (default {!Config.default}).
    [config.max_disjuncts] bounds reformulation sizes; exceeding it yields
    [Error] — modelling Example 1's unparseable 318,096-CQ union rather
    than aborting the process. [config.minimize] drops
    containment-redundant disjuncts from each fragment UCQ before
    evaluation (fragments above 2,000 disjuncts are left as-is:
    minimization is quadratic). [config.backend] selects the physical
    engine — the paper runs every strategy on several systems to show the
    trade-offs are engine-independent. [config.engine] independently
    selects the join {e operator} per fragment (binary trees vs leapfrog
    triejoin — see {!engine}); every policy returns the same answer
    sets, and the chosen operators are reported in the [Reformulated]
    detail. [config.budget] caps evaluation
    work: its reformulation cap tightens [max_disjuncts], and a tripped
    deadline or row cap yields [Error] with a ["budget exhausted"] reason
    (all strategies except [Datalog], whose engine is the external-system
    stand-in).

    With [config.use_cache] (the default) the reformulation strategies run
    on the query's canonical form and consult the environment's caches:
    the JUCQ reformulation (keyed modulo variable renaming plus the schema
    fingerprint), GCov's cover trace (plus the data epoch pinning the
    statistics) and each materialized fragment relation (plus data epoch
    and backend). Cached and uncached runs return identical answer sets;
    only the column names of [report.answers] may differ (canonical
    variable names), which positional {!decode} ignores. *)

val answer_union :
  ?config:Config.t ->
  env ->
  Ucq.t ->
  Strategy.t ->
  (Relation.t * report list, failure) result
(** Answer a union of BGP queries (the paper's full dialect): each
    disjunct is answered independently with the chosen strategy and the
    answers are unioned — answering commutes with union. Returns the
    merged, duplicate-free relation and the per-disjunct reports. *)

val decode : env -> Relation.t -> Term.t list list
(** Decoded, sorted, distinct answer rows. *)

val pp_report : report Fmt.t
