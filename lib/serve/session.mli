(** The supported entry point to a refq database: one handle owning the
    store, its answering environment (closure, statistics, caches), the
    materialized-view catalog, the persistence handle and the domain
    pool — everything the CLI, the demo, the examples and the server
    previously wired by hand.

    A session is built from one {!Config.t} and an optional seed store:

    {[
      let config =
        Session.Config.(default |> with_persist_dir "/var/lib/refq")
      in
      match Session.open_ ~config ~store:seed () with
      | Error m -> prerr_endline m
      | Ok session ->
        let report = Session.answer session q Strategy.Gcov in
        ...
        Session.close session
    ]}

    Every query entry point re-syncs the environment against the store's
    epochs first ([Answer.invalidate], a no-op when nothing changed), so
    interleaving {!apply} and {!answer} is always sound. A session is
    {e not} thread-safe by itself — the serving front-end ({!Serve})
    layers snapshot isolation and locking on top. *)

open Refq_rdf
open Refq_query
open Refq_storage
open Refq_engine
open Refq_core
module Persist = Refq_persist.Persist

(** Everything configurable about a session, with [with_*] builders so
    call sites name only what they change. *)
module Config : sig
  type t = {
    answer : Refq_core.Config.t;  (** default answering configuration *)
    cache : Refq_cache.Cache.policy;  (** LRU sizes of the three caches *)
    views_file : string option;
        (** sidecar catalog to load at open (missing file: empty catalog) *)
    persist_dir : string option;
        (** open or crash-recover a persistence directory; mutations
            stream to its write-ahead log *)
    domains : int;  (** global domain-pool size ({!Refq_par.Par}) *)
    io : Refq_fault.Io.t;  (** I/O layer for persistence (fault injection) *)
  }

  val default : t
  (** In-memory, no views sidecar, 1 domain, real I/O,
      [Refq_core.Config.default] answering. *)

  val with_answer : Refq_core.Config.t -> t -> t
  val with_cache : Refq_cache.Cache.policy -> t -> t
  val with_views_file : string -> t -> t
  val with_persist_dir : string -> t -> t
  val with_domains : int -> t -> t
  val with_io : Refq_fault.Io.t -> t -> t
end

type t

(** What happened at {!open_} — the facts the CLI reports to the user. *)
type info = {
  recovery : Persist.report option;
      (** present iff the session opened a persistence directory *)
  seeded : int;
      (** triples streamed into a fresh persistence directory from the
          seed store (0 when the directory already held data) *)
  views_loaded : int;  (** views loaded from the sidecar catalog *)
  views_skipped : int;  (** undecodable sidecar views (dropped, not trusted) *)
  views_error : string option;
      (** a damaged sidecar is ignored with this one-line reason *)
}

val open_ : ?config:Config.t -> ?store:Store.t -> unit -> (t, string) result
(** Open a session. Without [config.persist_dir], [store] (default: a
    fresh empty store) is the database. With it, the directory is opened
    or crash-recovered; a fresh/empty directory is seeded from [store]
    (diff streamed through the WAL, then snapshotted) and a non-empty one
    wins over the seed — rerunning against the same directory resumes the
    durable state. [Error] for environment problems (unreadable
    directory, invalid domain count); recovery anomalies are reported in
    {!info}, not raised. *)

val of_store : ?config:Config.t -> Store.t -> (t, string) result
(** [open_ ~store ()] — the one-liner for in-memory use. *)

val config : t -> Config.t

val info : t -> info

val store : t -> Store.t
(** The live store. Mutating it directly is legal (epochs keep the
    session honest) but {!apply} also maintains the environment. *)

val env : t -> Answer.env
(** Escape hatch to the underlying environment, for APIs not yet lifted
    to the session ([Answer.refresh_views], [Answer.saturated], ...). *)

val persisted : t -> bool

val epochs : t -> int * int
(** The (data, schema) epoch pair answers are currently served at
    (re-synced against the store first). *)

val answer :
  ?config:Refq_core.Config.t -> t -> Cq.t -> Strategy.t ->
  (Answer.report, Answer.failure) result
(** Answer one CQ ([config] defaults to the session's). The environment
    is re-synced first, so results always reflect every {!apply} that
    returned. *)

val answer_union :
  ?config:Refq_core.Config.t -> t -> Ucq.t -> Strategy.t ->
  (Relation.t * Answer.report list, Answer.failure) result

val lint :
  ?config:Refq_core.Config.t -> t -> Cq.t -> Refq_analysis.Diagnostic.t list

val decode : t -> Relation.t -> Term.t list list

val cache_stats : t -> Refq_cache.Cache.stats list

val apply_effective :
  t -> Answer.mutation list -> Answer.mutation list
(** Apply a mutation batch to the live store — removals and insertions in
    list order — and re-sync the environment with the batch's
    {e effective} mutations (duplicate inserts and absent removals are
    no-ops), which it returns in order. Each effective one bumped an
    epoch and, under persistence, appended a WAL record. A data-only
    batch keeps the environment's saturation, to be brought up to date
    on its next read ({!Answer.invalidate}). *)

val apply : t -> [ `Add of Triple.t | `Remove of Triple.t ] list -> int
(** [List.length (apply_effective t muts)]. *)

val snapshot_env : t -> Answer.env
(** A sealed read environment over a copy of the live store, at the
    current epochs ({!Answer.snapshot_env}): it shares the session's
    closure and statistics and costs no statistics pass. Its saturation
    starts absent. The serving front-end builds one per writer batch. *)

val snapshot : t -> unit
(** Collapse the WAL into a new snapshot generation now (no-op without
    persistence). May raise [Refq_fault.Io.Crash] under fault injection. *)

val close : t -> unit
(** Graceful shutdown: under persistence, snapshot (flushing the WAL into
    a fresh generation — skipped when this session never moved the
    store's epochs, so read-only runs close cheaply) and detach.
    Idempotent; the store stays usable in memory. Later calls through the
    session raise [Invalid_argument]. *)
