(** Crash-safe store persistence: two snapshot generations + a WAL.

    A persistence directory holds at most five files:

    {v
    snapshot.cur   latest durable snapshot (written tmp + atomic rename)
    snapshot.prev  the generation before it (fallback)
    wal.cur        mutations since snapshot.cur
    wal.prev       mutations between snapshot.prev and snapshot.cur
    meta           epoch pair of the latest durable snapshot
    v}

    {b Writing.} {!open_dir} installs a {!Refq_storage.Store.set_delta_hook}
    that appends one checksummed WAL record per effective mutation.
    {!snapshot} collapses the log: write [snapshot.tmp] and an empty
    [wal.tmp], rename [wal.cur → wal.prev] then [snapshot.cur →
    snapshot.prev], rename both tmps into place, finally commit [meta] —
    every step through the (fault-injectable) {!Refq_fault.Io} layer.

    {b Recovery.} {!recover} picks the newest snapshot that decodes
    (falling back a generation on any corruption), then replays
    [wal.prev] and [wal.cur] in order. Records at or below the
    snapshot's LSN are skipped (already incorporated); the rest must be
    contiguous — each record's post-mutation epoch pair must be exactly
    the store's pair after applying it. A torn tail is truncated at the
    last sound record; a contiguity break or replay divergence discards
    the suffix. The result is therefore always {e some prefix} of the
    acknowledged mutation history — possibly stale (flagged against
    [meta]), never torn and never wrong. Recovery returns a {!report},
    it does not raise.

    The epoch pair rides along, so caches and view sidecars built
    against a lost suffix compare as out-of-date and go stale — the
    invalidation spine does the rest. *)

open Refq_storage
module Io = Refq_fault.Io

val path :
  string ->
  [ `Snapshot_cur | `Snapshot_prev | `Wal_cur | `Wal_prev | `Meta ] ->
  string
(** The on-disk name of each protocol file under a directory — exposed
    so tests and smoke scripts can corrupt them deliberately. *)

(** {1 Recovery reports} *)

type counts = {
  replayed : int;  (** records applied to the recovered store *)
  skipped : int;  (** sound records already inside the snapshot *)
  discarded : int;
      (** sound records dropped for epoch-gap or replay divergence *)
  truncated_bytes : int;  (** torn-tail bytes dropped by the frame scan *)
}

type source =
  | Snapshot_cur
  | Snapshot_prev
  | Fresh  (** no decodable snapshot; replay starts from the empty store *)

type report = {
  source : source;
  fallback : bool;  (** [snapshot.cur] existed but was rejected *)
  wal_prev : counts;
  wal_cur : counts;
  recovered : int * int;  (** (data, schema) epochs after replay *)
  durable : (int * int) option;  (** epoch pair recorded in [meta] *)
  stale : bool;
      (** recovery reached an LSN below [meta]'s — acknowledged
          mutations were lost; derived artifacts must not trust them *)
  sat_restored : bool;
      (** the snapshot's saturation closure was reusable: no schema record
          was replayed on top of it (data records ride along as its
          delta) *)
  rebuilt_indexes : bool;
  notes : string list;  (** one line per anomaly, oldest first *)
}

val clean : report -> bool
(** No fallback, nothing truncated or discarded, not stale. *)

val pp_report : report Fmt.t

(** {1 Read-only recovery} *)

type mutation = [ `Add of Refq_rdf.Triple.t | `Remove of Refq_rdf.Triple.t ]

type recovered = {
  store : Store.t;
  sat : (Store.t * mutation list) option;
      (** the snapshot's saturation and the data mutations replayed on
          top of it since, oldest first *)
  report : report;
}

val recover : ?io:Io.t -> string -> (recovered, string) result
(** Reconstruct the store without writing anything — what audits use.
    [Error] only for environment problems (missing or unreadable
    directory); every corruption shape is absorbed into the report. *)

(** {1 Open store} *)

type t

val open_dir : ?io:Io.t -> string -> (t, string) result
(** {!recover}, then make the directory live: stale [*.tmp] files are
    removed, [wal.cur] is rewritten to its sound prefix (the truncation
    recovery decided on), and the delta hook starts appending. A fresh
    directory is created (empty store, WAL-only durability until the
    first {!snapshot}). *)

val store : t -> Store.t
val take_sat : t -> (Store.t * mutation list) option
(** As {!recovered}[.sat], handed over once: the handle forgets it, so
    it does not keep the restored saturation alive, and a second call
    returns [None]. *)

val report : t -> report

val snapshot : ?sat:Store.t -> t -> unit
(** Collapse the WAL into a new snapshot generation (see above). [sat]
    must share the store's dictionary. May raise [Io.Crash] under fault
    injection — the handle is then dead (hook uninstalled), exactly like
    the process it simulates. *)

val close : t -> unit
(** Flush and detach the delta hook. The store stays usable in memory;
    further mutations are no longer logged. *)

val set_wal_trace_hook : (int -> unit) option -> unit
(** Install (or clear) the process-global WAL-append observer, called
    with each appended record's LSN (post-mutation [data + schema] epoch
    sum). The concurrency audit layer uses it to check that every append
    happens inside the single-writer section. Costs one atomic load per
    append when uninstalled. *)
