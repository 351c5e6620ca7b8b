(** Dictionary-encoded triple store with SPO / POS / OSP indexes.

    This plays the role of the RDBMS storing the database in the paper's
    architecture: triples are integer tuples, and three sorted permutation
    indexes provide exact-range lookups for every triple-pattern binding
    shape. Insertions append to a triple vector and removals only record
    the removed key; the first lookup after a batch merges that delta
    into the sorted indexes ({!freeze}). Membership is a binary search on
    the SPO index plus two tables holding only the delta since the last
    freeze. *)

open Refq_rdf

type t

val create : ?dictionary:Dictionary.t -> unit -> t

val dictionary : t -> Dictionary.t

val add_ids : t -> int -> int -> int -> unit
(** Insert an encoded triple (deduplicated). *)

val add : t -> Term.t -> Term.t -> Term.t -> unit

val add_triple : t -> Triple.t -> unit

val add_graph : t -> Graph.t -> unit

val of_graph : Graph.t -> t

val to_graph : t -> Graph.t

val size : t -> int
(** Number of distinct triples. *)

val data_epoch : t -> int
(** Monotonic counter bumped by every effective insertion or removal of
    an instance-level triple (any predicate other than the four RDFS
    constraint predicates). Duplicate insertions and no-op removals do
    not bump it. Drives the answering caches' data-level invalidation. *)

val schema_epoch : t -> int
(** Like {!data_epoch}, but for schema-level triples (predicates
    [rdfs:subClassOf], [rdfs:subPropertyOf], [rdfs:domain],
    [rdfs:range]). Drives closure re-derivation and schema-level cache
    invalidation. *)

val restore_epochs : t -> data:int -> schema:int -> unit
(** Overwrite both epoch counters — for the persistence layer, which must
    reopen a store at the epochs it was saved at so that sidecars
    (caches, views) compare against the durable history rather than a
    counter restarted at zero. @raise Invalid_argument on negatives. *)

type delta = { op : [ `Add | `Remove ]; s : int; p : int; o : int }
(** One effective mutation, in encoded ids. *)

val set_delta_hook : t -> (delta -> unit) option -> unit
(** Install (or clear) the mutation observer. It fires once per
    {e effective} mutation — after the epoch bump, so reading the store's
    epochs from inside the hook yields the post-mutation values — and
    never for duplicate inserts or absent removals. The persistence layer
    uses it to feed the write-ahead log. At most one hook is active. *)

val uid : t -> int
(** A process-unique identity for this store value ({!copy} allocates a
    fresh one). Names stores in the concurrency trace; carries no other
    meaning. *)

(** {2 Concurrency trace hook}

    A second, process-global observer besides the per-store delta hook:
    the concurrency audit layer ([Refq_analysis.Conc_trace]) installs it
    to record synchronization-relevant store operations. Costs one atomic
    load per probe when uninstalled. *)

type trace_event =
  | T_mutate  (** effective add/remove, observed post-epoch-bump *)
  | T_epoch_set  (** {!restore_epochs} *)
  | T_seal
  | T_unseal
  | T_copy of t  (** carries the fresh copy; the receiver is the source *)
  | T_read  (** {!iter_pattern} / {!count_pattern} entry *)

val set_trace_hook : (t -> trace_event -> unit) option -> unit
(** Install (or clear) the global trace observer. It may fire from any
    domain — worker domains read sealed stores in parallel — so the
    observer must be thread-safe and must not call back into the store
    beyond the read-only accessors ({!uid}, {!data_epoch},
    {!schema_epoch}). At most one observer is active. *)

val mem_ids : t -> int -> int -> int -> bool
(** Whether the encoded triple is live: a lookup in the delta since the
    last {!freeze}, then a binary search on the SPO index. *)

val remove_ids : t -> int -> int -> int -> unit
(** Remove an encoded triple (no-op when absent). The triple vector is
    compacted lazily at the next {!freeze}. *)

val remove_triple : t -> Triple.t -> unit

val freeze : t -> unit
(** Bring the indexes up to date now (otherwise done on first lookup).
    Only the delta since the last freeze is sorted: removed triples are
    found by binary search on the SPO index and dropped from the vector
    and the permutations in one renumbering pass, appended ones are
    merged into each permutation. The vector keeps the first surviving
    entry of each triple in insertion order, and each permutation is the
    sorted order of that vector — exactly what a rebuild from scratch
    gives. A freeze after [d] changes to [n] triples costs [O(n + d log
    n)]; the first freeze sorts everything. *)

val seal : t -> unit
(** Open a parallel read region: {!freeze} now (so no worker triggers the
    lazy index build), then make every mutator — {!add_ids},
    {!remove_ids}, {!restore_epochs}, {!import_indexes}, and
    {!encode_term} when it would allocate a fresh id — raise
    [Invalid_argument] until {!unseal}. While sealed, the store is safe to
    read from any number of domains concurrently; mutation (including
    merging worker results) is the coordinating domain's job, after
    [unseal]. Idempotent. *)

val unseal : t -> unit
(** Close the parallel read region opened by {!seal}. Idempotent. *)

val sealed : t -> bool

val copy : ?dictionary:Dictionary.t -> t -> t
(** An independent copy: same triples, same dictionary ids, same epoch
    pair. It freezes the source, then shares everything it holds: the
    permutation indexes (no index array is ever written after it is
    built), the triple vector (copy-on-write: the first mutation of
    either store copies it first) and the dictionary's generation
    ({!Dictionary.copy}). Mutations on either side never reach the
    other, and the copy costs the same at any store size once the source
    is frozen. The copy starts
    unsealed and without a delta hook (a snapshot copy must not feed the
    original's WAL). This is the copy-on-bump primitive of the serving
    front-end: the writer copies the live store after a batch commits,
    seals the copy and hands it to readers as the next epoch snapshot.

    With [dictionary], the copy uses that dictionary (shared, not copied)
    instead of a private copy of the original's: the caller guarantees
    that every id the original holds names the same term there. *)

val iter_pattern :
  t -> s:int option -> p:int option -> o:int option ->
  (int -> int -> int -> unit) -> unit
(** Iterate all triples matching the pattern; bound positions select the
    best index and are answered by binary-searched ranges. *)

val count_pattern : t -> s:int option -> p:int option -> o:int option -> int
(** Exact number of matching triples, from index ranges (no iteration for
    any single-prefix shape). *)

val iter_all : t -> (int -> int -> int -> unit) -> unit

val fold : (int -> int -> int -> 'a -> 'a) -> t -> 'a -> 'a

(** {2 Trie cursors}

    Read-only positional access to one permutation index, viewed as a
    depth-3 trie: level 0/1/2 of [O_spo] are subject/property/object,
    of [O_pos] property/object/subject, of [O_osp] object/subject/
    property. Creating a cursor freezes the store (a no-op when already
    frozen or sealed); every subsequent operation is a pure read, legal
    under {!seal} and safe to share across reader domains. This is the
    access path of the leapfrog triejoin in [lib/wco]. *)

type order =
  | O_spo
  | O_pos
  | O_osp

type cursor

val cursor : t -> order -> cursor

val cursor_length : cursor -> int
(** Number of triples (equal for the three orders). *)

val cursor_key : cursor -> pos:int -> level:int -> int
(** The [level] (0..2) key of the triple at index-position [pos]. *)

val cursor_seek : cursor -> level:int -> strict:bool -> lo:int -> hi:int -> int -> int
(** [cursor_seek c ~level ~strict ~lo ~hi v] is the first position in
    [\[lo, hi)] whose [level] key is [>= v] ([> v] when [strict]), or
    [hi] if none. Only sound when all keys at levels below [level] are
    constant over the range — the invariant a trie descent maintains. *)

val save : t -> string -> unit
(** Persist the store (dictionary + triples) in a compact binary format.
    Useful for caching generated workloads across runs. *)

val load : string -> (t, string) result
(** Load a store written by {!save}. Dictionary ids are preserved. *)

val export_indexes : t -> int array * int array * int array
(** [(spo, pos, osp)] permutation indexes, freezing first. Copies — safe
    to serialize while the store lives on. *)

val import_indexes :
  t -> spo:int array -> pos:int array -> osp:int array -> bool
(** Install externally-saved permutation indexes, skipping the O(n log n)
    rebuild on reopen. Each candidate is validated as a sorted bijection
    over the (compacted) triples; [false] means rejection — the store is
    left intact and indexes lazily, so a corrupted index can never serve
    wrong answers. *)

val encode_term : t -> Term.t -> int
(** Encode through the store's dictionary (allocates on first sight of
    the term; a pure lookup — legal even while {!sealed} — otherwise). *)

val find_term : t -> Term.t -> int option

val decode_id : t -> int -> Term.t
