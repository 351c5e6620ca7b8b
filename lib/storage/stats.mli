(** Database statistics.

    These serve two purposes from the paper: (a) the cost model's
    cardinality estimates (per-property counts and distinct subject/object
    counts, and the global distinct counts), kept in {!t} and maintained
    across writes by {!update}; and (b) the demonstration's first
    scenario step — visualizing value distributions for subject, property
    and object positions, classes and attribute pairs — served on demand
    by the [top_*] reports over the store's indexes, which {!t} does not
    hold. *)

type prop_stat = {
  count : int;  (** triples carrying this property *)
  distinct_s : int;
  distinct_o : int;
}

type t
(** Immutable: {!update} returns a new value and leaves its argument as
    it was, so a published value can be shared (serving snapshots do). *)

val compute : Store.t -> t
(** Run-length scans of the store's three sorted indexes (freezing it
    first): per-property figures from POS runs, subjects and
    per-property distinct subjects from SPO runs, objects from OSP runs.
    The result depends only on the triple set. The reference for
    {!update}, and its fallback when no delta accounts for a change. *)

val update : t -> Store.t -> Store.delta list -> t
(** [update st store deltas] is [compute store], given that [st] is the
    statistics of [store] before [deltas], its effective mutations
    (oldest first) since. The deltas are folded to a net one (an add and
    a remove of one triple cancel) and grouped by each projection key —
    (s, p), (p, o), (s), (o) and (p); one {!Store.count_pattern} probe
    per key on the updated indexes then tells whether the key became
    empty or non-empty. Costs O(delta · log n) plus O(log |properties|)
    per touched property; no pass over the store. A delta of more than
    one triple per 64 stored ones is counted with {!compute} instead,
    which is then the cheaper path. *)

val n_triples : t -> int

val n_distinct_subjects : t -> int

val n_distinct_properties : t -> int

val n_distinct_objects : t -> int

val prop_stat : t -> int -> prop_stat option
(** Statistics of a property id; [None] if the property never occurs. *)

val top_properties : t -> k:int -> (int * int) list
(** [(property id, triple count)], most frequent first; equal counts in
    ascending id order (as for every [top_*]). *)

(** {2 Distribution reports}

    On demand, one run-length scan of one index per call; nothing here is
    kept in {!t}. *)

val top_classes : Store.t -> k:int -> (int * int) list
(** [(class id, explicit rdf:type assertions)], from the [rdf:type]
    range of POS. *)

val top_subjects : Store.t -> k:int -> (int * int) list

val top_objects : Store.t -> k:int -> (int * int) list

val top_po_pairs : Store.t -> k:int -> ((int * int) * int) list
(** Attribute-pair distribution: [(property, object)] pairs. *)

val pp : Store.t Fmt.t
(** Human-readable report: the statistics, then the top ten properties,
    classes, subjects, objects and (property, object) pairs, decoding
    ids through the store's dictionary. *)
