(** Database statistics.

    These serve two purposes from the paper: (a) the cost model's
    cardinality estimates (per-property counts and distinct subject/object
    counts, per-class instance counts), and (b) the demonstration's first
    scenario step — visualizing value distributions for subject, property
    and object positions and for attribute pairs. *)

type prop_stat = {
  count : int;  (** triples carrying this property *)
  distinct_s : int;
  distinct_o : int;
}

type t

val compute : Store.t -> t
(** Run-length scans of the store's three sorted indexes (freezing it
    first): per-property figures and class counts from POS runs,
    subjects and per-property distinct subjects from SPO runs, objects
    from OSP runs. Nothing is maintained incrementally; the result
    depends only on the triple set. *)

val n_triples : t -> int

val n_distinct_subjects : t -> int

val n_distinct_properties : t -> int

val n_distinct_objects : t -> int

val prop_stat : t -> int -> prop_stat option
(** Statistics of a property id; [None] if the property never occurs. *)

val class_count : t -> int -> int
(** Number of explicit [rdf:type] assertions whose object is the given
    class id; 0 when unseen. *)

val top_properties : t -> k:int -> (int * int) list
(** [(property id, triple count)], most frequent first; equal counts in
    ascending id order (as for every [top_*]). *)

val top_classes : t -> k:int -> (int * int) list

val top_subjects : t -> k:int -> (int * int) list

val top_objects : t -> k:int -> (int * int) list

val top_po_pairs : t -> k:int -> ((int * int) * int) list
(** Attribute-pair distribution: [(property, object)] pairs. *)

val pp : Dictionary.t -> t Fmt.t
(** Human-readable summary, decoding ids through the dictionary. *)
