(** Saturation (closure) of RDF graphs — the [Sat] query answering
    technique.

    The saturation [G∞] of a graph [G] is the fixpoint of the immediate
    entailment rules of the DB fragment (RDFS entailment, Figure 1):

    - rdfs2: [(p domain c), (s p o) ⊢ (s rdf:type c)]
    - rdfs3: [(p range c), (s p o) ⊢ (o rdf:type c)]
    - rdfs5: [(p1 ⊑p p2), (p2 ⊑p p3) ⊢ (p1 ⊑p p3)]
    - rdfs7: [(p1 ⊑p p2), (s p1 o) ⊢ (s p2 o)]
    - rdfs9: [(c1 ⊑c c2), (s rdf:type c1) ⊢ (s rdf:type c2)]
    - rdfs11: [(c1 ⊑c c2), (c2 ⊑c c3) ⊢ (c1 ⊑c c3)]
    - ext: domain/range inheritance along [⊑p] and propagation along [⊑c]
      (deriving schema triples, cf. {!Refq_schema.Closure}).

    [G∞] is unique and finite; [G ⊢RDF s p o] iff [s p o ∈ G∞]. The
    semantics of a graph is its saturation, so the (complete) answer of a
    query [q] against [G] is [q(G∞)]. *)

open Refq_rdf
open Refq_storage

type info = {
  input_triples : int;
  output_triples : int;
  rounds : int;
      (** outer fixpoint rounds run: 1 for standard graphs, more when
          derived triples extend the schema; 0 for a saturation that was
          restored or maintained rather than computed *)
  elapsed_s : float;
}

val schema_of_store : Store.t -> Refq_schema.Schema.t
(** The store's RDFS constraints, read from the POS ranges of the four
    constraint predicates only — the instance data is never decoded. *)

val store : ?chunk:int -> Store.t -> Store.t
(** [store db] is a new store (sharing [db]'s dictionary) holding [db∞].
    The schema is extracted from [db]'s RDFS triples, closed, and the
    instance rules are applied in one scan per outer round; a second round
    only occurs for non-standard graphs whose derived triples extend the
    schema itself.

    When the global domain pool is active ([Refq_par.Par.set_domains]),
    each scan fans out over contiguous chunks of a source snapshot and the
    chunk results are merged in order on the coordinator — producing a
    store bit-identical (content {e and} epochs) to the sequential scan
    for every chunk size and domain count. [?chunk] overrides the chunk
    size; the default targets [Par.fanout] chunks per round. *)

val store_info : ?chunk:int -> Store.t -> Store.t * info

val graph : Graph.t -> Graph.t
(** Term-level convenience wrapper around {!store}. *)

val add_incremental :
  closure:Refq_schema.Closure.t ->
  Store.t ->
  Triple.t list ->
  [ `Incremental of int | `Resaturated of Store.t ]
(** Maintenance after insertions — the cost [Sat] pays that [Ref] avoids
    (Section 1). The store argument must be a {e saturated} store and
    [closure] the closure of its schema (the caller holds it already; it
    is never re-read from the store).

    - Data-triple additions are absorbed in place: each new triple's
      consequences are derived in a single pass (the closed schema makes
      instance-level entailment one-shot). Returns the number of triples
      actually added (additions plus consequences). Cost: O(additions ×
      schema fan-out).
    - If any addition is an RDFS constraint the schema closure itself
      changes and the store is re-saturated from scratch
      ([`Resaturated]); so it is when the closure makes a property a
      subproperty of a constraint predicate (instance triples then
      derive schema triples), or constrains [rdf:type] itself (a
      superproperty, subproperty, domain or range of [rdf:type]: derived
      type triples then have consequences of their own). *)

val remove_incremental :
  closure:Refq_schema.Closure.t ->
  base:Store.t ->
  Store.t ->
  Triple.t list ->
  [ `Incremental of int | `Resaturated of Store.t ]
(** DRed-style maintenance after deletions ([9] handles {e dynamic} RDF
    databases). [base] is the store of explicit triples (deletions still
    in it are removed as part of the call; ones already gone are left
    alone, so a sealed base that already reflects them is fine); the
    second argument is its saturation, sharing [base]'s dictionary,
    updated in place; [closure] is the closure of [base]'s schema.
    Over-deletion candidates are the deleted triples plus their direct
    consequences; each survives iff the remaining base still derives it
    in one rule step, checked by index probes through reverse tables of
    the closed schema — O(deletions × schema fan-out × log store), no
    scan of the base (sound and complete because every rule has a single
    instance premise under the closed schema). Returns the number of
    triples removed from the saturation, or a full re-saturation of
    [base] under the same conditions as {!add_incremental}. *)

val graph_reference : Graph.t -> Graph.t
(** Brute-force fixpoint applying each rule triple-by-triple until no
    change; the executable specification {!store} is tested against. *)
