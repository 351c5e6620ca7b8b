(** Term dictionary: bijective encoding of RDF terms into dense integers.

    The store keeps triples as integer tuples (the standard RDBMS-style
    encoding for RDF, cf. [4, 14] in the paper); the dictionary is the
    single source of truth for the term ↔ id mapping. Ids are dense,
    starting at 0, and never reused. *)

open Refq_rdf

type t

val create : ?capacity:int -> unit -> t

val encode : t -> Term.t -> int
(** [encode d t] is the id of [t], allocating a fresh id on first sight. *)

val find : t -> Term.t -> int option
(** Like {!encode} but never allocates. *)

val copy : t -> t
(** An independent dictionary with the same term ↔ id mapping: ids are
    preserved, and later allocations in either copy never affect the
    other. The snapshot primitive behind {!Store.copy}.

    The two share an immutable generation (a term → id table and an
    id → term array, never written once shared) and each gets a private
    copy of the small tail of ids allocated since that generation was
    last shared; a copy costs that tail, not the dictionary. A tail that
    outgrows a fixed fraction of its generation is folded with it into
    a new generation, so allocation stays amortized O(1) per id. A
    reader may look terms up in one copy while another domain allocates
    in the other: no table a copy can reach is ever resized under it. *)

val decode : t -> int -> Term.t
(** @raise Invalid_argument on an unallocated id — the message names the
    dense-allocation invariant and carries both the offending id and the
    dictionary size, so recovery audits are diagnosable. *)

val size : t -> int
(** Number of allocated ids. *)

val iter : (int -> Term.t -> unit) -> t -> unit
