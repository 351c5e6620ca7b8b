(** Unboxed growable [int] arrays.

    Specialized to avoid the polymorphic-array write barrier on the hot
    paths of the triple store and the relational engine, where tuples are
    flattened into one [int] stream. *)

type t

val create : ?capacity:int -> unit -> t

val length : t -> int

val get : t -> int -> int

val set : t -> int -> int -> unit

val push : t -> int -> unit

val append_array : t -> int array -> unit
(** [append_array v a] pushes every cell of [a], in order. *)

val blit_to : t -> int -> int array -> int -> int -> unit
(** [blit_to v src dst dst_pos len] copies [len] ints starting at [src]. *)

val clear : t -> unit

val truncate : t -> int -> unit
(** [truncate v n] keeps the first [n] cells. @raise Invalid_argument
    unless [0 <= n <= length v]. *)

val iter : (int -> unit) -> t -> unit

val to_array : t -> int array

val of_array : int array -> t

val copy : t -> t
(** An independent vector with the same elements, allocated once at its
    length. *)

val unsafe_data : t -> int array
(** Backing array; only indices [< length] are meaningful. Exposed for
    sort/scan loops in the storage layer. *)
