(** Concurrent serving front-end with epoch-snapshot isolation.

    [refq serve] in library form: a TCP server speaking the
    newline-delimited JSON {!Protocol} over one {!Session}.

    {b Isolation model.} Readers pin the current {e epoch snapshot} — a
    sealed {!Refq_storage.Store.copy} of the database plus its own
    answering environment — at admission, and evaluate against that copy
    only; the response carries the pinned (data, schema) epoch pair.
    A single writer (serialized batches) applies mutations to the live
    store — bumping epochs and feeding the WAL through the session — and
    then swaps in a freshly copied snapshot ({e copy-on-bump}). In-flight
    readers keep their pinned snapshot until they drain, so no request
    ever observes a half-applied batch: every answer is bit-identical to
    a sequential evaluation at its pinned epoch pair.

    {b Concurrency model.} Connections are system threads: I/O (accept,
    read, write) overlaps freely, while evaluation itself is serialized
    by one lock — the observability span stack and the per-environment
    caches are single-threaded state, and honesty beats a data race.
    Request deadlines and row caps reuse {!Refq_fault.Budget}.

    {b Saturation under updates.} Each snapshot's environment inherits
    the previous snapshot's saturation plus the batch's effective
    mutations ({!Refq_core.Answer.inherit_saturation}); the first [sat]
    read on a snapshot brings it up to date in O(delta). Nothing is
    maintained on the write path.

    {b Drain.} [shutdown] (the protocol verb) or {!stop} stops admission,
    lets in-flight requests finish, then closes the session — flushing
    the WAL and rotating a fresh snapshot generation, so the directory
    recovers clean. *)

open Refq_query
module Json = Refq_obs.Json

module Config : sig
  type t = {
    host : string;  (** bind address, default 127.0.0.1 *)
    port : int;  (** 0 picks an ephemeral port — read it back with {!port} *)
    env : Refq_rdf.Namespace.t;
        (** prefix environment queries are parsed under (default: the
            bundled workload prefixes ub, dblp, geo, ex) *)
    deadline : int option;  (** default per-request deadline (ticks) *)
    max_rows : int option;  (** default per-request row cap *)
    trace : string option;
        (** record a concurrency trace for the server's lifetime and, at
            drain, write it to this file and run the
            {!Refq_analysis.Check_conc} checker over it — read the result
            with {!trace_report} *)
  }

  val default : t
  val default_env : Refq_rdf.Namespace.t
  val with_host : string -> t -> t
  val with_port : int -> t -> t
  val with_env : Refq_rdf.Namespace.t -> t -> t
  val with_deadline : int -> t -> t
  val with_max_rows : int -> t -> t
  val with_trace : string -> t -> t
end

val parse_query :
  env:Refq_rdf.Namespace.t -> string -> (Cq.t, Sparql.error) result
(** The query dialect the server (and the CLI) accepts: SPARQL SELECT,
    ASK, or the paper's [q(x) :- ...] notation, dispatched on shape. *)

type t

val start : ?config:Config.t -> Session.t -> (t, string) result
(** Bind, build the initial epoch snapshot, turn the Obs sink on (the
    [stats] verb exports it) and start accepting. The server owns the
    session from here on: {!stop}/{!wait} close it. *)

val port : t -> int
(** The bound port (the ephemeral one when [config.port] was 0). *)

val max_line_bytes : int
(** The longest request line a connection may send (1 MiB). A longer line
    is answered with a structured error, after which the server closes
    that connection; others are unaffected. *)

val handle : t -> string -> string
(** Process one request line to one response line, exactly as a
    connection would — the testable core of the server. Safe to call
    concurrently with live connections. *)

val stopping : t -> bool

val wait : t -> unit
(** Block until the server stops (a client sent [shutdown], or {!stop}
    from another thread), then drain: join every connection, close the
    socket, close the session (WAL flush + snapshot rotation). With
    [config.trace] set, also write the concurrency trace and run the
    checker (see {!trace_report}). *)

val trace_report : t -> (int * Refq_analysis.Diagnostic.t list) option
(** After {!wait} with [config.trace] set: the number of events recorded
    and the RX findings of the drain-time audit. [None] otherwise. *)

val stop : t -> unit
(** Graceful shutdown now: stop admission, then {!wait}. *)
