open Refq_rdf
open Refq_query
open Refq_storage
open Refq_core
module Obs = Refq_obs.Obs
module Json = Refq_obs.Json
module Budget = Refq_fault.Budget
module Diagnostic = Refq_analysis.Diagnostic
module Conc_trace = Refq_analysis.Conc_trace
module Check_conc = Refq_analysis.Check_conc

let c_requests = Obs.counter "serve.requests"
let c_errors = Obs.counter "serve.errors"
let c_reads = Obs.counter "serve.reads"
let c_writes = Obs.counter "serve.writes"
let c_applied = Obs.counter "serve.applied"
let c_snapshots = Obs.counter "serve.snapshots"
let c_connections = Obs.counter "serve.connections"

module Config = struct
  type t = {
    host : string;
    port : int;
    env : Namespace.t;
    deadline : int option;
    max_rows : int option;
    trace : string option;
  }

  let default_env =
    List.fold_left
      (fun env (prefix, uri) -> Namespace.add env ~prefix ~uri)
      Namespace.default
      [
        ("ub", Refq_workload.Lubm.ns);
        ("dblp", Refq_workload.Dblp.ns);
        ("geo", Refq_workload.Geo.ns);
        ("ex", "http://example.org/");
      ]

  let default =
    {
      host = "127.0.0.1";
      port = 0;
      env = default_env;
      deadline = None;
      max_rows = None;
      trace = None;
    }

  let with_host host t = { t with host }
  let with_port port t = { t with port }
  let with_env env t = { t with env }
  let with_deadline d t = { t with deadline = Some d }
  let with_max_rows n t = { t with max_rows = Some n }
  let with_trace file t = { t with trace = Some file }
end

let parse_query ~env text =
  (* Accept SPARQL SELECT / ASK and the paper's q(x) :- ... notation —
     the same dialect the CLI accepts. *)
  let trimmed = String.trim text in
  let upper = String.uppercase_ascii trimmed in
  let starts_with prefix =
    String.length upper >= String.length prefix
    && String.sub upper 0 (String.length prefix) = prefix
  in
  if starts_with "ASK" then Sparql.parse_ask ~env text
  else if
    String.length trimmed > 0
    && (trimmed.[0] = 'q' || trimmed.[0] = 'Q')
    && String.contains trimmed '-'
    && not (starts_with "SELECT")
  then Sparql.parse_notation ~env text
  else Sparql.parse ~env text

(* ------------------------------------------------------------------ *)
(* Epoch snapshots                                                     *)
(* ------------------------------------------------------------------ *)

(* One sealed copy of the database per writer batch. Readers pin the
   snapshot current at admission and evaluate against it only, so a
   concurrent writer can never change — or tear — what they see; handing
   out a fresh record per bump keeps drained snapshots collectable. *)
type snapshot = { snap_env : Answer.env; snap_epochs : int * int }

type t = {
  session : Session.t;
  config : Config.t;
  sock : Unix.file_descr;
  port : int;
  state_m : Mutex.t;  (** guards [current], [conns] *)
  eval_m : Mutex.t;
      (** serializes evaluation: the Obs span stack and each environment's
          caches are single-threaded state *)
  writer_m : Mutex.t;  (** serializes writer batches and snapshot bumps *)
  mutable current : snapshot;
  mutable stopping : bool;
  mutable conns : Thread.t list;
  mutable acceptor : Thread.t option;
  scope : int;  (** this server's id in the concurrency trace *)
  sec_writer : string;  (** traced section name for [writer_m] *)
  sec_eval : string;  (** traced section name for [eval_m] *)
  mutable trace_report : (int * Diagnostic.t list) option;
      (** events recorded and findings, set at drain when
          [config.trace] is on *)
}

(* The new snapshot's saturation starts from [from]'s (the previous
   snapshot's, or the session's at start) followed by [delta], the
   batch's effective mutations: it is brought up to date on its first
   [sat] read, never here on the write path. *)
let make_snapshot ~from ~delta session =
  let env = Session.snapshot_env session in
  Answer.inherit_saturation ~from ~delta env;
  { snap_env = env; snap_epochs = Answer.epochs env }

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let pin t = with_lock t.state_m (fun () -> t.current)

(* Evaluation can allocate dictionary ids for head constants the store
   has never seen (reformulation binds head variables to schema
   constants). The snapshot is sealed against exactly that, so pre-encode
   them the way [Answer]'s parallel path does — then re-seal, since some
   evaluation paths seal/unseal the store around their own parallel
   regions. *)
let eval_sealed snap f =
  let store = Answer.store snap.snap_env in
  Fun.protect ~finally:(fun () -> Store.seal store) (fun () -> f ())

let prepare_head snap q =
  let store = Answer.store snap.snap_env in
  List.iter
    (function
      | Cq.Var _ -> ()
      | Cq.Cst term -> (
        match Store.find_term store term with
        | Some _ -> ()
        | None ->
          Store.unseal store;
          ignore (Store.encode_term store term);
          Store.seal store))
    q.Cq.head

(* ------------------------------------------------------------------ *)
(* Request handling                                                    *)
(* ------------------------------------------------------------------ *)

let request_budget t ~deadline ~max_rows =
  let deadline =
    match deadline with Some _ -> deadline | None -> t.config.Config.deadline
  in
  let max_rows =
    match max_rows with Some _ -> max_rows | None -> t.config.Config.max_rows
  in
  match deadline, max_rows with
  | None, None -> None
  | _ -> Some (Budget.create { Budget.no_limits with deadline; max_rows })

let render_rows t snap rel =
  let rows = Answer.decode snap.snap_env rel in
  Json.List
    (List.map
       (fun row ->
         Json.List
           (List.map
              (fun term ->
                Json.String
                  (Fmt.str "%a" (Namespace.pp_term t.config.Config.env) term))
              row))
       rows)

let explain_fields (r : Answer.report) =
  match r.Answer.detail with
  | Answer.Saturated _ | Answer.Datalog_run _ -> []
  | Answer.Reformulated
      { cover; jucq_size; n_fragments; fragment_cardinalities; view_hits; _ } ->
    [
      ("cover", Json.String (Fmt.str "%a" Cover.pp cover));
      ("jucq_size", Json.Int jucq_size);
      ("fragments", Json.Int n_fragments);
      ( "fragment_cardinalities",
        Json.List (List.map (fun c -> Json.Int c) fragment_cardinalities) );
      ("view_hits", Json.List (List.map (fun h -> Json.Bool h) view_hits));
    ]

(* Admission for evaluating requests: pin the current snapshot and
   record the pin in the concurrency trace — the unpin fires when the
   response is built, closing the interval the checker freezes the
   snapshot's epoch pair over. *)
let admit t f =
  let snap = pin t in
  let reader = Thread.id (Thread.self ()) in
  let store = Answer.store snap.snap_env in
  Conc_trace.pin ~scope:t.scope ~reader store;
  Fun.protect
    ~finally:(fun () -> Conc_trace.unpin ~scope:t.scope ~reader store)
    (fun () -> f snap)

let handle_answer t ~query ~strategy ~explain ~deadline ~max_rows =
  admit t @@ fun snap ->
  match parse_query ~env:t.config.Config.env query with
  | Error e ->
    Obs.incr c_errors;
    Protocol.error ~epochs:snap.snap_epochs (Fmt.str "query: %a" Sparql.pp_error e)
  | Ok q -> (
    match Strategy.of_string strategy with
    | Error m ->
      Obs.incr c_errors;
      Protocol.error ~epochs:snap.snap_epochs m
    | Ok s ->
      Obs.incr c_reads;
      let config =
        let c = (Session.config t.session).Session.Config.answer in
        match request_budget t ~deadline ~max_rows with
        | Some b -> Refq_core.Config.with_budget b c
        | None -> c
      in
      with_lock t.eval_m (fun () ->
          Conc_trace.section t.sec_eval @@ fun () ->
          eval_sealed snap (fun () ->
              prepare_head snap q;
              match Answer.answer ~config snap.snap_env q s with
              | Ok r ->
                Protocol.ok ~epochs:snap.snap_epochs
                  ([
                     ("strategy", Json.String (Strategy.name s));
                     ("answers", Json.Int (Answer.n_answers r));
                     ("total_s", Json.Float (Answer.total_s r));
                     ("rows", render_rows t snap r.Answer.answers);
                   ]
                  @ if explain then explain_fields r else [])
              | Error f ->
                Obs.incr c_errors;
                Protocol.error ~epochs:snap.snap_epochs
                  (Fmt.str "%s: %s" (Strategy.name f.Answer.f_strategy)
                     f.Answer.reason))))

let handle_lint t ~query =
  admit t @@ fun snap ->
  match parse_query ~env:t.config.Config.env query with
  | Error e ->
    Obs.incr c_errors;
    Protocol.error ~epochs:snap.snap_epochs (Fmt.str "query: %a" Sparql.pp_error e)
  | Ok q ->
    Obs.incr c_reads;
    with_lock t.eval_m (fun () ->
        Conc_trace.section t.sec_eval @@ fun () ->
        eval_sealed snap (fun () ->
            prepare_head snap q;
            let config = (Session.config t.session).Session.Config.answer in
            let ds = Lint.query ~config snap.snap_env q in
            Protocol.ok ~epochs:snap.snap_epochs
              [
                ("diagnostics", Diagnostic.list_to_json ds);
                ("errors", Json.Int (List.length (Diagnostic.errors ds)));
              ]))

(* The single-writer path: apply the batch to the live store (each
   effective mutation bumps an epoch and feeds the WAL), then bump the
   served snapshot — copy-on-bump. In-flight readers keep evaluating
   against the snapshot they pinned; only requests admitted after the
   swap see the new epochs. *)
let handle_update t muts =
  with_lock t.writer_m (fun () ->
      Conc_trace.section t.sec_writer @@ fun () ->
      Obs.incr c_writes;
      let effective = Session.apply_effective t.session muts in
      let applied = List.length effective in
      Obs.add c_applied applied;
      let snap =
        if applied > 0 then begin
          Obs.incr c_snapshots;
          let snap =
            make_snapshot ~from:(pin t).snap_env ~delta:effective t.session
          in
          with_lock t.state_m (fun () ->
              (* The swap event precedes publication, so every pin of
                 this snapshot is sequenced after its swap. *)
              Conc_trace.swap ~scope:t.scope (Answer.store snap.snap_env);
              t.current <- snap);
          snap
        end
        else pin t
      in
      Protocol.ok ~epochs:snap.snap_epochs [ ("applied", Json.Int applied) ])

let handle_stats t =
  let snap = pin t in
  let data, schema = snap.snap_epochs in
  let gauges =
    [
      ("serve.epoch.data", data);
      ("serve.epoch.schema", schema);
      ( "serve.open_connections",
        with_lock t.state_m (fun () -> List.length t.conns) );
    ]
  in
  Protocol.ok ~epochs:snap.snap_epochs
    [ ("prometheus", Json.String (Metrics.prometheus ~gauges ())) ]

let handle t line =
  Obs.incr c_requests;
  match Protocol.parse_request line with
  | Error m ->
    Obs.incr c_errors;
    Protocol.error m
  | Ok req -> (
    match req with
    | Protocol.Ping -> Protocol.ok ~epochs:(pin t).snap_epochs []
    | Protocol.Epochs ->
      (* The live pair reads the session (and re-syncs its environment) —
         that state belongs to the writer, so take its lock. *)
      let live =
        with_lock t.writer_m (fun () ->
            Conc_trace.section t.sec_writer (fun () -> Session.epochs t.session))
      in
      Protocol.ok ~epochs:(pin t).snap_epochs
        [ ("live", Protocol.epochs_json live) ]
    | Protocol.Stats -> handle_stats t
    | Protocol.Answer { query; strategy; explain; deadline; max_rows } ->
      handle_answer t ~query ~strategy ~explain ~deadline ~max_rows
    | Protocol.Lint { query } -> handle_lint t ~query
    | Protocol.Update muts -> handle_update t muts
    | Protocol.Shutdown ->
      t.stopping <- true;
      Protocol.ok ~epochs:(pin t).snap_epochs [ ("stopping", Json.Bool true) ])

(* ------------------------------------------------------------------ *)
(* Connections                                                         *)
(* ------------------------------------------------------------------ *)

let rec write_all fd s off len =
  if len > 0 then begin
    let n = Unix.write_substring fd s off len in
    write_all fd s (off + n) (len - n)
  end

(* The longest request line a connection may send. A longer one is
   answered with an error and ends the connection, so one client cannot
   grow a server buffer without bound. *)
let max_line_bytes = 1 lsl 20

(* Connection reads run under a short receive timeout so an idle client
   can never hold the drain hostage: every timeout tick re-checks
   [stopping]. Each byte read is scanned once: complete lines queue up,
   and only the unfinished tail is kept in [partial]. *)
let serve_conn t fd =
  Obs.incr c_connections;
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 0.2;
  let chunk = Bytes.create 4096 in
  let partial = Buffer.create 256 in
  let lines = Queue.create () in
  let split n =
    let start = ref 0 in
    for i = 0 to n - 1 do
      if Bytes.get chunk i = '\n' then begin
        Buffer.add_subbytes partial chunk !start (i - !start);
        Queue.push (Buffer.contents partial) lines;
        Buffer.clear partial;
        start := i + 1
      end
    done;
    Buffer.add_subbytes partial chunk !start (n - !start)
  in
  let rec next_line () =
    match Queue.take_opt lines with
    | Some line when String.length line > max_line_bytes -> `Too_long
    | Some line -> `Line line
    | None ->
      if Buffer.length partial > max_line_bytes then `Too_long
      else if t.stopping then `End
      else (
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 ->
          if Buffer.length partial > 0 then begin
            Queue.push (Buffer.contents partial) lines;
            Buffer.clear partial;
            next_line ()
          end
          else `End
        | n ->
          split n;
          next_line ()
        | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) ->
          next_line ())
  in
  (* A client that hung up before its response arrives closes the
     connection, nothing more (SIGPIPE is ignored, see [start]). *)
  let respond resp k =
    match write_all fd (resp ^ "\n") 0 (String.length resp + 1) with
    | () -> k ()
    | exception Unix.Unix_error ((EPIPE | ECONNRESET), _, _) -> ()
  in
  let rec loop () =
    match next_line () with
    | `End -> ()
    | `Too_long ->
      Obs.incr c_errors;
      respond
        (Protocol.error
           (Printf.sprintf "request line longer than %d bytes; closing"
              max_line_bytes))
        ignore
    | `Line line when String.trim line = "" -> loop ()
    | `Line line ->
      respond (handle t line) (fun () -> if not t.stopping then loop ())
  in
  (try loop () with Unix.Unix_error _ -> () | Sys_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

(* A finished connection leaves [conns], so the list — and the
   [serve.open_connections] gauge — holds live connections only. The
   acceptor registers a thread under [state_m] before the thread can
   take it to deregister, so no finished thread is ever left behind. *)
let run_conn t fd =
  Fun.protect
    ~finally:(fun () ->
      let self = Thread.id (Thread.self ()) in
      with_lock t.state_m (fun () ->
          t.conns <- List.filter (fun th -> Thread.id th <> self) t.conns))
    (fun () -> serve_conn t fd)

let accept_loop t () =
  while not t.stopping do
    match Unix.select [ t.sock ] [] [] 0.2 with
    | [], _, _ -> ()
    | _ :: _, _, _ -> (
      match Unix.accept t.sock with
      | fd, _ ->
        with_lock t.state_m (fun () ->
            t.conns <- Thread.create (run_conn t) fd :: t.conns)
      | exception Unix.Unix_error _ -> ())
    | exception Unix.Unix_error (EINTR, _, _) -> ()
  done

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let start ?(config = Config.default) session =
  match Unix.inet_addr_of_string config.Config.host with
  | exception Failure _ ->
    Error (Fmt.str "invalid host %S" config.Config.host)
  | addr -> (
    let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt sock Unix.SO_REUSEADDR true;
    match Unix.bind sock (Unix.ADDR_INET (addr, config.Config.port)) with
    | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      Error
        (Fmt.str "bind %s:%d: %s" config.Config.host config.Config.port
           (Unix.error_message e))
    | () ->
      Unix.listen sock 64;
      (* A write to a socket whose peer has gone must fail with EPIPE in
         the connection's thread, not kill the process with SIGPIPE. *)
      (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
       with Invalid_argument _ -> ());
      let port =
        match Unix.getsockname sock with
        | Unix.ADDR_INET (_, p) -> p
        | _ -> config.Config.port
      in
      (* Long-running collection: the stats verb exports the counter
         catalogue, so the sink stays on for the server's lifetime. *)
      Obs.set_enabled true;
      if config.Config.trace <> None then Conc_trace.start ();
      let scope = Conc_trace.fresh_scope () in
      let sec_writer = Printf.sprintf "writer#%d" scope in
      let sec_eval = Printf.sprintf "eval#%d" scope in
      (* The first snapshot inherits the session's saturation; readers
         only ever use snapshots, so the session then lets go of it
         rather than keep a saturated store alive under a growing
         delta. *)
      let current = make_snapshot ~from:(Session.env session) ~delta:[] session in
      Answer.release_saturation (Session.env session);
      let t =
        {
          session;
          config;
          sock;
          port;
          state_m = Mutex.create ();
          eval_m = Mutex.create ();
          writer_m = Mutex.create ();
          current;
          stopping = false;
          conns = [];
          acceptor = None;
          scope;
          sec_writer;
          sec_eval;
          trace_report = None;
        }
      in
      (* Close one empty writer and eval section before any connection
         exists: startup (session open, initial snapshot) happens-before
         every request's section in the trace, matching the real-time
         order the acceptor spawn enforces. *)
      Conc_trace.section t.sec_writer (fun () -> ());
      Conc_trace.section t.sec_eval (fun () -> ());
      t.acceptor <- Some (Thread.create (accept_loop t) ());
      Ok t)

let port t = t.port

let stopping t = t.stopping

let wait t =
  (match t.acceptor with
  | Some th ->
    t.acceptor <- None;
    Thread.join th
  | None -> ());
  let conns =
    with_lock t.state_m (fun () ->
        let c = t.conns in
        t.conns <- [];
        c)
  in
  List.iter Thread.join conns;
  (* Every connection has drained: admissions past this event are the
     RX005 violation the checker looks for. *)
  Conc_trace.mark_drain ~scope:t.scope;
  (try Unix.close t.sock with Unix.Unix_error _ -> ());
  (* Closing the session is the last writer action (WAL flush, snapshot
     rotation reads the live store), so it runs as a writer section:
     the trace orders it after every batch, as the joins above did in
     real time. *)
  with_lock t.writer_m (fun () ->
      Conc_trace.section t.sec_writer (fun () -> Session.close t.session));
  match t.config.Config.trace with
  | Some file when t.trace_report = None ->
    let entries = Conc_trace.stop () in
    Conc_trace.save file entries;
    t.trace_report <- Some (List.length entries, Check_conc.check entries)
  | _ -> ()

let trace_report t = t.trace_report

let stop t =
  t.stopping <- true;
  wait t
