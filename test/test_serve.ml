(* The serving front-end and its isolation guarantee.

   The centerpiece is a differential property: N concurrent readers and
   one writer hammer a live server over TCP; afterwards every reader
   response must be bit-identical (timing aside) to a sequential replay
   of the same request against the store state at that response's pinned
   epoch pair — i.e. snapshot isolation with zero torn reads. Around it:
   protocol totality, Session lifecycle, Prometheus export, domain-count
   validation, and drain leaving a recoverable persistence directory. *)

open Refq_rdf
open Refq_query
open Refq_storage
open Refq_core
module Session = Refq_serve.Session
module Serve = Refq_serve.Serve
module Protocol = Refq_serve.Protocol
module Metrics = Refq_serve.Metrics
module Json = Refq_obs.Json
module Par = Refq_par.Par
module Audit_store = Refq_analysis.Audit_store
module Diagnostic = Refq_analysis.Diagnostic
module Conc_trace = Refq_analysis.Conc_trace
module Check_conc = Refq_analysis.Check_conc

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)
(* ------------------------------------------------------------------ *)

let contains text needle =
  let nl = String.length needle and tl = String.length text in
  let rec go i = i + nl <= tl && (String.sub text i nl = needle || go (i + 1)) in
  go 0

let temp_dir () =
  let path = Filename.temp_file "refq_serve" "" in
  Sys.remove path;
  Unix.mkdir path 0o700;
  path

let triple s =
  match Ntriples.parse_triples s with
  | Ok [ t ] -> t
  | Ok _ | Error _ -> Alcotest.failf "bad test triple %S" s

let store_of stmts =
  let st = Store.create () in
  List.iter (fun s -> Store.add_triple st (triple s)) stmts;
  st

let rdf_type = "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>"
let rdfs_sub = "<http://www.w3.org/2000/01/rdf-schema#subClassOf>"
let ex n = "<http://example.org/" ^ n ^ ">"
let ub n = "<http://refq.org/univ-bench#" ^ n ^ ">"

let book_stmts =
  [
    Printf.sprintf "%s %s %s ." (ex "Book") rdfs_sub (ex "Publication");
    Printf.sprintf "%s %s %s ." (ex "b1") rdf_type (ex "Book");
    Printf.sprintf "%s %s %s ." (ex "b1") (ex "writtenBy") (ex "a1");
  ]

let session_exn r = match r with Ok s -> s | Error m -> Alcotest.fail m
let server_exn r = match r with Ok s -> s | Error m -> Alcotest.fail m

let json_exn line =
  match Json.parse line with
  | Ok j -> j
  | Error m -> Alcotest.failf "unparseable response %S: %s" line m

let is_ok line =
  match Json.member "ok" (json_exn line) with
  | Some (Json.Bool b) -> b
  | _ -> Alcotest.failf "no ok field in %S" line

let epochs_of line =
  match Json.member "epochs" (json_exn line) with
  | Some e -> (
    match
      ( Option.bind (Json.member "data" e) Json.to_int,
        Option.bind (Json.member "schema" e) Json.to_int )
    with
    | Some d, Some s -> (d, s)
    | _ -> Alcotest.failf "bad epochs in %S" line)
  | None -> Alcotest.failf "no epochs in %S" line

(* Responses are compared after dropping the one nondeterministic field
   (wall-clock timing); everything else must replay byte-for-byte. *)
let normalize line =
  match json_exn line with
  | Json.Obj fields ->
    Json.to_string ~indent:false
      (Json.Obj (List.filter (fun (k, _) -> k <> "total_s") fields))
  | _ -> Alcotest.failf "non-object response %S" line

let answers_of line =
  match Option.bind (Json.member "answers" (json_exn line)) Json.to_int with
  | Some n -> n
  | None -> Alcotest.failf "no answers in %S" line

let req fields = Json.to_string ~indent:false (Json.Obj fields)

let answer_req ?(strategy = "ucq") query =
  req
    [
      ("op", Json.String "answer");
      ("query", Json.String query);
      ("strategy", Json.String strategy);
    ]

let mut_req op stmts =
  req
    [
      ("op", Json.String op);
      ("triples", Json.List (List.map (fun s -> Json.String s) stmts));
    ]

(* A tiny blocking TCP client, deliberately independent of the server's
   own I/O code. *)
let connect port =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  (sock, Unix.in_channel_of_descr sock, Unix.out_channel_of_descr sock)

let request (_, ic, oc) line =
  output_string oc line;
  output_char oc '\n';
  flush oc;
  input_line ic

let disconnect (sock, _, _) =
  try Unix.close sock with Unix.Unix_error _ -> ()

let check_clean msg ds =
  Alcotest.(check (list string))
    (msg ^ ": no findings")
    []
    (List.map (fun d -> d.Diagnostic.code) ds |> List.sort_uniq compare)

(* ------------------------------------------------------------------ *)
(* Protocol                                                            *)
(* ------------------------------------------------------------------ *)

let test_protocol_parse () =
  let ok_req line =
    match Protocol.parse_request line with
    | Ok r -> r
    | Error m -> Alcotest.failf "%S should parse: %s" line m
  in
  (match ok_req {|{"op":"answer","query":"q(x) :- x rdf:type ex:Book"}|} with
  | Protocol.Answer { strategy; explain; deadline; max_rows; _ } ->
    Alcotest.(check string) "default strategy" "gcov" strategy;
    Alcotest.(check bool) "answer is not explain" false explain;
    Alcotest.(check (option int)) "no deadline" None deadline;
    Alcotest.(check (option int)) "no row cap" None max_rows
  | _ -> Alcotest.fail "expected Answer");
  (match ok_req {|{"op":"explain","query":"q","deadline":7,"max_rows":9}|} with
  | Protocol.Answer { explain; deadline; max_rows; _ } ->
    Alcotest.(check bool) "explain flag" true explain;
    Alcotest.(check (option int)) "deadline" (Some 7) deadline;
    Alcotest.(check (option int)) "row cap" (Some 9) max_rows
  | _ -> Alcotest.fail "expected Answer");
  (match
     ok_req
       (mut_req "insert"
          [ Printf.sprintf "%s %s %s ." (ex "b2") rdf_type (ex "Book") ])
   with
  | Protocol.Update [ `Add _ ] -> ()
  | _ -> Alcotest.fail "expected a one-insertion Update");
  (match ok_req {|{"op":"shutdown"}|} with
  | Protocol.Shutdown -> ()
  | _ -> Alcotest.fail "expected Shutdown");
  (* Totality: every malformed line is an Error, never an exception. *)
  List.iter
    (fun line ->
      match Protocol.parse_request line with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%S should be rejected" line)
    [
      "not json at all";
      "{}";
      {|{"op":"frobnicate"}|};
      {|{"op":"answer"}|};
      {|{"op":"insert","triples":"no-list"}|};
      {|{"op":"insert","triples":["not an n-triples statement"]}|};
      {|{"op":"insert"}|};
    ]

(* Valid request lines and query texts as the server receives them:
   the fuzzers' seeds. *)
let serve_env = Serve.Config.default_env

let fuzz_queries =
  List.map
    (fun q -> Sparql.to_sparql ~env:serve_env q)
    (List.map snd Refq_workload.Lubm.queries @ [ Refq_workload.Lubm.example1_query ])
  @ [
      "q(x) :- x rdf:type ex:Publication";
      "ASK WHERE { ?x rdf:type ub:Student }";
      {|q(x, n) :- x ub:name n, x ub:emailAddress "a\"b"@en|};
    ]

let fuzz_requests =
  List.concat_map
    (fun q ->
      [
        answer_req ~strategy:"gcov" q;
        req
          [
            ("op", Json.String "explain");
            ("query", Json.String q);
            ("strategy", Json.String "sat");
            ("deadline", Json.Int 500);
            ("max_rows", Json.Int 10);
          ];
        req [ ("op", Json.String "lint"); ("query", Json.String q) ];
      ])
    fuzz_queries
  @ [
      mut_req "insert" book_stmts;
      mut_req "delete" [ List.hd book_stmts ];
      {|{"op":"stats"}|};
      {|{"op":"ping"}|};
      {|{"op":"epochs"}|};
      {|{"op":"shutdown"}|};
    ]

let prop_protocol_fuzz =
  QCheck2.Test.make ~name:"request parser on bytes and mutated requests"
    ~count:2000 ~print:(Printf.sprintf "%S") (Fixtures.gen_fuzz fuzz_requests)
    (Fixtures.total Protocol.parse_request)

let prop_query_fuzz =
  QCheck2.Test.make ~name:"query dispatch on bytes and mutated queries"
    ~count:2000 ~print:(Printf.sprintf "%S") (Fixtures.gen_fuzz fuzz_queries)
    (Fixtures.total (Serve.parse_query ~env:serve_env))

let test_fuzz_seeds_parse () =
  List.iter
    (fun line ->
      if Result.is_error (Protocol.parse_request line) then
        Alcotest.failf "fuzz seed %S does not parse" line)
    fuzz_requests;
  List.iter
    (fun q ->
      if Result.is_error (Serve.parse_query ~env:serve_env q) then
        Alcotest.failf "fuzz seed %S does not parse" q)
    fuzz_queries

let test_protocol_render () =
  let line = Protocol.ok ~epochs:(3, 1) [ ("applied", Json.Int 2) ] in
  Alcotest.(check bool) "single line" false (String.contains line '\n');
  Alcotest.(check bool) "ok" true (is_ok line);
  Alcotest.(check (pair int int)) "epochs round-trip" (3, 1) (epochs_of line);
  let err = Protocol.error "boom" in
  Alcotest.(check bool) "error not ok" false (is_ok err)

let test_metrics_names () =
  Alcotest.(check string)
    "dots to underscores" "refq_cache_result_hits"
    (Metrics.metric_name "cache.result.hits");
  let text = Metrics.prometheus ~gauges:[ ("serve.epoch.data", 42) ] () in
  let has needle = contains text needle in
  Alcotest.(check bool)
    "server counter exported" true
    (has "# TYPE refq_serve_requests counter");
  Alcotest.(check bool)
    "gauge exported" true
    (has "# TYPE refq_serve_epoch_data gauge");
  Alcotest.(check bool) "gauge value" true (has "refq_serve_epoch_data 42")

(* ------------------------------------------------------------------ *)
(* Session                                                             *)
(* ------------------------------------------------------------------ *)

let test_session_lifecycle () =
  let session = session_exn (Session.of_store (store_of book_stmts)) in
  let q =
    match
      Serve.parse_query ~env:Serve.Config.default_env
        "q(x) :- x rdf:type ex:Publication"
    with
    | Ok q -> q
    | Error e -> Alcotest.failf "query: %a" Sparql.pp_error e
  in
  (match Session.answer session q Strategy.Ucq with
  | Ok r ->
    Alcotest.(check int) "subclass answer found" 1 (Refq_core.Answer.n_answers r)
  | Error f -> Alcotest.fail f.Refq_core.Answer.reason);
  let b2 = triple (Printf.sprintf "%s %s %s ." (ex "b2") rdf_type (ex "Book")) in
  Alcotest.(check int)
    "effective insert counts" 1
    (Session.apply session [ `Add b2 ]);
  Alcotest.(check int)
    "duplicate insert is a no-op" 0
    (Session.apply session [ `Add b2 ]);
  Alcotest.(check int)
    "absent removal is a no-op" 0
    (Session.apply session [ `Remove (triple (Printf.sprintf "%s %s %s ." (ex "nope") rdf_type (ex "Book"))) ]);
  (match Session.answer session q Strategy.Ucq with
  | Ok r ->
    Alcotest.(check int) "answers track mutations" 2 (Refq_core.Answer.n_answers r)
  | Error f -> Alcotest.fail f.Refq_core.Answer.reason);
  Alcotest.(check bool)
    "cache stats exposed" true
    (Session.cache_stats session <> []);
  Session.close session;
  Session.close session (* idempotent *);
  Alcotest.check_raises "use after close raises"
    (Invalid_argument "Session: use after close") (fun () ->
      ignore (Session.epochs session))

let test_session_rejects_bad_domains () =
  let config = Session.Config.(default |> with_domains 0) in
  (match Session.open_ ~config () with
  | Error m ->
    Alcotest.(check bool) "diagnostic names the flag" true
      (contains m "--domains")
  | Ok _ -> Alcotest.fail "domains=0 must be rejected");
  Alcotest.check_raises "Par.set_domains 0 raises"
    (Invalid_argument "Par.set_domains: --domains must be at least 1 (got 0)")
    (fun () -> Par.set_domains 0);
  Alcotest.check_raises "Par.set_domains -3 raises"
    (Invalid_argument "Par.set_domains: --domains must be at least 1 (got -3)")
    (fun () -> Par.set_domains (-3))

let test_session_persist_roundtrip () =
  let dir = temp_dir () in
  let config = Session.Config.(default |> with_persist_dir dir) in
  let session = session_exn (Session.open_ ~config ~store:(store_of book_stmts) ()) in
  Alcotest.(check int)
    "fresh directory seeded" 3 (Session.info session).Session.seeded;
  let b2 = triple (Printf.sprintf "%s %s %s ." (ex "b2") rdf_type (ex "Book")) in
  ignore (Session.apply session [ `Add b2 ]);
  Session.close session;
  check_clean "closed directory" (Audit_store.check_persist dir);
  (* Reopening resumes the durable state: the seed is not re-applied and
     the mutation survived. *)
  let again = session_exn (Session.open_ ~config ~store:(store_of book_stmts) ()) in
  Alcotest.(check int)
    "non-empty directory wins over the seed" 0
    (Session.info again).Session.seeded;
  Alcotest.(check int) "all four triples back" 4 (Store.size (Session.store again));
  Alcotest.(check bool)
    "mutation survived" true
    (Graph.mem b2 (Store.to_graph (Session.store again)));
  Session.close again

(* ------------------------------------------------------------------ *)
(* Server basics                                                       *)
(* ------------------------------------------------------------------ *)

let test_malformed_keeps_server_up () =
  let session = session_exn (Session.of_store (store_of book_stmts)) in
  let server = server_exn (Serve.start session) in
  Fun.protect
    ~finally:(fun () -> Serve.stop server)
    (fun () ->
      let bad = Serve.handle server "][ definitely not json" in
      Alcotest.(check bool) "structured error" false (is_ok bad);
      let bad2 = Serve.handle server {|{"op":"frobnicate"}|} in
      Alcotest.(check bool) "unknown op is an error" false (is_ok bad2);
      let pong = Serve.handle server {|{"op":"ping"}|} in
      Alcotest.(check bool) "server still up" true (is_ok pong);
      Alcotest.(check bool) "not stopping" false (Serve.stopping server))

let test_tcp_roundtrip () =
  let session = session_exn (Session.of_store (store_of book_stmts)) in
  let server = server_exn (Serve.start session) in
  let c = connect (Serve.port server) in
  let answer = answer_req "q(x) :- x rdf:type ex:Publication" in
  let r1 = request c answer in
  Alcotest.(check bool) "read ok" true (is_ok r1);
  Alcotest.(check int) "one answer" 1 (answers_of r1);
  let e1 = epochs_of r1 in
  let w =
    request c
      (mut_req "insert"
         [ Printf.sprintf "%s %s %s ." (ex "b2") rdf_type (ex "Book") ])
  in
  Alcotest.(check bool) "write ok" true (is_ok w);
  let r2 = request c answer in
  Alcotest.(check int) "snapshot bumped" 2 (answers_of r2);
  Alcotest.(check bool) "pinned pair moved" true (epochs_of r2 > e1);
  let bad = request c "garbage" in
  Alcotest.(check bool) "malformed over TCP" false (is_ok bad);
  let r3 = request c answer in
  Alcotest.(check bool) "connection survives the error" true (is_ok r3);
  let bye = request c (req [ ("op", Json.String "shutdown") ]) in
  Alcotest.(check bool) "shutdown acknowledged" true (is_ok bye);
  Serve.wait server;
  disconnect c;
  (match Unix.connect
           (Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0)
           (Unix.ADDR_INET (Unix.inet_addr_loopback, Serve.port server))
   with
  | () -> Alcotest.fail "port should be closed after drain"
  | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> ()
  | exception Unix.Unix_error _ -> ());
  Alcotest.check_raises "session closed by drain"
    (Invalid_argument "Session: use after close") (fun () ->
      ignore (Session.epochs session))

(* A client that sends and hangs up without reading: the server's
   replies hit a closed socket (EPIPE once the peer's reset arrives).
   That must end this connection only — the process keeps answering.
   The server runs in this test process, so a SIGPIPE would kill the
   test binary itself. *)
let test_client_hangup () =
  let session = session_exn (Session.of_store (store_of book_stmts)) in
  let server = server_exn (Serve.start session) in
  let rude = connect (Serve.port server) in
  let sock, _, oc = rude in
  let pings =
    String.concat "" (List.init 200 (fun _ -> {|{"op":"ping"}|} ^ "\n"))
  in
  output_string oc pings;
  flush oc;
  Unix.shutdown sock Unix.SHUTDOWN_ALL;
  disconnect rude;
  (* Give the server time to write into the dead socket. *)
  Thread.delay 0.3;
  let c = connect (Serve.port server) in
  Alcotest.(check bool)
    "second connection answered" true
    (is_ok (request c (answer_req "q(x) :- x rdf:type ex:Publication")));
  ignore (request c (req [ ("op", Json.String "shutdown") ]));
  Serve.wait server;
  disconnect c

let open_connections line =
  match
    Option.bind (Json.member "prometheus" (json_exn line)) Json.to_string_opt
  with
  | None -> Alcotest.failf "no prometheus text in %S" line
  | Some text ->
    List.find_map
      (fun l ->
        Scanf.sscanf_opt l "refq_serve_open_connections %d" Fun.id)
      (String.split_on_char '\n' text)
    |> Option.value ~default:(-1)

(* The gauge counts live connections: after three connections come and
   go, only the scraping one is left. A server thread leaves the list
   when it sees the hang-up, so poll for a bounded time. *)
let test_connection_gauge () =
  let session = session_exn (Session.of_store (store_of book_stmts)) in
  let server = server_exn (Serve.start session) in
  for _ = 1 to 3 do
    let c = connect (Serve.port server) in
    Alcotest.(check bool) "ping" true (is_ok (request c {|{"op":"ping"}|}));
    disconnect c
  done;
  let scraper = connect (Serve.port server) in
  let stats () = open_connections (request scraper {|{"op":"stats"}|}) in
  let rec settle tries =
    let n = stats () in
    if n = 1 || tries = 0 then n
    else begin
      Thread.delay 0.05;
      settle (tries - 1)
    end
  in
  Alcotest.(check int) "only the scraping connection" 1 (settle 100);
  ignore (request scraper (req [ ("op", Json.String "shutdown") ]));
  Serve.wait server;
  disconnect scraper

(* The line reader assembles a request from any split of its bytes: one
   byte per write (no Nagle coalescing) is answered like a whole line. *)
let test_bytewise_request () =
  let session = session_exn (Session.of_store (store_of book_stmts)) in
  let server = server_exn (Serve.start session) in
  let ((sock, ic, _) as c) = connect (Serve.port server) in
  Unix.setsockopt sock Unix.TCP_NODELAY true;
  let line = answer_req "q(x) :- x rdf:type ex:Publication" ^ "\n" in
  String.iteri
    (fun i ch ->
      ignore (Unix.write_substring sock (String.make 1 ch) 0 1);
      if i mod 16 = 0 then Thread.delay 0.001)
    line;
  let resp = input_line ic in
  Alcotest.(check bool) "answered" true (is_ok resp);
  Alcotest.(check int) "one answer" 1 (answers_of resp);
  ignore (request c (req [ ("op", Json.String "shutdown") ]));
  Serve.wait server;
  disconnect c

(* A line over the cap gets a structured error and that connection is
   closed; the server keeps serving new ones. Exactly one byte over the
   cap is sent, so the server has read everything when it closes. *)
let test_overlong_line () =
  let session = session_exn (Session.of_store (store_of book_stmts)) in
  let server = server_exn (Serve.start session) in
  let ((sock, ic, oc) as c) = connect (Serve.port server) in
  (* A reader that never answers fails the test instead of hanging it. *)
  Unix.setsockopt_float sock Unix.SO_RCVTIMEO 10.;
  (try
     output_string oc (String.make (Serve.max_line_bytes + 1) 'x');
     flush oc
   with Sys_error _ -> ());
  let resp = input_line ic in
  Alcotest.(check bool) "structured error" false (is_ok resp);
  Alcotest.(check bool) "names the cap" true (contains resp "longer than");
  (match input_line ic with
  | extra -> Alcotest.failf "connection still open, got %S" extra
  | exception End_of_file -> ()
  | exception Sys_error _ -> ());
  disconnect c;
  let c2 = connect (Serve.port server) in
  Alcotest.(check bool)
    "a new connection is served" true
    (is_ok (request c2 {|{"op":"ping"}|}));
  ignore (request c2 (req [ ("op", Json.String "shutdown") ]));
  Serve.wait server;
  disconnect c2

(* ------------------------------------------------------------------ *)
(* The isolation property                                              *)
(* ------------------------------------------------------------------ *)

(* The writer's schedule: batch i asserts a new professor and their
   advisee, and every third batch retracts the professor from two batches
   earlier — so the store both grows and shrinks while readers run. *)
let n_batches = 12

let batch i =
  let prof = ex (Printf.sprintf "srvProf%d" i) in
  let stu = ex (Printf.sprintf "srvStu%d" i) in
  let adds =
    [
      Printf.sprintf "%s %s %s ." prof rdf_type (ub "FullProfessor");
      Printf.sprintf "%s %s %s ." stu (ub "advisor") prof;
    ]
  in
  if i mod 3 = 0 && i > 2 then
    [
      ("insert", adds);
      ( "delete",
        [
          Printf.sprintf "%s %s %s ."
            (ex (Printf.sprintf "srvProf%d" (i - 2)))
            rdf_type (ub "FullProfessor");
        ] );
    ]
  else [ ("insert", adds) ]

let batches = List.concat_map batch (List.init n_batches (fun i -> i + 1))

(* The [sat] reads make snapshots inherit and force their predecessor's
   saturation while the writer publishes new ones; the replay answers
   them from a fresh saturation. *)
let reader_queries =
  [
    ("q(x) :- x rdf:type ub:Professor", "ucq");
    ("q(x) :- x rdf:type ub:Professor", "gcov");
    ("q(x) :- x rdf:type ub:Professor", "sat");
    ("q(x,y) :- x ub:advisor y", "ucq");
    ("q(x,y) :- x ub:advisor y", "scq");
    ("q(x,y) :- x ub:advisor y", "sat");
    ("q(x) :- x rdf:type ub:Student", "gcov");
  ]

let test_concurrent_snapshot_isolation () =
  let seed () = Refq_workload.Lubm.generate ~scale:1 () in
  let session = session_exn (Session.of_store (seed ())) in
  (* Record a concurrency trace of the whole run: the drained trace must
     audit clean — the machine-checked witness that the isolation the
     replay below verifies value-wise also holds protocol-wise. *)
  Conc_trace.start ();
  let server = server_exn (Serve.start session) in
  let port = Serve.port server in
  (* One writer: the batches, in order, over its own connection. *)
  let writer =
    Thread.create
      (fun () ->
        let c = connect port in
        List.iter
          (fun (op, stmts) ->
            let r = request c (mut_req op stmts) in
            if not (is_ok r) then Alcotest.failf "write failed: %s" r;
            Thread.delay 0.002)
          batches;
        disconnect c)
      ()
  in
  (* N readers: each cycles deterministically through the query pool and
     records (request, response) pairs. *)
  let n_readers = 4 and per_reader = 30 in
  let results = Array.make n_readers [] in
  let readers =
    List.init n_readers (fun j ->
        Thread.create
          (fun () ->
            let c = connect port in
            for k = 0 to per_reader - 1 do
              let query, strategy =
                List.nth reader_queries ((j + (2 * k)) mod List.length reader_queries)
              in
              let line = answer_req ~strategy query in
              results.(j) <- (line, request c line) :: results.(j)
            done;
            disconnect c)
          ())
  in
  Thread.join writer;
  List.iter Thread.join readers;
  let c = connect port in
  ignore (request c (req [ ("op", Json.String "shutdown") ]));
  disconnect c;
  Serve.wait server;
  let trace = Conc_trace.stop () in
  (match Sys.getenv_opt "REFQ_CONC_TRACE" with
  | Some file -> Conc_trace.save file trace
  | None -> ());
  (match Check_conc.check trace with
  | [] -> ()
  | ds ->
    Alcotest.failf "concurrency audit of the isolation run: %d finding(s)\n%s"
      (List.length ds)
      (Fmt.str "%a" Diagnostic.pp_list ds));
  Alcotest.(check bool)
    "trace captured the run" true
    (List.length trace > 100);
  let responses = List.concat (Array.to_list results) in
  Alcotest.(check bool)
    "at least 100 concurrent requests" true
    (List.length responses >= 100);
  List.iter
    (fun (_, r) -> Alcotest.(check bool) "every response ok" true (is_ok r))
    responses;
  (* Sequential replay: reconstruct the store state after each writer
     batch (same seed, same mutations — epochs are deterministic), keyed
     by its epoch pair. *)
  let states = Hashtbl.create 32 in
  let replay = seed () in
  let record () =
    let key = (Store.data_epoch replay, Store.schema_epoch replay) in
    if not (Hashtbl.mem states key) then
      Hashtbl.add states key (Store.copy replay)
  in
  record ();
  List.iter
    (fun (op, stmts) ->
      List.iter
        (fun stmt ->
          match Ntriples.parse_triples stmt with
          | Ok ts ->
            List.iter
              (fun t ->
                if op = "insert" then Store.add_triple replay t
                else Store.remove_triple replay t)
              ts
          | Error _ -> Alcotest.failf "bad batch statement %S" stmt)
        stmts;
      record ())
    batches;
  (* Zero torn reads: every pinned pair is a batch boundary, and the
     response replays bit-identically (timing aside) at that boundary. *)
  let by_state = Hashtbl.create 32 in
  List.iter
    (fun (line, resp) ->
      let key = epochs_of resp in
      if not (Hashtbl.mem states key) then
        Alcotest.failf "pinned pair (%d,%d) is not a batch boundary — torn read"
          (fst key) (snd key);
      Hashtbl.replace by_state key
        ((line, resp) :: (try Hashtbl.find by_state key with Not_found -> [])))
    responses;
  let states_hit = Hashtbl.length by_state in
  Hashtbl.iter
    (fun key pairs ->
      let store = Hashtbl.find states key in
      let replay_session = session_exn (Session.of_store store) in
      let replay_server = server_exn (Serve.start replay_session) in
      Fun.protect
        ~finally:(fun () -> Serve.stop replay_server)
        (fun () ->
          List.iter
            (fun (line, live) ->
              Alcotest.(check string)
                (Printf.sprintf "replay at (%d,%d): %s" (fst key) (snd key) line)
                (normalize (Serve.handle replay_server line))
                (normalize live))
            pairs))
    by_state;
  (* The schedule must actually have exercised concurrency across
     epochs, not answered everything against one snapshot. *)
  Alcotest.(check bool)
    (Printf.sprintf "responses spread across epochs (%d states)" states_hit)
    true (states_hit >= 2)

(* ------------------------------------------------------------------ *)
(* Drain                                                               *)
(* ------------------------------------------------------------------ *)

let test_drain_leaves_recoverable_directory () =
  let dir = temp_dir () in
  let config = Session.Config.(default |> with_persist_dir dir) in
  let session = session_exn (Session.open_ ~config ~store:(store_of book_stmts) ()) in
  let server = server_exn (Serve.start session) in
  let stmt = Printf.sprintf "%s %s %s ." (ex "b3") rdf_type (ex "Book") in
  let w = Serve.handle server (mut_req "insert" [ stmt ]) in
  Alcotest.(check bool) "write ok" true (is_ok w);
  let bye = Serve.handle server {|{"op":"shutdown"}|} in
  Alcotest.(check bool) "shutdown ok" true (is_ok bye);
  Serve.wait server;
  (* The drained directory recovers clean: physical integrity (RS004),
     WAL/epoch contiguity (RS005), recovered-store consistency (RS006). *)
  check_clean "drained directory" (Audit_store.check_persist dir);
  let again = session_exn (Session.open_ ~config ()) in
  Alcotest.(check bool)
    "drained write is durable" true
    (Graph.mem (triple stmt) (Store.to_graph (Session.store again)));
  Session.close again

(* A weak pointer to the saturation the session restored from its
   snapshot (current, since the directory has no WAL tail). Kept out of
   line so no stack slot of the caller holds the store itself. *)
let[@inline never] weak_restored_sat session =
  let w = Weak.create 1 in
  Weak.set w 0 (Some (fst (Answer.saturated (Session.env session))));
  w

(* The server's own session must not keep the restored saturation alive:
   the first snapshot inherits it and later snapshots force their own,
   so after writes and sat reads nothing reaches it. *)
let test_session_releases_saturation () =
  let dir = temp_dir () in
  let h = Result.get_ok (Refq_persist.Persist.open_dir dir) in
  let st = Refq_persist.Persist.store h in
  (* Large enough that the batches below stay under the delta share past
     which a pending saturation is dropped anyway. *)
  List.iter (fun s -> Store.add_triple st (triple s))
    (book_stmts
    @ List.init 30 (fun i ->
          Printf.sprintf "%s %s %s ." (ex (Printf.sprintf "w%d" i)) (ex "writtenBy")
            (ex "a1")));
  Refq_persist.Persist.snapshot ~sat:(Refq_saturation.Saturate.store st) h;
  Refq_persist.Persist.close h;
  let config = Session.Config.(default |> with_persist_dir dir) in
  let session = session_exn (Session.open_ ~config ()) in
  Alcotest.(check bool) "closure restored" true
    (Option.get (Session.info session).Session.recovery)
      .Refq_persist.Persist.sat_restored;
  let w = weak_restored_sat session in
  let server = server_exn (Serve.start session) in
  let sat_read () =
    let r =
      Serve.handle server
        (answer_req ~strategy:"sat" "q(x) :- x rdf:type ex:Publication")
    in
    Alcotest.(check bool) "sat read ok" true (is_ok r);
    answers_of r
  in
  Alcotest.(check int) "restored saturation answers" 1 (sat_read ());
  List.iteri
    (fun i b ->
      let stmt = Printf.sprintf "%s %s %s ." (ex b) rdf_type (ex "Book") in
      Alcotest.(check bool) "write ok" true
        (is_ok (Serve.handle server (mut_req "insert" [ stmt ])));
      Alcotest.(check int) "maintained saturation answers" (i + 2) (sat_read ()))
    [ "b2"; "b3" ];
  Gc.full_major ();
  Alcotest.(check bool) "restored saturation collected" true
    (Option.is_none (Weak.get w 0));
  ignore (Serve.handle server {|{"op":"shutdown"}|});
  Serve.wait server

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "parse totality" `Quick test_protocol_parse;
          Alcotest.test_case "fuzz seeds parse" `Quick test_fuzz_seeds_parse;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 2026 |])
            prop_protocol_fuzz;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 2026 |])
            prop_query_fuzz;
          Alcotest.test_case "response rendering" `Quick test_protocol_render;
          Alcotest.test_case "prometheus export" `Quick test_metrics_names;
        ] );
      ( "session",
        [
          Alcotest.test_case "lifecycle" `Quick test_session_lifecycle;
          Alcotest.test_case "rejects bad domain counts" `Quick
            test_session_rejects_bad_domains;
          Alcotest.test_case "persist round-trip" `Quick
            test_session_persist_roundtrip;
          Alcotest.test_case "server session releases its saturation" `Quick
            test_session_releases_saturation;
        ] );
      ( "server",
        [
          Alcotest.test_case "malformed requests keep it up" `Quick
            test_malformed_keeps_server_up;
          Alcotest.test_case "tcp round-trip and drain" `Quick
            test_tcp_roundtrip;
          Alcotest.test_case "client hang-up keeps it up" `Quick
            test_client_hangup;
          Alcotest.test_case "request sent byte by byte" `Quick
            test_bytewise_request;
          Alcotest.test_case "over-long line closes only its connection"
            `Quick test_overlong_line;
          Alcotest.test_case "open-connections gauge" `Quick
            test_connection_gauge;
        ] );
      ( "isolation",
        [
          Alcotest.test_case "concurrent readers vs writer" `Slow
            test_concurrent_snapshot_isolation;
        ] );
      ( "drain",
        [
          Alcotest.test_case "recoverable directory" `Quick
            test_drain_leaves_recoverable_directory;
        ] );
    ]
