(* refq — reformulation-based RDF query answering, command line interface.

   Mirrors the demonstration scenario of the paper:
     refq generate  — build a synthetic dataset (lubm / dblp / geo)
     refq stats     — step 1: visualize dataset statistics
     refq answer    — step 2: answer a query through a chosen strategy
     refq explain   — step 3: inspect reformulations, covers, GCov's space
     refq saturate  — materialize the saturation (the Sat technique)
*)

open Cmdliner
open Refq_rdf
open Refq_query
open Refq_storage
open Refq_core

(* [Refq_rdf.Term] shadows [Cmdliner.Term]; restore the latter for the
   command definitions below (RDF terms are only used qualified here). *)
module Term = Cmdliner.Term
module Obs = Refq_obs.Obs
module Persist = Refq_persist.Persist
module Io = Refq_fault.Io
module Par = Refq_par.Par
module Session = Refq_serve.Session
module Serve = Refq_serve.Serve
module Conc_trace = Refq_analysis.Conc_trace
module Check_conc = Refq_analysis.Check_conc

(* ------------------------------------------------------------------ *)
(* Loading and saving                                                  *)
(* ------------------------------------------------------------------ *)

let workload_env =
  List.fold_left
    (fun env (prefix, uri) -> Namespace.add env ~prefix ~uri)
    Namespace.default
    [
      ("ub", Refq_workload.Lubm.ns);
      ("dblp", Refq_workload.Dblp.ns);
      ("geo", Refq_workload.Geo.ns);
      ("ex", "http://example.org/");
    ]

let die fmt = Fmt.kstr (fun m -> `Error (false, m)) fmt

let known_prefixes () =
  String.concat ", "
    (List.sort compare
       (Namespace.fold (fun prefix _ acc -> prefix :: acc) workload_env []))

let load_graph path =
  if Filename.check_suffix path ".ttl" then
    Result.map_error
      (fun e -> Fmt.str "%s: %a" path Turtle.pp_error e)
      (Turtle.parse_file ~env:workload_env path)
  else
    Result.map_error
      (fun e -> Fmt.str "%s: %a" path Ntriples.pp_error e)
      (Ntriples.parse_file path)

let load_store path =
  if Filename.check_suffix path ".store" then Store.load path
  else Result.map Store.of_graph (load_graph path)

let parse_query text =
  (* Accept SPARQL SELECT / ASK and the paper's q(x) :- ... notation. *)
  let trimmed = String.trim text in
  let upper = String.uppercase_ascii trimmed in
  let starts_with prefix =
    String.length upper >= String.length prefix
    && String.sub upper 0 (String.length prefix) = prefix
  in
  if starts_with "ASK" then Sparql.parse_ask ~env:workload_env text
  else if
    String.length trimmed > 0
    && (trimmed.[0] = 'q' || trimmed.[0] = 'Q')
    && String.contains trimmed '-'
    && not (starts_with "SELECT")
  then Sparql.parse_notation ~env:workload_env text
  else Sparql.parse ~env:workload_env text

let contains_word ~word text =
  let re = String.uppercase_ascii text in
  let n = String.length word and m = String.length re in
  let rec loop i = i + n <= m && (String.sub re i n = word || loop (i + 1)) in
  loop 0

(* A one-line parse diagnostic; unbound-prefix errors additionally list
   the prefixes the CLI environment actually knows. *)
let query_error e =
  let msg = Fmt.str "query: %a" Sparql.pp_error e in
  if contains_word ~word:"UNBOUND PREFIX" msg then
    `Error (false, Fmt.str "%s (known prefixes: %s)" msg (known_prefixes ()))
  else `Error (false, msg)

let read_query ~query ~query_file =
  match query, query_file with
  | Some q, None -> Ok q
  | None, Some path ->
    let ic = open_in path in
    let n = in_channel_length ic in
    let text = really_input_string ic n in
    close_in ic;
    Ok text
  | Some _, Some _ -> Error "use either --query or --query-file, not both"
  | None, None -> Error "a query is required (--query or --query-file)"

let parse_cover ~n_atoms spec =
  (* "1,3;3,5;2,4;4,6" with 1-based atom numbers, as printed by the paper *)
  try
    let fragments =
      String.split_on_char ';' spec
      |> List.map (fun frag ->
             String.split_on_char ',' frag
             |> List.map (fun s -> int_of_string (String.trim s) - 1))
    in
    Ok (Cover.make ~n_atoms fragments)
  with
  | Invalid_argument m -> Error m
  | Failure _ -> Error (Printf.sprintf "cannot parse cover spec %S" spec)

(* ------------------------------------------------------------------ *)
(* generate                                                            *)
(* ------------------------------------------------------------------ *)

let generate_cmd =
  let run workload scale seed output =
    let seed = Int64.of_int seed in
    let store =
      match workload with
      | "lubm" -> Ok (Refq_workload.Lubm.generate ~seed ~scale ())
      | "dblp" -> Ok (Refq_workload.Dblp.generate ~seed ~scale ())
      | "geo" -> Ok (Refq_workload.Geo.generate ~seed ~scale ())
      | other -> Error (Printf.sprintf "unknown workload %S" other)
    in
    match store with
    | Error m -> `Error (false, m)
    | Ok store ->
      (match output with
      | Some path when Filename.check_suffix path ".store" ->
        Store.save store path;
        Fmt.pr "wrote %d triples to %s (binary)@." (Store.size store) path
      | Some path ->
        Ntriples.write_file path (Store.to_graph store);
        Fmt.pr "wrote %d triples to %s@." (Store.size store) path
      | None -> Fmt.pr "%a@." Graph.pp (Store.to_graph store));
      `Ok ()
  in
  let workload =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"WORKLOAD" ~doc:"Workload: lubm, dblp or geo.")
  in
  let scale =
    Arg.(value & opt int 1 & info [ "scale" ] ~doc:"Generator scale factor.")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Deterministic seed.")
  in
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Output file (.nt for N-Triples, .store for the compact                 binary format).")
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a synthetic dataset (with its schema)")
    Term.(ret (const run $ workload $ scale $ seed $ output))

(* ------------------------------------------------------------------ *)
(* stats                                                               *)
(* ------------------------------------------------------------------ *)

let stats_cmd =
  let run path =
    match load_store path with
    | Error m -> `Error (false, m)
    | Ok store ->
      Fmt.pr "%a@." Stats.pp store;
      `Ok ()
  in
  let path =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"RDF file (.nt or .ttl).")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Dataset statistics (value distributions; demo step 1)")
    Term.(ret (const run $ path))

(* ------------------------------------------------------------------ *)
(* Fault-injection and budget flags (answer, federate)                 *)
(* ------------------------------------------------------------------ *)

let faults_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "faults" ] ~docv:"SPEC"
        ~doc:
          "Inject deterministic endpoint faults: ;-separated name=mode \
           entries, with mode one of healthy, dead, flaky:P, slow:P, \
           trunc:N, flap:UP:DOWN, failfirst:N — e.g. \
           \"a.nt=dead;b.nt=flap:2:1\".")

let fault_seed_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "fault-seed" ]
        ~doc:"Seed of the fault plan (same seed, same faults).")

let retries_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "retries" ]
        ~doc:
          "Total attempts per endpoint call, retried with deterministic \
           exponential backoff (default 3).")

let deadline_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "deadline" ] ~docv:"TICKS"
        ~doc:
          "Per-query deadline in simulated ticks; on expiry the answer \
           degrades to sound-but-possibly-incomplete.")

let max_rows_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-rows" ]
        ~doc:"Per-query cap on intermediate-relation rows.")

let make_budget ~deadline ~max_rows =
  match deadline, max_rows with
  | None, None -> None
  | _ -> Some (Refq_fault.Budget.create { Refq_fault.Budget.no_limits with deadline; max_rows })

let make_resilience ~faults ~fault_seed ~retries =
  let seed = Option.map Int64.of_int fault_seed in
  let plan =
    match faults with
    | None -> Ok Refq_fault.Fault.none
    | Some spec -> Refq_fault.Fault.parse ?seed spec
  in
  Result.map
    (fun plan ->
      let retry =
        match retries with
        | None -> Refq_fault.Retry.default
        | Some n -> Refq_fault.Retry.make n
      in
      let open Refq_federation in
      { Federation.default_resilience with plan; retry })
    plan

(* ------------------------------------------------------------------ *)
(* Persistence helpers                                                 *)
(* ------------------------------------------------------------------ *)

let report_recovery dir (r : Persist.report) =
  if Persist.clean r then
    Fmt.pr "persist: %s opened clean (epochs data=%d schema=%d)@." dir
      (fst r.Persist.recovered) (snd r.Persist.recovered)
  else Fmt.epr "persist: %s recovered with anomalies:@.%a@." dir Persist.pp_report r

(* Bring the persisted store to exactly the data file's triple set,
   streaming the term-level diff through the delta hook — one WAL record
   per effective change. Removals run first so the diff never transits
   through a state outside old..new. *)
let sync_persisted h data =
  let st = Persist.store h in
  let current = Store.to_graph st in
  let removed = ref 0 and added = ref 0 in
  Graph.iter
    (fun t ->
      if not (Graph.mem t data) then begin
        Store.remove_triple st t;
        incr removed
      end)
    current;
  Graph.iter
    (fun t ->
      if not (Graph.mem t current) then begin
        Store.add_triple st t;
        incr added
      end)
    data;
  (!added, !removed)

let make_io ~io_fault ~io_seed =
  match io_fault with
  | None -> Ok Io.real
  | Some spec ->
    Result.map
      (fun mode -> Io.make ?seed:(Option.map Int64.of_int io_seed) mode)
      (Io.parse_mode spec)

let io_fault_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "io-fault" ] ~docv:"SPEC"
        ~doc:
          "Inject an I/O fault into the persistence layer: fail:N, short:N \
           or corrupt:N (at the Nth written byte), or op:N (crash before \
           the Nth file operation). For crash-recovery testing.")

let io_seed_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "io-seed" ] ~docv:"N"
        ~doc:"Seed for the injected corruption bits (deterministic).")

let persist_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "persist" ] ~docv:"DIR"
        ~doc:
          "Persistence directory: open or crash-recover the store there \
           (a fresh directory is seeded from FILE, then mutations append \
           to the write-ahead log).")

(* ------------------------------------------------------------------ *)
(* answer                                                              *)
(* ------------------------------------------------------------------ *)

let strategy_conv ~n_atoms name cover =
  match name, cover with
  | "jucq", Some spec ->
    Result.map (fun c -> Strategy.Jucq c) (parse_cover ~n_atoms spec)
  | "jucq", None -> Error "strategy jucq requires --cover"
  | name, _ -> Strategy.of_string name

(* --explain: the chosen cover with, per fragment, the cost model's
   estimated cardinality next to the cardinality actually materialized —
   the "estimated vs actual" view of the chosen plan. *)
let explain_answer env q (r : Answer.report) =
  (* The pinned pair the result was served at — the environment's synced
     epochs, not the store's raw counters (they can run ahead of what the
     caches and statistics describe). *)
  let data, schema = Answer.epochs env in
  Fmt.pr "@.epochs: data=%d schema=%d@." data schema;
  match r.Answer.detail with
  | Answer.Saturated _ | Answer.Datalog_run _ -> ()
  | Answer.Reformulated
      { cover; fragment_cardinalities; view_hits; engines; gcov; _ } ->
    Fmt.pr "chosen cover: %a@." Cover.pp cover;
    (* One line per fragment under a non-binary --engine policy: which
       physical operator evaluated it (smoke tests grep for these,
       including the leapfrog-infeasible fallback wording). *)
    List.iteri
      (fun i op -> Fmt.pr "fragment %d operator: %s@." (i + 1) op)
      engines;
    (match
       List.concat
         (List.mapi
            (fun i hit -> if hit then [ string_of_int (i + 1) ] else [])
            view_hits)
     with
    | [] -> ()
    | served ->
      Fmt.pr "materialized views served fragment(s): %s@."
        (String.concat "," served));
    (match gcov with
    | Some trace ->
      Fmt.pr "cover search: %d covers explored in %d round(s), %a estimated cost@."
        (List.length trace.Gcov.explored)
        trace.Gcov.iterations
        Refq_cost.Cost_model.pp_estimate trace.Gcov.chosen_estimate
    | None -> ());
    let cl = Answer.closure env and cenv = Answer.card_env env in
    Fmt.pr "%-4s %-16s %12s %12s %10s@." "frag" "atoms" "est. card"
      "actual card" "est. cost";
    List.iteri
      (fun i (frag, actual) ->
        let atoms =
          String.concat "," (List.map (fun a -> string_of_int (a + 1)) frag)
        in
        match Refq_reform.Reformulate.fragment_ucq cl q frag with
        | f ->
          let e =
            Refq_cost.Cost_model.(
              fragment_estimate (fragment_profile cenv f))
          in
          Fmt.pr "%-4d %-16s %12.0f %12d %10.0f@." (i + 1) atoms
            e.Refq_cost.Cost_model.card actual e.Refq_cost.Cost_model.cost
        | exception Refq_reform.Reformulate.Too_large n ->
          Fmt.pr "%-4d %-16s %12s %12d %10s@." (i + 1) atoms
            (Printf.sprintf "(>%d CQs)" n)
            actual "—")
      (List.combine (Cover.fragments cover) fragment_cardinalities)

(* Echo what [Session.open_] did, with the exact lines the pre-session
   CLI printed (smoke scripts grep for them). *)
let report_session ~path ~persist_dir (i : Session.info) =
  (match persist_dir, i.Session.recovery with
  | Some dir, Some r ->
    report_recovery dir r;
    if i.Session.seeded > 0 then
      Fmt.pr "persist: seeded %s with %d triple(s) from %s@." dir
        i.Session.seeded path
  | _ -> ());
  let side = path ^ ".views" in
  if i.Session.views_loaded > 0 || i.Session.views_skipped > 0 then begin
    Fmt.pr "loaded %d materialized view(s) from %s@." i.Session.views_loaded
      side;
    if i.Session.views_skipped > 0 then
      Fmt.epr "views: %s: skipped %d undecodable view(s) (stale, not trusted)@."
        side i.Session.views_skipped
  end;
  match i.Session.views_error with
  | Some m -> Fmt.epr "views: ignoring %s@." m
  | None -> ()

let session_config ~path ~use_views ~domains ~persist_dir =
  let c = Session.Config.(default |> with_domains domains) in
  let c =
    match persist_dir with
    | Some dir -> Session.Config.with_persist_dir dir c
    | None -> c
  in
  if use_views then Session.Config.with_views_file (path ^ ".views") c else c

let answer_cmd =
  let run path query query_file strategy_name cover_spec profile_name all_strategies minimize backend_name engine_name format explain no_cache use_views verify domains faults fault_seed retries deadline max_rows persist_dir =
    if domains < 1 then die "--domains must be at least 1"
    else begin
    match load_store path with
    | Error m -> `Error (false, m)
    | Ok file_store -> (
      let opened =
        Session.open_
          ~config:(session_config ~path ~use_views ~domains ~persist_dir)
          ~store:file_store ()
      in
      match opened with
      | Error m -> `Error (false, m)
      | Ok session -> (
      report_session ~path ~persist_dir (Session.info session);
      let store = Session.store session in
      let env = Session.env session in
      match read_query ~query ~query_file with
      | Error m -> `Error (false, m)
      | Ok text -> (
        let union_query =
          if contains_word ~word:"UNION" text then
            Result.to_option (Sparql.parse_select ~env:workload_env text)
          else None
        in
        let parsed =
          match union_query with
          | Some u -> Ok (List.hd (Refq_query.Ucq.disjuncts u))
          | None -> parse_query text
        in
        match parsed with
        | Error e -> query_error e
        | Ok q -> (
          let profile =
            List.find_opt
              (fun p -> p.Refq_reform.Profiles.name = profile_name)
              Refq_reform.Profiles.all
          in
          match profile with
          | None -> die "unknown profile %S" profile_name
          | Some profile ->
            let backend =
              match backend_name with
              | "nested-loop" -> Ok Answer.Nested_loop
              | "sort-merge" -> Ok Answer.Sort_merge
              | other -> Error (Printf.sprintf "unknown backend %S" other)
            in
            match backend with
            | Error m -> `Error (false, m)
            | Ok backend ->
            let engine =
              match engine_name with
              | "binary" -> Ok Answer.Binary
              | "wco" -> Ok Answer.Wco
              | "auto" -> Ok Answer.Auto
              | other -> Error (Printf.sprintf "unknown engine %S" other)
            in
            match engine with
            | Error m -> `Error (false, m)
            | Ok engine ->
            let n_atoms = List.length q.Cq.body in
            let budget = make_budget ~deadline ~max_rows in
            let config =
              let c =
                Answer.Config.(
                  default |> with_profile profile |> with_minimize minimize
                  |> with_backend backend |> with_engine engine
                  |> with_cache (not no_cache)
                  |> with_verify verify)
              in
              let c = if use_views then c else Answer.Config.without_views c in
              match budget with
              | Some b -> Answer.Config.with_budget b c
              | None -> c
            in
            match make_resilience ~faults ~fault_seed ~retries with
            | Error m -> `Error (false, m)
            | Ok resilience -> (
              match faults with
              | Some _ -> (
                (* Fault injection simulates endpoint calls: route the
                   query through a single-endpoint federation named after
                   the input file, and print the degradation report. *)
                if all_strategies then
                  die "--faults runs one reformulation strategy; drop --all"
                else if union_query <> None then
                  die "--faults does not support UNION queries"
                else
                  match strategy_conv ~n_atoms strategy_name cover_spec with
                  | Error m -> `Error (false, m)
                  | Ok s -> (
                    let open Refq_federation in
                    let fed_strategy =
                      match s with
                      | Strategy.Ucq -> Ok Federation.Ucq
                      | Strategy.Scq -> Ok Federation.Scq
                      | Strategy.Jucq c -> Ok (Federation.Cover c)
                      | Strategy.Gcov -> Ok Federation.Gcov
                      | (Strategy.Saturation | Strategy.Datalog) as local ->
                        Error
                          (Printf.sprintf
                             "strategy %s answers locally, not through \
                              endpoint calls; --faults needs ucq, scq, jucq \
                              or gcov"
                             (Strategy.name local))
                    in
                    match fed_strategy with
                    | Error m -> `Error (false, m)
                    | Ok strategy ->
                      let name = Filename.basename path in
                      let fed =
                        Federation.of_graphs
                          [ (name, Store.to_graph store, None) ]
                      in
                      let rel, report =
                        Federation.answer_ref
                          ~config:
                            {
                              Federation.Config.answer = config;
                              strategy;
                              resilience;
                            }
                          fed q
                      in
                      Fmt.pr "%s (endpoint %S): %d answer(s)@."
                        (Strategy.name s) name
                        (Refq_engine.Relation.cardinality rel);
                      Fmt.pr "%a@." Answer.pp_federation_report report;
                      let dict = Federation.dictionary fed in
                      (match format with
                      | "json" ->
                        print_endline (Refq_engine.Results.to_json dict rel)
                      | "csv" ->
                        print_string (Refq_engine.Results.to_csv dict rel)
                      | "tsv" ->
                        print_string (Refq_engine.Results.to_tsv dict rel)
                      | _ ->
                        List.iter
                          (fun row ->
                            Fmt.pr "  %a@."
                              (Fmt.list ~sep:(Fmt.any " | ")
                                 (Namespace.pp_term workload_env))
                              row)
                          (Federation.decode fed rel));
                      `Ok ()))
              | None -> (
                let strategies =
                  if all_strategies then Ok Strategy.all_fixed
                  else
                    Result.map
                      (fun s -> [ s ])
                      (strategy_conv ~n_atoms strategy_name cover_spec)
                in
                match strategies with
                | Error m -> `Error (false, m)
                | Ok strategies ->
                  let dict = Store.dictionary store in
                  let show_rows rel =
                    match format with
                    | "text" ->
                      List.iter
                        (fun row ->
                          Fmt.pr "  %a@."
                            (Fmt.list ~sep:(Fmt.any " | ")
                               (Namespace.pp_term workload_env))
                            row)
                        (Answer.decode env rel)
                    | "json" ->
                      print_endline (Refq_engine.Results.to_json dict rel)
                    | "csv" -> print_string (Refq_engine.Results.to_csv dict rel)
                    | "tsv" -> print_string (Refq_engine.Results.to_tsv dict rel)
                    | other -> Fmt.epr "unknown format %S, using text@." other
                  in
                  List.iter
                    (fun s ->
                      match union_query with
                      | Some u -> (
                        match Session.answer_union ~config session u s with
                        | Ok (rel, reports) ->
                          Fmt.pr "%s (union of %d BGPs): %d answers@."
                            (Strategy.name s) (List.length reports)
                            (Refq_engine.Relation.cardinality rel);
                          if not all_strategies then show_rows rel
                        | Error f ->
                          Fmt.pr "%s: FAILED: %s@."
                            (Strategy.name f.Answer.f_strategy)
                            f.Answer.reason)
                      | None -> (
                        match Session.answer ~config session q s with
                        | Ok r ->
                          Fmt.pr "%a@." Answer.pp_report r;
                          if explain then explain_answer env q r;
                          if not all_strategies then show_rows r.Answer.answers
                        | Error f ->
                          Fmt.pr "%s: FAILED after %.3fs: %s@."
                            (Strategy.name f.Answer.f_strategy)
                            f.Answer.f_reformulation_s f.Answer.reason))
                    strategies;
                  `Ok ()))))))
    end
  in
  let path =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"RDF file (.nt or .ttl).")
  in
  let query =
    Arg.(
      value
      & opt (some string) None
      & info [ "q"; "query" ]
          ~doc:"Query (SPARQL SELECT or the paper's q(x) :- ... notation).")
  in
  let query_file =
    Arg.(
      value
      & opt (some file) None
      & info [ "query-file" ] ~doc:"File holding the query.")
  in
  let strategy =
    Arg.(
      value & opt string "gcov"
      & info [ "s"; "strategy" ]
          ~doc:"Strategy: sat, ucq, scq, jucq (with --cover), gcov, datalog.")
  in
  let cover =
    Arg.(
      value
      & opt (some string) None
      & info [ "cover" ]
          ~doc:"Cover for --strategy jucq, e.g. \"1,3;3,5;2,4;4,6\" (1-based).")
  in
  let profile =
    Arg.(
      value & opt string "complete"
      & info [ "profile" ]
          ~doc:
            "Reformulation profile: complete, hierarchies-only, \
             subclass-only, none (the partial profiles model \
             Virtuoso/AllegroGraph-style incomplete reasoning).")
  in
  let all_strategies =
    Arg.(
      value & flag
      & info [ "all" ]
          ~doc:"Run every fixed strategy and compare (demo step 2).")
  in
  let minimize =
    Arg.(
      value & flag
      & info [ "minimize" ]
          ~doc:"Drop containment-redundant disjuncts before evaluation.")
  in
  let backend =
    Arg.(
      value & opt string "nested-loop"
      & info [ "backend" ]
          ~doc:"Physical engine: nested-loop or sort-merge.")
  in
  let engine =
    Arg.(
      value & opt string "binary"
      & info [ "engine" ]
          ~doc:
            "Join operator: binary (the backend's join trees), wco \
             (worst-case-optimal leapfrog triejoin, falling back per \
             fragment when no feasible variable order exists) or auto \
             (per-fragment cost-based choice between the two).")
  in
  let format =
    Arg.(
      value & opt string "text"
      & info [ "format" ]
          ~doc:"Answer rendering: text, json (SPARQL results JSON), csv or                 tsv.")
  in
  let explain =
    Arg.(
      value & flag
      & info [ "explain" ]
          ~doc:
            "After answering, print the chosen cover and the per-fragment \
             estimated vs actual cardinalities.")
  in
  let no_cache =
    Arg.(
      value & flag
      & info [ "no-cache" ]
          ~doc:
            "Disable the answering caches (reformulation, cover, fragment \
             results) for this run.")
  in
  let use_views =
    Arg.(
      value
      & vflag true
          [
            ( true,
              info [ "views" ]
                ~doc:
                  "Consult a materialized-view sidecar (FILE.views) when \
                   answering — the default; a missing sidecar is a no-op." );
            ( false,
              info [ "no-views" ]
                ~doc:"Never consult materialized views for this run." );
          ])
  in
  let verify =
    Arg.(
      value & flag
      & info [ "verify" ]
          ~doc:
            "Debug mode: re-validate the cover, reformulation and plan of \
             every answer with the static checkers (findings show up in \
             `refq profile` under the analysis.* counters).")
  in
  let domains =
    Arg.(
      value & opt int 1
      & info [ "domains" ] ~docv:"N"
          ~doc:
            "Evaluate with $(docv) domains (OCaml 5 multicore): saturation \
             rounds and JUCQ fragments are chunked across a fixed domain \
             pool and merged deterministically, so answers are bit-identical \
             to --domains 1. Budgeted runs (--deadline/--max-rows) stay \
             sequential.")
  in
  Cmd.v
    (Cmd.info "answer" ~doc:"Answer a query through a chosen strategy")
    Term.(
      ret
        (const run $ path $ query $ query_file $ strategy $ cover $ profile
       $ all_strategies $ minimize $ backend $ engine $ format $ explain
       $ no_cache $ use_views $ verify $ domains $ faults_arg $ fault_seed_arg
       $ retries_arg $ deadline_arg $ max_rows_arg $ persist_arg))

(* ------------------------------------------------------------------ *)
(* explain                                                             *)
(* ------------------------------------------------------------------ *)

let explain_cmd =
  let run path query query_file show_sparql =
    match load_store path with
    | Error m -> `Error (false, m)
    | Ok store -> (
      match read_query ~query ~query_file with
      | Error m -> `Error (false, m)
      | Ok text -> (
        match parse_query text with
        | Error e -> query_error e
        | Ok q ->
          let env = Answer.make_env store in
          let cl = Answer.closure env in
          let n = Refq_reform.Reformulate.count_disjuncts cl q in
          Fmt.pr "query: %a@." Cq.pp q;
          Fmt.pr "UCQ reformulation size: %d disjuncts@." n;
          (if show_sparql && n <= 50 then
             match Refq_reform.Reformulate.cq_to_ucq cl q with
             | u -> Fmt.pr "@.%s@." (Sparql.ucq_to_sparql ~env:workload_env u)
             | exception Refq_reform.Reformulate.Too_large _ -> ());
          let trace = Gcov.search (Answer.card_env env) cl q in
          Fmt.pr "@.GCov search (%d covers explored, %d rounds):@."
            (List.length trace.Gcov.explored)
            trace.Gcov.iterations;
          List.iter
            (fun s ->
              Fmt.pr "  %s %-50s cost %12.0f  est. card %10.0f@."
                (if s.Gcov.accepted then "*" else " ")
                (Fmt.str "%a" Cover.pp s.Gcov.cover)
                s.Gcov.estimate.Refq_cost.Cost_model.cost
                s.Gcov.estimate.Refq_cost.Cost_model.card)
            trace.Gcov.explored;
          Fmt.pr "@.chosen cover: %a (estimated cost %.0f)@." Cover.pp
            trace.Gcov.chosen
            trace.Gcov.chosen_estimate.Refq_cost.Cost_model.cost;
          (* The physical picture of the chosen strategy. *)
          (match
             Refq_reform.Reformulate.cover_to_jucq cl q trace.Gcov.chosen
           with
          | jucq ->
            let plan =
              Refq_cost.Plan.explain_jucq (Answer.card_env env) jucq
            in
            Fmt.pr "@.fragment plan (join order):@.%a@."
              Refq_cost.Plan.pp_jucq_plan plan
          | exception Refq_reform.Reformulate.Too_large _ -> ());
          Fmt.pr "@.single-CQ plan of the original query (as Sat would run it):@.%a@."
            Refq_cost.Plan.pp_cq_plan
            (Refq_cost.Plan.explain_cq (Answer.card_env env) q);
          `Ok ()))
  in
  let path =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"RDF file (.nt or .ttl).")
  in
  let query =
    Arg.(
      value
      & opt (some string) None
      & info [ "q"; "query" ] ~doc:"Query text.")
  in
  let query_file =
    Arg.(
      value
      & opt (some file) None
      & info [ "query-file" ] ~doc:"File holding the query.")
  in
  let show_sparql =
    Arg.(
      value & flag
      & info [ "sparql" ] ~doc:"Print the UCQ reformulation as SPARQL (small unions only).")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Inspect reformulation sizes and GCov's explored cover space")
    Term.(ret (const run $ path $ query $ query_file $ show_sparql))

(* ------------------------------------------------------------------ *)
(* profile                                                             *)
(* ------------------------------------------------------------------ *)

let profile_cmd =
  let run path query query_file strategy_name cover_spec domains =
    if domains < 1 then die "--domains must be at least 1"
    else begin
    Par.set_domains domains;
    match load_store path with
    | Error m -> `Error (false, m)
    | Ok store -> (
      match read_query ~query ~query_file with
      | Error m -> `Error (false, m)
      | Ok text -> (
        match parse_query text with
        | Error e -> query_error e
        | Ok q -> (
          let env = Answer.make_env store in
          let n_atoms = List.length q.Cq.body in
          match strategy_conv ~n_atoms strategy_name cover_spec with
          | Error m -> `Error (false, m)
          | Ok s ->
            let result, rep =
              Obs.profile ~name:(Strategy.name s) (fun () ->
                  Answer.answer env q s)
            in
            (match result with
            | Ok r ->
              Fmt.pr "%a@." Answer.pp_report r;
              explain_answer env q r
            | Error f ->
              Fmt.pr "%s: FAILED after %.3fs: %s@."
                (Strategy.name f.Answer.f_strategy)
                f.Answer.f_reformulation_s f.Answer.reason);
            Fmt.pr "@.%a@." Obs.pp_report rep;
            `Ok ())))
    end
  in
  let path =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"RDF file (.nt or .ttl).")
  in
  let query =
    Arg.(
      value
      & opt (some string) None
      & info [ "q"; "query" ] ~doc:"Query text.")
  in
  let query_file =
    Arg.(
      value
      & opt (some file) None
      & info [ "query-file" ] ~doc:"File holding the query.")
  in
  let strategy =
    Arg.(
      value & opt string "gcov"
      & info [ "s"; "strategy" ]
          ~doc:"Strategy: sat, ucq, scq, jucq (with --cover), gcov, datalog.")
  in
  let cover =
    Arg.(
      value
      & opt (some string) None
      & info [ "cover" ]
          ~doc:"Cover for --strategy jucq, e.g. \"1,3;3,5;2,4;4,6\" (1-based).")
  in
  let domains =
    Arg.(
      value & opt int 1
      & info [ "domains" ] ~docv:"N"
          ~doc:
            "Profile with $(docv) domains: per-domain rollup spans \
             (domain-1, domain-2, ...) appear merged under their parent \
             stage in the span tree. Answers stay bit-identical to \
             --domains 1.")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Answer a query with the observability sink on and print the span \
          tree (per-stage wall time, allocation, engine counters)")
    Term.(
      ret (const run $ path $ query $ query_file $ strategy $ cover $ domains))

(* ------------------------------------------------------------------ *)
(* lint / audit-store                                                  *)
(* ------------------------------------------------------------------ *)

module Diagnostic = Refq_analysis.Diagnostic
module Json = Refq_obs.Json

(* A compact one-line query rendering with the CLI's namespace prefixes
   (Cq.pp prints full URIs and breaks lines). *)
let pp_pat_env ppf = function
  | Cq.Var v -> Fmt.string ppf v
  | Cq.Cst t -> Namespace.pp_term workload_env ppf t

let pp_cq_env ppf (q : Cq.t) =
  let pp_atom ppf (a : Cq.atom) =
    Fmt.pf ppf "%a %a %a" pp_pat_env a.Cq.s pp_pat_env a.Cq.p pp_pat_env
      a.Cq.o
  in
  Fmt.pf ppf "q(%a) :- %a"
    (Fmt.list ~sep:(Fmt.any ", ") pp_pat_env)
    q.Cq.head
    (Fmt.list ~sep:(Fmt.any ", ") pp_atom)
    q.Cq.body

let lint_cmd =
  let run path query query_file bundled gen gen_seed max_disjuncts json
      catalogue =
    if catalogue then begin
      List.iter
        (fun (code, severity, doc) ->
          Fmt.pr "%-7s %-8s %s@." code (Diagnostic.severity_name severity) doc)
        Diagnostic.catalogue;
      `Ok ()
    end
    else
      match path with
      | None -> die "a data file is required (or use --catalogue)"
      | Some path -> (
        match load_store path with
        | Error m -> `Error (false, m)
        | Ok store -> (
          let named_query =
            match query, query_file with
            | None, None -> Ok []
            | _ -> (
              match read_query ~query ~query_file with
              | Error m -> Error (`Msg m)
              | Ok text -> (
                match parse_query text with
                | Error e -> Error (`Parse e)
                | Ok q -> Ok [ ("query", q) ]))
          in
          match named_query with
          | Error (`Msg m) -> `Error (false, m)
          | Error (`Parse e) -> query_error e
          | Ok named_query -> (
            let bundled_queries =
              match bundled with
              | None -> Ok []
              | Some "lubm" -> Ok Refq_workload.Lubm.queries
              | Some "dblp" -> Ok Refq_workload.Dblp.queries
              | Some "geo" -> Ok Refq_workload.Geo.queries
              | Some other ->
                Error (Printf.sprintf "unknown workload %S" other)
            in
            match bundled_queries with
            | Error m -> `Error (false, m)
            | Ok bundled_queries ->
              let generated =
                if gen <= 0 then []
                else
                  Refq_workload.Query_gen.generate
                    ~seed:(Int64.of_int gen_seed) store ~count:gen
              in
              let queries = named_query @ bundled_queries @ generated in
              if queries = [] then
                die "nothing to lint: give --query, --bundled or --gen"
              else begin
                let env = Answer.make_env store in
                let config =
                  match max_disjuncts with
                  | None -> Answer.Config.default
                  | Some m -> Answer.Config.(with_max_disjuncts m default)
                in
                let results =
                  List.map
                    (fun (name, q) -> (name, q, Lint.query ~config env q))
                    queries
                in
                (* A materialized-view sidecar next to the data file is
                   audited alongside the queries. *)
                let side = path ^ ".views" in
                let view_diags =
                  if not (Sys.file_exists side) then []
                  else
                    let ctx = Answer.views_ctx env in
                    match Refq_views.Views.load ctx side with
                    | Ok { Refq_views.Views.catalog; skipped } ->
                      (if skipped = 0 then []
                       else
                         [
                           Diagnostic.make ~code:"RV002"
                             ~severity:Diagnostic.Warning ~artifact:"views"
                             ~subject:side
                             "%d sidecar view(s) did not decode and were \
                              dropped"
                             skipped;
                         ])
                      @ Refq_analysis.Check_views.check ctx catalog
                    | Error m ->
                      [
                        Diagnostic.make ~code:"RV001"
                          ~severity:Diagnostic.Error ~artifact:"views"
                          ~subject:side
                          "unreadable sidecar (extents unverifiable): %s" m;
                      ]
                in
                let all =
                  List.concat_map (fun (_, _, ds) -> ds) results @ view_diags
                in
                let errors = Diagnostic.count Diagnostic.Error all in
                if json then
                  print_endline
                    (Json.to_string
                       (Json.Obj
                          [
                            ("file", Json.String path);
                            ( "queries",
                              Json.List
                                (List.map
                                   (fun (name, q, ds) ->
                                     match Diagnostic.list_to_json ds with
                                     | Json.Obj fields ->
                                       Json.Obj
                                         (("name", Json.String name)
                                         :: ( "query",
                                              Json.String
                                                (Fmt.str "%a" pp_cq_env q) )
                                         :: fields)
                                     | other -> other)
                                   results) );
                            ("views", Diagnostic.list_to_json view_diags);
                            ("errors", Json.Int errors);
                            ( "warnings",
                              Json.Int (Diagnostic.count Diagnostic.Warning all)
                            );
                            ("hints", Json.Int (Diagnostic.count Diagnostic.Hint all));
                          ]))
                else begin
                  List.iter
                    (fun (name, q, ds) ->
                      match ds with
                      | [] -> Fmt.pr "%-8s ok       %a@." name pp_cq_env q
                      | ds ->
                        Fmt.pr "%-8s %d finding(s) in %a@." name
                          (List.length ds) pp_cq_env q;
                        List.iter (fun d -> Fmt.pr "  %a@." Diagnostic.pp d) ds)
                    results;
                  match view_diags with
                  | [] -> ()
                  | ds ->
                    Fmt.pr "%-8s %d finding(s) in sidecar %s@." "views"
                      (List.length ds) side;
                    List.iter (fun d -> Fmt.pr "  %a@." Diagnostic.pp d) ds
                end;
                if errors > 0 then
                  die "lint: %d error(s) across %d quer%s" errors
                    (List.length queries)
                    (if List.length queries = 1 then "y" else "ies")
                else `Ok ()
              end)))
  in
  let path =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"RDF file (.nt, .ttl or .store).")
  in
  let query =
    Arg.(
      value
      & opt (some string) None
      & info [ "q"; "query" ]
          ~doc:"Query (SPARQL SELECT or the paper's q(x) :- ... notation).")
  in
  let query_file =
    Arg.(
      value
      & opt (some file) None
      & info [ "query-file" ] ~doc:"File holding the query.")
  in
  let bundled =
    Arg.(
      value
      & opt (some string) None
      & info [ "bundled" ] ~docv:"WORKLOAD"
          ~doc:"Also lint the bundled queries of a workload: lubm, dblp or                 geo.")
  in
  let gen =
    Arg.(
      value & opt int 0
      & info [ "gen" ] ~docv:"N"
          ~doc:"Also lint N deterministic Query_gen queries over the                 dataset's vocabulary.")
  in
  let gen_seed =
    Arg.(
      value & opt int 42
      & info [ "gen-seed" ] ~doc:"Seed of the generated query batch.")
  in
  let max_disjuncts =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-disjuncts" ]
          ~doc:"Disjunct budget the reformulation checks enforce (default                 200,000).")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the diagnostics as machine-readable JSON.")
  in
  let catalogue =
    Arg.(
      value & flag
      & info [ "catalogue" ]
          ~doc:"Print the diagnostic catalogue (every code, severity and                 description) and exit.")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Statically check queries, their reformulations, covers and plans; \
          exits non-zero when any error-severity diagnostic fires")
    Term.(
      ret
        (const run $ path $ query $ query_file $ bundled $ gen $ gen_seed
       $ max_disjuncts $ json $ catalogue))

let audit_store_cmd =
  let finish ds json ok_line =
    if json then print_endline (Json.to_string (Diagnostic.list_to_json ds))
    else if ds = [] then ok_line ()
    else Fmt.pr "%a@." Diagnostic.pp_list ds;
    if Diagnostic.has_errors ds then
      die "audit: %d integrity error(s)" (List.length (Diagnostic.errors ds))
    else `Ok ()
  in
  let run path json persist_dir =
    match persist_dir, path with
    | Some dir, _ ->
      (* Read-only: recovery is simulated in memory, the directory is not
         repaired — auditing must never mutate the evidence. *)
      let ds = Refq_analysis.Audit_store.check_persist dir in
      finish ds json (fun () ->
          match Persist.recover dir with
          | Ok { Persist.store; report; _ } ->
            Fmt.pr "persist OK: %s — %d triple(s), epochs data=%d schema=%d%s@."
              dir (Store.size store) (fst report.Persist.recovered)
              (snd report.Persist.recovered)
              (if report.Persist.sat_restored then ", saturation restorable"
               else "")
          | Error m -> Fmt.pr "persist: %s@." m)
    | None, Some path -> (
      match load_store path with
      | Error m -> `Error (false, m)
      | Ok store ->
        let ds = Refq_analysis.Audit_store.check store in
        finish ds json (fun () ->
            Fmt.pr "store OK: %d triple(s), %d dictionary id(s), epochs \
                    data=%d schema=%d@."
              (Store.size store)
              (Dictionary.size (Store.dictionary store))
              (Store.data_epoch store) (Store.schema_epoch store)))
    | None, None -> die "give an RDF FILE or --persist DIR"
  in
  let path =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"RDF file (.nt, .ttl or .store).")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the diagnostics as machine-readable JSON.")
  in
  let persist =
    Arg.(
      value
      & opt (some string) None
      & info [ "persist" ] ~docv:"DIR"
          ~doc:
            "Audit a persistence directory instead: simulate recovery \
             (read-only) and check snapshot/WAL integrity (RS004), epoch \
             contiguity against the durable watermark (RS005) and the \
             recovered store's index agreement (RS006).")
  in
  Cmd.v
    (Cmd.info "audit-store"
       ~doc:
         "Audit a store's integrity invariants: dictionary bijectivity, \
          index agreement, epoch sanity, crash-recovery soundness")
    Term.(ret (const run $ path $ json $ persist))

let audit_concurrency_cmd =
  let run path json =
    match Conc_trace.load path with
    | Error m -> `Error (false, m)
    | Ok entries ->
      let ds = Check_conc.check entries in
      if json then print_endline (Json.to_string (Diagnostic.list_to_json ds))
      else if ds = [] then
        Fmt.pr "concurrency OK: %d event(s), happens-before rebuilt, no RX \
                finding@."
          (List.length entries)
      else Fmt.pr "%a@." Diagnostic.pp_list ds;
      if Diagnostic.has_errors ds then
        die "audit: %d concurrency error(s)" (List.length (Diagnostic.errors ds))
      else `Ok ()
  in
  let path =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"TRACE"
          ~doc:
            "Concurrency trace (ndjson) written by `refq serve --trace', \
             the REFQ_CONC_TRACE test hook, or Conc_trace.save.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the diagnostics as machine-readable JSON.")
  in
  Cmd.v
    (Cmd.info "audit-concurrency"
       ~doc:
         "Replay a recorded concurrency trace through the happens-before \
          checker: rebuild vector clocks from pool handoffs, writer \
          sections and snapshot swaps, then report RX001-RX006 (races, \
          pinned-epoch mutations, epoch regressions, out-of-section WAL \
          appends, post-drain admissions, unhanded stores in jobs).")
    Term.(ret (const run $ path $ json))

(* ------------------------------------------------------------------ *)
(* saturate                                                            *)
(* ------------------------------------------------------------------ *)

let saturate_cmd =
  let run path output =
    match load_store path with
    | Error m -> `Error (false, m)
    | Ok store ->
      let sat, info = Refq_saturation.Saturate.store_info store in
      Fmt.pr "saturated %d → %d triples in %d round(s), %.3fs@."
        info.Refq_saturation.Saturate.input_triples
        info.Refq_saturation.Saturate.output_triples
        info.Refq_saturation.Saturate.rounds
        info.Refq_saturation.Saturate.elapsed_s;
      (match output with
      | Some out -> Ntriples.write_file out (Store.to_graph sat)
      | None -> ());
      `Ok ()
  in
  let path =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"RDF file (.nt or .ttl).")
  in
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write G∞ as N-Triples.")
  in
  Cmd.v
    (Cmd.info "saturate" ~doc:"Materialize the saturation (Sat technique)")
    Term.(ret (const run $ path $ output))

(* ------------------------------------------------------------------ *)
(* cache                                                               *)
(* ------------------------------------------------------------------ *)

let cache_cmd =
  let stats_cmd =
    let run path query query_file strategy_name runs =
      match load_store path with
      | Error m -> `Error (false, m)
      | Ok store -> (
        match read_query ~query ~query_file with
        | Error m -> `Error (false, m)
        | Ok text -> (
          match parse_query text with
          | Error e -> query_error e
          | Ok q -> (
            match Strategy.of_string strategy_name with
            | Error m -> `Error (false, m)
            | Ok s -> (
              match Session.of_store store with
              | Error m -> `Error (false, m)
              | Ok session ->
                for i = 1 to runs do
                  match Session.answer session q s with
                  | Ok r ->
                    Fmt.pr "run %d (%s): %d answer(s) in %.4fs@." i
                      (if i = 1 then "cold" else "warm")
                      (Answer.n_answers r) (Answer.total_s r)
                  | Error f -> Fmt.pr "run %d: FAILED: %s@." i f.Answer.reason
                done;
                (* The pinned pair the runs were served at. *)
                let data, schema = Session.epochs session in
                Fmt.pr "@.epochs: data=%d schema=%d@." data schema;
                List.iter
                  (fun st -> Fmt.pr "%a@." Answer.Cache.pp_stats st)
                  (Session.cache_stats session);
                `Ok ()))))
    in
    let path =
      Arg.(
        required
        & pos 0 (some file) None
        & info [] ~docv:"FILE" ~doc:"RDF file (.nt or .ttl).")
    in
    let query =
      Arg.(
        value
        & opt (some string) None
        & info [ "q"; "query" ]
            ~doc:"Query (SPARQL SELECT or the paper's q(x) :- ... notation).")
    in
    let query_file =
      Arg.(
        value
        & opt (some file) None
        & info [ "query-file" ] ~doc:"File holding the query.")
    in
    let strategy =
      Arg.(
        value & opt string "gcov"
        & info [ "s"; "strategy" ] ~doc:"Strategy: sat, ucq, scq, gcov, datalog.")
    in
    let runs =
      Arg.(
        value & opt int 3
        & info [ "runs" ]
            ~doc:"How many times to answer the query against one environment               (first run is cold, the rest hit the caches).")
    in
    Cmd.v
      (Cmd.info "stats"
         ~doc:
           "Answer a query several times against one environment and print           the per-level cache statistics (hits, misses, evictions)")
      Term.(
        ret (const run $ path $ query $ query_file $ strategy $ runs))
  in
  Cmd.group
    (Cmd.info "cache"
       ~doc:"Inspect the multi-level answering cache (see `refq cache stats`)")
    [ stats_cmd ]

(* ------------------------------------------------------------------ *)
(* views                                                               *)
(* ------------------------------------------------------------------ *)

module Views = Refq_views.Views
module Harvest = Refq_views.Harvest
module Select = Refq_views.Select

let views_workload store ~bundled ~gen ~gen_seed =
  let bundled_queries =
    match bundled with
    | None -> Ok []
    | Some "lubm" -> Ok Refq_workload.Lubm.queries
    | Some "dblp" -> Ok Refq_workload.Dblp.queries
    | Some "geo" -> Ok Refq_workload.Geo.queries
    | Some other -> Error (Printf.sprintf "unknown workload %S" other)
  in
  match bundled_queries with
  | Error _ as e -> e
  | Ok bq ->
    let generated =
      if gen <= 0 then []
      else
        Refq_workload.Query_gen.generate ~seed:(Int64.of_int gen_seed) store
          ~count:gen
    in
    Ok (bq @ generated)

let views_cmd =
  let path_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"RDF data file (.nt or .ttl).")
  in
  let views_file_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "views-file" ] ~docv:"FILE"
          ~doc:"Sidecar catalog path (default: the data file plus `.views').")
  in
  let sidecar path views_file = Option.value views_file ~default:(path ^ ".views") in
  let bundled_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "bundled" ] ~docv:"WORKLOAD"
          ~doc:"Harvest candidates from the bundled queries of lubm, dblp or                 geo.")
  in
  let gen_arg =
    Arg.(
      value & opt int 0
      & info [ "gen" ] ~docv:"N"
          ~doc:"Also harvest from N deterministic Query_gen queries.")
  in
  let gen_seed_arg =
    Arg.(
      value & opt int 42
      & info [ "gen-seed" ] ~doc:"Seed of the generated query batch.")
  in
  let budget_arg =
    Arg.(
      value
      & opt float 10_000.0
      & info [ "space-budget" ] ~docv:"ROWS"
          ~doc:
            "Space budget, in estimated extent rows, for the greedy \
             knapsack selection.")
  in
  let max_atoms_arg =
    Arg.(
      value & opt int 3
      & info [ "max-atoms" ]
          ~doc:"Largest connected fragment proposed as a candidate view.")
  in
  (* Shared front half of recommend / materialize: harvest the workload's
     candidates and run the budgeted selection. *)
  let recommend path bundled gen gen_seed budget max_atoms =
    match load_store path with
    | Error m -> Error m
    | Ok store -> (
      match views_workload store ~bundled ~gen ~gen_seed with
      | Error m -> Error m
      | Ok [] -> Error "an empty workload: give --bundled and/or --gen"
      | Ok queries ->
        let env = Answer.make_env store in
        let params =
          { Harvest.default_params with Harvest.max_fragment_atoms = max_atoms }
        in
        let cands =
          Harvest.candidates ~params (Answer.card_env env) (Answer.closure env)
            queries
        in
        Ok (env, Select.select ~budget cands))
  in
  let recommend_cmd =
    let run path bundled gen gen_seed budget max_atoms =
      match recommend path bundled gen gen_seed budget max_atoms with
      | Error m -> `Error (false, m)
      | Ok (_, trace) ->
        Fmt.pr "%a@." Select.pp_trace trace;
        `Ok ()
    in
    Cmd.v
      (Cmd.info "recommend"
         ~doc:
           "Harvest candidate views from a workload and print the budgeted \
            selection trace (no extent is materialized)")
      Term.(
        ret
          (const run $ path_arg $ bundled_arg $ gen_arg $ gen_seed_arg
         $ budget_arg $ max_atoms_arg))
  in
  let materialize_cmd =
    let run path views_file bundled gen gen_seed budget max_atoms =
      match recommend path bundled gen gen_seed budget max_atoms with
      | Error m -> `Error (false, m)
      | Ok (env, trace) ->
        let ctx = Answer.views_ctx env in
        let catalog = Answer.views env in
        List.iter
          (fun (c : Harvest.candidate) ->
            match Views.materialize ctx catalog c.Harvest.def with
            | Ok _ -> ()
            | Error m -> Fmt.epr "views: skipping %s: %s@." c.Harvest.key m)
          trace.Select.chosen;
        let out = sidecar path views_file in
        Views.save ctx catalog out;
        Fmt.pr "%a@.@.materialized %d view(s) to %s@." Select.pp_trace trace
          (Views.length catalog) out;
        `Ok ()
    in
    Cmd.v
      (Cmd.info "materialize"
         ~doc:
           "Run the budgeted selection and materialize the chosen views \
            into a sidecar catalog (FILE.views)")
      Term.(
        ret
          (const run $ path_arg $ views_file_arg $ bundled_arg $ gen_arg
         $ gen_seed_arg $ budget_arg $ max_atoms_arg))
  in
  (* Shared back half of list / drop / refresh / audit: load the sidecar. *)
  let with_catalog path views_file k =
    match load_store path with
    | Error m -> `Error (false, m)
    | Ok store -> (
      let env = Answer.make_env store in
      let ctx = Answer.views_ctx env in
      let side = sidecar path views_file in
      if not (Sys.file_exists side) then
        die "no sidecar at %s (run `refq views materialize' first)" side
      else
        match Views.load ctx side with
        | Error m -> `Error (false, m)
        | Ok { Views.catalog; skipped } ->
          if skipped > 0 then
            Fmt.epr "views: %s: skipped %d undecodable view(s)@." side skipped;
          k store ctx side catalog)
  in
  let list_cmd =
    let run path views_file =
      with_catalog path views_file (fun store _ctx _side catalog ->
          Fmt.pr "epochs: data=%d schema=%d@." (Store.data_epoch store)
            (Store.schema_epoch store);
          List.iter
            (fun v ->
              Fmt.pr "%-5s %a@."
                (if Views.is_fresh store v then "fresh" else "stale")
                Views.pp_info (Views.info v))
            (Views.views catalog);
          Fmt.pr "%d view(s)@." (Views.length catalog);
          `Ok ())
    in
    Cmd.v
      (Cmd.info "list"
         ~doc:"List the sidecar's views with their freshness and epochs")
      Term.(ret (const run $ path_arg $ views_file_arg))
  in
  let drop_cmd =
    let run path views_file keys all =
      with_catalog path views_file (fun _store ctx side catalog ->
          if all then begin
            let n = Views.length catalog in
            Views.clear catalog;
            Views.save ctx catalog side;
            Fmt.pr "dropped %d view(s)@." n;
            `Ok ()
          end
          else if keys = [] then die "give --key (repeatable) or --all"
          else begin
            List.iter
              (fun k ->
                if Views.drop catalog k then Fmt.pr "dropped %s@." k
                else Fmt.epr "views: no view keyed %s@." k)
              keys;
            Views.save ctx catalog side;
            `Ok ()
          end)
    in
    let keys =
      Arg.(
        value & opt_all string []
        & info [ "key" ] ~docv:"KEY"
            ~doc:"Canonical key of a view to drop (as printed by `refq views                   list').")
    in
    let all =
      Arg.(value & flag & info [ "all" ] ~doc:"Drop every view.")
    in
    Cmd.v
      (Cmd.info "drop" ~doc:"Drop views from the sidecar catalog")
      Term.(ret (const run $ path_arg $ views_file_arg $ keys $ all))
  in
  let refresh_cmd =
    let run path views_file =
      with_catalog path views_file (fun _store ctx side catalog ->
          let outcome = Views.refresh ctx catalog in
          Views.save ctx catalog side;
          Fmt.pr "%a@." Views.pp_outcome outcome;
          `Ok ())
    in
    Cmd.v
      (Cmd.info "refresh"
         ~doc:
           "Bring every view up to the data file's current epochs \
            (schema-stale views are dropped, data-stale ones \
            re-materialized) and rewrite the sidecar")
      Term.(ret (const run $ path_arg $ views_file_arg))
  in
  let audit_cmd =
    let run path views_file json =
      with_catalog path views_file (fun store ctx _side catalog ->
          let ds = Refq_analysis.Check_views.check ctx catalog in
          if json then
            print_endline (Json.to_string (Diagnostic.list_to_json ds))
          else if ds = [] then
            Fmt.pr "views OK: %d view(s), epochs data=%d schema=%d@."
              (Views.length catalog) (Store.data_epoch store)
              (Store.schema_epoch store)
          else Fmt.pr "%a@." Diagnostic.pp_list ds;
          if Diagnostic.has_errors ds then
            die "views audit: %d error(s)"
              (List.length (Diagnostic.errors ds))
          else `Ok ())
    in
    let json =
      Arg.(
        value & flag
        & info [ "json" ] ~doc:"Emit the diagnostics as machine-readable JSON.")
    in
    Cmd.v
      (Cmd.info "audit"
         ~doc:
           "Audit the sidecar against the data file: extent/definition \
            agreement (RV001), staleness (RV002), redundant views (RV003)")
      Term.(ret (const run $ path_arg $ views_file_arg $ json))
  in
  Cmd.group
    (Cmd.info "views"
       ~doc:
         "Workload-driven materialized views: recommend, materialize, \
          list, drop, refresh, audit")
    [
      recommend_cmd; materialize_cmd; list_cmd; drop_cmd; refresh_cmd;
      audit_cmd;
    ]

(* ------------------------------------------------------------------ *)
(* demo                                                                *)
(* ------------------------------------------------------------------ *)

let demo_cmd =
  Cmd.v
    (Cmd.info "demo"
       ~doc:
         "Interactive walkthrough of the demonstration scenario (load /           stats / query / run / explain / modify)")
    Term.(const Demo.main $ const ())

(* ------------------------------------------------------------------ *)
(* federate                                                            *)
(* ------------------------------------------------------------------ *)

let federate_cmd =
  let run paths query query_file limit faults fault_seed retries deadline
      max_rows =
    match read_query ~query ~query_file with
    | Error m -> `Error (false, m)
    | Ok text -> (
      match parse_query text with
      | Error e -> query_error e
      | Ok q -> (
        let graphs =
          List.map
            (fun path -> Result.map (fun g -> (path, g)) (load_graph path))
            paths
        in
        match
          List.find_map (function Error m -> Some m | Ok _ -> None) graphs
        with
        | Some m -> `Error (false, m)
        | None -> (
          match make_resilience ~faults ~fault_seed ~retries with
          | Error m -> `Error (false, m)
          | Ok resilience ->
            let budget = make_budget ~deadline ~max_rows in
            let specs =
              List.filter_map
                (function
                  | Ok (path, g) -> Some (Filename.basename path, g, limit)
                  | Error _ -> None)
                graphs
            in
            let open Refq_federation in
            let fed = Federation.of_graphs specs in
            let show label answers =
              let rows = Federation.decode fed answers in
              Fmt.pr "%-18s %6d answer(s)@." label (List.length rows)
            in
            let refd, report =
              let answer =
                match budget with
                | Some b -> Refq_core.Config.(with_budget b default)
                | None -> Refq_core.Config.default
              in
              Federation.answer_ref
                ~config:
                  { Federation.Config.default with answer; resilience }
                fed q
            in
            show "centralized" (Federation.answer_centralized fed q);
            show "per-endpoint sat" (Federation.answer_local_sat fed q);
            show "federated ref" refd;
            if
              faults <> None || budget <> None
              || report.Answer.verdict <> Answer.Sound_and_complete
            then Fmt.pr "%a@." Answer.pp_federation_report report;
            List.iter
              (fun row ->
                Fmt.pr "  %a@."
                  (Fmt.list ~sep:(Fmt.any " | ")
                     (Namespace.pp_term workload_env))
                  row)
              (Federation.decode fed refd);
            `Ok ())))
  in
  let paths =
    Arg.(
      non_empty
      & pos_all file []
      & info [] ~docv:"FILE..." ~doc:"One RDF file per endpoint.")
  in
  let query =
    Arg.(
      value
      & opt (some string) None
      & info [ "q"; "query" ] ~doc:"Query text.")
  in
  let query_file =
    Arg.(
      value
      & opt (some file) None
      & info [ "query-file" ] ~doc:"File holding the query.")
  in
  let limit =
    Arg.(
      value
      & opt (some int) None
      & info [ "limit" ]
          ~doc:"Per-endpoint answer limit (sources returning only the first                 N answers).")
  in
  Cmd.v
    (Cmd.info "federate"
       ~doc:
         "Answer a query over several endpoint files: centralized vs           per-endpoint saturation vs federated reformulation")
    Term.(
      ret
        (const run $ paths $ query $ query_file $ limit $ faults_arg
       $ fault_seed_arg $ retries_arg $ deadline_arg $ max_rows_arg))

(* ------------------------------------------------------------------ *)
(* snapshot                                                            *)
(* ------------------------------------------------------------------ *)

let snapshot_cmd =
  let data_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"RDF file (.nt, .ttl or .store).")
  in
  let dir_arg n =
    Arg.(
      required
      & pos n (some string) None
      & info [] ~docv:"DIR" ~doc:"Persistence directory.")
  in
  let with_synced ~io path dir k =
    match load_store path with
    | Error m -> `Error (false, m)
    | Ok data -> (
      match Persist.open_dir ~io dir with
      | Error m -> `Error (false, m)
      | Ok h ->
        report_recovery dir (Persist.report h);
        let added, removed = sync_persisted h (Store.to_graph data) in
        let st = Persist.store h in
        Fmt.pr "synced %s: +%d/-%d triple(s), now %d at epochs data=%d \
                schema=%d@."
          dir added removed (Store.size st) (Store.data_epoch st)
          (Store.schema_epoch st);
        k h)
  in
  let save_cmd =
    let run path dir with_sat =
      with_synced ~io:Io.real path dir (fun h ->
          let sat =
            if with_sat then
              Some (Refq_saturation.Saturate.store (Persist.store h))
            else None
          in
          Persist.snapshot ?sat h;
          Fmt.pr "snapshot written: %s%s@." dir
            (match sat with
            | Some sst ->
              Fmt.str " (saturation closure: %d triple(s))" (Store.size sst)
            | None -> "");
          Persist.close h;
          `Ok ())
    in
    let with_sat =
      Arg.(
        value & flag
        & info [ "sat" ]
            ~doc:
              "Saturate first and store the closure in the snapshot, so \
               reopening skips both parsing and saturation.")
    in
    Cmd.v
      (Cmd.info "save"
         ~doc:
           "Sync DIR to FILE's triples and write a new snapshot generation \
            (collapsing the write-ahead log)")
      Term.(ret (const run $ data_arg $ dir_arg 1 $ with_sat))
  in
  let sync_cmd =
    let run path dir io_fault io_seed =
      match make_io ~io_fault ~io_seed with
      | Error m -> `Error (false, m)
      | Ok io -> (
        (* Io.Crash is the simulated power cut the fault spec asked for:
           report where it hit and exit cleanly, leaving the torn state
           on disk for recovery (and the smoke tests) to chew on. *)
        try
          with_synced ~io path dir (fun h ->
              Persist.close h;
              `Ok ())
        with Io.Crash m ->
          Fmt.pr "crash injected: %s (after %d byte(s), %d op(s))@." m
            (Io.bytes_written io) (Io.ops io);
          `Ok ())
    in
    Cmd.v
      (Cmd.info "sync"
         ~doc:
           "Sync DIR to FILE's triples through the write-ahead log only (no \
            snapshot rotation); with --io-fault, tear the log mid-write")
      Term.(ret (const run $ data_arg $ dir_arg 1 $ io_fault_arg $ io_seed_arg))
  in
  let load_cmd =
    let run dir =
      match Persist.open_dir dir with
      | Error m -> `Error (false, m)
      | Ok h ->
        let st = Persist.store h in
        Fmt.pr "%a@." Persist.pp_report (Persist.report h);
        Fmt.pr "store: %d triple(s), %d dictionary id(s)@." (Store.size st)
          (Dictionary.size (Store.dictionary st));
        (match Persist.take_sat h with
        | Some (sst, delta) ->
          Fmt.pr "saturation: %d triple(s) restored, %d mutation(s) to apply@."
            (Store.size sst) (List.length delta)
        | None -> ());
        Persist.close h;
        `Ok ()
    in
    Cmd.v
      (Cmd.info "load"
         ~doc:
           "Open-or-recover DIR (repairing torn WAL tails) and print the \
            recovery report and store statistics")
      Term.(ret (const run $ dir_arg 0))
  in
  let info_cmd =
    let run dir =
      match Persist.recover dir with
      | Error m -> `Error (false, m)
      | Ok { Persist.store = st; sat; report } ->
        List.iter
          (fun f ->
            let p = Persist.path dir f in
            if Sys.file_exists p then
              Fmt.pr "%-14s %d byte(s)@." (Filename.basename p)
                (Unix.stat p).Unix.st_size)
          [ `Snapshot_cur; `Snapshot_prev; `Wal_cur; `Wal_prev; `Meta ];
        Fmt.pr "%a@." Persist.pp_report report;
        Fmt.pr "store: %d triple(s)%s@." (Store.size st)
          (match sat with
          | Some (sst, delta) ->
            Fmt.str "; saturation: %d triple(s), %d mutation(s) behind"
              (Store.size sst) (List.length delta)
          | None -> "");
        `Ok ()
    in
    Cmd.v
      (Cmd.info "info"
         ~doc:
           "Inspect DIR without touching it: file sizes and a simulated \
            (read-only) recovery report")
      Term.(ret (const run $ dir_arg 0))
  in
  Cmd.group
    (Cmd.info "snapshot"
       ~doc:
         "Durable stores: write snapshot generations, append to the WAL, \
          inspect and crash-recover persistence directories")
    [ save_cmd; sync_cmd; load_cmd; info_cmd ]

(* ------------------------------------------------------------------ *)
(* serve / client                                                      *)
(* ------------------------------------------------------------------ *)

let serve_cmd =
  let run path port host domains engine_name deadline max_rows use_views
      persist_dir trace =
    if domains < 1 then die "--domains must be at least 1"
    else begin
      match
        match path with
        | None -> Ok None
        | Some p -> Result.map Option.some (load_store p)
      with
      | Error m -> `Error (false, m)
      | Ok seed -> (
        if seed = None && persist_dir = None then
          die "give an RDF FILE or --persist DIR (or both: FILE seeds a \
               fresh DIR)"
        else begin
          match
            match engine_name with
            | "binary" -> Ok Answer.Config.Binary
            | "wco" -> Ok Answer.Config.Wco
            | "auto" -> Ok Answer.Config.Auto
            | other -> Error (Printf.sprintf "unknown engine %S" other)
          with
          | Error m -> `Error (false, m)
          | Ok engine ->
          let config =
            match path, use_views with
            | Some p, true ->
              session_config ~path:p ~use_views:true ~domains ~persist_dir
            | _ -> session_config ~path:"" ~use_views:false ~domains ~persist_dir
          in
          (* The serving default for every request that does not pick its
             own config: the session threads it through [Session.answer]. *)
          let config =
            Session.Config.with_answer
              (Answer.Config.with_engine engine config.Session.Config.answer)
              config
          in
          match Session.open_ ~config ?store:seed () with
          | Error m -> `Error (false, m)
          | Ok session -> (
            (match path with
            | Some p -> report_session ~path:p ~persist_dir (Session.info session)
            | None -> (
              match persist_dir, (Session.info session).Session.recovery with
              | Some dir, Some r -> report_recovery dir r
              | _ -> ()));
            let sconfig =
              let c = Serve.Config.(default |> with_host host |> with_port port) in
              let c =
                match deadline with
                | Some d -> Serve.Config.with_deadline d c
                | None -> c
              in
              let c =
                match max_rows with
                | Some n -> Serve.Config.with_max_rows n c
                | None -> c
              in
              match trace with
              | Some f -> Serve.Config.with_trace f c
              | None -> c
            in
            match Serve.start ~config:sconfig session with
            | Error m -> `Error (false, m)
            | Ok server ->
              let data, schema = Session.epochs session in
              Fmt.pr
                "serving %d triple(s) on %s:%d (epochs data=%d schema=%d)@."
                (Store.size (Session.store session))
                host (Serve.port server) data schema;
              Serve.wait server;
              Fmt.pr "drained: WAL flushed, snapshot rotated@.";
              (match Serve.trace_report server, trace with
              | Some (events, ds), Some file ->
                Fmt.pr "concurrency audit: %d event(s) -> %s, %d finding(s)@."
                  events file (List.length ds);
                if ds <> [] then Fmt.pr "%a@." Diagnostic.pp_list ds
              | _ -> ());
              `Ok ())
        end)
    end
  in
  let path =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"FILE"
          ~doc:
            "RDF file to serve (.nt, .ttl or .store). With --persist, seeds \
             a fresh directory; a non-empty directory wins over the file.")
  in
  let port =
    Arg.(
      value & opt int 0
      & info [ "port" ] ~docv:"PORT"
          ~doc:"TCP port; 0 (the default) picks an ephemeral one, printed \
                on startup.")
  in
  let host =
    Arg.(
      value & opt string "127.0.0.1"
      & info [ "host" ] ~docv:"ADDR" ~doc:"Bind address.")
  in
  let domains =
    Arg.(
      value & opt int 1
      & info [ "domains" ] ~docv:"N"
          ~doc:"Domain-pool size for the parallel evaluation paths.")
  in
  let engine =
    Arg.(
      value & opt string "binary"
      & info [ "engine" ]
          ~doc:
            "Default join operator for served answers: binary, wco or \
             auto (see `refq answer --engine').")
  in
  let deadline =
    Arg.(
      value
      & opt (some int) None
      & info [ "deadline" ] ~docv:"TICKS"
          ~doc:
            "Default per-request deadline in simulated ticks (a request \
             may set its own).")
  in
  let max_rows =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-rows" ]
          ~doc:"Default per-request cap on intermediate-relation rows.")
  in
  let use_views =
    Arg.(
      value
      & vflag true
          [
            ( true,
              info [ "views" ]
                ~doc:"Consult FILE.views when answering (the default)." );
            (false, info [ "no-views" ] ~doc:"Never consult materialized views.");
          ])
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Record a concurrency trace for the server's lifetime; at \
             drain, write it to FILE (ndjson), run the happens-before \
             checker over it and print the RX findings. Replay later with \
             `refq audit-concurrency FILE'.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve a database over TCP (newline-delimited JSON) with \
          epoch-snapshot isolation: readers pin the epoch pair current at \
          admission, a single writer applies batches and bumps snapshots, \
          and every response reports the pinned pair it was served at. \
          `shutdown' drains gracefully (WAL flush + snapshot rotation).")
    Term.(
      ret
        (const run $ path $ port $ host $ domains $ engine $ deadline
       $ max_rows $ use_views $ persist_arg $ trace))

let client_cmd =
  let run host port requests =
    match Unix.inet_addr_of_string host with
    | exception Failure _ -> die "invalid host %S" host
    | addr -> (
      let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      match Unix.connect sock (Unix.ADDR_INET (addr, port)) with
      | exception Unix.Unix_error (e, _, _) ->
        die "connect %s:%d: %s" host port (Unix.error_message e)
      | () ->
        let ic = Unix.in_channel_of_descr sock in
        let oc = Unix.out_channel_of_descr sock in
        let ok = ref true in
        let send line =
          output_string oc line;
          output_char oc '\n';
          flush oc;
          match input_line ic with
          | resp ->
            print_endline resp;
            (* Surface protocol-level failures in the exit code so smoke
               scripts can assert on them. *)
            if String.length resp >= 11 && String.sub resp 0 11 = {|{"ok":false|}
            then ok := false
          | exception End_of_file -> ()
        in
        (match requests with
        | [] ->
          let rec loop () =
            match In_channel.input_line stdin with
            | Some line ->
              if String.trim line <> "" then send line;
              loop ()
            | None -> ()
          in
          loop ()
        | rs -> List.iter send rs);
        (try Unix.close sock with Unix.Unix_error _ -> ());
        if !ok then `Ok () else `Error (false, "server reported an error"))
  in
  let host =
    Arg.(
      value & opt string "127.0.0.1"
      & info [ "host" ] ~docv:"ADDR" ~doc:"Server address.")
  in
  let port =
    Arg.(
      required
      & opt (some int) None
      & info [ "port" ] ~docv:"PORT" ~doc:"Server port.")
  in
  let requests =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"REQUEST"
          ~doc:
            "JSON request lines to send in order (read from stdin when \
             omitted). Each response is printed on its own line.")
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Send newline-delimited JSON requests to a running `refq serve' \
          and print the responses (exit status reflects \"ok\":false \
          responses)")
    Term.(ret (const run $ host $ port $ requests))

let () =
  (* Debug logging for the refq.* sources: REFQ_DEBUG=1 refq ... *)
  if Sys.getenv_opt "REFQ_DEBUG" <> None then begin
    Logs.set_reporter (Logs_fmt.reporter ());
    Logs.set_level (Some Logs.Debug)
  end;
  let doc = "reformulation-based query answering in RDF" in
  let info = Cmd.info "refq" ~version:Version.version ~doc in
  let group =
    Cmd.group info
      [
        generate_cmd; stats_cmd; answer_cmd; explain_cmd; profile_cmd;
        lint_cmd; audit_store_cmd; audit_concurrency_cmd; saturate_cmd;
        snapshot_cmd; cache_cmd;
        views_cmd; federate_cmd; demo_cmd; serve_cmd; client_cmd;
      ]
  in
  (* One-line diagnostics instead of raw backtraces for the failures a
     user can trigger from the command line. *)
  exit
    (try Cmd.eval ~catch:false group with
    | Refq_reform.Reformulate.Too_large n ->
      Fmt.epr
        "refq: reformulation too large (over %d disjuncts); try --strategy \
         scq or gcov, or set --max-rows/--deadline to accept a degraded \
         answer@."
        n;
      Cmd.Exit.some_error
    | Refq_fault.Budget.Exhausted reason ->
      Fmt.epr "refq: budget exhausted: %s@." reason;
      Cmd.Exit.some_error
    | Invalid_argument m | Failure m | Sys_error m ->
      Fmt.epr "refq: %s@." m;
      Cmd.Exit.some_error)
