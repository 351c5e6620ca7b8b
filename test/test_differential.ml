(* Differential oracle: every answering strategy must return the same
   answer set. For each workload we generate a batch of seeded random
   conjunctive queries and check Ref/UCQ, Ref/SCQ, GCov, Datalog — and,
   for small queries, the JUCQ of every partition cover — against the
   Saturation answers. A mismatch prints the generator seed and the query
   so the failure replays deterministically. *)

open Refq_rdf
open Refq_query
open Refq_storage
open Refq_core
module Query_gen = Refq_workload.Query_gen

let seed = 2026L

let queries_per_workload = 70 (* 3 workloads x 70 = 210 queries *)

(* Covers beyond this many atoms would enumerate too many partitions
   (Bell numbers) for a unit test; fixed strategies still run. *)
let max_atoms_for_cover_enum = 3

let workloads =
  [
    ("lubm", fun () -> Refq_workload.Lubm.generate ~scale:1 ());
    ("dblp", fun () -> Refq_workload.Dblp.generate ~scale:1 ());
    ("geo", fun () -> Refq_workload.Geo.generate ~scale:1 ());
  ]

(* Domain-pool sizes: [REFQ_DOMAINS] (comma- or space-separated counts)
   narrows the parallel suite's sweep so CI can pin one count per run.
   The wco and maintained-saturation axes default to the sequential pool
   (the parallel suite already sweeps the counts); [REFQ_DOMAINS] widens
   them — CI reruns them at 4 domains to drive the wco chunked path and
   the saturation rounds' fan-out. *)
let parallel_domain_counts =
  match Sys.getenv_opt "REFQ_DOMAINS" with
  | None | Some "" -> [ 1; 2; 4 ]
  | Some s ->
    let counts =
      String.split_on_char ',' s
      |> List.concat_map (String.split_on_char ' ')
      |> List.filter_map int_of_string_opt
    in
    if counts = [] then [ 1; 2; 4 ] else counts

let axis_domain_counts =
  match Sys.getenv_opt "REFQ_DOMAINS" with
  | None | Some "" -> [ 1 ]
  | Some _ -> parallel_domain_counts

let pp_rows ppf rows =
  Fmt.pf ppf "%d rows" (List.length rows);
  List.iteri
    (fun i row ->
      if i < 8 then
        Fmt.pf ppf "@,  [%a]" Fmt.(list ~sep:(any "; ") Term.pp) row)
    rows;
  if List.length rows > 8 then Fmt.pf ppf "@,  ..."

let strategy_answers env q s =
  match Answer.answer env q s with
  | Ok r -> Ok (Answer.decode env r.Answer.answers)
  | Error f -> Error f.Answer.reason

let check_query ~workload env (name, q) =
  let oracle =
    match strategy_answers env q Strategy.Saturation with
    | Ok rows -> rows
    | Error reason ->
      Alcotest.failf "%s/%s (seed %Ld): Saturation failed: %s@.%a" workload
        name seed reason Cq.pp q
  in
  let check_strategy s =
    match strategy_answers env q s with
    | Ok rows ->
      if rows <> oracle then
        Alcotest.failf
          "%s/%s (seed %Ld): %s disagrees with Saturation@.query: %a@.%s: \
           @[<v>%a@]@.saturation: @[<v>%a@]"
          workload name seed (Strategy.name s) Cq.pp q (Strategy.name s)
          pp_rows rows pp_rows oracle
    | Error _reason ->
      (* A strategy may legitimately refuse (reformulation size limit);
         refusing is not a wrong answer. *)
      ()
  in
  List.iter check_strategy
    [ Strategy.Ucq; Strategy.Scq; Strategy.Gcov; Strategy.Datalog ];
  (* All partition covers of small queries: JUCQ must be answer-invariant
     in the cover, not just for the one GCov picked. *)
  let n_atoms = List.length q.Cq.body in
  if n_atoms <= max_atoms_for_cover_enum then
    List.iter
      (fun blocks ->
        check_strategy (Strategy.Jucq (Cover.make ~n_atoms blocks)))
      (Gcov.partitions n_atoms)

let test_workload (workload, make_store) () =
  let store = make_store () in
  let env = Answer.make_env store in
  let queries = Query_gen.generate ~seed store ~count:queries_per_workload in
  Alcotest.(check int)
    (workload ^ " batch size") queries_per_workload (List.length queries);
  List.iter (check_query ~workload env) queries

(* ------------------------------------------------------------------ *)
(* Cached vs cache-disabled, across store mutations                    *)
(* ------------------------------------------------------------------ *)

(* The caches must be answer-invariant: for every query, the cached cold
   run, the warm (cache-hitting) rerun and a cache-disabled run return
   the same rows — including right after data and schema mutations,
   which exercise the epoch-based invalidation paths. *)

let no_cache_config = Answer.Config.without_cache Answer.Config.default

let check_cached ~workload ~step env (name, q) =
  List.iter
    (fun s ->
      let run config =
        match Answer.answer ~config env q s with
        | Ok r -> Ok (Answer.decode env r.Answer.answers)
        | Error f -> Error f.Answer.reason
      in
      let uncached = run no_cache_config in
      let cold = run Answer.Config.default in
      let warm = run Answer.Config.default in
      let pp_result ppf = function
        | Ok rows -> pp_rows ppf rows
        | Error reason -> Fmt.pf ppf "failed: %s" reason
      in
      if cold <> uncached || warm <> uncached then
        Alcotest.failf
          "%s/%s step %d (seed %Ld): %s cached run diverges@.query: \
           %a@.uncached: @[<v>%a@]@.cold: @[<v>%a@]@.warm: @[<v>%a@]"
          workload name step seed (Strategy.name s) Cq.pp q pp_result uncached
          pp_result cold pp_result warm)
    [ Strategy.Scq; Strategy.Gcov ]

(* An environment that went through [Answer.invalidate] (merged indexes,
   statistics re-scanned, closure re-read from the index) must behave
   exactly like one built from scratch over a rebuilt store: same
   closure, same cardinality estimate, same answers under every
   strategy, same GCov cover. The
   rebuilt store numbers its terms afresh, so rows are compared decoded
   and sorted. *)
let check_rebuilt ~workload ~step env (name, q) =
  let fresh =
    Answer.make_env (Store.of_graph (Store.to_graph (Answer.store env)))
  in
  let constraints e =
    Refq_schema.Schema.to_list
      (Refq_schema.Closure.closed_schema (Answer.closure e))
  in
  if constraints env <> constraints fresh then
    Alcotest.failf "%s step %d: invalidated closure differs from rebuilt"
      workload step;
  (* Statistics, with every id decoded: they must not depend on how the
     store reached its triple set. *)
  let stats e =
    let st = (Answer.card_env e).Refq_cost.Cardinality.stats in
    let term = Store.decode_id (Answer.store e) in
    ( [
        Stats.n_triples st;
        Stats.n_distinct_subjects st;
        Stats.n_distinct_properties st;
        Stats.n_distinct_objects st;
      ],
      List.sort compare
        (List.map
           (fun (p, _) -> (term p, Stats.prop_stat st p))
           (Stats.top_properties st ~k:max_int)) )
  in
  if stats env <> stats fresh then
    Alcotest.failf "%s step %d: invalidated statistics differ from rebuilt"
      workload step;
  List.iter
    (fun s ->
      let run e =
        match Answer.answer ~config:no_cache_config e q s with
        | Ok r ->
          let cover =
            match r.Answer.detail with
            | Answer.Reformulated { cover; _ } -> Some cover
            | Answer.Saturated _ | Answer.Datalog_run _ -> None
          in
          Ok (List.sort compare (Answer.decode e r.Answer.answers), cover)
        | Error f -> Error f.Answer.reason
      in
      match run env, run fresh with
      | Ok (rows, cover), Ok (rows', cover') ->
        if rows <> rows' then
          Alcotest.failf
            "%s/%s step %d (seed %Ld): %s differs from rebuilt store@.query: \
             %a@.invalidated: @[<v>%a@]@.rebuilt: @[<v>%a@]"
            workload name step seed (Strategy.name s) Cq.pp q pp_rows rows
            pp_rows rows';
        if not (Option.equal Cover.equal cover cover') then
          Alcotest.failf
            "%s/%s step %d (seed %Ld): %s chose another cover@.query: %a"
            workload name step seed (Strategy.name s) Cq.pp q
      | Error _, Error _ -> ()
      | Ok _, Error m | Error m, Ok _ ->
        Alcotest.failf "%s/%s step %d (seed %Ld): %s fails on one side only: %s"
          workload name step seed (Strategy.name s) m)
    Strategy.[ Ucq; Scq; Gcov; Datalog; Saturation ]

(* The seventh axis, maintained Sat = fresh Sat: the mutations go
   through [Session.apply], so the environment's saturation is carried
   across data writes as a pending delta and brought up to date on its
   next read. At every step it must hold exactly the triples of a fresh
   saturation of the base, and a pure data step must have been absorbed
   by one maintenance application, not by a saturation round — unless
   the schema rules out local repair ([resaturates]). The forced
   saturation's statistics, derived from its source's over the
   maintenance's own delta, must equal a fresh count of it. *)
module Session = Refq_serve.Session
module Saturate = Refq_saturation.Saturate
module Obs = Refq_obs.Obs

let c_maintained = Obs.counter "saturate.maintained"
let c_rounds = Obs.counter "saturate.rounds"

let check_maintained ?(resaturates = false) ~workload ~step env effective =
  let was = Obs.enabled () in
  Obs.set_enabled true;
  let m0 = Obs.value c_maintained and r0 = Obs.value c_rounds in
  let sat, _ = Answer.saturated env in
  let maintained = Obs.value c_maintained - m0
  and rounds = Obs.value c_rounds - r0 in
  Obs.set_enabled was;
  let fresh = Saturate.store (Answer.store env) in
  if not (Graph.equal (Store.to_graph sat) (Store.to_graph fresh)) then
    Alcotest.failf
      "%s step %d: maintained saturation (%d triples) differs from a fresh \
       one (%d triples)"
      workload step (Store.size sat) (Store.size fresh);
  let sat_stats = (Answer.saturated_card_env env).Refq_cost.Cardinality.stats in
  if Fixtures.stat_figures sat_stats <> Fixtures.stat_figures (Stats.compute sat)
  then
    Alcotest.failf
      "%s step %d: the maintained saturation's statistics differ from \
       Stats.compute"
      workload step;
  let schema =
    List.exists
      (function `Add t | `Remove t -> Triple.is_schema_triple t)
      effective
  in
  let want_maintained = if effective = [] || schema then 0 else 1 in
  if maintained <> want_maintained || (rounds > 0) <> (schema || resaturates)
  then
    Alcotest.failf
      "%s step %d: %d maintenance application(s) and %d saturation \
       round(s) for %d effective mutation(s)%s"
      workload step maintained rounds (List.length effective)
      (if schema then " with a schema change" else "")

let test_cached_with_mutations (workload, make_store) () =
  let store = make_store () in
  let queries = Query_gen.generate ~seed store ~count:queries_per_workload in
  (* Victim triples for data mutations: removed and re-added so answers
     really change under the caches. *)
  let victims =
    let all = ref [] in
    Graph.iter (fun t -> all := t :: !all) (Store.to_graph store);
    List.filteri (fun i _ -> i < 4) !all
  in
  (* A fresh support [t = (s p o)] and its one consequence [d = (s type c)]
     through a domain of [p] (fresh terms, so [t] is [d]'s only support):
     [d] is added when already derived, kept when [t] goes (it is
     explicit), and deleted while [t] still derives it. *)
  let support, derived =
    match
      Refq_schema.Closure.domain_pairs
        (Answer.closure_of_store store)
    with
    | (p, c) :: _ ->
      let fresh n = Term.uri ("http://example.org/differential#" ^ n) in
      ( Triple.make (fresh "s") p (fresh "o"),
        Triple.make (fresh "s") Vocab.rdf_type c )
    | [] -> Alcotest.failf "%s: the schema declares no domain" workload
  in
  let schema_triple =
    Triple.make
      (Term.uri "http://example.org/differential#Fresh")
      Vocab.rdfs_subclassof
      (Term.uri "http://example.org/differential#Fresher")
  in
  let mutations step =
    match (step / 7) mod 8 with
    | 0 -> List.map (fun t -> `Remove t) victims
    | 1 -> List.map (fun t -> `Add t) victims
    | 2 -> [ `Add schema_triple ]
    | 3 -> [ `Remove schema_triple ]
    | 4 -> [ `Add support; `Add derived ]
    | 5 -> [ `Remove support ]
    | 6 -> [ `Add support ]
    | _ -> [ `Remove derived ]
  in
  List.iter
    (fun domains ->
      let config = Session.Config.(default |> with_domains domains) in
      let session =
        match Session.of_store ~config (Store.copy store) with
        | Ok s -> s
        | Error m -> Alcotest.fail m
      in
      let env = Session.env session in
      let workload = Printf.sprintf "%s@%dd" workload domains in
      Fun.protect
        ~finally:(fun () -> Refq_par.Par.set_domains 1)
        (fun () ->
          List.iteri
            (fun step q ->
              if step mod 7 = 0 && step > 0 then begin
                let effective =
                  Session.apply_effective session (mutations step)
                in
                check_maintained ~workload ~step env effective;
                check_rebuilt ~workload ~step env q
              end
              else if step = 0 then ignore (Answer.saturated env);
              check_cached ~workload ~step env q)
            queries;
          (* Once [rdf:type] has a domain, derived type triples have
             consequences of their own: the next data write re-saturates
             instead of repairing locally. *)
          let typed =
            Triple.make Vocab.rdf_type Vocab.rdfs_domain
              (Term.uri "http://example.org/differential#Typed")
          in
          let step = List.length queries in
          check_maintained ~workload ~step env
            (Session.apply_effective session [ `Add typed ]);
          check_maintained ~resaturates:true ~workload ~step:(step + 1) env
            (Session.apply_effective session
               [
                 `Add
                   (Triple.make support.Triple.s support.Triple.p
                      (Term.uri "http://example.org/differential#o2"));
               ])))
    axis_domain_counts

(* ------------------------------------------------------------------ *)
(* Views on vs views off, across interleaved insert/delete batches     *)
(* ------------------------------------------------------------------ *)

module Views = Refq_views.Views
module Harvest = Refq_views.Harvest
module Select = Refq_views.Select

(* Materialized views must be answer-invariant: with a catalog harvested
   from the very queries under test, every strategy returns the same rows
   with views consulted and with views off — including across interleaved
   insert and delete batches, which exercise staleness (epoch mismatch →
   miss) and the delta-refresh paths (adopt / append / rematerialize).
   Caches are off so the only difference between the runs is the views. *)

let views_off_config = Answer.Config.(without_views (without_cache default))

let views_on_config = Answer.Config.without_cache Answer.Config.default

let check_views ~workload ~step env (name, q) =
  List.iter
    (fun s ->
      let run config =
        match Answer.answer ~config env q s with
        | Ok r -> Ok (Answer.decode env r.Answer.answers)
        | Error f -> Error f.Answer.reason
      in
      let off = run views_off_config in
      let on = run views_on_config in
      let pp_result ppf = function
        | Ok rows -> pp_rows ppf rows
        | Error reason -> Fmt.pf ppf "failed: %s" reason
      in
      if on <> off then
        Alcotest.failf
          "%s/%s step %d (seed %Ld): %s views-on diverges@.query: \
           %a@.views off: @[<v>%a@]@.views on: @[<v>%a@]"
          workload name step seed (Strategy.name s) Cq.pp q pp_result off
          pp_result on)
    [ Strategy.Ucq; Strategy.Scq; Strategy.Gcov ]

let test_views_with_mutations (workload, make_store) () =
  let store = make_store () in
  let env = Answer.make_env store in
  let queries = Query_gen.generate ~seed store ~count:queries_per_workload in
  (* The catalog is harvested from the tested queries themselves, so the
     lookup path actually fires. *)
  let cands =
    Harvest.candidates (Answer.card_env env) (Answer.closure env) queries
  in
  let trace = Select.select ~budget:50_000.0 cands in
  List.iter
    (fun (c : Harvest.candidate) ->
      ignore
        (Views.materialize (Answer.views_ctx env) (Answer.views env)
           c.Harvest.def))
    trace.Select.chosen;
  let victims =
    let all = ref [] in
    Graph.iter (fun t -> all := t :: !all) (Store.to_graph store);
    List.filteri (fun i _ -> i < 4) !all
  in
  let mutate step =
    let delta =
      match (step / 5) mod 2 with
      | 0 ->
        List.iter (Store.remove_triple store) victims;
        { Views.added = []; removed = victims }
      | _ ->
        List.iter (Store.add_triple store) victims;
        { Views.added = victims; removed = [] }
    in
    ignore (Answer.refresh_views ~delta env)
  in
  List.iteri
    (fun step q ->
      if step mod 5 = 0 && step > 0 then mutate step;
      check_views ~workload ~step env q)
    queries

(* ------------------------------------------------------------------ *)
(* Persisted vs in-memory, across a full snapshot round-trip           *)
(* ------------------------------------------------------------------ *)

module Persist = Refq_persist.Persist

(* A store that went to disk and came back — snapshot with its
   saturation closure, cold reopen — must answer every query exactly
   like the store that never left memory. This closes the durability
   loop: a recovery bug that corrupted a triple, an id mapping or the
   restored closure would surface here as a differential mismatch. *)

let persisted_env store =
  let dir = Filename.temp_file "refq_diff" ".dir" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  (match Persist.open_dir dir with
  | Error m -> Alcotest.failf "persist open: %s" m
  | Ok h ->
    let st = Persist.store h in
    Graph.iter (Store.add_triple st) (Store.to_graph store);
    Persist.snapshot ~sat:(Refq_saturation.Saturate.store st) h;
    Persist.close h);
  match Persist.open_dir dir with
  | Error m -> Alcotest.failf "persist reopen: %s" m
  | Ok h ->
    let report = Persist.report h in
    if not (Persist.clean report) then
      Alcotest.failf "cold reopen is not clean:@.%a" Persist.pp_report report;
    if not report.Persist.sat_restored then
      Alcotest.fail "saturation closure was not restored from the snapshot";
    let env = Answer.make_env (Persist.store h) in
    Option.iter
      (fun (sat, delta) -> Answer.install_saturated ~delta env sat)
      (Persist.take_sat h);
    Persist.close h;
    (dir, env)

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let check_persisted ~workload env penv (name, q) =
  let oracle =
    match strategy_answers env q Strategy.Saturation with
    | Ok rows -> rows
    | Error reason ->
      Alcotest.failf "%s/%s (seed %Ld): Saturation failed: %s@.%a" workload
        name seed reason Cq.pp q
  in
  List.iter
    (fun s ->
      match strategy_answers penv q s with
      | Ok rows ->
        if rows <> oracle then
          Alcotest.failf
            "%s/%s (seed %Ld): %s on the persisted store disagrees with the \
             in-memory oracle@.query: %a@.persisted: @[<v>%a@]@.in-memory: \
             @[<v>%a@]"
            workload name seed (Strategy.name s) Cq.pp q pp_rows rows pp_rows
            oracle
      | Error _ -> ())
    [ Strategy.Saturation; Strategy.Scq; Strategy.Gcov ]

let test_persisted_parity (workload, make_store) () =
  let store = make_store () in
  let env = Answer.make_env store in
  let queries = Query_gen.generate ~seed store ~count:queries_per_workload in
  let dir, penv = persisted_env store in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () -> List.iter (check_persisted ~workload env penv) queries)

(* ------------------------------------------------------------------ *)
(* Parallel vs sequential, across domain counts                        *)
(* ------------------------------------------------------------------ *)

module Par = Refq_par.Par

(* The multicore runtime must be answer-invariant: with the domain pool
   at 1, 2 and 4 domains, every strategy returns bit-identical (sorted,
   decoded) answer sets to the sequential oracle, the base store's epochs
   never move (answering reads; the seal enforces it), and the saturated
   store — built through the parallel rounds — lands on identical size
   and epochs. *)

let parallel_strategies =
  Strategy.[ Saturation; Ucq; Scq; Gcov; Datalog ]

let test_parallel_parity (workload, make_store) () =
  let store = make_store () in
  let queries = Query_gen.generate ~seed store ~count:queries_per_workload in
  Par.set_domains 1;
  let env0 = Answer.make_env store in
  let oracle =
    List.map
      (fun (_, q) -> List.map (strategy_answers env0 q) parallel_strategies)
      queries
  in
  let sat0, _ = Answer.saturated env0 in
  let epochs0 = (Store.data_epoch store, Store.schema_epoch store) in
  let pp_result ppf = function
    | Ok rows -> pp_rows ppf rows
    | Error reason -> Fmt.pf ppf "failed: %s" reason
  in
  Fun.protect
    ~finally:(fun () -> Par.set_domains 1)
    (fun () ->
      List.iter
        (fun d ->
          Par.set_domains d;
          let env = Answer.make_env store in
          List.iteri
            (fun i (name, q) ->
              List.iteri
                (fun j s ->
                  let got = strategy_answers env q s in
                  let want = List.nth (List.nth oracle i) j in
                  if got <> want then
                    Alcotest.failf
                      "%s/%s (seed %Ld): %s at %d domains diverges from \
                       sequential@.query: %a@.sequential: @[<v>%a@]@.%d \
                       domains: @[<v>%a@]"
                      workload name seed (Strategy.name s) d Cq.pp q pp_result
                      want d pp_result got)
                parallel_strategies)
            queries;
          Alcotest.(check (pair int int))
            (Printf.sprintf "%s: base store epochs untouched at %d domains"
               workload d)
            epochs0
            (Store.data_epoch store, Store.schema_epoch store);
          let sat, _ = Answer.saturated env in
          Alcotest.(check int)
            (Printf.sprintf "%s: saturated size at %d domains" workload d)
            (Store.size sat0) (Store.size sat);
          Alcotest.(check (pair int int))
            (Printf.sprintf "%s: saturated epochs at %d domains" workload d)
            (Store.data_epoch sat0, Store.schema_epoch sat0)
            (Store.data_epoch sat, Store.schema_epoch sat))
        parallel_domain_counts)

(* ------------------------------------------------------------------ *)
(* Wco engine vs binary engine, across domain counts                   *)
(* ------------------------------------------------------------------ *)

(* The worst-case-optimal engine must be answer-invariant: for every
   strategy, answering under [Config.engine = Wco] (leapfrog triejoin
   with per-disjunct fallback) returns bit-identical decoded answer
   sets to the default binary engine — and so does [Auto], whose
   per-fragment cost-based choice mixes the two operators inside one
   JUCQ. The sweep honours [REFQ_DOMAINS] like the parallel suite, so
   the wco chunked-evaluation path is exercised across the domain pool
   too (the engines share one environment, which also checks that the
   engine-tagged result cache never serves one operator's rows to the
   other). *)

let engine_answers env config q s =
  match Answer.answer ~config env q s with
  | Ok r -> Ok (Answer.decode env r.Answer.answers)
  | Error f -> Error f.Answer.reason

let test_wco_parity (workload, make_store) () =
  let store = make_store () in
  let queries = Query_gen.generate ~seed store ~count:queries_per_workload in
  let pp_result ppf = function
    | Ok rows -> pp_rows ppf rows
    | Error reason -> Fmt.pf ppf "failed: %s" reason
  in
  Fun.protect
    ~finally:(fun () -> Par.set_domains 1)
    (fun () ->
      List.iter
        (fun d ->
          Par.set_domains d;
          let env = Answer.make_env store in
          List.iter
            (fun (name, q) ->
              List.iter
                (fun s ->
                  let want =
                    engine_answers env Answer.Config.default q s
                  in
                  List.iter
                    (fun e ->
                      let config =
                        Answer.Config.(with_engine e default)
                      in
                      let got = engine_answers env config q s in
                      if got <> want then
                        Alcotest.failf
                          "%s/%s (seed %Ld): %s under --engine %s at %d \
                           domain(s) diverges from binary@.query: \
                           %a@.binary: @[<v>%a@]@.%s: @[<v>%a@]"
                          workload name seed (Strategy.name s)
                          (Answer.Config.engine_name e)
                          d Cq.pp q pp_result want
                          (Answer.Config.engine_name e)
                          pp_result got)
                    [ Answer.Wco; Answer.Auto ])
                parallel_strategies)
            queries)
        axis_domain_counts)

(* ------------------------------------------------------------------ *)
(* Plan identity: maintained statistics plan like counted ones         *)
(* ------------------------------------------------------------------ *)

(* Over a fixed stream of 200 generated queries, interleaved every ten
   queries with data and schema writes through [Session.apply], GCov
   must choose the same cover at the same estimate, pricing the same
   number of candidates ([cost.estimates]), under the environment's
   maintained statistics as under statistics counted afresh with
   [Stats.compute] for the same store. *)
let c_estimates = Obs.counter "cost.estimates"

let test_plan_identity () =
  let store = Refq_workload.Lubm.generate ~scale:1 () in
  let queries = Query_gen.generate ~seed store ~count:200 in
  Alcotest.(check int) "stream length" 200 (List.length queries);
  let session =
    match Session.of_store (Store.copy store) with
    | Ok s -> s
    | Error m -> Alcotest.fail m
  in
  let env = Session.env session in
  let victims =
    let all = ref [] in
    Graph.iter (fun t -> all := t :: !all) (Store.to_graph store);
    List.filteri (fun i _ -> i < 6) !all
  in
  let fresh n = Term.uri ("http://example.org/plan#" ^ n) in
  let p = (List.hd victims).Triple.p in
  let schema_triple =
    Triple.make (fresh "C") Vocab.rdfs_subclassof (fresh "D")
  in
  let writes i =
    match i mod 5 with
    | 0 -> List.map (fun t -> `Remove t) victims
    | 1 -> List.map (fun t -> `Add t) victims
    | 2 ->
      let s = fresh (Printf.sprintf "s%d" i) in
      [
        `Add (Triple.make s p (fresh "o"));
        `Add (Triple.make s p (fresh "o2"));
        `Add (Triple.make (fresh "s") p (fresh "o"));
      ]
    | 3 -> [ `Add schema_triple ]
    | _ -> [ `Remove schema_triple ]
  in
  let was = Obs.enabled () in
  Obs.set_enabled true;
  let totals = ref (0, 0) in
  Fun.protect
    ~finally:(fun () -> Obs.set_enabled was)
    (fun () ->
      List.iteri
        (fun i (name, q) ->
          if i mod 10 = 0 && i > 0 then
            ignore (Session.apply session (writes (i / 10)));
          let maintained = Answer.card_env env in
          let counted =
            {
              maintained with
              Refq_cost.Cardinality.stats = Stats.compute (Answer.store env);
            }
          in
          let search cenv =
            let e0 = Obs.value c_estimates in
            let trace = Gcov.search cenv (Answer.closure env) q in
            (trace, Obs.value c_estimates - e0)
          in
          let t, n = search maintained and t', n' = search counted in
          if
            (not (Cover.equal t.Gcov.chosen t'.Gcov.chosen))
            || compare t.Gcov.chosen_estimate t'.Gcov.chosen_estimate <> 0
            || n <> n'
          then
            Alcotest.failf
              "%s (query %d): maintained statistics plan differently@.query: \
               %a"
              name i Cq.pp q;
          totals := (fst !totals + n, snd !totals + n'))
        queries);
  Alcotest.(check bool) "candidates priced" true (fst !totals > 0);
  Alcotest.(check int) "cost.estimates total" (fst !totals) (snd !totals);
  Session.close session

let () =
  Alcotest.run "differential"
    [
      ( "strategies agree",
        List.map
          (fun w ->
            Alcotest.test_case (fst w) `Slow (test_workload w))
          workloads );
      ( "cached agrees across mutations",
        List.map
          (fun w ->
            Alcotest.test_case (fst w) `Slow (test_cached_with_mutations w))
          workloads );
      ( "plan identity under maintained statistics",
        [ Alcotest.test_case "lubm" `Slow test_plan_identity ] );
      ( "views agree across mutations",
        List.map
          (fun w ->
            Alcotest.test_case (fst w) `Slow (test_views_with_mutations w))
          workloads );
      ( "persisted agrees with in-memory",
        List.map
          (fun w -> Alcotest.test_case (fst w) `Slow (test_persisted_parity w))
          workloads );
      ( "parallel agrees across domains",
        List.map
          (fun w -> Alcotest.test_case (fst w) `Slow (test_parallel_parity w))
          workloads );
      ( "wco engine agrees with binary",
        List.map
          (fun w -> Alcotest.test_case (fst w) `Slow (test_wco_parity w))
          workloads );
    ]
