(* Tests for the core facade: strategies, Answer, GCov. *)

open Refq_rdf
open Refq_query
open Refq_storage
open Refq_core

let rows = Alcotest.testable
    (fun ppf r -> Fmt.string ppf (Fixtures.rows_to_string r))
    (List.equal (List.equal Term.equal))

let borges_env = lazy (Answer.make_env (Store.of_graph Fixtures.borges_graph))

let borges_expected = [ [ Term.literal "J. L. Borges" ] ]

let test_strategy_names () =
  List.iter
    (fun s ->
      match Strategy.of_string (Strategy.name s) with
      | Ok s' -> Alcotest.(check string) "roundtrip" (Strategy.name s) (Strategy.name s')
      | Error e -> Alcotest.fail e)
    Strategy.all_fixed;
  match Strategy.of_string "bogus" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bogus strategy accepted"

let run env q s =
  match Answer.answer env q s with
  | Ok r -> r
  | Error f -> Alcotest.failf "%s failed: %s" (Strategy.name s) f.Answer.reason

let test_all_strategies_borges () =
  let env = Lazy.force borges_env in
  List.iter
    (fun s ->
      let r = run env Fixtures.borges_query s in
      Alcotest.check rows
        (Strategy.name s ^ " answers")
        borges_expected
        (Answer.decode env r.Answer.answers))
    Strategy.all_fixed

let test_user_cover_strategy () =
  let env = Lazy.force borges_env in
  let cover = Cover.make ~n_atoms:3 [ [ 0; 1 ]; [ 2 ] ] in
  let r = run env Fixtures.borges_query (Strategy.Jucq cover) in
  Alcotest.check rows "user cover" borges_expected
    (Answer.decode env r.Answer.answers)

let test_cover_mismatch_rejected () =
  let env = Lazy.force borges_env in
  let cover = Cover.make ~n_atoms:2 [ [ 0 ]; [ 1 ] ] in
  match Answer.answer env Fixtures.borges_query (Strategy.Jucq cover) with
  | Error f ->
    Alcotest.(check bool) "mentions cover" true
      (String.length f.Answer.reason > 0)
  | Ok _ -> Alcotest.fail "mismatched cover accepted"

let test_saturation_cached () =
  let env = Lazy.force borges_env in
  let s1, _ = Answer.saturated env in
  let s2, _ = Answer.saturated env in
  Alcotest.(check bool) "same store" true (s1 == s2)

(* A snapshot-style chain: env1 over a copy of the live store saturates
   it, allocating [rdf:type] privately (the data has no type triple);
   the live store then allocates that same id to another term, and env2,
   over a later copy, inherits env1's saturation plus the write. Forcing
   it must translate the private id, not reuse it. *)
let test_saturation_inherited_across_dictionaries () =
  let u = Fixtures.uri in
  let live = Store.create () in
  Store.add_triple live (Triple.make (u "p") Vocab.rdfs_domain (u "C"));
  List.iter
    (fun i ->
      Store.add_triple live
        (Triple.make (u (Printf.sprintf "a%d" i)) (u "p") (u "b")))
    [ 1; 2; 3; 4; 5; 6 ];
  let env1 = Answer.make_env (Store.copy live) in
  let _ = Answer.saturated env1 in
  Alcotest.(check bool) "rdf:type private to env1" true
    (Store.find_term live Vocab.rdf_type = None);
  let write = Triple.make (u "z") (u "q") (u "w") in
  Store.add_triple live write;
  let env2 = Answer.make_env (Store.copy live) in
  Answer.inherit_saturation ~from:env1 ~delta:[ `Add write ] env2;
  let sat, info = Answer.saturated env2 in
  Alcotest.(check int) "maintained, not recomputed" 0
    info.Refq_saturation.Saturate.rounds;
  Alcotest.(check bool) "equals a fresh saturation" true
    (Graph.equal (Store.to_graph sat)
       (Store.to_graph (Refq_saturation.Saturate.store (Answer.store env2))));
  let q = Cq.make ~head:[ Cq.var "x" ] ~body:[ Cq.atom (Cq.var "x") (Cq.cst Vocab.rdf_type) (Cq.cst (u "C")) ] in
  match Answer.answer env2 q Strategy.Saturation with
  | Ok r -> Alcotest.(check int) "six typed" 6 (Answer.n_answers r)
  | Error f -> Alcotest.fail f.Answer.reason

let test_max_disjuncts_failure () =
  let env = Lazy.force borges_env in
  match
    Answer.answer
      ~config:Answer.Config.(with_max_disjuncts 1 default)
      env Fixtures.borges_query Strategy.Ucq
  with
  | Error f ->
    Alcotest.(check bool) "explains" true
      (String.length f.Answer.reason > 10)
  | Ok _ -> Alcotest.fail "should fail with max_disjuncts=1"

let test_gcov_trace () =
  let env = Lazy.force borges_env in
  let r = run env Fixtures.borges_query Strategy.Gcov in
  match r.Answer.detail with
  | Answer.Reformulated { gcov = Some trace; cover; _ } ->
    Alcotest.(check bool) "explored something" true
      (List.length trace.Gcov.explored >= 1);
    Alcotest.(check bool) "chosen = reported" true
      (Cover.equal trace.Gcov.chosen cover);
    Alcotest.(check bool) "finite cost" true
      (trace.Gcov.chosen_estimate.Refq_cost.Cost_model.cost < infinity);
    (* The first explored cover is the singleton start. *)
    (match trace.Gcov.explored with
    | first :: _ ->
      Alcotest.(check bool) "starts from singleton" true
        (Cover.is_singleton first.Gcov.cover)
    | [] -> Alcotest.fail "empty trace")
  | _ -> Alcotest.fail "gcov detail missing"

let test_gcov_never_worse_than_scq () =
  (* By construction the greedy search starts at the singleton cover, so
     its chosen estimate is at most the SCQ estimate. *)
  let st = Refq_workload.Lubm.generate ~scale:1 () in
  let env = Answer.make_env st in
  List.iter
    (fun (name, q) ->
      let trace =
        Gcov.search (Answer.card_env env) (Answer.closure env) q
      in
      let scq_est =
        match trace.Gcov.explored with
        | first :: _ -> first.Gcov.estimate.Refq_cost.Cost_model.cost
        | [] -> infinity
      in
      Alcotest.(check bool)
        (name ^ ": gcov ≤ scq")
        true
        (trace.Gcov.chosen_estimate.Refq_cost.Cost_model.cost <= scq_est))
    Refq_workload.Lubm.queries

let test_example1_gcov_feasible () =
  (* On LUBM, UCQ must fail at a low disjunct budget while GCov succeeds —
     demonstration claim (i)/(ii). *)
  let st = Refq_workload.Lubm.generate ~scale:1 () in
  let env = Answer.make_env st in
  let q = Refq_workload.Lubm.example1_query in
  let config = Answer.Config.(with_max_disjuncts 10_000 default) in
  (match Answer.answer ~config env q Strategy.Ucq with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "UCQ unexpectedly feasible at 10k budget");
  match Answer.answer ~config env q Strategy.Gcov with
  | Ok r ->
    Alcotest.(check bool) "gcov answers" true (Answer.n_answers r >= 0)
  | Error f -> Alcotest.failf "gcov failed: %s" f.Answer.reason

let test_invalidate_reflects_changes () =
  let store = Store.of_graph Fixtures.borges_graph in
  let env = Answer.make_env store in
  let q =
    Cq.make ~head:[ Cq.var "x" ]
      ~body:[ Cq.atom (Cq.var "x") (Cq.cst Vocab.rdf_type) (Cq.cst Fixtures.publication) ]
  in
  let count env =
    match Answer.answer env q Strategy.Gcov with
    | Ok r -> Answer.n_answers r
    | Error _ -> -1
  in
  Alcotest.(check int) "before" 1 (count env);
  (* Add a second book; the stale env must be refreshed to see it through
     reformulation (closure/statistics are snapshots). *)
  Store.add store (Fixtures.uri "doi2") Vocab.rdf_type Fixtures.book;
  let env' = Answer.invalidate env in
  Alcotest.(check int) "after invalidate" 2 (count env')

let test_pp_report_smoke () =
  let env = Lazy.force borges_env in
  let r = run env Fixtures.borges_query Strategy.Gcov in
  let text = Fmt.str "%a" Answer.pp_report r in
  Alcotest.(check bool) "mentions strategy" true
    (String.length text > 10)

let test_answer_union () =
  let env = Lazy.force borges_env in
  (* Books ∪ Persons: doi1 explicitly, b1 through the range constraint. *)
  let mk cls =
    Cq.make ~head:[ Cq.var "x" ]
      ~body:[ Cq.atom (Cq.var "x") (Cq.cst Vocab.rdf_type) (Cq.cst cls) ]
  in
  let u = Ucq.of_disjuncts [ mk Fixtures.book; mk Fixtures.person ] in
  match Answer.answer_union env u Strategy.Gcov with
  | Ok (rel, reports) ->
    Alcotest.(check int) "two reports" 2 (List.length reports);
    Alcotest.check rows "union answers"
      [ [ Fixtures.doi1 ]; [ Fixtures.b1 ] ]
      (Answer.decode env rel)
  | Error f -> Alcotest.failf "union failed: %s" f.Answer.reason

let test_partitions_bell () =
  Alcotest.(check int) "Bell(1)" 1 (List.length (Gcov.partitions 1));
  Alcotest.(check int) "Bell(3)" 5 (List.length (Gcov.partitions 3));
  Alcotest.(check int) "Bell(5)" 52 (List.length (Gcov.partitions 5));
  (* Each partition is a valid cover. *)
  List.iter
    (fun blocks -> ignore (Cover.make ~n_atoms:4 blocks))
    (Gcov.partitions 4);
  match Gcov.partitions 11 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "guard missing"

let test_exhaustive_orders_covers () =
  let st = Refq_workload.Lubm.generate ~scale:1 () in
  let env = Answer.make_env st in
  let q = List.assoc "Q7" Refq_workload.Lubm.queries in
  let ranked = Gcov.exhaustive (Answer.card_env env) (Answer.closure env) q in
  Alcotest.(check int) "Bell(4) covers priced" 15 (List.length ranked);
  let costs = List.map (fun (_, e) -> e.Refq_cost.Cost_model.cost) ranked in
  Alcotest.(check bool) "sorted ascending" true
    (List.sort Float.compare costs = costs)

let prop_backends_agree =
  QCheck2.Test.make ~name:"sort-merge backend = q(G∞) for every strategy"
    ~count:60 ~print:Fixtures.print_graph_and_cq Fixtures.gen_graph_and_cq
    (fun (g, q) ->
      let env = Answer.make_env (Store.of_graph g) in
      let expected = Refq_engine.Naive.cq (Refq_saturation.Saturate.graph g) q in
      List.for_all
        (fun s ->
          match
            Answer.answer
              ~config:Answer.Config.(with_backend Sort_merge default)
              env q s
          with
          | Ok r -> Answer.decode env r.Answer.answers = expected
          | Error _ -> false)
        [ Strategy.Saturation; Strategy.Ucq; Strategy.Scq; Strategy.Gcov ])

let prop_minimize_preserves_strategy_answers =
  QCheck2.Test.make ~name:"minimized strategies = q(G∞)" ~count:60
    ~print:Fixtures.print_graph_and_cq Fixtures.gen_graph_and_cq
    (fun (g, q) ->
      let env = Answer.make_env (Store.of_graph g) in
      let expected = Refq_engine.Naive.cq (Refq_saturation.Saturate.graph g) q in
      List.for_all
        (fun s ->
          match
            Answer.answer
              ~config:Answer.Config.(with_minimize true default)
              env q s
          with
          | Ok r -> Answer.decode env r.Answer.answers = expected
          | Error _ -> false)
        [ Strategy.Ucq; Strategy.Scq; Strategy.Gcov ])

(* Property: every strategy agrees with the saturation reference. *)
let prop_strategies_agree =
  QCheck2.Test.make ~name:"all strategies = q(G∞)" ~count:60
    ~print:Fixtures.print_graph_and_cq Fixtures.gen_graph_and_cq
    (fun (g, q) ->
      let env = Answer.make_env (Store.of_graph g) in
      let expected = Refq_engine.Naive.cq (Refq_saturation.Saturate.graph g) q in
      List.for_all
        (fun s ->
          match Answer.answer env q s with
          | Ok r -> Answer.decode env r.Answer.answers = expected
          | Error _ -> false)
        Strategy.all_fixed)

let () =
  Alcotest.run "core"
    [
      ("strategy", [ Alcotest.test_case "names" `Quick test_strategy_names ]);
      ( "answer",
        [
          Alcotest.test_case "all strategies (borges)" `Quick
            test_all_strategies_borges;
          Alcotest.test_case "user cover" `Quick test_user_cover_strategy;
          Alcotest.test_case "cover mismatch" `Quick test_cover_mismatch_rejected;
          Alcotest.test_case "saturation cached" `Quick test_saturation_cached;
          Alcotest.test_case "saturation inherited across dictionaries" `Quick
            test_saturation_inherited_across_dictionaries;
          Alcotest.test_case "max_disjuncts failure" `Quick
            test_max_disjuncts_failure;
          Alcotest.test_case "invalidate" `Quick test_invalidate_reflects_changes;
          Alcotest.test_case "pp_report" `Quick test_pp_report_smoke;
          Alcotest.test_case "answer union" `Quick test_answer_union;
          QCheck_alcotest.to_alcotest prop_strategies_agree;
          QCheck_alcotest.to_alcotest prop_minimize_preserves_strategy_answers;
          QCheck_alcotest.to_alcotest prop_backends_agree;
        ] );
      ( "gcov",
        [
          Alcotest.test_case "trace" `Quick test_gcov_trace;
          Alcotest.test_case "never worse than SCQ" `Slow
            test_gcov_never_worse_than_scq;
          Alcotest.test_case "example 1 feasibility" `Slow
            test_example1_gcov_feasible;
          Alcotest.test_case "partitions" `Quick test_partitions_bell;
          Alcotest.test_case "exhaustive pricing" `Quick
            test_exhaustive_orders_covers;
        ] );
    ]
