(* Tests for instance-level saturation (the Sat technique). *)

open Refq_rdf
open Refq_saturation

let closure_of st = Refq_schema.Closure.of_schema (Saturate.schema_of_store st)

let test_borges_saturation () =
  (* Figure 2: the dashed (implicit) triples. *)
  let sat = Saturate.graph Fixtures.borges_graph in
  let expect_implicit =
    [
      Triple.make Fixtures.doi1 Vocab.rdf_type Fixtures.publication;
      Triple.make Fixtures.doi1 Fixtures.has_author Fixtures.b1;
      Triple.make Fixtures.b1 Vocab.rdf_type Fixtures.person;
    ]
  in
  List.iter
    (fun t ->
      Alcotest.(check bool)
        (Fmt.str "implicit %a" Triple.pp t)
        true (Graph.mem t sat))
    expect_implicit;
  Alcotest.(check bool) "contains original" true
    (Graph.subset Fixtures.borges_graph sat);
  (* Explicit 9 + 3 implicit instance triples + 1 entailed schema triple:
     Book ⊑ Publication propagates writtenBy's domain to Publication. *)
  Alcotest.(check bool) "entailed domain" true
    (Graph.mem
       (Triple.make Fixtures.written_by Vocab.rdfs_domain Fixtures.publication)
       sat);
  Alcotest.(check int) "cardinality" 13 (Graph.cardinal sat)

let test_idempotent () =
  let sat = Saturate.graph Fixtures.borges_graph in
  let sat2 = Saturate.graph sat in
  Alcotest.(check bool) "saturation idempotent" true (Graph.equal sat sat2)

let test_subproperty_chain () =
  let u = Fixtures.uri in
  let g =
    Graph.of_list
      [
        Triple.make (u "p1") Vocab.rdfs_subpropertyof (u "p2");
        Triple.make (u "p2") Vocab.rdfs_subpropertyof (u "p3");
        Triple.make (u "p3") Vocab.rdfs_domain (u "C");
        Triple.make (u "C") Vocab.rdfs_subclassof (u "D");
        Triple.make (u "a") (u "p1") (u "b");
      ]
  in
  let sat = Saturate.graph g in
  List.iter
    (fun t ->
      Alcotest.(check bool) (Fmt.str "%a" Triple.pp t) true (Graph.mem t sat))
    [
      Triple.make (u "a") (u "p2") (u "b");
      Triple.make (u "a") (u "p3") (u "b");
      Triple.make (u "a") Vocab.rdf_type (u "C");
      Triple.make (u "a") Vocab.rdf_type (u "D");
      (* entailed schema triples *)
      Triple.make (u "p1") Vocab.rdfs_subpropertyof (u "p3");
      Triple.make (u "p1") Vocab.rdfs_domain (u "C");
      Triple.make (u "p3") Vocab.rdfs_domain (u "D");
    ]

let test_range_to_literal () =
  (* The DB fragment does not restrict triples: range typing applies to
     literal values as well. *)
  let u = Fixtures.uri in
  let g =
    Graph.of_list
      [
        Triple.make (u "p") Vocab.rdfs_range (u "C");
        Triple.make (u "a") (u "p") (Term.literal "v");
      ]
  in
  let sat = Saturate.graph g in
  Alcotest.(check bool) "literal typed" true
    (Graph.mem (Triple.make (Term.literal "v") Vocab.rdf_type (u "C")) sat)

let test_info () =
  let st = Refq_storage.Store.of_graph Fixtures.borges_graph in
  let _, info = Saturate.store_info st in
  Alcotest.(check int) "input" 9 info.Saturate.input_triples;
  Alcotest.(check int) "output" 13 info.Saturate.output_triples;
  Alcotest.(check int) "rounds" 1 info.Saturate.rounds

(* A standard graph is saturated in one round: the closure's entailed
   schema triples are not a schema change. *)
let test_lubm_one_round () =
  let st = Refq_workload.Lubm.generate ~scale:1 () in
  let rounds = Refq_obs.Obs.counter "saturate.rounds" in
  let was = Refq_obs.Obs.enabled () in
  Refq_obs.Obs.set_enabled true;
  let r0 = Refq_obs.Obs.value rounds in
  let _, info = Saturate.store_info st in
  let ran = Refq_obs.Obs.value rounds - r0 in
  Refq_obs.Obs.set_enabled was;
  Alcotest.(check int) "rounds run" 1 ran;
  Alcotest.(check int) "rounds reported" 1 info.Saturate.rounds

(* A non-standard graph: a property under rdfs:subClassOf turns an
   instance triple into a schema triple, which must feed a second round. *)
let test_schema_from_data () =
  let u = Fixtures.uri in
  let g =
    Graph.of_list
      [
        Triple.make (u "isA") Vocab.rdfs_subpropertyof Vocab.rdfs_subclassof;
        Triple.make (u "A") (u "isA") (u "B");
        Triple.make (u "x") Vocab.rdf_type (u "A");
      ]
  in
  let sat, info = Saturate.store_info (Refq_storage.Store.of_graph g) in
  Alcotest.(check int) "rounds" 2 info.Saturate.rounds;
  Alcotest.(check bool) "x type B" true
    (Graph.mem
       (Triple.make (u "x") Vocab.rdf_type (u "B"))
       (Refq_storage.Store.to_graph sat));
  Alcotest.(check bool) "equals the reference" true
    (Graph.equal (Refq_storage.Store.to_graph sat) (Saturate.graph_reference g));
  (* Maintenance cannot absorb data that derives schema triples. *)
  let base = Refq_storage.Store.of_graph g in
  let sat = Saturate.store base in
  let add = Triple.make (u "y") Vocab.rdf_type (u "A") in
  match Saturate.add_incremental ~closure:(closure_of base) sat [ add ] with
  | `Resaturated sat' ->
    Alcotest.(check bool) "resaturated = fresh" true
      (Graph.equal
         (Refq_storage.Store.to_graph sat')
         (Saturate.graph (Graph.add add g)))
  | `Incremental _ -> Alcotest.fail "schema-deriving data must re-saturate"

(* ------------------------------------------------------------------ *)
(* Incremental maintenance                                             *)
(* ------------------------------------------------------------------ *)

let test_incremental_data () =
  let sat = Refq_storage.Store.of_graph Fixtures.borges_graph in
  let sat = Saturate.store sat in
  let doi2 = Fixtures.uri "doi2" in
  let additions = [ Triple.make doi2 Fixtures.written_by (Term.bnode "b2") ] in
  (match Saturate.add_incremental ~closure:(closure_of sat) sat additions with
  | `Incremental n ->
    (* doi2 writtenBy b2 entails: hasAuthor, doi2 type Book/Publication,
       b2 type Person. *)
    Alcotest.(check int) "added + consequences" 5 n
  | `Resaturated _ -> Alcotest.fail "data addition should be incremental");
  let g = Refq_storage.Store.to_graph sat in
  List.iter
    (fun t ->
      Alcotest.(check bool) (Fmt.str "%a" Triple.pp t) true (Graph.mem t g))
    [
      Triple.make doi2 Fixtures.has_author (Term.bnode "b2");
      Triple.make doi2 Vocab.rdf_type Fixtures.book;
      Triple.make doi2 Vocab.rdf_type Fixtures.publication;
      Triple.make (Term.bnode "b2") Vocab.rdf_type Fixtures.person;
    ]

let test_incremental_schema_triggers_resaturation () =
  let sat = Saturate.store (Refq_storage.Store.of_graph Fixtures.borges_graph) in
  let additions =
    [ Triple.make Fixtures.publication Vocab.rdfs_subclassof (Fixtures.uri "Work") ]
  in
  match Saturate.add_incremental ~closure:(closure_of sat) sat additions with
  | `Resaturated sat' ->
    Alcotest.(check bool) "new entailment" true
      (Graph.mem
         (Triple.make Fixtures.doi1 Vocab.rdf_type (Fixtures.uri "Work"))
         (Refq_storage.Store.to_graph sat'))
  | `Incremental _ -> Alcotest.fail "schema addition must re-saturate"

let gen_additions =
  QCheck2.Gen.list_size (QCheck2.Gen.int_range 0 8) Fixtures.gen_data_triple

let test_removal_incremental () =
  let base = Refq_storage.Store.of_graph Fixtures.borges_graph in
  let sat = Saturate.store base in
  (* Deleting the writtenBy edge retracts hasAuthor and b1's Person type,
     but doi1 stays a Book (still explicit) and a Publication. *)
  let deletions = [ Triple.make Fixtures.doi1 Fixtures.written_by Fixtures.b1 ] in
  (match Saturate.remove_incremental ~closure:(closure_of base) ~base sat deletions with
  | `Incremental n -> Alcotest.(check int) "retracted" 3 n
  | `Resaturated _ -> Alcotest.fail "data deletion should be incremental");
  let g = Refq_storage.Store.to_graph sat in
  Alcotest.(check bool) "hasAuthor retracted" false
    (Graph.mem (Triple.make Fixtures.doi1 Fixtures.has_author Fixtures.b1) g);
  Alcotest.(check bool) "person type retracted" false
    (Graph.mem (Triple.make Fixtures.b1 Vocab.rdf_type Fixtures.person) g);
  Alcotest.(check bool) "book type survives (explicit)" true
    (Graph.mem (Triple.make Fixtures.doi1 Vocab.rdf_type Fixtures.book) g);
  Alcotest.(check bool) "publication type survives" true
    (Graph.mem (Triple.make Fixtures.doi1 Vocab.rdf_type Fixtures.publication) g)

let test_removal_rederivation () =
  (* Two independent derivations of the same fact: deleting one support
     must keep the fact. *)
  let u = Fixtures.uri in
  let g =
    Graph.of_list
      [
        Triple.make (u "p") Vocab.rdfs_domain (u "C");
        Triple.make (u "q") Vocab.rdfs_domain (u "C");
        Triple.make (u "a") (u "p") (u "b");
        Triple.make (u "a") (u "q") (u "b");
      ]
  in
  let base = Refq_storage.Store.of_graph g in
  let sat = Saturate.store base in
  (match
     Saturate.remove_incremental ~closure:(closure_of base) ~base sat [ Triple.make (u "a") (u "p") (u "b") ]
   with
  | `Incremental n -> Alcotest.(check int) "only the edge goes" 1 n
  | `Resaturated _ -> Alcotest.fail "should be incremental");
  Alcotest.(check bool) "type survives via q" true
    (Graph.mem
       (Triple.make (u "a") Vocab.rdf_type (u "C"))
       (Refq_storage.Store.to_graph sat))

let test_removal_schema_resaturates () =
  let base = Refq_storage.Store.of_graph Fixtures.borges_graph in
  let sat = Saturate.store base in
  match
    Saturate.remove_incremental ~closure:(closure_of base) ~base sat
      [ Triple.make Fixtures.book Vocab.rdfs_subclassof Fixtures.publication ]
  with
  | `Resaturated sat' ->
    Alcotest.(check bool) "publication type gone" false
      (Graph.mem
         (Triple.make Fixtures.doi1 Vocab.rdf_type Fixtures.publication)
         (Refq_storage.Store.to_graph sat'))
  | `Incremental _ -> Alcotest.fail "schema deletion must re-saturate"

let test_removal_mixed_batch_resaturates () =
  (* A deletion batch mixing data and schema triples must take the
     re-saturation path: the schema part invalidates the closure every
     DRed support check would run under. *)
  let base = Refq_storage.Store.of_graph Fixtures.borges_graph in
  let sat = Saturate.store base in
  match
    Saturate.remove_incremental ~closure:(closure_of base) ~base sat
      [
        Triple.make Fixtures.doi1 Fixtures.written_by Fixtures.b1;
        Triple.make Fixtures.written_by Vocab.rdfs_subpropertyof
          Fixtures.has_author;
      ]
  with
  | `Resaturated sat' ->
    let g = Refq_storage.Store.to_graph sat' in
    Alcotest.(check bool) "hasAuthor gone (edge and rule both deleted)" false
      (Graph.mem (Triple.make Fixtures.doi1 Fixtures.has_author Fixtures.b1) g);
    Alcotest.(check bool) "book type survives (explicit)" true
      (Graph.mem (Triple.make Fixtures.doi1 Vocab.rdf_type Fixtures.book) g)
  | `Incremental _ ->
    Alcotest.fail "a batch containing a schema triple must re-saturate"

let test_removal_dred_cascade () =
  (* DRed over-deletes the whole derivation cone, then re-derives what the
     surviving facts still support: deleting [a p b] retracts the derived
     [a q b] and transitively [b type C] / [b type D] — but the explicit
     [x q b] still derives both types, so re-derivation must restore them
     and the net retraction is exactly {a p b, a q b}. *)
  let u = Fixtures.uri in
  let g =
    Graph.of_list
      [
        Triple.make (u "p") Vocab.rdfs_subpropertyof (u "q");
        Triple.make (u "q") Vocab.rdfs_range (u "C");
        Triple.make (u "C") Vocab.rdfs_subclassof (u "D");
        Triple.make (u "a") (u "p") (u "b");
        Triple.make (u "x") (u "q") (u "b");
      ]
  in
  let base = Refq_storage.Store.of_graph g in
  let sat = Saturate.store base in
  (match
     Saturate.remove_incremental ~closure:(closure_of base) ~base sat
       [ Triple.make (u "a") (u "p") (u "b") ]
   with
  | `Incremental n -> Alcotest.(check int) "edge + its q-copy retracted" 2 n
  | `Resaturated _ -> Alcotest.fail "data deletion should be incremental");
  let after = Refq_storage.Store.to_graph sat in
  Alcotest.(check bool) "derived a q b retracted" false
    (Graph.mem (Triple.make (u "a") (u "q") (u "b")) after);
  Alcotest.(check bool) "b type C re-derived from x q b" true
    (Graph.mem (Triple.make (u "b") Vocab.rdf_type (u "C")) after);
  Alcotest.(check bool) "b type D re-derived transitively" true
    (Graph.mem (Triple.make (u "b") Vocab.rdf_type (u "D")) after);
  Alcotest.(check bool) "surviving support untouched" true
    (Graph.mem (Triple.make (u "x") (u "q") (u "b")) after)

let gen_deletion_instance =
  let open QCheck2.Gen in
  let* g = Fixtures.gen_graph in
  let data = Graph.to_list (Graph.data_triples g) in
  let* mask = list_repeat (List.length data) bool in
  let deletions = List.filteri (fun i _ -> List.nth mask i) data in
  pure (g, deletions)

let prop_removal_equals_full =
  QCheck2.Test.make ~name:"remove_incremental = saturate(G \\ D)" ~count:100
    ~print:(fun (g, dels) ->
      Printf.sprintf "%s\ndeletions:\n%s" (Fixtures.print_graph g)
        (Fixtures.print_graph (Graph.of_list dels)))
    gen_deletion_instance
    (fun (g, deletions) ->
      let base = Refq_storage.Store.of_graph g in
      let sat = Saturate.store base in
      let result =
        match Saturate.remove_incremental ~closure:(closure_of base) ~base sat deletions with
        | `Incremental _ -> Refq_storage.Store.to_graph sat
        | `Resaturated s -> Refq_storage.Store.to_graph s
      in
      let expected =
        Saturate.graph
          (List.fold_left (fun g t -> Graph.remove t g) g deletions)
      in
      Graph.equal result expected)

let prop_incremental_equals_full =
  QCheck2.Test.make ~name:"incremental = saturate(G ∪ Δ)" ~count:100
    ~print:(fun (g, adds) ->
      Printf.sprintf "%s\nadditions:\n%s" (Fixtures.print_graph g)
        (Fixtures.print_graph (Graph.of_list adds)))
    (QCheck2.Gen.pair Fixtures.gen_graph gen_additions)
    (fun (g, adds) ->
      let sat = Saturate.store (Refq_storage.Store.of_graph g) in
      let incr_result =
        match Saturate.add_incremental ~closure:(closure_of sat) sat adds with
        | `Incremental _ -> Refq_storage.Store.to_graph sat
        | `Resaturated s -> Refq_storage.Store.to_graph s
      in
      let full =
        Saturate.graph (List.fold_left (fun g t -> Graph.add t g) g adds)
      in
      Graph.equal incr_result full)

(* Both primitives in the order a pending saturation is brought up to
   date: the net removals re-derived against the final base (which
   already holds the additions), then the net additions. *)
let prop_maintained_equals_full =
  QCheck2.Test.make ~name:"remove then add against the final base = saturate(F)"
    ~count:300
    ~print:(fun ((g, dels), adds) ->
      Printf.sprintf "%s\ndeletions:\n%s\nadditions:\n%s" (Fixtures.print_graph g)
        (Fixtures.print_graph (Graph.of_list dels))
        (Fixtures.print_graph (Graph.of_list adds)))
    (QCheck2.Gen.pair gen_deletion_instance gen_additions)
    (fun ((g, deletions), additions) ->
      let base = Refq_storage.Store.of_graph g in
      let sat = Saturate.store base in
      let closure = closure_of base in
      let final =
        List.fold_left
          (fun f t -> Graph.add t f)
          (List.fold_left (fun f t -> Graph.remove t f) g deletions)
          additions
      in
      let removed = List.filter (fun t -> not (Graph.mem t final)) deletions
      and added = List.filter (fun t -> not (Graph.mem t g)) additions in
      List.iter (Refq_storage.Store.remove_triple base) removed;
      List.iter (Refq_storage.Store.add_triple base) added;
      let result =
        match Saturate.remove_incremental ~closure ~base sat removed with
        | `Resaturated s -> s
        | `Incremental _ -> (
          match Saturate.add_incremental ~closure sat added with
          | `Incremental _ -> sat
          | `Resaturated s -> s)
      in
      Graph.equal (Refq_storage.Store.to_graph result) (Saturate.graph final))

(* Schemas constraining rdf:type itself: a derived type triple has
   consequences of its own, which one [derive_one] step per triple
   misses. *)
let test_type_constraints () =
  let u = Fixtures.uri in
  let check_case name g expected =
    let base = Refq_storage.Store.of_graph g in
    let sat = Refq_storage.Store.to_graph (Saturate.store base) in
    Alcotest.(check bool) (name ^ ": equals the reference") true
      (Graph.equal sat (Saturate.graph_reference g));
    List.iter
      (fun t ->
        Alcotest.(check bool) (Fmt.str "%s: %a" name Triple.pp t) true
          (Graph.mem t sat))
      expected;
    (* Maintenance falls back to a fresh saturation, in both directions. *)
    let add = Triple.make (u "y") (u "p") (u "A") in
    (match
       Saturate.add_incremental ~closure:(closure_of base) (Saturate.store base)
         [ add ]
     with
    | `Resaturated s ->
      Alcotest.(check bool) (name ^ ": add resaturates to fresh") true
        (Graph.equal (Refq_storage.Store.to_graph s)
           (Saturate.graph_reference (Graph.add add g)))
    | `Incremental _ -> Alcotest.failf "%s: addition must re-saturate" name);
    let del = Triple.make (u "x") (u "p") (u "A") in
    match
      Saturate.remove_incremental ~closure:(closure_of base) ~base
        (Saturate.store base) [ del ]
    with
    | `Resaturated s ->
      Alcotest.(check bool) (name ^ ": removal resaturates to fresh") true
        (Graph.equal (Refq_storage.Store.to_graph s)
           (Saturate.graph_reference (Graph.remove del g)))
    | `Incremental _ -> Alcotest.failf "%s: removal must re-saturate" name
  in
  check_case "subproperty of rdf:type"
    (Graph.of_list
       [
         Triple.make (u "p") Vocab.rdfs_subpropertyof Vocab.rdf_type;
         Triple.make (u "A") Vocab.rdfs_subclassof (u "B");
         Triple.make (u "x") (u "p") (u "A");
       ])
    [
      Triple.make (u "x") Vocab.rdf_type (u "A");
      Triple.make (u "x") Vocab.rdf_type (u "B");
    ];
  check_case "domain and range of rdf:type"
    (Graph.of_list
       [
         Triple.make Vocab.rdf_type Vocab.rdfs_domain (u "Thing");
         Triple.make Vocab.rdf_type Vocab.rdfs_range (u "Class");
         Triple.make (u "x") Vocab.rdf_type (u "A");
         Triple.make (u "x") (u "p") (u "A");
       ])
    [
      Triple.make (u "x") Vocab.rdf_type (u "Thing");
      Triple.make (u "A") Vocab.rdf_type (u "Class");
      Triple.make (u "A") Vocab.rdf_type (u "Thing");
      Triple.make (u "Class") Vocab.rdf_type (u "Class");
      Triple.make (u "Class") Vocab.rdf_type (u "Thing");
    ]

(* [Fixtures.gen_graph], whose schemas may also constrain rdf:type: as a
   superproperty, a subproperty, and the subject of domain and range
   constraints. *)
let gen_graph_type_schema =
  let open QCheck2.Gen in
  let type_triple =
    oneof
      [
        map (fun p -> Triple.make p Vocab.rdfs_subpropertyof Vocab.rdf_type)
          Fixtures.gen_prop;
        map (fun p -> Triple.make Vocab.rdf_type Vocab.rdfs_subpropertyof p)
          Fixtures.gen_prop;
        map (fun c -> Triple.make Vocab.rdf_type Vocab.rdfs_domain c)
          Fixtures.gen_class;
        map (fun c -> Triple.make Vocab.rdf_type Vocab.rdfs_range c)
          Fixtures.gen_class;
      ]
  in
  map2
    (fun g extra -> List.fold_left (fun g t -> Graph.add t g) g extra)
    Fixtures.gen_graph
    (list_size (int_range 0 2) type_triple)

let prop_matches_reference =
  QCheck2.Test.make ~name:"store saturation = brute-force fixpoint" ~count:60
    ~print:Fixtures.print_graph gen_graph_type_schema (fun g ->
      Graph.equal (Saturate.graph g) (Saturate.graph_reference g))

let prop_idempotent =
  QCheck2.Test.make ~name:"saturation idempotent" ~count:60
    ~print:Fixtures.print_graph Fixtures.gen_graph (fun g ->
      let s = Saturate.graph g in
      Graph.equal s (Saturate.graph s))

let prop_monotone =
  QCheck2.Test.make ~name:"saturation contains the graph" ~count:60
    ~print:Fixtures.print_graph Fixtures.gen_graph (fun g ->
      Graph.subset g (Saturate.graph g))

let () =
  Alcotest.run "saturation"
    [
      ( "saturate",
        [
          Alcotest.test_case "borges (Figure 2)" `Quick test_borges_saturation;
          Alcotest.test_case "idempotent" `Quick test_idempotent;
          Alcotest.test_case "subproperty chain" `Quick test_subproperty_chain;
          Alcotest.test_case "range on literal" `Quick test_range_to_literal;
          Alcotest.test_case "info" `Quick test_info;
          Alcotest.test_case "LUBM in one round" `Quick test_lubm_one_round;
          Alcotest.test_case "schema derived from data iterates" `Quick
            test_schema_from_data;
          Alcotest.test_case "schemas constraining rdf:type" `Quick
            test_type_constraints;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 2026 |])
            prop_matches_reference;
          QCheck_alcotest.to_alcotest prop_idempotent;
          QCheck_alcotest.to_alcotest prop_monotone;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "data additions" `Quick test_incremental_data;
          Alcotest.test_case "schema additions re-saturate" `Quick
            test_incremental_schema_triggers_resaturation;
          Alcotest.test_case "data deletions" `Quick test_removal_incremental;
          Alcotest.test_case "re-derivation on deletion" `Quick
            test_removal_rederivation;
          Alcotest.test_case "schema deletions re-saturate" `Quick
            test_removal_schema_resaturates;
          Alcotest.test_case "mixed data+schema batch re-saturates" `Quick
            test_removal_mixed_batch_resaturates;
          Alcotest.test_case "DRed cascade re-derivation" `Quick
            test_removal_dred_cascade;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 2026 |])
            prop_incremental_equals_full;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 2026 |])
            prop_removal_equals_full;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 2026 |])
            prop_maintained_equals_full;
        ] );
    ]
