(* Tests for CQs, UCQs, covers, JUCQs and the SPARQL parsers. *)

open Refq_rdf
open Refq_query

let cq_eq = Alcotest.testable Cq.pp Cq.equal

let env = Namespace.add Namespace.default ~prefix:"ex" ~uri:Fixtures.ex

let test_cq_safety () =
  (match
     Cq.make ~head:[ Cq.var "x" ]
       ~body:[ Cq.atom (Cq.var "y") (Cq.cst Vocab.rdf_type) (Cq.cst Fixtures.book) ]
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unsafe head accepted");
  (* Empty body with constant head is allowed (reformulation tautologies). *)
  let q = Cq.make ~head:[ Cq.cst Fixtures.book ] ~body:[] in
  Alcotest.(check int) "arity" 1 (Cq.arity q)

let test_cq_vars () =
  let q = Fixtures.borges_query in
  Alcotest.(check (list string)) "body vars" [ "x1"; "x2"; "x3"; "x4" ]
    (Cq.body_vars q);
  Alcotest.(check (list string)) "head vars" [ "x3" ] (Cq.head_vars q)

let test_subst () =
  let s = Cq.Subst.singleton "x" Fixtures.book in
  (match Cq.Subst.bind "x" Fixtures.person s with
  | None -> ()
  | Some _ -> Alcotest.fail "conflicting bind accepted");
  (match Cq.Subst.bind "x" Fixtures.book s with
  | Some _ -> ()
  | None -> Alcotest.fail "identical bind rejected");
  let s2 = Cq.Subst.singleton "y" Fixtures.person in
  (match Cq.Subst.merge s s2 with
  | Some m ->
    Alcotest.(check bool) "merged x" true
      (Option.is_some (Cq.Subst.find "x" m));
    Alcotest.(check bool) "merged y" true
      (Option.is_some (Cq.Subst.find "y" m))
  | None -> Alcotest.fail "compatible merge failed");
  let conflict = Cq.Subst.singleton "x" Fixtures.person in
  match Cq.Subst.merge s conflict with
  | None -> ()
  | Some _ -> Alcotest.fail "conflicting merge accepted"

let test_canonicalize () =
  let a v1 v2 = Cq.atom (Cq.var v1) (Cq.cst Fixtures.has_author) (Cq.var v2) in
  let q1 = Cq.make ~head:[ Cq.var "a" ] ~body:[ a "a" "b" ] in
  let q2 = Cq.make ~head:[ Cq.var "u" ] ~body:[ a "u" "v" ] in
  Alcotest.check cq_eq "alpha-equivalent" (Cq.canonicalize q1) (Cq.canonicalize q2)

let test_ucq_dedup () =
  let a v1 v2 = Cq.atom (Cq.var v1) (Cq.cst Fixtures.has_author) (Cq.var v2) in
  let q1 = Cq.make ~head:[ Cq.var "a" ] ~body:[ a "a" "b" ] in
  let q2 = Cq.make ~head:[ Cq.var "u" ] ~body:[ a "u" "v" ] in
  let u = Ucq.of_disjuncts [ q1; q2 ] in
  Alcotest.(check int) "deduplicated" 1 (Ucq.size u)

let test_ucq_ops () =
  let a v1 v2 = Cq.atom (Cq.var v1) (Cq.cst Fixtures.has_author) (Cq.var v2) in
  let b v1 v2 = Cq.atom (Cq.var v1) (Cq.cst Fixtures.has_name) (Cq.var v2) in
  let q1 = Cq.make ~head:[ Cq.var "x" ] ~body:[ a "x" "y" ] in
  let q2 = Cq.make ~head:[ Cq.var "x" ] ~body:[ b "x" "y" ] in
  let u1 = Ucq.of_disjuncts [ q1 ] and u2 = Ucq.of_disjuncts [ q2 ] in
  let u = Ucq.union u1 u2 in
  Alcotest.(check int) "union size" 2 (Ucq.size u);
  Alcotest.(check int) "arity" 1 (Ucq.arity u);
  Alcotest.(check int) "total atoms" 2 (Ucq.total_atoms u);
  (match Ucq.of_disjuncts [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty union accepted");
  let q3 = Cq.make ~head:[ Cq.var "x"; Cq.var "y" ] ~body:[ a "x" "y" ] in
  match Ucq.union u1 (Ucq.of_disjuncts [ q3 ]) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "mixed arities accepted"

let test_jucq_sizes () =
  let atom = Cq.atom (Cq.var "x") (Cq.cst Fixtures.has_author) (Cq.var "y") in
  let frag n =
    {
      Jucq.out = [ "x" ];
      ucq =
        Ucq.of_disjuncts
          (List.init n (fun i ->
               Cq.make ~head:[ Cq.var "x" ]
                 ~body:
                   [
                     atom;
                     Cq.atom (Cq.var "x")
                       (Cq.cst (Fixtures.uri (Printf.sprintf "p%d" i)))
                       (Cq.var "z");
                   ]));
    }
  in
  let j = Jucq.make ~head:[ Cq.var "x" ] ~fragments:[ frag 3; frag 2 ] in
  Alcotest.(check int) "size" 5 (Jucq.size j);
  Alcotest.(check int) "fragments" 2 (Jucq.n_fragments j);
  Alcotest.(check int) "max fragment" 3 (Jucq.max_fragment_size j)

let test_cover_validation () =
  (match Cover.make ~n_atoms:3 [ [ 0 ]; [ 1 ] ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "uncovered atom accepted");
  (match Cover.make ~n_atoms:2 [ [ 0; 5 ]; [ 1 ] ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out-of-range accepted");
  let c = Cover.make ~n_atoms:3 [ [ 0; 1 ]; [ 1; 2 ] ] in
  Alcotest.(check int) "fragments" 2 (Cover.n_fragments c)

let test_cover_special () =
  let s = Cover.singleton ~n_atoms:3 in
  Alcotest.(check bool) "singleton" true (Cover.is_singleton s);
  Alcotest.(check int) "3 fragments" 3 (Cover.n_fragments s);
  let o = Cover.one_fragment ~n_atoms:3 in
  Alcotest.(check bool) "one fragment" true (Cover.is_one_fragment o);
  Alcotest.(check bool) "different" false (Cover.equal s o)

let test_cover_normalize () =
  let c = Cover.make ~n_atoms:3 [ [ 0 ]; [ 0; 1 ]; [ 2 ] ] in
  let n = Cover.normalize c in
  Alcotest.(check int) "subsumed dropped" 2 (Cover.n_fragments n)

let test_cover_add_atom () =
  let c = Cover.singleton ~n_atoms:3 in
  let c' = Cover.add_atom c ~frag:0 ~atom:1 in
  Alcotest.(check int) "still 3 fragments" 3 (Cover.n_fragments c');
  Alcotest.(check bool) "contains {0,1}" true
    (List.mem [ 0; 1 ] (Cover.fragments c'))

let test_fragment_cq () =
  (* Example 1 cover {t1,t3}: output variables are those shared with the
     rest of the query or distinguished. *)
  let q = Fixtures.borges_query in
  let f = Cover.fragment_cq q [ 0; 1 ] in
  (* atoms 0,1: vars x1 x2 x3; x3 distinguished, x1 shared with atom 2; x2
     internal. *)
  Alcotest.(check (list string)) "out vars" [ "x1"; "x3" ] (Cq.head_vars f);
  Alcotest.(check int) "2 atoms" 2 (List.length f.Cq.body)

let test_sparql_parse () =
  let text =
    {|PREFIX ex: <http://example.org/>
      SELECT ?x ?t WHERE { ?x a ex:Book . ?x ex:hasTitle ?t }|}
  in
  match Sparql.parse ~env text with
  | Ok q ->
    Alcotest.(check (list string)) "head" [ "x"; "t" ] (Cq.head_vars q);
    Alcotest.(check int) "2 atoms" 2 (List.length q.Cq.body);
    Alcotest.(check bool) "a = rdf:type" true
      (List.exists
         (fun a -> Cq.pat_equal a.Cq.p (Cq.cst Vocab.rdf_type))
         q.Cq.body)
  | Error e -> Alcotest.failf "parse: %a" Sparql.pp_error e

let test_sparql_star () =
  match Sparql.parse ~env "SELECT * WHERE { ?x ex:hasTitle ?t }" with
  | Ok q -> Alcotest.(check (list string)) "star head" [ "x"; "t" ] (Cq.head_vars q)
  | Error e -> Alcotest.failf "parse: %a" Sparql.pp_error e

let test_sparql_literals () =
  match
    Sparql.parse ~env
      {|SELECT ?x WHERE { ?x ex:publishedIn "1949" . ?x ex:pages 42 }|}
  with
  | Ok q ->
    Alcotest.(check int) "atoms" 2 (List.length q.Cq.body);
    Alcotest.(check bool) "plain literal" true
      (List.exists
         (fun a -> Cq.pat_equal a.Cq.o (Cq.cst (Term.literal "1949")))
         q.Cq.body)
  | Error e -> Alcotest.failf "parse: %a" Sparql.pp_error e

let test_sparql_errors () =
  (match Sparql.parse ~env "SELECT ?x WHERE { }" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty BGP accepted");
  (match Sparql.parse ~env "SELECT ?y WHERE { ?x ex:p ?z }" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unsafe projection accepted");
  match Sparql.parse ~env "SELECT ?x { ?x nope:p ?z }" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unbound prefix accepted"

let test_sparql_union () =
  let text =
    {|PREFIX ex: <http://example.org/>
      SELECT ?x WHERE {
        { ?x a ex:Book }
        UNION
        { ?x a ex:Publication }
        UNION
        { ?x ex:writtenBy _:w }
      }|}
  in
  match Sparql.parse_select ~env text with
  | Ok u ->
    Alcotest.(check int) "three disjuncts" 3 (Ucq.size u);
    Alcotest.(check int) "arity" 1 (Ucq.arity u)
  | Error e -> Alcotest.failf "union: %a" Sparql.pp_error e

let test_sparql_union_single_block () =
  match Sparql.parse_select ~env "SELECT ?x WHERE { ?x a <http://e/C> }" with
  | Ok u -> Alcotest.(check int) "one disjunct" 1 (Ucq.size u)
  | Error e -> Alcotest.failf "single: %a" Sparql.pp_error e

let test_sparql_union_star_rejected () =
  match
    Sparql.parse_select ~env
      "SELECT * WHERE { { ?x a <http://e/C> } UNION { ?y a <http://e/D> } }"
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "star over UNION accepted"

let test_sparql_bnode_pattern () =
  (* A blank node behaves as an existential: the query below asks for
     subjects having *some* author. *)
  match Sparql.parse ~env "SELECT ?x WHERE { ?x ex:hasAuthor _:a }" with
  | Ok q ->
    Alcotest.(check (list string)) "only x distinguished" [ "x" ] (Cq.head_vars q);
    Alcotest.(check int) "two vars in body" 2
      (List.length (Cq.body_vars q))
  | Error e -> Alcotest.failf "bnode: %a" Sparql.pp_error e

let test_sparql_ask () =
  match Sparql.parse_ask ~env "ASK WHERE { ?x a ex:Book }" with
  | Ok q ->
    Alcotest.(check bool) "boolean" true (Cq.is_boolean q);
    Alcotest.(check int) "one atom" 1 (List.length q.Cq.body)
  | Error e -> Alcotest.failf "ask: %a" Sparql.pp_error e

let test_notation_parse () =
  let text = {|q(x3) :- x1 ex:hasAuthor x2, x2 ex:hasName x3, x1 x4 "1949"|} in
  match Sparql.parse_notation ~env text with
  | Ok q -> Alcotest.check cq_eq "paper notation" Fixtures.borges_query q
  | Error e -> Alcotest.failf "notation: %a" Sparql.pp_error e

let test_sparql_roundtrip () =
  let text = Sparql.to_sparql ~env Fixtures.borges_query in
  match Sparql.parse ~env text with
  | Ok q ->
    Alcotest.check cq_eq "roundtrip" (Cq.canonicalize Fixtures.borges_query)
      (Cq.canonicalize q)
  | Error e -> Alcotest.failf "roundtrip: %a\n%s" Sparql.pp_error e text

let test_jucq_validation () =
  let atom = Cq.atom (Cq.var "x") (Cq.cst Fixtures.has_author) (Cq.var "y") in
  let f =
    {
      Jucq.out = [ "x" ];
      ucq = Ucq.of_disjuncts [ Cq.make ~head:[ Cq.var "x" ] ~body:[ atom ] ];
    }
  in
  (match Jucq.make ~head:[ Cq.var "z" ] ~fragments:[ f ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unproduced head var accepted");
  let j = Jucq.make ~head:[ Cq.var "x" ] ~fragments:[ f ] in
  Alcotest.(check int) "size" 1 (Jucq.size j)

(* ------------------------------------------------------------------ *)
(* Containment and minimization                                        *)
(* ------------------------------------------------------------------ *)

let atom_t v1 c = Cq.atom (Cq.var v1) (Cq.cst Vocab.rdf_type) (Cq.cst c)
let atom_p v1 p v2 = Cq.atom (Cq.var v1) (Cq.cst p) (Cq.var v2)

let test_containment_basic () =
  (* q1(x) :- x type Book, x hasAuthor y   ⊑   q2(x) :- x type Book *)
  let q1 =
    Cq.make ~head:[ Cq.var "x" ]
      ~body:[ atom_t "x" Fixtures.book; atom_p "x" Fixtures.has_author "y" ]
  in
  let q2 = Cq.make ~head:[ Cq.var "x" ] ~body:[ atom_t "x" Fixtures.book ] in
  Alcotest.(check bool) "q1 ⊑ q2" true (Containment.contained q1 q2);
  Alcotest.(check bool) "q2 ⋢ q1" false (Containment.contained q2 q1);
  Alcotest.(check bool) "not equivalent" false (Containment.equivalent q1 q2)

let test_containment_head_matters () =
  (* Same bodies, different head variables: not contained. *)
  let body = [ atom_p "x" Fixtures.has_author "y" ] in
  let qx = Cq.make ~head:[ Cq.var "x" ] ~body in
  let qy = Cq.make ~head:[ Cq.var "y" ] ~body in
  Alcotest.(check bool) "x-head ⋢ y-head" false (Containment.contained qx qy)

let test_containment_alpha () =
  let q1 =
    Cq.make ~head:[ Cq.var "a" ] ~body:[ atom_p "a" Fixtures.has_author "b" ]
  in
  let q2 =
    Cq.make ~head:[ Cq.var "u" ] ~body:[ atom_p "u" Fixtures.has_author "v" ]
  in
  Alcotest.(check bool) "alpha-equivalent" true (Containment.equivalent q1 q2)

let test_minimize_cq () =
  (* q(x) :- x hasAuthor y, x hasAuthor z  minimizes to one atom. *)
  let q =
    Cq.make ~head:[ Cq.var "x" ]
      ~body:[ atom_p "x" Fixtures.has_author "y"; atom_p "x" Fixtures.has_author "z" ]
  in
  let m = Containment.minimize_cq q in
  Alcotest.(check int) "one atom left" 1 (List.length m.Cq.body);
  Alcotest.(check bool) "still equivalent" true (Containment.equivalent q m)

let test_minimize_cq_keeps_needed () =
  let q =
    Cq.make ~head:[ Cq.var "x" ]
      ~body:[ atom_t "x" Fixtures.book; atom_p "x" Fixtures.has_author "y" ]
  in
  let m = Containment.minimize_cq q in
  Alcotest.(check int) "nothing droppable" 2 (List.length m.Cq.body)

let test_minimize_ucq () =
  (* The broader disjunct subsumes the narrower one... containment is the
     other way: narrow ⊑ broad, so the narrow disjunct is redundant. *)
  let narrow =
    Cq.make ~head:[ Cq.var "x" ]
      ~body:[ atom_t "x" Fixtures.book; atom_p "x" Fixtures.has_author "y" ]
  in
  let broad = Cq.make ~head:[ Cq.var "x" ] ~body:[ atom_t "x" Fixtures.book ] in
  let u = Ucq.of_disjuncts [ narrow; broad ] in
  let m = Containment.minimize_ucq u in
  Alcotest.(check int) "redundant disjunct dropped" 1 (Ucq.size m);
  Alcotest.(check bool) "kept the broad one" true
    (List.exists
       (fun q -> List.length q.Cq.body = 1)
       (Ucq.disjuncts m))

let test_freeze () =
  let q =
    Cq.make ~head:[ Cq.var "x" ]
      ~body:[ atom_t "x" Fixtures.book; atom_p "x" Fixtures.has_author "y" ]
  in
  let g, head = Containment.freeze q in
  Alcotest.(check int) "two frozen triples" 2 (Graph.cardinal g);
  Alcotest.(check int) "head frozen" 1 (List.length head)

(* Properties: containment is reflexive and transitive; minimization
   preserves answers on random graphs. *)
let prop_containment_reflexive =
  QCheck2.Test.make ~name:"containment reflexive" ~count:100
    ~print:Fixtures.print_cq Fixtures.gen_cq (fun q ->
      Containment.contained q q)

let prop_minimize_ucq_preserves =
  QCheck2.Test.make ~name:"minimize_ucq preserves answers" ~count:100
    ~print:Fixtures.print_graph_and_cq Fixtures.gen_graph_and_cq
    (fun (g, q) ->
      let q2 = Cq.canonicalize q in
      let u = Ucq.of_disjuncts [ q; q2 ] in
      let m = Containment.minimize_ucq u in
      Refq_engine.Naive.ucq g m = Refq_engine.Naive.ucq g u)

let prop_minimize_cq_preserves =
  QCheck2.Test.make ~name:"minimize_cq preserves answers" ~count:100
    ~print:Fixtures.print_graph_and_cq Fixtures.gen_graph_and_cq
    (fun (g, q) ->
      let m = Containment.minimize_cq q in
      Refq_engine.Naive.cq g m = Refq_engine.Naive.cq g q)

let gen_garbage =
  QCheck2.Gen.(string_size ~gen:printable (int_range 0 200))

let prop_sparql_total =
  QCheck2.Test.make ~name:"SPARQL parser is total" ~count:500
    ~print:(Printf.sprintf "%S") gen_garbage (fun text ->
      (match Sparql.parse ~env text with Ok _ | Error _ -> true)
      && (match Sparql.parse_select ~env text with Ok _ | Error _ -> true)
      && match Sparql.parse_notation ~env text with Ok _ | Error _ -> true)

let prop_sparql_roundtrip =
  QCheck2.Test.make ~name:"SPARQL print/parse roundtrip" ~count:100
    ~print:Fixtures.print_cq Fixtures.gen_cq (fun q ->
      (* Boolean CQs have no SELECT form in the conjunctive subset. *)
      Cq.is_boolean q
      ||
      match Sparql.parse ~env (Sparql.to_sparql ~env q) with
      | Ok q' -> Cq.equal (Cq.canonicalize q) (Cq.canonicalize q')
      | Error _ -> false)

(* The bundled LUBM queries and Example 1 as SELECT, ASK and notation
   texts: the fuzzers' valid inputs. *)
let lubm_env =
  Namespace.add Namespace.default ~prefix:"ub" ~uri:Refq_workload.Lubm.ns

let bundled_texts =
  let qs =
    List.map snd Refq_workload.Lubm.queries @ [ Refq_workload.Lubm.example1_query ]
  in
  let select q = Sparql.to_sparql ~env:lubm_env q in
  let ask q =
    let s = select q in
    match String.index_opt s '{' with
    | Some i -> "ASK WHERE " ^ String.sub s i (String.length s - i)
    | None -> s
  in
  List.concat_map (fun q -> [ select q; ask q ]) qs
  @ [
      {|q(x3) :- x1 ub:hasAuthor x2, x2 ub:hasName x3, x1 x4 "1949"|};
      {|q(x, y) :- x rdf:type ub:Student, x ub:memberOf y, y ub:name "d\"0"@en|};
      {|SELECT * WHERE { ?x <http://a/p> "v"^^<http://a/t> . _:b ?p ?x }|};
      {|SELECT ?x WHERE { { ?x rdf:type ub:Student } UNION { ?x ub:takesCourse ?c } }|};
    ]

let prop_sparql_fuzz =
  QCheck2.Test.make ~name:"SPARQL parsers on bytes and mutated queries" ~count:2000
    ~print:(Printf.sprintf "%S") (Fixtures.gen_fuzz bundled_texts) (fun text ->
      Fixtures.total (Sparql.parse ~env:lubm_env) text
      && Fixtures.total (Sparql.parse_select ~env:lubm_env) text
      && Fixtures.total (Sparql.parse_ask ~env:lubm_env) text
      && Fixtures.total (Sparql.parse_notation ~env:lubm_env) text)

let test_bundled_texts_parse () =
  List.iter
    (fun text ->
      let parsed =
        List.exists
          (fun parse -> Result.is_ok (parse text))
          [
            Sparql.parse ~env:lubm_env;
            Sparql.parse_ask ~env:lubm_env;
            Sparql.parse_notation ~env:lubm_env;
          ]
        || Result.is_ok (Sparql.parse_select ~env:lubm_env text)
      in
      if not parsed then Alcotest.failf "fuzz seed %S does not parse" text)
    bundled_texts

let () =
  Alcotest.run "query"
    [
      ( "cq",
        [
          Alcotest.test_case "safety" `Quick test_cq_safety;
          Alcotest.test_case "vars" `Quick test_cq_vars;
          Alcotest.test_case "substitutions" `Quick test_subst;
          Alcotest.test_case "canonicalize" `Quick test_canonicalize;
        ] );
      ( "ucq",
        [
          Alcotest.test_case "dedup" `Quick test_ucq_dedup;
          Alcotest.test_case "union/arity/atoms" `Quick test_ucq_ops;
        ] );
      ( "cover",
        [
          Alcotest.test_case "validation" `Quick test_cover_validation;
          Alcotest.test_case "singleton/one-fragment" `Quick test_cover_special;
          Alcotest.test_case "normalize" `Quick test_cover_normalize;
          Alcotest.test_case "add_atom" `Quick test_cover_add_atom;
          Alcotest.test_case "fragment CQ" `Quick test_fragment_cq;
        ] );
      ( "jucq",
        [
          Alcotest.test_case "validation" `Quick test_jucq_validation;
          Alcotest.test_case "sizes" `Quick test_jucq_sizes;
        ] );
      ( "containment",
        [
          Alcotest.test_case "basic" `Quick test_containment_basic;
          Alcotest.test_case "head matters" `Quick test_containment_head_matters;
          Alcotest.test_case "alpha equivalence" `Quick test_containment_alpha;
          Alcotest.test_case "minimize CQ" `Quick test_minimize_cq;
          Alcotest.test_case "minimize keeps needed atoms" `Quick
            test_minimize_cq_keeps_needed;
          Alcotest.test_case "minimize UCQ" `Quick test_minimize_ucq;
          Alcotest.test_case "freeze" `Quick test_freeze;
          QCheck_alcotest.to_alcotest prop_containment_reflexive;
          QCheck_alcotest.to_alcotest prop_minimize_ucq_preserves;
          QCheck_alcotest.to_alcotest prop_minimize_cq_preserves;
        ] );
      ( "sparql",
        [
          Alcotest.test_case "parse" `Quick test_sparql_parse;
          Alcotest.test_case "select *" `Quick test_sparql_star;
          Alcotest.test_case "literals" `Quick test_sparql_literals;
          Alcotest.test_case "errors" `Quick test_sparql_errors;
          Alcotest.test_case "paper notation" `Quick test_notation_parse;
          Alcotest.test_case "UNION" `Quick test_sparql_union;
          Alcotest.test_case "UNION single block" `Quick
            test_sparql_union_single_block;
          Alcotest.test_case "star over UNION rejected" `Quick
            test_sparql_union_star_rejected;
          Alcotest.test_case "blank node pattern" `Quick test_sparql_bnode_pattern;
          Alcotest.test_case "ASK" `Quick test_sparql_ask;
          Alcotest.test_case "roundtrip" `Quick test_sparql_roundtrip;
          QCheck_alcotest.to_alcotest prop_sparql_roundtrip;
          QCheck_alcotest.to_alcotest prop_sparql_total;
          Alcotest.test_case "fuzz seeds parse" `Quick test_bundled_texts_parse;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 2026 |])
            prop_sparql_fuzz;
        ] );
    ]
