(* Shared test fixtures: the paper's running example (Figure 2) and
   QCheck generators for random graphs, schemas and queries. *)

open Refq_rdf
open Refq_query

let ex = "http://example.org/"

let uri local = Term.uri (ex ^ local)

(* ------------------------------------------------------------------ *)
(* The Borges graph of Figure 2                                        *)
(* ------------------------------------------------------------------ *)

let doi1 = uri "doi1"
let book = uri "Book"
let publication = uri "Publication"
let person = uri "Person"
let written_by = uri "writtenBy"
let has_author = uri "hasAuthor"
let has_title = uri "hasTitle"
let has_name = uri "hasName"
let published_in = uri "publishedIn"
let b1 = Term.bnode "b1"

let borges_data =
  Graph.of_list
    [
      Triple.make doi1 Vocab.rdf_type book;
      Triple.make doi1 written_by b1;
      Triple.make doi1 has_title (Term.literal "El Aleph");
      Triple.make b1 has_name (Term.literal "J. L. Borges");
      Triple.make doi1 published_in (Term.literal "1949");
    ]

let borges_schema_graph =
  Graph.of_list
    [
      Triple.make book Vocab.rdfs_subclassof publication;
      Triple.make written_by Vocab.rdfs_subpropertyof has_author;
      Triple.make written_by Vocab.rdfs_domain book;
      Triple.make written_by Vocab.rdfs_range person;
    ]

let borges_graph = Graph.union borges_data borges_schema_graph

(* q(x3) :- x1 hasAuthor x2, x2 hasName x3, x1 x4 "1949" *)
let borges_query =
  Cq.make
    ~head:[ Cq.var "x3" ]
    ~body:
      [
        Cq.atom (Cq.var "x1") (Cq.cst has_author) (Cq.var "x2");
        Cq.atom (Cq.var "x2") (Cq.cst has_name) (Cq.var "x3");
        Cq.atom (Cq.var "x1") (Cq.var "x4") (Cq.cst (Term.literal "1949"));
      ]

(* ------------------------------------------------------------------ *)
(* Random instances for property-based tests                           *)
(* ------------------------------------------------------------------ *)

let classes = Array.init 6 (fun i -> uri (Printf.sprintf "C%d" i))
let props = Array.init 4 (fun i -> uri (Printf.sprintf "p%d" i))
let inds = Array.init 8 (fun i -> uri (Printf.sprintf "a%d" i))
let lits = Array.init 3 (fun i -> Term.literal (Printf.sprintf "l%d" i))

open QCheck2

let gen_class = Gen.oneofa classes
let gen_prop = Gen.oneofa props
let gen_ind = Gen.oneofa inds

let gen_node =
  Gen.frequency [ (4, gen_ind); (1, Gen.oneofa lits) ]

let gen_schema_triple =
  Gen.frequency
    [
      ( 3,
        Gen.map2
          (fun c1 c2 -> Triple.make c1 Vocab.rdfs_subclassof c2)
          gen_class gen_class );
      ( 2,
        Gen.map2
          (fun p1 p2 -> Triple.make p1 Vocab.rdfs_subpropertyof p2)
          gen_prop gen_prop );
      ( 2,
        Gen.map2 (fun p c -> Triple.make p Vocab.rdfs_domain c) gen_prop
          gen_class );
      ( 2,
        Gen.map2 (fun p c -> Triple.make p Vocab.rdfs_range c) gen_prop
          gen_class );
    ]

let gen_data_triple =
  Gen.frequency
    [
      ( 2,
        Gen.map2
          (fun s c -> Triple.make s Vocab.rdf_type c)
          gen_ind gen_class );
      ( 4,
        Gen.map3 (fun s p o -> Triple.make s p o) gen_ind gen_prop gen_node );
    ]

let gen_graph =
  Gen.map2
    (fun schema data -> Graph.of_list (schema @ data))
    (Gen.list_size (Gen.int_range 0 6) gen_schema_triple)
    (Gen.list_size (Gen.int_range 0 25) gen_data_triple)

(* Random query atoms over the same vocabulary. Variables come from a
   small pool so that atoms share variables often. *)
let var_pool = [| "x"; "y"; "z"; "w" |]

let gen_var = Gen.oneofa var_pool

let gen_pat_of g = Gen.frequency [ (2, Gen.map Cq.var gen_var); (3, Gen.map Cq.cst g) ]

let gen_atom =
  Gen.frequency
    [
      (* class assertion atom *)
      ( 3,
        Gen.map2
          (fun s o -> Cq.atom s (Cq.cst Vocab.rdf_type) o)
          (gen_pat_of gen_ind) (gen_pat_of gen_class) );
      (* property atom *)
      ( 4,
        Gen.map3
          (fun s p o -> Cq.atom s p o)
          (gen_pat_of gen_ind)
          (Gen.frequency [ (4, Gen.map Cq.cst gen_prop); (1, Gen.map Cq.var gen_var) ])
          (gen_pat_of gen_node) );
      (* schema atom *)
      ( 1,
        Gen.map3
          (fun s p o -> Cq.atom s (Cq.cst p) o)
          (gen_pat_of gen_class)
          (Gen.oneofl
             [ Vocab.rdfs_subclassof; Vocab.rdfs_subpropertyof ])
          (gen_pat_of gen_class) );
    ]

let gen_cq =
  let open Gen in
  let* body = list_size (int_range 1 3) gen_atom in
  let vars = Cq.body_vars { Cq.head = []; body } in
  let* head_vars =
    match vars with
    | [] -> pure []
    | _ ->
      let* keep = list_repeat (List.length vars) bool in
      pure (List.filteri (fun i _ -> List.nth keep i) vars)
  in
  pure (Cq.make ~head:(List.map Cq.var head_vars) ~body)

let gen_graph_and_cq = Gen.pair gen_graph gen_cq

(* Pretty-printers for counterexample reporting. *)
let print_graph g = Fmt.str "%a" Graph.pp g
let print_cq q = Fmt.str "%a" Cq.pp q
let print_graph_and_cq (g, q) =
  Printf.sprintf "graph:\n%s\nquery: %s" (print_graph g) (print_cq q)

let rows_to_string rows =
  String.concat "\n"
    (List.map
       (fun row -> String.concat ", " (List.map Term.to_string row))
       rows)

(* ------------------------------------------------------------------ *)
(* Parser fuzzing                                                      *)
(* ------------------------------------------------------------------ *)

let gen_byte = Gen.map Char.chr (Gen.int_bound 255)

(* Arbitrary bytes, or one byte of a valid input replaced, inserted or
   deleted. *)
let gen_fuzz seeds =
  let open Gen in
  let mutant =
    let* s = oneofl seeds in
    let n = String.length s in
    let* pos = int_bound n and* b = gen_byte and* kind = int_bound 2 in
    let before = String.sub s 0 pos in
    let after k = String.sub s (pos + k) (n - pos - k) in
    pure
      (match kind with
      | 0 when pos < n -> before ^ String.make 1 b ^ after 1
      | 1 when pos < n -> before ^ after 1
      | _ -> before ^ String.make 1 b ^ after 0)
  in
  frequency
    [ (1, string_size ~gen:gen_byte (int_range 0 200)); (3, mutant) ]

(* Whether [parse] returns on [input] rather than raising. *)
let total parse input =
  match parse input with
  | Ok _ | Error _ -> true
  | exception e ->
    QCheck2.Test.fail_reportf "raised %s" (Printexc.to_string e)

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

(* Every figure a [Stats.t] holds, properties in ascending id order. *)
let stat_figures stats =
  let open Refq_storage in
  ( [
      Stats.n_triples stats;
      Stats.n_distinct_subjects stats;
      Stats.n_distinct_properties stats;
      Stats.n_distinct_objects stats;
    ],
    List.sort compare
      (List.map
         (fun (p, _) -> (p, Stats.prop_stat stats p))
         (Stats.top_properties stats ~k:max_int)) )
