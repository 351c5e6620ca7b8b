(* Seeded input generation. Everything here runs before any clock
   starts; the program under test only ever sees the N-Triples file and
   the request lines produced here. *)

open Refq_rdf
open Refq_query
open Refq_storage
module Lubm = Refq_workload.Lubm
module Query_gen = Refq_workload.Query_gen
module Serve = Refq_serve.Serve
module Rng = Refq_util.Splitmix64

(* The prefix environment both the server and the in-process loops parse
   queries under. *)
let ns = Serve.Config.default_env

let query_text q = Sparql.to_sparql ~env:ns q

module Json = Refq_obs.Json

let write_ntriples path store =
  let g = Store.to_graph store in
  Ntriples.write_file path g;
  ((Unix.stat path).Unix.st_size, Graph.cardinal g)

(* Request lines in the serving protocol; the in-process workloads read
   the same lines. *)
let answer_line ~strategy text =
  Json.to_string ~indent:false
    (Json.Obj
       [
         ("op", Json.String "answer");
         ("query", Json.String text);
         ("strategy", Json.String strategy);
       ])

let triple_line (t : Triple.t) =
  Fmt.str "%a %a %a ." Term.pp t.Triple.s Term.pp t.Triple.p Term.pp t.Triple.o

let update_line op triples =
  Json.to_string ~indent:false
    (Json.Obj
       [
         ("op", Json.String op);
         ("triples", Json.List (List.map (fun t -> Json.String (triple_line t)) triples));
       ])

(* Each batch as an insert line followed by the delete of the same
   triples, so applying the lines in order leaves the store as it was. *)
let update_lines batches =
  List.concat_map (fun b -> [ update_line "insert" b; update_line "delete" b ]) batches

let write_lines path lines =
  let oc = open_out_bin path in
  List.iter (fun l -> output_string oc l; output_char oc '\n') lines;
  close_out oc

(* ------------------------------------------------------------------ *)
(* LUBM                                                                *)
(* ------------------------------------------------------------------ *)

let lubm_store ~seed ~scale = Lubm.generate ~seed:(Int64.of_int seed) ~scale ()

(* LUBM at [scale] holding [target] triples within 0.5%: the first store
   in a sequence of generator seeds derived from [seed] that lands there,
   or the closest of 1,000. Each university draws 3 to 5 departments, so
   at a small scale the seed alone moves the store size, and every
   timing with it, by ±6%; held to one size, seeds differ in content
   only. *)
let lubm_store_sized ~seed ~scale ~target =
  let off st = abs (Store.size st - target) in
  let rec go j best =
    let st = lubm_store ~seed:((seed * 1000) + j) ~scale in
    let best = if off st < off best then st else best in
    if off best * 200 <= target || j = 999 then best else go (j + 1) best
  in
  go 1 (lubm_store ~seed:(seed * 1000) ~scale)

(* The bundled workload: Q1-Q12 and the paper's Example 1. *)
let bundled_queries () =
  List.map snd Lubm.queries @ [ Lubm.example1_query ]

(* The bundled queries followed by [count] seeded random queries over the
   store's vocabulary. *)
let lubm_stream ~seed store ~count =
  let random =
    Query_gen.generate ~seed:(Int64.of_int (seed + 1)) store ~count
    |> List.map snd
  in
  List.map query_text (bundled_queries () @ random)

(* Batch [j]: a new professor of department 0 with a name, and a new
   member of that department — triples the bundled Q4 and Q5 read. *)
let lubm_batch j =
  let dept = Term.uri "http://www.Dept0.Univ0.edu" in
  let prof = Term.uri (Printf.sprintf "http://www.Dept0.Univ0.edu/BenchProfessor%d" j) in
  let stud = Term.uri (Printf.sprintf "http://www.Dept0.Univ0.edu/BenchStudent%d" j) in
  let ub name = Term.uri (Lubm.ns ^ name) in
  [
    Triple.make prof Vocab.rdf_type (ub "FullProfessor");
    Triple.make prof (ub "worksFor") dept;
    Triple.make prof (ub "name") (Term.literal (Printf.sprintf "BenchProfessor%d" j));
    Triple.make stud (ub "memberOf") dept;
  ]

(* Share of a query stream that repeats an earlier query up to variable
   renaming — the only repeats the answering caches can exploit. *)
let canonical_repeat_share texts =
  let seen = Hashtbl.create 1024 in
  let repeats =
    List.fold_left
      (fun acc text ->
        match Serve.parse_query ~env:ns text with
        | Error _ -> acc
        | Ok q ->
          let key = Fmt.str "%a" Cq.pp (Cq.canonicalize q) in
          if Hashtbl.mem seen key then acc + 1
          else (
            Hashtbl.replace seen key ();
            acc))
      0 texts
  in
  float_of_int repeats /. float_of_int (max 1 (List.length texts))

(* ------------------------------------------------------------------ *)
(* Random digraph with cyclic queries                                   *)
(* ------------------------------------------------------------------ *)

let graph_ns = "http://example.org/g#"
let node i = Term.uri (Printf.sprintf "%sn%d" graph_ns i)
let edge k = Term.uri (Printf.sprintf "%se%d" graph_ns k)

(* [nodes] nodes, [preds] edge predicates, every node with exactly
   [degree] distinct out-neighbours per predicate: a fixed out-degree
   keeps join sizes close to their expectation whatever the seed, so
   different seeds give workloads of the same cost. No RDFS triples. *)
let digraph ~seed ~nodes ~preds ~degree =
  let rng = Rng.create (Int64.of_int seed) in
  let store = Store.create () in
  for k = 0 to preds - 1 do
    let p = edge k in
    for i = 0 to nodes - 1 do
      let chosen = Hashtbl.create degree in
      while Hashtbl.length chosen < degree do
        let j = Rng.int rng nodes in
        if j <> i then Hashtbl.replace chosen j ()
      done;
      Hashtbl.iter (fun j () -> Store.add store (node i) p (node j)) chosen
    done
  done;
  store

(* Batch [j]: edges between a fresh node and existing ones, so every
   insert and delete is effective. *)
let digraph_batch j =
  let fresh = node (1_000_000 + j) in
  [
    Triple.make fresh (edge 0) (node 1);
    Triple.make (node 2) (edge 1) fresh;
    Triple.make fresh (edge 2) (node 3);
    Triple.make (node 4) (edge 3) fresh;
  ]

let cycle_query preds =
  let n = Array.length preds in
  let v i = Cq.var (Printf.sprintf "x%d" (i mod n)) in
  Cq.make
    ~head:(List.init n v)
    ~body:(List.init n (fun i -> Cq.atom (v i) (Cq.cst (edge preds.(i))) (v (i + 1))))

(* Unanchored triangles and 4-cycles over seeded predicate choices, in a
   seeded order, without repeats: every query is a distinct cyclic join.
   One triangle per three 4-cycles, in every stretch of the stream: the
   two shapes cost an order of magnitude apart, and an even mix would put
   the median read between the two modes, where it swings with the
   seed. *)
let cyclic_stream ~seed ~preds =
  let rng = Rng.create (Int64.of_int (seed + 7)) in
  let all len =
    let acc = ref [] in
    let rec go prefix depth =
      if depth = len then acc := Array.of_list (List.rev prefix) :: !acc
      else
        for k = 0 to preds - 1 do
          go (k :: prefix) (depth + 1)
        done
    in
    go [] 0;
    let a = Array.of_list !acc in
    Rng.shuffle rng a;
    a
  in
  let tri = all 3 and quad = all 4 in
  let n = min (Array.length tri) (Array.length quad / 3) in
  List.concat
    (List.init n (fun i ->
         List.map
           (fun q -> query_text (cycle_query q))
           [ tri.(i); quad.(3 * i); quad.((3 * i) + 1); quad.((3 * i) + 2) ]))

(* The join operator read [i] of the cyclic stream runs under, and the
   one its answer is checked against. Alternate groups of four (one
   triangle, three 4-cycles) run under forced leapfrog and under Auto.
   Auto picks the binary joins on this graph, so it is checked against
   leapfrog, and leapfrog against the binary joins: every check compares
   two operators. Whole groups keep the shape mix of each half; the
   median read then falls inside the leapfrog 4-cycles and the p80
   inside the Auto ones, not between two modes. *)
let cyclic_engines i =
  let open Refq_core.Config in
  if i / 4 mod 2 = 1 then (Wco, Binary) else (Auto, Wco)
