(* Tests for the dictionary, store indexes and statistics. *)

open Refq_rdf
open Refq_storage

let term = Alcotest.testable Term.pp Term.equal

let test_dictionary () =
  let d = Dictionary.create () in
  let a = Dictionary.encode d (Term.uri "http://a") in
  let b = Dictionary.encode d (Term.literal "x") in
  Alcotest.(check bool) "distinct ids" true (a <> b);
  Alcotest.(check int) "stable" a (Dictionary.encode d (Term.uri "http://a"));
  Alcotest.check term "decode" (Term.uri "http://a") (Dictionary.decode d a);
  Alcotest.(check (option int)) "find" (Some b) (Dictionary.find d (Term.literal "x"));
  Alcotest.(check (option int)) "find absent" None (Dictionary.find d (Term.bnode "q"));
  Alcotest.(check int) "size" 2 (Dictionary.size d);
  match Dictionary.decode d 99 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "decode of unallocated id"

let test_store_dedup () =
  let st = Store.create () in
  Store.add st (Term.uri "http://a") (Term.uri "http://p") (Term.uri "http://b");
  Store.add st (Term.uri "http://a") (Term.uri "http://p") (Term.uri "http://b");
  Alcotest.(check int) "deduplicated" 1 (Store.size st)

let test_store_roundtrip () =
  let st = Store.of_graph Fixtures.borges_graph in
  Alcotest.(check int) "size" 9 (Store.size st);
  Alcotest.(check bool) "roundtrip" true
    (Graph.equal Fixtures.borges_graph (Store.to_graph st))

let test_patterns () =
  let st = Store.of_graph Fixtures.borges_graph in
  let id t = Option.get (Store.find_term st t) in
  let count ?s ?p ?o () = Store.count_pattern st ~s ~p ~o in
  Alcotest.(check int) "all" 9 (count ());
  Alcotest.(check int) "by subject" 4 (count ~s:(id Fixtures.doi1) ());
  Alcotest.(check int) "by property" 1 (count ~p:(id Fixtures.written_by) ());
  Alcotest.(check int) "s+p" 1
    (count ~s:(id Fixtures.doi1) ~p:(id Fixtures.written_by) ());
  Alcotest.(check int) "by object" 1 (count ~o:(id (Term.literal "1949")) ());
  Alcotest.(check int) "s+o" 1
    (count ~s:(id Fixtures.doi1) ~o:(id Fixtures.b1) ());
  Alcotest.(check int) "full triple" 1
    (count ~s:(id Fixtures.doi1) ~p:(id Fixtures.written_by) ~o:(id Fixtures.b1) ());
  Alcotest.(check int) "no match" 0
    (count ~s:(id Fixtures.b1) ~p:(id Fixtures.written_by) ())

let test_pattern_iteration () =
  let st = Store.of_graph Fixtures.borges_graph in
  let id t = Option.get (Store.find_term st t) in
  let seen = ref [] in
  Store.iter_pattern st ~s:(Some (id Fixtures.doi1)) ~p:None ~o:None
    (fun _ p _ -> seen := p :: !seen);
  Alcotest.(check int) "doi1 triples" 4 (List.length !seen)

let test_incremental_reindex () =
  let st = Store.create () in
  let u s = Term.uri (Fixtures.ex ^ s) in
  Store.add st (u "a") (u "p") (u "b");
  Alcotest.(check int) "first" 1
    (Store.count_pattern st ~s:None ~p:(Store.find_term st (u "p")) ~o:None);
  (* Adding after a freeze must trigger reindexing. *)
  Store.add st (u "c") (u "p") (u "d");
  Alcotest.(check int) "after add" 2
    (Store.count_pattern st ~s:None ~p:(Store.find_term st (u "p")) ~o:None)

let test_remove () =
  let st = Store.of_graph Fixtures.borges_graph in
  let t = Triple.make Fixtures.doi1 Vocab.rdf_type Fixtures.book in
  Store.remove_triple st t;
  Alcotest.(check int) "size after remove" 8 (Store.size st);
  Alcotest.(check bool) "gone from graph" false (Graph.mem t (Store.to_graph st));
  let id x = Option.get (Store.find_term st x) in
  Alcotest.(check int) "gone from index" 0
    (Store.count_pattern st ~s:(Some (id Fixtures.doi1))
       ~p:(Some (id Vocab.rdf_type)) ~o:None);
  (* Remove then re-add: no duplicates survive compaction. *)
  Store.add_triple st t;
  Alcotest.(check int) "re-added" 9 (Store.size st);
  Alcotest.(check int) "indexed once" 1
    (Store.count_pattern st ~s:(Some (id Fixtures.doi1))
       ~p:(Some (id Vocab.rdf_type)) ~o:None);
  (* Removing an absent triple is a no-op. *)
  Store.remove_triple st (Triple.make Fixtures.b1 Vocab.rdf_type Fixtures.book);
  Alcotest.(check int) "no-op remove" 9 (Store.size st)

let test_stats () =
  let st = Store.of_graph Fixtures.borges_graph in
  let stats = Stats.compute st in
  Alcotest.(check int) "triples" 9 (Stats.n_triples stats);
  let id t = Option.get (Store.find_term st t) in
  (match Stats.prop_stat stats (id Fixtures.written_by) with
  | Some ps ->
    Alcotest.(check int) "writtenBy count" 1 ps.Stats.count;
    Alcotest.(check int) "distinct s" 1 ps.Stats.distinct_s
  | None -> Alcotest.fail "writtenBy stats missing");
  let classes = Stats.top_classes st ~k:max_int in
  Alcotest.(check (option int)) "Book instances" (Some 1)
    (List.assoc_opt (id Fixtures.book) classes);
  Alcotest.(check (option int)) "absent class" None
    (List.assoc_opt (id Fixtures.person) classes);
  let top = Stats.top_properties stats ~k:3 in
  Alcotest.(check int) "top-k size" 3 (List.length top);
  (* rdf:type is among the most frequent (count 1 like the others here),
     just check ordering is by count descending. *)
  let counts = List.map snd top in
  Alcotest.(check (list int)) "descending" (List.sort (fun a b -> compare b a) counts) counts

let contains text needle =
  let nl = String.length needle and tl = String.length text in
  let rec go i = i + nl <= tl && (String.sub text i nl = needle || go (i + 1)) in
  go 0

let test_stats_tops () =
  let st = Store.of_graph Fixtures.borges_graph in
  let id t = Option.get (Store.find_term st t) in
  (* doi1 is the most frequent subject (4 triples). *)
  (match Stats.top_subjects st ~k:1 with
  | [ (s, n) ] ->
    Alcotest.(check int) "top subject id" (id Fixtures.doi1) s;
    Alcotest.(check int) "top subject count" 4 n
  | _ -> Alcotest.fail "expected one top subject");
  Alcotest.(check int) "top objects k" 3 (List.length (Stats.top_objects st ~k:3));
  (* Each (p, o) pair occurs once in this graph. *)
  (match Stats.top_po_pairs st ~k:2 with
  | [ (_, n1); (_, n2) ] ->
    Alcotest.(check int) "pair count" 1 n1;
    Alcotest.(check int) "pair count" 1 n2
  | _ -> Alcotest.fail "expected two pairs");
  (* The printer names every distribution section. *)
  let text = Fmt.str "%a" Stats.pp st in
  List.iter
    (fun section ->
      Alcotest.(check bool) section true
        (contains text section))
    [ "triples: 9"; "top properties:"; "top classes:"; "top subjects:";
      "top objects:"; "top (property, object) pairs:" ]

let test_save_load () =
  let st = Store.of_graph Fixtures.borges_graph in
  let path = Filename.temp_file "refq" ".store" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Store.save st path;
      match Store.load path with
      | Ok st' ->
        Alcotest.(check bool) "same graph" true
          (Graph.equal (Store.to_graph st) (Store.to_graph st'));
        (* Ids are preserved. *)
        Alcotest.(check (option int)) "same id for doi1"
          (Store.find_term st Fixtures.doi1)
          (Store.find_term st' Fixtures.doi1)
      | Error m -> Alcotest.fail m)

let test_load_errors () =
  (match Store.load "/nonexistent/refq.store" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing file loaded");
  let path = Filename.temp_file "refq" ".store" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "NOTASTORE!";
      close_out oc;
      match Store.load path with
      | Error m -> Alcotest.(check bool) "mentions corrupt" true (String.length m > 0)
      | Ok _ -> Alcotest.fail "garbage loaded")

let prop_save_load_roundtrip =
  QCheck2.Test.make ~name:"save/load roundtrip" ~count:50
    ~print:Fixtures.print_graph Fixtures.gen_graph (fun g ->
      let st = Store.of_graph g in
      let path = Filename.temp_file "refq" ".store" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Store.save st path;
          match Store.load path with
          | Ok st' -> Graph.equal g (Store.to_graph st')
          | Error _ -> false))

let prop_store_roundtrip =
  QCheck2.Test.make ~name:"store/graph roundtrip" ~count:100
    ~print:Fixtures.print_graph Fixtures.gen_graph (fun g ->
      Graph.equal g (Store.to_graph (Store.of_graph g)))

let prop_count_matches_iter =
  QCheck2.Test.make ~name:"count_pattern = iterated count" ~count:100
    ~print:Fixtures.print_graph Fixtures.gen_graph (fun g ->
      let st = Store.of_graph g in
      let ids =
        List.filter_map (Store.find_term st)
          (Fixtures.uri "C1" :: Fixtures.uri "a0" :: Fixtures.uri "p0"
           :: [ Vocab.rdf_type ])
      in
      List.for_all
        (fun id ->
          let patterns =
            [
              (Some id, None, None);
              (None, Some id, None);
              (None, None, Some id);
            ]
          in
          List.for_all
            (fun (s, p, o) ->
              let n = ref 0 in
              Store.iter_pattern st ~s ~p ~o (fun _ _ _ -> incr n);
              !n = Store.count_pattern st ~s ~p ~o)
            patterns)
        ids)

let test_epochs () =
  let st = Store.create () in
  Alcotest.(check int) "fresh data epoch" 0 (Store.data_epoch st);
  Alcotest.(check int) "fresh schema epoch" 0 (Store.schema_epoch st);
  let data =
    Triple.make (Fixtures.uri "a") (Fixtures.uri "p") (Fixtures.uri "b")
  in
  Store.add_triple st data;
  Alcotest.(check int) "data insert bumps" 1 (Store.data_epoch st);
  Alcotest.(check int) "data insert is not schema" 0 (Store.schema_epoch st);
  Store.add_triple st data;
  Alcotest.(check int) "duplicate insert is a no-op" 1 (Store.data_epoch st);
  let schema =
    Triple.make (Fixtures.uri "C") Vocab.rdfs_subclassof (Fixtures.uri "D")
  in
  Store.add_triple st schema;
  Alcotest.(check int) "schema insert bumps schema" 1 (Store.schema_epoch st);
  Alcotest.(check int) "schema insert keeps data" 1 (Store.data_epoch st);
  Store.remove_triple st
    (Triple.make (Fixtures.uri "x") (Fixtures.uri "y") (Fixtures.uri "z"));
  Alcotest.(check int) "absent removal is a no-op" 1 (Store.data_epoch st);
  Store.remove_triple st data;
  Alcotest.(check int) "data removal bumps" 2 (Store.data_epoch st);
  Store.remove_triple st schema;
  Alcotest.(check int) "schema removal bumps" 2 (Store.schema_epoch st)

let test_decode_message () =
  let d = Dictionary.create () in
  ignore (Dictionary.encode d (Term.uri "http://a"));
  ignore (Dictionary.encode d (Term.uri "http://b"));
  match Dictionary.decode d 7 with
  | _ -> Alcotest.fail "decode of unallocated id succeeded"
  | exception Invalid_argument m ->
    (* The message must name the violated invariant and carry both the
       offending id and the dictionary size, so a recovery log line is
       actionable on its own. *)
    let contains sub =
      let n = String.length sub and len = String.length m in
      let rec go i = i + n <= len && (String.sub m i n = sub || go (i + 1)) in
      go 0
    in
    let mentions s =
      Alcotest.(check bool) (Fmt.str "mentions %S" s) true (contains s)
    in
    mentions "dense-allocation invariant";
    mentions "id 7";
    mentions "2 ids"

let test_delta_hook () =
  let st = Store.create () in
  let log = ref [] in
  Store.set_delta_hook st
    (Some
       (fun d ->
         log := (d, Store.data_epoch st, Store.schema_epoch st) :: !log));
  let data =
    Triple.make (Fixtures.uri "a") (Fixtures.uri "p") (Fixtures.uri "b")
  in
  let schema =
    Triple.make (Fixtures.uri "C") Vocab.rdfs_subclassof (Fixtures.uri "D")
  in
  Store.add_triple st data;
  Store.add_triple st data (* duplicate: must not fire *);
  Store.add_triple st schema;
  Store.remove_triple st
    (Triple.make (Fixtures.uri "x") (Fixtures.uri "p") (Fixtures.uri "y"))
  (* absent: must not fire *);
  Store.remove_triple st data;
  Alcotest.(check int) "three effective mutations" 3 (List.length !log);
  (* The hook observes post-mutation epochs (the WAL depends on it). *)
  (match !log with
  | [ (r, de, se); (s, _, _); (a, de0, se0) ] ->
    Alcotest.(check bool) "first is an add" true (a.Store.op = `Add);
    Alcotest.(check (pair int int)) "post-epochs of first add" (1, 0) (de0, se0);
    Alcotest.(check bool) "second is the schema add" true (s.Store.op = `Add);
    Alcotest.(check bool) "last is a remove" true (r.Store.op = `Remove);
    Alcotest.(check (pair int int)) "post-epochs of remove" (2, 1) (de, se)
  | _ -> Alcotest.fail "unexpected log shape");
  Store.set_delta_hook st None;
  Store.add_triple st data;
  Alcotest.(check int) "cleared hook stays silent" 3 (List.length !log)

let test_restore_epochs () =
  let st = Store.create () in
  Store.restore_epochs st ~data:41 ~schema:7;
  Alcotest.(check int) "data restored" 41 (Store.data_epoch st);
  Alcotest.(check int) "schema restored" 7 (Store.schema_epoch st);
  Store.add_triple st
    (Triple.make (Fixtures.uri "a") (Fixtures.uri "p") (Fixtures.uri "b"));
  Alcotest.(check int) "counting resumes from there" 42 (Store.data_epoch st);
  match Store.restore_epochs st ~data:(-1) ~schema:0 with
  | () -> Alcotest.fail "negative epoch accepted"
  | exception Invalid_argument _ -> ()

let test_export_import_indexes () =
  let st = Store.of_graph Fixtures.borges_graph in
  let spo, pos, osp = Store.export_indexes st in
  let st' = Store.of_graph Fixtures.borges_graph in
  Alcotest.(check bool) "valid indexes accepted" true
    (Store.import_indexes st' ~spo ~pos ~osp);
  let id t = Option.get (Store.find_term st' t) in
  Alcotest.(check int) "lookups agree after import" 4
    (Store.count_pattern st' ~s:(Some (id Fixtures.doi1)) ~p:None ~o:None);
  (* A corrupted permutation — here swapping two entries breaks either
     the sort order or the bijection — must be rejected wholesale. *)
  let bad = Array.copy spo in
  let tmp = bad.(0) in
  bad.(0) <- bad.(Array.length bad - 1);
  bad.(Array.length bad - 1) <- tmp;
  let st'' = Store.of_graph Fixtures.borges_graph in
  Alcotest.(check bool) "corrupted permutation rejected" false
    (Store.import_indexes st'' ~spo:bad ~pos ~osp);
  Alcotest.(check int) "store still answers correctly" 4
    (Store.count_pattern st''
       ~s:(Some (Option.get (Store.find_term st'' Fixtures.doi1)))
       ~p:None ~o:None);
  (* Wrong length is rejected too. *)
  let st3 = Store.of_graph Fixtures.borges_graph in
  Alcotest.(check bool) "truncated permutation rejected" false
    (Store.import_indexes st3 ~spo:(Array.sub spo 0 3) ~pos ~osp)

(* ------------------------------------------------------------------ *)
(* Merged freeze, index-scan statistics, index-built closure           *)
(* ------------------------------------------------------------------ *)

(* Random interleavings of writes and freezes, replayed against a
   reference model kept here: a triple vector with a membership table,
   compacted at each freeze to the first surviving occurrence of every
   key and indexed by sorting from scratch. The store must match it
   entry for entry, its statistics must match a hashtable count of the
   live triples, and its index-built closure the full-graph one. *)

type op =
  | Add of int * int * int
  | Remove of int * int * int
  | Remove_readd of int * int * int
  | Freeze

(* Term universe, indexed by the generated positions. Predicates include
   rdf:type and the four constraint predicates; a literal object tests
   that the closure ignores ill-formed constraints in both paths. *)
let nodes = [| "a0"; "a1"; "a2"; "a3" |]

let node i = if i = 4 then Term.literal "lit" else Fixtures.uri nodes.(i)

let preds =
  [|
    Fixtures.uri "p0";
    Fixtures.uri "p1";
    Vocab.rdf_type;
    Vocab.rdfs_subclassof;
    Vocab.rdfs_subpropertyof;
    Vocab.rdfs_domain;
    Vocab.rdfs_range;
  |]

let gen_ops =
  let open QCheck2.Gen in
  let key =
    triple (int_bound 3) (int_bound (Array.length preds - 1)) (int_bound 4)
  in
  list_size (int_bound 80)
    (frequency
       [
         (6, map (fun (s, p, o) -> Add (s, p, o)) key);
         (3, map (fun (s, p, o) -> Remove (s, p, o)) key);
         (2, map (fun (s, p, o) -> Remove_readd (s, p, o)) key);
         (2, pure Freeze);
       ])

let print_ops ops =
  String.concat "; "
    (List.map
       (function
         | Add (s, p, o) -> Printf.sprintf "add(%d,%d,%d)" s p o
         | Remove (s, p, o) -> Printf.sprintf "rm(%d,%d,%d)" s p o
         | Remove_readd (s, p, o) -> Printf.sprintf "rm+add(%d,%d,%d)" s p o
         | Freeze -> "freeze")
       ops)

(* The reference model: the vector as a reversed list plus a table of
   the live keys. *)
type model = {
  mutable vec : (int * int * int) list;
  live : (int * int * int, unit) Hashtbl.t;
}

let model_add m k =
  if not (Hashtbl.mem m.live k) then begin
    Hashtbl.replace m.live k ();
    m.vec <- k :: m.vec
  end

let model_compact m =
  let kept = Hashtbl.create 16 in
  let vec =
    List.filter
      (fun k ->
        let keep = Hashtbl.mem m.live k && not (Hashtbl.mem kept k) in
        if keep then Hashtbl.replace kept k ();
        keep)
      (List.rev m.vec)
  in
  m.vec <- List.rev vec;
  Array.of_list vec

(* A permutation sorted from scratch, [fields] naming the index order. *)
let model_perm vec fields =
  let key (s, p, o) = List.map (fun f -> [| s; p; o |].(f)) fields in
  let perm = Array.init (Array.length vec) Fun.id in
  Array.sort (fun i j -> compare (key vec.(i)) (key vec.(j))) perm;
  perm

(* The hashtable statistics the index scans replace, as an oracle. *)
let oracle_stats m ~rdf_type =
  let bump tbl k =
    Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k))
  in
  let subj = Hashtbl.create 16 and obj = Hashtbl.create 16 in
  let po = Hashtbl.create 16 and classes = Hashtbl.create 16 in
  let props = Hashtbl.create 16 in
  Hashtbl.iter
    (fun (s, p, o) () ->
      bump subj s;
      bump obj o;
      bump po (p, o);
      if p = rdf_type then bump classes o;
      let n, ss, os =
        Option.value (Hashtbl.find_opt props p) ~default:(0, [], [])
      in
      let add x l = if List.mem x l then l else x :: l in
      Hashtbl.replace props p (n + 1, add s ss, add o os))
    m.live;
  (subj, obj, po, classes, props)

(* [stats] (by default [Stats.compute st]) against the oracle over the
   live triples of [m], and figure by figure against [Stats.compute]; the
   store's distribution reports against the oracle too. *)
let check_stats ?stats st m =
  let computed = Stats.compute st in
  let stats = Option.value stats ~default:computed in
  let id t = Store.encode_term st t in
  let rdf_type = id Vocab.rdf_type in
  let subj, obj, po, classes, props = oracle_stats m ~rdf_type in
  let count tbl k = Option.value ~default:0 (Hashtbl.find_opt tbl k) in
  let ok = ref true in
  let expect b = if not b then ok := false in
  expect (Stats.n_triples stats = Hashtbl.length m.live);
  expect (Stats.n_distinct_subjects stats = Hashtbl.length subj);
  expect (Stats.n_distinct_objects stats = Hashtbl.length obj);
  expect (Stats.n_distinct_properties stats = Hashtbl.length props);
  Array.iter
    (fun p ->
      let p = id p in
      let want =
        Option.map
          (fun (n, ss, os) ->
            {
              Stats.count = n;
              distinct_s = List.length ss;
              distinct_o = List.length os;
            })
          (Hashtbl.find_opt props p)
      in
      expect (Stats.prop_stat stats p = want))
    preds;
  let class_counts = Stats.top_classes st ~k:max_int in
  for i = 0 to 4 do
    let o = id (node i) in
    expect
      (Option.value ~default:0 (List.assoc_opt o class_counts)
      = count classes o)
  done;
  (* Ties make the order of equal counts arbitrary: every returned pair
     must carry its true count, and the counts must be the oracle's k
     largest. *)
  let check_top top tbl =
    List.iter
      (fun k ->
        let got = top ~k in
        List.iter (fun (key, n) -> expect (count tbl key = n)) got;
        let want =
          Hashtbl.fold (fun _ n acc -> n :: acc) tbl []
          |> List.sort (fun a b -> compare b a)
          |> List.filteri (fun i _ -> i < k)
        in
        expect (List.map snd got = want))
      [ 1; 3; 1000 ]
  in
  check_top (Stats.top_subjects st) subj;
  check_top (Stats.top_objects st) obj;
  check_top (Stats.top_po_pairs st) po;
  check_top (Stats.top_classes st) classes;
  let prop_counts = Hashtbl.create 16 in
  Hashtbl.iter (fun p (n, _, _) -> Hashtbl.replace prop_counts p n) props;
  check_top (Stats.top_properties stats) prop_counts;
  expect (Fixtures.stat_figures stats = Fixtures.stat_figures computed);
  !ok

let check_frozen st m =
  let vec = model_compact m in
  let got = ref [] in
  Store.iter_all st (fun s p o -> got := (s, p, o) :: !got);
  let spo, pos, osp = Store.export_indexes st in
  List.rev !got = Array.to_list vec
  && spo = model_perm vec [ 0; 1; 2 ]
  && pos = model_perm vec [ 1; 2; 0 ]
  && osp = model_perm vec [ 2; 0; 1 ]
  && check_stats st m
  &&
  let constraints cl =
    Refq_schema.Schema.to_list (Refq_schema.Closure.closed_schema cl)
  in
  constraints (Refq_core.Answer.closure_of_store st)
  = constraints (Refq_schema.Closure.of_graph (Store.to_graph st))

let prop_merged_freeze =
  QCheck2.Test.make ~name:"merged freeze = rebuild; scans = oracle" ~count:300
    ~print:print_ops gen_ops (fun ops ->
      let st = Store.create () in
      let m = { vec = []; live = Hashtbl.create 16 } in
      let ids (s, p, o) =
        ( Store.encode_term st (node s),
          Store.encode_term st preds.(p),
          Store.encode_term st (node o) )
      in
      let add k =
        let s, p, o = ids k in
        Store.add_ids st s p o;
        model_add m (s, p, o)
      in
      let remove k =
        let s, p, o = ids k in
        Store.remove_ids st s p o;
        Hashtbl.remove m.live (s, p, o)
      in
      List.for_all
        (function
          | Add (s, p, o) ->
            add (s, p, o);
            true
          | Remove (s, p, o) ->
            remove (s, p, o);
            true
          | Remove_readd (s, p, o) ->
            remove (s, p, o);
            add (s, p, o);
            true
          | Freeze ->
            Store.freeze st;
            check_frozen st m)
        (ops @ [ Freeze ]))

(* Maintained statistics under a fixed-seed interleaving of write
   batches through [Session.apply_effective], the path a served write
   takes: [Answer.invalidate] derives the next statistics from the
   batch's effective mutations. A second chain applies [Stats.update]
   directly to the store's delta-hook feed. After every batch both must
   equal the hashtable oracle and [Stats.compute], figure by figure, and
   a value published earlier must still read as it did. Scripted batches
   cover what random ones may miss: schema writes, batches that empty a
   property, a subject or an object, remove-then-re-add (and
   add-then-remove) in one batch, and several adds sharing an (s, p) or
   a (p, o) key new to the store. Six thousand background triples over
   terms of their own keep every batch under one triple per 64 stored,
   where [Stats.update] probes instead of recounting. *)
module Session = Refq_serve.Session

let test_stats_maintained () =
  let rng = Random.State.make [| 21 |] in
  let st = Store.create () in
  let m = { vec = []; live = Hashtbl.create 16 } in
  for i = 0 to 5999 do
    let bg name k =
      Store.encode_term st (Fixtures.uri (Printf.sprintf "%s%d" name k))
    in
    let s = bg "bg_s" (i mod 60) and p = bg "bg_p" (i / 60 mod 4) in
    let o = bg "bg_o" (i / 240) in
    Store.add_ids st s p o;
    model_add m (s, p, o)
  done;
  let session =
    match Session.of_store st with Ok s -> s | Error m -> Alcotest.fail m
  in
  let fed = ref [] in
  Store.set_delta_hook st (Some (fun d -> fed := d :: !fed));
  let direct = ref (Stats.compute st) in
  let maintained () =
    (Refq_core.Answer.card_env (Session.env session)).Refq_cost.Cardinality.stats
  in
  let triple = Triple.make in
  let random_key () =
    triple
      (node (Random.State.int rng 4))
      preds.(Random.State.int rng (Array.length preds))
      (node (Random.State.int rng 5))
  in
  let live_matching ?s ?p ?o () =
    let id t = Option.map (Store.encode_term st) t in
    let acc = ref [] in
    Store.iter_pattern st ~s:(id s) ~p:(id p) ~o:(id o) (fun s p o ->
        acc :=
          triple (Store.decode_id st s) (Store.decode_id st p)
            (Store.decode_id st o)
          :: !acc);
    !acc
  in
  let scripted step =
    let fresh name = Fixtures.uri (Printf.sprintf "%s%d" name step) in
    let remove ts = List.map (fun t -> `Remove t) ts in
    match step mod 7 with
    | 0 -> []
    | 1 -> [ `Add (triple (node (step mod 4)) Vocab.rdfs_subclassof (node 3)) ]
    | 2 -> remove (live_matching ~p:preds.(step mod Array.length preds) ())
    | 3 -> remove (live_matching ~s:(node (step mod 4)) ())
    | 4 -> remove (live_matching ~o:(node (step mod 5)) ())
    | 5 ->
      let absent = triple (fresh "gone") preds.(0) (node 0) in
      List.concat_map
        (fun t -> [ `Remove t; `Add t ])
        (List.filteri (fun i _ -> i < 2) (live_matching ()))
      @ [ `Add absent; `Remove absent ]
    | _ ->
      let s = fresh "s" and o = fresh "o" in
      [
        `Add (triple s preds.(0) (node 0));
        `Add (triple s preds.(0) (node 1));
        `Add (triple s preds.(2) (node 2));
        `Add (triple (node 0) preds.(1) o);
        `Add (triple (node 1) preds.(1) o);
        `Add (triple (node 2) preds.(1) o);
      ]
  in
  let held = ref None in
  for step = 0 to 139 do
    let batch =
      scripted step
      @ List.init (Random.State.int rng 4) (fun _ ->
            if Random.State.int rng 3 = 0 then `Remove (random_key ())
            else `Add (random_key ()))
    in
    fed := [];
    let effective = Session.apply_effective session batch in
    if List.length effective * 64 > Store.size st then
      Alcotest.failf "step %d: a batch of %d would be recounted" step
        (List.length effective);
    List.iter
      (fun { Store.op; s; p; o } ->
        match op with
        | `Add -> model_add m (s, p, o)
        | `Remove -> Hashtbl.remove m.live (s, p, o))
      (List.rev !fed);
    direct := Stats.update !direct st (List.rev !fed);
    let stats = maintained () in
    if not (check_stats ~stats st m) then
      Alcotest.failf "step %d: maintained statistics differ from the oracle"
        step;
    if not (check_stats ~stats:!direct st m) then
      Alcotest.failf "step %d: Stats.update differs from the oracle" step;
    (match !held with
    | Some (old, figures) ->
      if Fixtures.stat_figures old <> figures then
        Alcotest.failf "step %d: a published Stats.t changed" step
    | None ->
      if step = 20 then held := Some (stats, Fixtures.stat_figures stats))
  done;
  Store.set_delta_hook st None;
  Session.close session

(* ------------------------------------------------------------------ *)
(* Copies: isolation and constant cost                                 *)
(* ------------------------------------------------------------------ *)

(* Copies share the dictionary's generation; allocations past it stay
   private to each side, across folds, and never change what a copy
   decodes. *)
let test_dictionary_copies () =
  let d = Dictionary.create () in
  let t i = Term.uri (Printf.sprintf "http://t%d" i) in
  for i = 0 to 99 do
    ignore (Dictionary.encode d (t i))
  done;
  let c = Dictionary.copy d in
  (* Enough fresh ids on the source to fold its tail more than once. *)
  for i = 100 to 499 do
    Alcotest.(check int) "dense ids" i (Dictionary.encode d (t i))
  done;
  Alcotest.(check int) "copy keeps its size" 100 (Dictionary.size c);
  Alcotest.(check (option int)) "source's new term unseen by the copy" None
    (Dictionary.find c (t 100));
  let x = Term.literal "copy-only" in
  Alcotest.(check int) "copy allocates its own next id" 100 (Dictionary.encode c x);
  Alcotest.check term "source keeps its id 100" (t 100) (Dictionary.decode d 100);
  Alcotest.check term "copy decodes its id 100" x (Dictionary.decode c 100);
  Alcotest.(check (option int)) "copy's term unseen by the source" None
    (Dictionary.find d x);
  let cc = Dictionary.copy c in
  ignore (Dictionary.encode c (Term.literal "later"));
  Alcotest.(check int) "copy of a copy" 101 (Dictionary.size cc);
  Alcotest.check term "copy of a copy decodes the tail" x (Dictionary.decode cc 100);
  for i = 0 to 99 do
    Alcotest.(check (option int)) "shared generation intact" (Some i)
      (Dictionary.find cc (t i))
  done;
  let ids = ref [] in
  Dictionary.iter (fun id _ -> ids := id :: !ids) d;
  Alcotest.(check (list int)) "iter covers generation and tail"
    (List.init 500 Fun.id) (List.rev !ids)

(* Words allocated by [f ()]. *)
let allocated f =
  let before = Gc.allocated_bytes () in
  let r = f () in
  let after = Gc.allocated_bytes () in
  (r, int_of_float ((after -. before) /. float_of_int (Sys.word_size / 8)))

(* A frozen store of [n] triples over five predicates. *)
let store_of_size n =
  let st = Store.create () in
  let id t = Store.encode_term st t in
  let preds = Array.init 5 (fun i -> id (Fixtures.uri (Printf.sprintf "p%d" i))) in
  for i = 0 to n - 1 do
    Store.add_ids st
      (id (Fixtures.uri (Printf.sprintf "s%d" (i / 5))))
      preds.(i mod 5)
      (id (Fixtures.uri (Printf.sprintf "o%d" (i mod 97))))
  done;
  Store.freeze st;
  st

let test_copy_constant () =
  let small = store_of_size 1_000 and large = store_of_size 100_000 in
  let copy_words st = snd (allocated (fun () -> Store.copy st)) in
  let dict_words st =
    snd (allocated (fun () -> Dictionary.copy (Store.dictionary st)))
  in
  (* The first copy marks the generation shared; measure the second. *)
  ignore (Store.copy small);
  ignore (Store.copy large);
  Alcotest.(check int) "Store.copy: same words at 1k and 100k triples"
    (copy_words small) (copy_words large);
  Alcotest.(check int) "Dictionary.copy (empty tail): same words"
    (dict_words small) (dict_words large);
  Alcotest.(check int) "copy holds every triple" 100_000
    (Store.size (Store.copy large))

(* Random interleavings of mutation batches, freezes, copies, seals and
   unseals over a source, its copies and copies of copies, each store
   checked after every step against its own model: the live key set
   and the epoch pair. *)
type cop =
  | Mutate of (int * [ `Add | `Remove | `Readd ] * (int * int * int)) list
  | Freeze_at of int
  | Copy_of of int
  | Seal_at of int
  | Unseal_at of int

let max_stores = 5

let gen_cops =
  let open QCheck2.Gen in
  let key =
    triple (int_bound 3) (int_bound (Array.length preds - 1)) (int_bound 4)
  in
  let mutation =
    triple (int_bound (max_stores - 1))
      (frequency [ (5, pure `Add); (3, pure `Remove); (2, pure `Readd) ])
      key
  in
  list_size (int_bound 40)
    (frequency
       [
         (6, map (fun ms -> Mutate ms) (list_size (int_range 1 6) mutation));
         (1, map (fun i -> Freeze_at i) (int_bound (max_stores - 1)));
         (2, map (fun i -> Copy_of i) (int_bound (max_stores - 1)));
         (1, map (fun i -> Seal_at i) (int_bound (max_stores - 1)));
         (1, map (fun i -> Unseal_at i) (int_bound (max_stores - 1)));
       ])

let print_cops cops =
  let k (s, p, o) = Printf.sprintf "(%d,%d,%d)" s p o in
  String.concat "; "
    (List.map
       (function
         | Mutate ms ->
           "mutate["
           ^ String.concat ","
               (List.map
                  (fun (i, op, key) ->
                    Printf.sprintf "%d:%s%s" i
                      (match op with `Add -> "+" | `Remove -> "-" | `Readd -> "-+")
                      (k key))
                  ms)
           ^ "]"
         | Freeze_at i -> Printf.sprintf "freeze %d" i
         | Copy_of i -> Printf.sprintf "copy %d" i
         | Seal_at i -> Printf.sprintf "seal %d" i
         | Unseal_at i -> Printf.sprintf "unseal %d" i)
       cops)

type copy_model = {
  m_live : (int * int * int, unit) Hashtbl.t;
  mutable m_data : int;
  mutable m_schema : int;
  mutable m_sealed : bool;
}

let check_against st cm ~universe =
  let ok = ref true in
  let expect b = if not b then ok := false in
  expect (Store.sealed st = cm.m_sealed);
  expect (Store.size st = Hashtbl.length cm.m_live);
  expect (Store.data_epoch st = cm.m_data);
  expect (Store.schema_epoch st = cm.m_schema);
  List.iter
    (fun (s, p, o) -> expect (Store.mem_ids st s p o = Hashtbl.mem cm.m_live (s, p, o)))
    universe;
  let decoded (s, p, o) =
    Triple.make (Store.decode_id st s) (Store.decode_id st p) (Store.decode_id st o)
  in
  expect
    (Graph.equal (Store.to_graph st)
       (Hashtbl.fold (fun k () g -> Graph.add (decoded k) g) cm.m_live Graph.empty));
  (* All 8 binding shapes, bound to the fields of every live key and of
     one key that may be absent. *)
  let live = Hashtbl.fold (fun k () acc -> k :: acc) cm.m_live [] in
  List.iter
    (fun (s0, p0, o0) ->
      for mask = 0 to 7 do
        let pick bit v = if mask land bit <> 0 then Some v else None in
        let s = pick 1 s0 and p = pick 2 p0 and o = pick 4 o0 in
        let fits v = function None -> true | Some x -> x = v in
        let want =
          List.sort compare
            (List.filter (fun (a, b, c) -> fits a s && fits b p && fits c o) live)
        in
        let got = ref [] in
        Store.iter_pattern st ~s ~p ~o (fun a b c -> got := (a, b, c) :: !got);
        expect (List.sort compare !got = want);
        expect (Store.count_pattern st ~s ~p ~o = List.length want)
      done)
    (List.hd universe :: live);
  expect (check_stats st { vec = []; live = cm.m_live });
  !ok

let prop_copy_isolation =
  QCheck2.Test.make ~name:"copies stay isolated; each store = its model"
    ~count:200 ~print:print_cops gen_cops (fun cops ->
      let src = Store.create () in
      (* Every term is known before the first copy, so ids agree across
         the lineage and no mutation needs a sealed dictionary. *)
      let id t = Store.encode_term src t in
      let universe =
        List.concat_map
          (fun s ->
            List.concat_map
              (fun p -> List.init 5 (fun o -> (id (node s), id preds.(p), id (node o))))
              (List.init (Array.length preds) Fun.id))
          (List.init 4 Fun.id)
      in
      let key_ids (s, p, o) = (id (node s), id preds.(p), id (node o)) in
      let is_schema (_, p, _) = p >= 3 in
      let model0 =
        { m_live = Hashtbl.create 16; m_data = 0; m_schema = 0; m_sealed = false }
      in
      let stores = ref [| (src, model0) |] in
      let at i = !stores.(i mod Array.length !stores) in
      let bump cm k =
        if is_schema k then cm.m_schema <- cm.m_schema + 1
        else cm.m_data <- cm.m_data + 1
      in
      (* A mutation is effective iff it changes the live set; on a sealed
         store an effective one raises and changes nothing. *)
      let apply st cm key op =
        let (s, p, o) as ids = key_ids key in
        let effective =
          match op with
          | `Add -> not (Hashtbl.mem cm.m_live ids)
          | `Remove -> Hashtbl.mem cm.m_live ids
        in
        match
          (match op with
          | `Add -> Store.add_ids st s p o
          | `Remove -> Store.remove_ids st s p o)
        with
        | () ->
          if effective then begin
            (match op with
            | `Add -> Hashtbl.replace cm.m_live ids ()
            | `Remove -> Hashtbl.remove cm.m_live ids);
            bump cm key
          end;
          not cm.m_sealed || not effective
        | exception Invalid_argument _ -> cm.m_sealed && effective
      in
      List.for_all
        (fun cop ->
          let step_ok =
            match cop with
            | Mutate ms ->
              List.for_all
                (fun (i, op, key) ->
                  let st, cm = at i in
                  match op with
                  | (`Add | `Remove) as op -> apply st cm key op
                  | `Readd -> apply st cm key `Remove && apply st cm key `Add)
                ms
            | Freeze_at i ->
              Store.freeze (fst (at i));
              true
            | Copy_of i ->
              let st, cm = at i in
              let c = Store.copy st in
              if Array.length !stores < max_stores then
                stores :=
                  Array.append !stores
                    [|
                      ( c,
                        {
                          m_live = Hashtbl.copy cm.m_live;
                          m_data = cm.m_data;
                          m_schema = cm.m_schema;
                          m_sealed = false;
                        } );
                    |];
              true
            | Seal_at i ->
              let st, cm = at i in
              Store.seal st;
              cm.m_sealed <- true;
              true
            | Unseal_at i ->
              let st, cm = at i in
              Store.unseal st;
              cm.m_sealed <- false;
              true
          in
          step_ok
          && Array.for_all (fun (st, cm) -> check_against st cm ~universe) !stores)
        cops)

let () =
  Alcotest.run "storage"
    [
      ( "dictionary",
        [
          Alcotest.test_case "encode/decode" `Quick test_dictionary;
          Alcotest.test_case "decode names the invariant" `Quick
            test_decode_message;
          Alcotest.test_case "copies share a generation" `Quick
            test_dictionary_copies;
        ] );
      ( "store",
        [
          Alcotest.test_case "dedup" `Quick test_store_dedup;
          Alcotest.test_case "graph roundtrip" `Quick test_store_roundtrip;
          Alcotest.test_case "pattern counts" `Quick test_patterns;
          Alcotest.test_case "pattern iteration" `Quick test_pattern_iteration;
          Alcotest.test_case "incremental reindex" `Quick test_incremental_reindex;
          Alcotest.test_case "removal" `Quick test_remove;
          Alcotest.test_case "epochs" `Quick test_epochs;
          Alcotest.test_case "delta hook" `Quick test_delta_hook;
          Alcotest.test_case "restore epochs" `Quick test_restore_epochs;
          Alcotest.test_case "export/import indexes" `Quick
            test_export_import_indexes;
          Alcotest.test_case "save/load" `Quick test_save_load;
          Alcotest.test_case "load errors" `Quick test_load_errors;
          QCheck_alcotest.to_alcotest prop_save_load_roundtrip;
          QCheck_alcotest.to_alcotest prop_store_roundtrip;
          QCheck_alcotest.to_alcotest prop_count_matches_iter;
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 2026 |])
            prop_merged_freeze;
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 2026 |])
            prop_copy_isolation;
          Alcotest.test_case "copy cost independent of size" `Quick
            test_copy_constant;
        ] );
      ( "stats",
        [
          Alcotest.test_case "compute" `Quick test_stats;
          Alcotest.test_case "top-k distributions" `Quick test_stats_tops;
          Alcotest.test_case "maintained across write batches" `Quick
            test_stats_maintained;
        ] );
    ]
