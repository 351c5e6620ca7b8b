open Refq_rdf
open Refq_schema
open Refq_storage
module Obs = Refq_obs.Obs
module Int_vec = Refq_util.Int_vec

let c_derived = Obs.counter "saturate.derived"
let c_rounds = Obs.counter "saturate.rounds"

type info = {
  input_triples : int;
  output_triples : int;
  rounds : int;
  elapsed_s : float;
}

(* Id-level view of a closed schema: every rule premise becomes an integer
   table lookup, and every rule conclusion a reverse lookup (the tables
   deletion maintenance probes the base with). Built once per outer round
   or maintenance call; schemas are small. *)
type id_schema = {
  rdf_type : int;
  superclasses : (int, int list) Hashtbl.t;
  superproperties : (int, int list) Hashtbl.t;
  domains : (int, int list) Hashtbl.t;
  ranges : (int, int list) Hashtbl.t;
  subclasses : (int, int list) Hashtbl.t;
  subproperties : (int, int list) Hashtbl.t;
  domain_props : (int, int list) Hashtbl.t;  (** class -> properties with it as domain *)
  range_props : (int, int list) Hashtbl.t;
  derives_schema : bool;
      (** some property is a subproperty of an RDFS constraint predicate
          (non-standard graphs): instance triples then derive schema
          triples, and one [derive_one] per triple is no longer complete *)
  constrains_type : bool;
      (** [rdf:type] has a superproperty, a subproperty, a domain or a
          range (non-standard graphs): a derived type triple then has
          consequences of its own, so derivation must run to a fixpoint *)
}

let id_schema_of_closure dict closure =
  let encode = Dictionary.encode dict in
  let table pairs =
    let tbl = Hashtbl.create 64 in
    List.iter
      (fun (a, b) ->
        Hashtbl.replace tbl a (b :: Option.value ~default:[] (Hashtbl.find_opt tbl a)))
      pairs;
    tbl
  in
  let ids pairs = List.map (fun (a, b) -> (encode a, encode b)) pairs in
  let flip = List.map (fun (a, b) -> (b, a)) in
  let sc = ids (Closure.subclass_pairs closure)
  and sp = ids (Closure.subproperty_pairs closure)
  and dom = ids (Closure.domain_pairs closure)
  and rng = ids (Closure.range_pairs closure) in
  {
    rdf_type = encode Vocab.rdf_type;
    superclasses = table sc;
    superproperties = table sp;
    domains = table dom;
    ranges = table rng;
    subclasses = table (flip sc);
    subproperties = table (flip sp);
    domain_props = table (flip dom);
    range_props = table (flip rng);
    derives_schema =
      List.exists
        (fun (_, p) -> Vocab.is_schema_property p)
        (Closure.subproperty_pairs closure);
    constrains_type =
      (let is_type = Term.equal Vocab.rdf_type in
       List.exists
         (fun (a, b) -> is_type a || is_type b)
         (Closure.subproperty_pairs closure)
       || List.exists
            (fun (p, _) -> is_type p)
            (Closure.domain_pairs closure @ Closure.range_pairs closure));
  }

let find_all tbl k = Option.value ~default:[] (Hashtbl.find_opt tbl k)

(* Consequences of one triple under a *closed* schema: because every
   instance rule has a single instance premise and the schema relations
   are transitively closed (with domains/ranges propagated both along
   subproperties and up subclasses), one application per triple derives
   everything that triple entails — no fixpoint needed at the instance
   level, unless the schema constrains [rdf:type] itself
   ([constrains_type]): then a type triple also feeds rdfs7, rdfs2 and
   rdfs3, and the triples it derives need [derive_one] in turn. *)
let derive_one sch ~emit s p o =
  if p = sch.rdf_type then
    (* rdfs9 through the closed subclass relation *)
    List.iter (fun c -> emit s sch.rdf_type c) (find_all sch.superclasses o);
  if p <> sch.rdf_type || sch.constrains_type then begin
    (* rdfs7 through the closed subproperty relation *)
    List.iter (fun p' -> emit s p' o) (find_all sch.superproperties p);
    (* rdfs2 / rdfs3 through the closed domains and ranges *)
    List.iter (fun c -> emit s sch.rdf_type c) (find_all sch.domains p);
    List.iter (fun c -> emit o sch.rdf_type c) (find_all sch.ranges p)
  end

(* One saturation round: apply every instance rule to every triple of
   [src], writing into [dst] (which already contains [src]'s triples and
   the entailed schema triples).

   With a domain pool configured, the round fans out: the source triples
   are snapshotted into a flat array (workers never touch a store), split
   into contiguous in-order chunks, and each chunk derives into a private
   buffer; the coordinator then merges the buffers {e in chunk order}.
   [derive_one] is pure over the read-only [id_schema], and concatenating
   chunk-local emission orders in chunk order reproduces the sequential
   emission order exactly — so the resulting [dst] (content, dedup
   outcomes, epochs) is bit-identical for every chunk size and domain
   count. [?chunk] overrides the chunk size (the determinism tests sweep
   it); by default the round targets [Par.fanout] chunks. *)
let round ?chunk sch src dst =
  Obs.incr c_rounds;
  (* Under a schema constraining [rdf:type], a newly derived triple is
     derived from in turn: a worklist in the call stack, bounded by the
     finite saturation. *)
  let rec emit s p o =
    Obs.incr c_derived;
    if not sch.constrains_type then Store.add_ids dst s p o
    else if not (Store.mem_ids dst s p o) then begin
      Store.add_ids dst s p o;
      derive_one sch ~emit s p o
    end
  in
  match Refq_par.Par.get () with
  | None -> Store.iter_all src (fun s p o -> derive_one sch ~emit s p o)
  | Some pool ->
    let n = Store.size src in
    if n = 0 then ()
    else begin
      let arr = Array.make (3 * n) 0 in
      let k = ref 0 in
      Store.iter_all src (fun s p o ->
          arr.(!k) <- s;
          arr.(!k + 1) <- p;
          arr.(!k + 2) <- o;
          k := !k + 3);
      let csize =
        match chunk with
        | Some c -> max 1 c
        | None ->
          let f = Refq_par.Par.fanout pool in
          max 1 ((n + f - 1) / f)
      in
      let ranges = Refq_par.Par.split n ~into:((n + csize - 1) / csize) in
      let bufs =
        Refq_par.Par.map pool
          ~label:(fun i -> Printf.sprintf "saturate-chunk-%d" i)
          (fun (lo, hi) ->
            let buf = Int_vec.create ~capacity:256 () in
            let emit s p o =
              Int_vec.push buf s;
              Int_vec.push buf p;
              Int_vec.push buf o
            in
            for t = lo to hi - 1 do
              derive_one sch ~emit arr.(3 * t) arr.((3 * t) + 1)
                arr.((3 * t) + 2)
            done;
            buf)
          ranges
      in
      Array.iter
        (fun buf ->
          let len = Int_vec.length buf in
          let t = ref 0 in
          while !t < len do
            emit (Int_vec.get buf !t)
              (Int_vec.get buf (!t + 1))
              (Int_vec.get buf (!t + 2));
            t := !t + 3
          done)
        bufs
    end

(* The schema is the few triples under the four RDFS constraint
   predicates: read their POS ranges, never the instance data. *)
let schema_of_store st =
  List.fold_left
    (fun schema pred ->
      match Store.find_term st pred with
      | None -> schema
      | Some p ->
        let schema = ref schema in
        Store.iter_pattern st ~s:None ~p:(Some p) ~o:None (fun s _ o ->
            match
              Schema.constr_of_triple
                (Triple.make (Store.decode_id st s) pred (Store.decode_id st o))
            with
            | Some c -> schema := Schema.add c !schema
            | None -> ());
        !schema)
    Schema.empty
    Vocab.[ rdfs_subclassof; rdfs_subpropertyof; rdfs_domain; rdfs_range ]

let store_info ?chunk db =
  let t0 = Sys.time () in
  let dict = Store.dictionary db in
  let rec fixpoint src rounds =
    let closure = Closure.of_schema (schema_of_store src) in
    let dst = Store.create ~dictionary:dict () in
    Store.iter_all src (fun s p o -> Store.add_ids dst s p o);
    (* Entailed schema triples (rdfs5, rdfs11 and the ext rules). *)
    Graph.iter
      (fun t -> Store.add_triple dst t)
      (Closure.entailed_schema_graph closure);
    round ?chunk (id_schema_of_closure dict closure) src dst;
    (* Derived triples may themselves be schema triples (non-standard
       graphs): then the schema grew past the closure and we must
       iterate. Otherwise one more closed-schema round would add nothing:
       every rule consequence of a derived triple is already covered by
       the closed schema. *)
    if Schema.cardinal (schema_of_store dst) > Closure.size closure then
      fixpoint dst (rounds + 1)
    else (dst, rounds + 1)
  in
  let result, rounds = fixpoint db 0 in
  ( result,
    {
      input_triples = Store.size db;
      output_triples = Store.size result;
      rounds;
      elapsed_s = Sys.time () -. t0;
    } )

let store ?chunk db = fst (store_info ?chunk db)

(* ------------------------------------------------------------------ *)
(* Incremental maintenance                                             *)
(* ------------------------------------------------------------------ *)

let add_incremental ~closure sat additions =
  let sch = id_schema_of_closure (Store.dictionary sat) closure in
  if
    List.exists Triple.is_schema_triple additions
    || sch.derives_schema || sch.constrains_type
  then begin
    (* The closure changes: re-saturate. Saturation is monotone and
       idempotent, so saturating the (already saturated) store extended
       with the additions equals saturating the original graph extended
       with them. *)
    List.iter (Store.add_triple sat) additions;
    `Resaturated (store sat)
  end
  else begin
    let before = Store.size sat in
    List.iter
      (fun { Triple.s; p; o } ->
        let s = Store.encode_term sat s in
        let p = Store.encode_term sat p in
        let o = Store.encode_term sat o in
        Store.add_ids sat s p o;
        derive_one sch ~emit:(Store.add_ids sat) s p o)
      additions;
    `Incremental (Store.size sat - before)
  end

(* Whether [base] still entails [(s, p, o)] in one [derive_one] step: the
   rules run backwards through the reverse tables, one index probe per
   possible premise. A premise under [rdf:type] only feeds the subclass
   rule, exactly as in [derive_one]. *)
let supported sch base s p o =
  let mem = Store.mem_ids base in
  let any ~s ~p ~o = Store.count_pattern base ~s ~p ~o > 0 in
  let not_type p' = p' <> sch.rdf_type in
  mem s p o
  || List.exists
       (fun p' -> not_type p' && mem s p' o)
       (find_all sch.subproperties p)
  || p = sch.rdf_type
     && (List.exists (fun c -> mem s p c) (find_all sch.subclasses o)
        || List.exists
             (fun p' -> not_type p' && any ~s:(Some s) ~p:(Some p') ~o:None)
             (find_all sch.domain_props o)
        || List.exists
             (fun p' -> not_type p' && any ~s:None ~p:(Some p') ~o:(Some s))
             (find_all sch.range_props o))

(* DRed-style deletion maintenance, specialized to single-instance-premise
   rules: the over-deletion of a triple is exactly [derive_one] of it, and
   each candidate survives iff the remaining explicit triples still derive
   it in one step — checked by index probes, never a scan of the base. *)
let remove_incremental ~closure ~base sat deletions =
  let sch = id_schema_of_closure (Store.dictionary sat) closure in
  if
    List.exists Triple.is_schema_triple deletions
    || sch.derives_schema || sch.constrains_type
  then begin
    (* The closure shrinks (or instance triples feed it): derivations
       cannot be repaired locally. *)
    List.iter (Store.remove_triple base) deletions;
    List.iter (Store.remove_triple sat) deletions;
    `Resaturated (store base)
  end
  else begin
    let before = Store.size sat in
    (* Over-deletion candidates: the deleted triples and everything they
       (alone) entail. *)
    let candidates : (int * int * int, unit) Hashtbl.t = Hashtbl.create 64 in
    let mark s p o = Hashtbl.replace candidates (s, p, o) () in
    List.iter
      (fun t ->
        match
          ( Store.find_term sat t.Triple.s,
            Store.find_term sat t.Triple.p,
            Store.find_term sat t.Triple.o )
        with
        | Some s, Some p, Some o ->
          mark s p o;
          derive_one sch ~emit:mark s p o
        | _ -> ())
      deletions;
    (* Remove the explicit deletions from the base of record first. *)
    List.iter (Store.remove_triple base) deletions;
    Hashtbl.iter
      (fun (s, p, o) () ->
        if not (supported sch base s p o) then Store.remove_ids sat s p o)
      candidates;
    `Incremental (before - Store.size sat)
  end

let graph g =
  let st = Store.of_graph g in
  Store.to_graph (store st)

(* ------------------------------------------------------------------ *)
(* Reference implementation (term-level, brute force)                  *)
(* ------------------------------------------------------------------ *)

let graph_reference g =
  let derive g =
    Graph.fold
      (fun { Triple.s; p; o } acc ->
        let acc =
          if Term.equal p Vocab.rdf_type then
            (* rdfs9 *)
            Graph.fold
              (fun t acc ->
                if
                  Term.equal t.Triple.p Vocab.rdfs_subclassof
                  && Term.equal t.Triple.s o
                then Graph.add_triple acc s Vocab.rdf_type t.Triple.o
                else acc)
              g acc
          else acc
        in
        let acc =
          (* rdfs5 / rdfs11: transitivity of the two hierarchies *)
          if
            Term.equal p Vocab.rdfs_subclassof
            || Term.equal p Vocab.rdfs_subpropertyof
          then
            Graph.fold
              (fun t acc ->
                if Term.equal t.Triple.p p && Term.equal t.Triple.s o then
                  Graph.add_triple acc s p t.Triple.o
                else acc)
              g acc
          else acc
        in
        let acc =
          (* ext: domain/range inheritance along subproperties *)
          if Term.equal p Vocab.rdfs_subpropertyof then
            Graph.fold
              (fun t acc ->
                if
                  (Term.equal t.Triple.p Vocab.rdfs_domain
                  || Term.equal t.Triple.p Vocab.rdfs_range)
                  && Term.equal t.Triple.s o
                then Graph.add_triple acc s t.Triple.p t.Triple.o
                else acc)
              g acc
          else acc
        in
        let acc =
          (* ext: domain/range propagation along subclasses *)
          if Term.equal p Vocab.rdfs_domain || Term.equal p Vocab.rdfs_range
          then
            Graph.fold
              (fun t acc ->
                if
                  Term.equal t.Triple.p Vocab.rdfs_subclassof
                  && Term.equal t.Triple.s o
                then Graph.add_triple acc s p t.Triple.o
                else acc)
              g acc
          else acc
        in
        let acc =
          (* rdfs7: subproperty propagation on assertions *)
          Graph.fold
            (fun t acc ->
              if
                Term.equal t.Triple.p Vocab.rdfs_subpropertyof
                && Term.equal t.Triple.s p
              then Graph.add_triple acc s t.Triple.o o
              else acc)
            g acc
        in
        let acc =
          (* rdfs2 / rdfs3 *)
          Graph.fold
            (fun t acc ->
              if Term.equal t.Triple.s p then
                if Term.equal t.Triple.p Vocab.rdfs_domain then
                  Graph.add_triple acc s Vocab.rdf_type t.Triple.o
                else if Term.equal t.Triple.p Vocab.rdfs_range then
                  Graph.add_triple acc o Vocab.rdf_type t.Triple.o
                else acc
              else acc)
            g acc
        in
        acc)
      g g
  in
  let rec fixpoint g =
    let g' = derive g in
    if Graph.cardinal g' = Graph.cardinal g then g else fixpoint g'
  in
  fixpoint g
