open Refq_rdf
module Int_vec = Refq_util.Int_vec

type prop_stat = {
  count : int;
  distinct_s : int;
  distinct_o : int;
}

type t = {
  n_triples : int;
  n_distinct_subjects : int;
  n_distinct_properties : int;
  n_distinct_objects : int;
  props : (int, prop_stat) Hashtbl.t;
  classes : (int, int) Hashtbl.t;
  subj_runs : Int_vec.t;  (** stride 2: subject, its triples, by subject *)
  obj_runs : Int_vec.t;  (** stride 2: object, its triples, by object *)
  po_runs : Int_vec.t;  (** stride 3: property, object, their triples *)
}

(* [runs c ~level ~lo ~hi f] calls [f start stop] for every maximal run
   of positions lo..hi-1 sharing their [level] key. Sound when the
   keys of the levels below are constant over the range — the trie
   invariant, so nested calls walk one level deeper. *)
let runs c ~level ~lo ~hi f =
  if lo < hi then begin
    let start = ref lo and cur = ref (Store.cursor_key c ~pos:lo ~level) in
    for k = lo + 1 to hi - 1 do
      let v = Store.cursor_key c ~pos:k ~level in
      if v <> !cur then begin
        f !start k;
        start := k;
        cur := v
      end
    done;
    f !start hi
  end

(* Every figure is a number of runs, or a run length, in one of the
   three sorted permutations: nothing is hashed per triple, and the
   result depends on the triple set alone. *)
let compute store =
  let rdf_type = Store.find_term store Vocab.rdf_type in
  let spo = Store.cursor store Store.O_spo in
  let pos = Store.cursor store Store.O_pos in
  let osp = Store.cursor store Store.O_osp in
  let n = Store.cursor_length spo in
  let key c k level = Store.cursor_key c ~pos:k ~level in
  (* POS: per property, its triples and distinct objects; per (p, o)
     pair, its triples — the class counts when p is rdf:type. *)
  let per_prop = ref [] in
  let classes = Hashtbl.create 64 in
  let po_runs = Int_vec.create ~capacity:1024 () in
  runs pos ~level:0 ~lo:0 ~hi:n (fun lo hi ->
      let p = key pos lo 0 in
      let distinct_o = ref 0 in
      let is_type = match rdf_type with Some t -> t = p | None -> false in
      runs pos ~level:1 ~lo ~hi (fun lo hi ->
          let o = key pos lo 1 in
          incr distinct_o;
          Int_vec.push po_runs p;
          Int_vec.push po_runs o;
          Int_vec.push po_runs (hi - lo);
          if is_type then Hashtbl.replace classes o (hi - lo));
      per_prop := (p, hi - lo, !distinct_o) :: !per_prop);
  (* SPO: distinct subjects, and per property its distinct subjects —
     one per (s, p) run. POS lists properties ascending, so the head of
     [per_prop] holds the largest id. *)
  let distinct_s =
    Array.make (match !per_prop with (p, _, _) :: _ -> p + 1 | [] -> 0) 0
  in
  let subj_runs = Int_vec.create ~capacity:1024 () in
  runs spo ~level:0 ~lo:0 ~hi:n (fun lo hi ->
      Int_vec.push subj_runs (key spo lo 0);
      Int_vec.push subj_runs (hi - lo);
      runs spo ~level:1 ~lo ~hi (fun lo _ ->
          let p = key spo lo 1 in
          distinct_s.(p) <- distinct_s.(p) + 1));
  (* OSP: distinct objects. *)
  let obj_runs = Int_vec.create ~capacity:1024 () in
  runs osp ~level:0 ~lo:0 ~hi:n (fun lo hi ->
      Int_vec.push obj_runs (key osp lo 0);
      Int_vec.push obj_runs (hi - lo));
  let props = Hashtbl.create (List.length !per_prop) in
  List.iter
    (fun (p, count, distinct_o) ->
      Hashtbl.replace props p
        { count; distinct_s = distinct_s.(p); distinct_o })
    !per_prop;
  {
    n_triples = n;
    n_distinct_subjects = Int_vec.length subj_runs / 2;
    n_distinct_properties = Hashtbl.length props;
    n_distinct_objects = Int_vec.length obj_runs / 2;
    props;
    classes;
    subj_runs;
    obj_runs;
    po_runs;
  }

let n_triples st = st.n_triples
let n_distinct_subjects st = st.n_distinct_subjects
let n_distinct_properties st = st.n_distinct_properties
let n_distinct_objects st = st.n_distinct_objects

let prop_stat st p = Hashtbl.find_opt st.props p

let class_count st c = Option.value ~default:0 (Hashtbl.find_opt st.classes c)

(* Most frequent first; ties by ascending key, so the order is a
   function of the statistics alone. *)
let top items ~k =
  List.sort (fun (k1, n1) (k2, n2) ->
      match Int.compare n2 n1 with 0 -> compare k1 k2 | c -> c)
    items
  |> List.filteri (fun i _ -> i < k)

let of_runs v ~stride key =
  List.init (Int_vec.length v / stride) (fun i ->
      (key (stride * i), Int_vec.get v ((stride * i) + stride - 1)))

let top_properties st ~k =
  top (Hashtbl.fold (fun p ps acc -> (p, ps.count) :: acc) st.props []) ~k

let top_classes st ~k =
  top (Hashtbl.fold (fun c n acc -> (c, n) :: acc) st.classes []) ~k

let top_subjects st ~k =
  top (of_runs st.subj_runs ~stride:2 (Int_vec.get st.subj_runs)) ~k

let top_objects st ~k =
  top (of_runs st.obj_runs ~stride:2 (Int_vec.get st.obj_runs)) ~k

let top_po_pairs st ~k =
  top
    (of_runs st.po_runs ~stride:3 (fun i ->
         (Int_vec.get st.po_runs i, Int_vec.get st.po_runs (i + 1))))
    ~k

let pp dict ppf st =
  let term id = Dictionary.decode dict id in
  Fmt.pf ppf "@[<v>triples: %d@,distinct subjects: %d@,distinct properties: %d@,distinct objects: %d@,"
    st.n_triples st.n_distinct_subjects st.n_distinct_properties
    st.n_distinct_objects;
  Fmt.pf ppf "@,top properties:@,";
  List.iter
    (fun (p, n) -> Fmt.pf ppf "  %8d  %a@," n Term.pp (term p))
    (top_properties st ~k:10);
  Fmt.pf ppf "@,top classes:@,";
  List.iter
    (fun (c, n) -> Fmt.pf ppf "  %8d  %a@," n Term.pp (term c))
    (top_classes st ~k:10);
  Fmt.pf ppf "@]"
