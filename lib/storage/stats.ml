open Refq_rdf
module Imap = Map.Make (Int)

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
  props : prop_stat Imap.t;
      (** persistent: {!update} shares every untouched entry with the
          value it was derived from, which stays as it was *)
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

let n_runs c ~level ~lo ~hi =
  let n = ref 0 in
  runs c ~level ~lo ~hi (fun _ _ -> incr n);
  !n

(* Every figure is a number of runs, or a run length, in one of the
   three sorted permutations: nothing is hashed per triple, and the
   result depends on the triple set alone. *)
let compute store =
  let spo = Store.cursor store Store.O_spo in
  let pos = Store.cursor store Store.O_pos in
  let osp = Store.cursor store Store.O_osp in
  let n = Store.cursor_length spo in
  let key c k level = Store.cursor_key c ~pos:k ~level in
  (* POS: per property, its triples and distinct objects. *)
  let per_prop = ref [] in
  runs pos ~level:0 ~lo:0 ~hi:n (fun lo hi ->
      per_prop :=
        (key pos lo 0, hi - lo, n_runs pos ~level:1 ~lo ~hi) :: !per_prop);
  (* SPO: distinct subjects, and per property its distinct subjects —
     one per (s, p) run. POS lists properties ascending, so the head of
     [per_prop] holds the largest id. *)
  let distinct_s =
    Array.make (match !per_prop with (p, _, _) :: _ -> p + 1 | [] -> 0) 0
  in
  let n_subjects = ref 0 in
  runs spo ~level:0 ~lo:0 ~hi:n (fun lo hi ->
      incr n_subjects;
      runs spo ~level:1 ~lo ~hi (fun lo _ ->
          let p = key spo lo 1 in
          distinct_s.(p) <- distinct_s.(p) + 1));
  let props =
    List.fold_left
      (fun props (p, count, distinct_o) ->
        Imap.add p { count; distinct_s = distinct_s.(p); distinct_o } props)
      Imap.empty !per_prop
  in
  {
    n_triples = n;
    n_distinct_subjects = !n_subjects;
    n_distinct_properties = Imap.cardinal props;
    n_distinct_objects = n_runs osp ~level:0 ~lo:0 ~hi:n;
    props;
  }

(* The rule, per projection key [k] of the net delta — (s, p), (p, o),
   (s), (o) and (p): [k] gained [n] triples net, so it held [after - n]
   before, where [after] is one index probe now; the matching distinct
   count moves by [[after > 0] - [before > 0]]. Grouping by key first
   matters: two added triples sharing (s, p) each leave a count of 2,
   and probing per triple would see the pair as already present. *)
let probe_delta st store deltas =
  let bump tbl k n =
    Hashtbl.replace tbl k (n + Option.value ~default:0 (Hashtbl.find_opt tbl k))
  in
  (* Net delta: effective mutations of one key alternate, so the sum of
     +1 per add and -1 per remove is 1, -1 or 0 (cancelled). *)
  let net = Hashtbl.create 16 in
  List.iter
    (fun { Store.op; s; p; o } ->
      bump net (s, p, o) (match op with `Add -> 1 | `Remove -> -1))
    deltas;
  let sp = Hashtbl.create 16 and po = Hashtbl.create 16 in
  let subj = Hashtbl.create 16 and obj = Hashtbl.create 16 in
  let prop = Hashtbl.create 8 in
  let n_net = ref 0 in
  Hashtbl.iter
    (fun (s, p, o) n ->
      if n <> 0 then begin
        n_net := !n_net + n;
        bump sp (s, p) n;
        bump po (p, o) n;
        bump subj s n;
        bump obj o n;
        bump prop p n
      end)
    net;
  let count ?s ?p ?o () = Store.count_pattern store ~s ~p ~o in
  let moved n after =
    if n = 0 then 0 else Bool.to_int (after > 0) - Bool.to_int (after - n > 0)
  in
  let distinct tbl probe =
    Hashtbl.fold (fun k n acc -> acc + moved n (probe k)) tbl 0
  in
  let ds = Hashtbl.create 8 and dobj = Hashtbl.create 8 in
  Hashtbl.iter (fun (s, p) n -> bump ds p (moved n (count ~s ~p ()))) sp;
  Hashtbl.iter (fun (p, o) n -> bump dobj p (moved n (count ~p ~o ()))) po;
  let get tbl p = Option.value ~default:0 (Hashtbl.find_opt tbl p) in
  let props, moved_props =
    Hashtbl.fold
      (fun p n (props, moved_props) ->
        let after = count ~p () in
        let moved_props = moved_props + moved n after in
        if after = 0 then (Imap.remove p props, moved_props)
        else
          let prev =
            Option.value (Imap.find_opt p props)
              ~default:{ count = 0; distinct_s = 0; distinct_o = 0 }
          in
          ( Imap.add p
              {
                count = after;
                distinct_s = prev.distinct_s + get ds p;
                distinct_o = prev.distinct_o + get dobj p;
              }
              props,
            moved_props ))
      prop (st.props, 0)
  in
  {
    n_triples = st.n_triples + !n_net;
    n_distinct_subjects =
      st.n_distinct_subjects + distinct subj (fun s -> count ~s ());
    n_distinct_properties = st.n_distinct_properties + moved_props;
    n_distinct_objects =
      st.n_distinct_objects + distinct obj (fun o -> count ~o ());
    props;
  }

(* Probing costs 4-7 µs per delta triple (the hashing and five binary
   searches), a recount about 0.1 µs per stored triple (LUBM-10 and
   LUBM-50 on a 2-core VM): past one delta triple per [recount_ratio]
   stored ones, the recount is the cheaper path. *)
let recount_ratio = 64

let update st store deltas =
  if List.length deltas * recount_ratio > Store.size store then compute store
  else probe_delta st store deltas

let n_triples st = st.n_triples
let n_distinct_subjects st = st.n_distinct_subjects
let n_distinct_properties st = st.n_distinct_properties
let n_distinct_objects st = st.n_distinct_objects

let prop_stat st p = Imap.find_opt p st.props

(* Most frequent first; ties by ascending key, so the order is a
   function of the triple set alone. *)
let top items ~k =
  List.sort (fun (k1, n1) (k2, n2) ->
      match Int.compare n2 n1 with 0 -> compare k1 k2 | c -> c)
    items
  |> List.filteri (fun i _ -> i < k)

let top_properties st ~k =
  top (Imap.fold (fun p ps acc -> (p, ps.count) :: acc) st.props []) ~k

(* [(key, run length)] for every run of [level] keys in lo..hi-1. *)
let run_lengths c ~level ~lo ~hi key =
  let acc = ref [] in
  runs c ~level ~lo ~hi (fun lo hi -> acc := (key lo, hi - lo) :: !acc);
  !acc

let top_level0 store order ~k =
  let c = Store.cursor store order in
  top ~k
    (run_lengths c ~level:0 ~lo:0 ~hi:(Store.cursor_length c) (fun pos ->
         Store.cursor_key c ~pos ~level:0))

let top_subjects store ~k = top_level0 store Store.O_spo ~k

let top_objects store ~k = top_level0 store Store.O_osp ~k

let top_po_pairs store ~k =
  let c = Store.cursor store Store.O_pos in
  let key pos level = Store.cursor_key c ~pos ~level in
  let pairs = ref [] in
  runs c ~level:0 ~lo:0 ~hi:(Store.cursor_length c) (fun lo hi ->
      pairs :=
        List.rev_append
          (run_lengths c ~level:1 ~lo ~hi (fun pos -> (key pos 0, key pos 1)))
          !pairs);
  top !pairs ~k

(* The [rdf:type] range of POS, one run per class. *)
let top_classes store ~k =
  match Store.find_term store Vocab.rdf_type with
  | None -> []
  | Some t ->
    let c = Store.cursor store Store.O_pos in
    let n = Store.cursor_length c in
    let lo = Store.cursor_seek c ~level:0 ~strict:false ~lo:0 ~hi:n t in
    let hi = Store.cursor_seek c ~level:0 ~strict:true ~lo ~hi:n t in
    top ~k
      (run_lengths c ~level:1 ~lo ~hi (fun pos ->
           Store.cursor_key c ~pos ~level:1))

let pp ppf store =
  let st = compute store in
  let term id = Store.decode_id store id in
  let section title rows pp_key =
    Fmt.pf ppf "@,%s:@," title;
    List.iter (fun (key, n) -> Fmt.pf ppf "  %8d  %a@," n pp_key key) rows
  in
  let pp_id ppf id = Term.pp ppf (term id) in
  Fmt.pf ppf "@[<v>triples: %d@,distinct subjects: %d@,distinct properties: %d@,distinct objects: %d@,"
    st.n_triples st.n_distinct_subjects st.n_distinct_properties
    st.n_distinct_objects;
  section "top properties" (top_properties st ~k:10) pp_id;
  section "top classes" (top_classes store ~k:10) pp_id;
  section "top subjects" (top_subjects store ~k:10) pp_id;
  section "top objects" (top_objects store ~k:10) pp_id;
  section "top (property, object) pairs" (top_po_pairs store ~k:10)
    (fun ppf (p, o) -> Fmt.pf ppf "%a %a" pp_id p pp_id o);
  Fmt.pf ppf "@]"
