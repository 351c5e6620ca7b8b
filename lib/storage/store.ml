open Refq_rdf
module Int_vec = Refq_util.Int_vec

type t = {
  uid : int;  (** process-unique store identity, for the concurrency trace *)
  dict : Dictionary.t;
  mutable triples : Int_vec.t;
      (** stride 3: s, p, o. Copy-on-write: while [triples_shared], the
          vector is also another store's, and the first mutation of
          either store replaces its own reference with a private copy. *)
  mutable triples_shared : bool;
  mutable size : int;  (** live triples *)
  appended : (int * int * int, unit) Hashtbl.t;
      (** live keys appended past [frozen] since the last [freeze] *)
  removed : (int * int * int, unit) Hashtbl.t;
      (** keys removed since the last [freeze]; a key also in [appended]
          was re-added since *)
  mutable spo : int array;  (** permutations over triple indices *)
  mutable pos : int array;
  mutable osp : int array;
  mutable frozen : int;
      (** triples the permutations cover: the vector prefix indexed by
          the last [freeze]; entries past it are the appended delta *)
  mutable data_epoch : int;
  mutable schema_epoch : int;
  mutable hook : (delta -> unit) option;
  schema_preds : (int, bool) Hashtbl.t;
      (** predicate id -> is RDFS constraint predicate. Ids never change
          meaning, so entries are valid forever. *)
  mutable sealed : bool;
      (** parallel read region open: every mutator raises (coordinator
          forgot to pre-encode / merge on its own domain). *)
}

and delta = { op : [ `Add | `Remove ]; s : int; p : int; o : int }

(* ------------------------------------------------------------------ *)
(* Concurrency trace hook                                              *)
(* ------------------------------------------------------------------ *)

type trace_event =
  | T_mutate  (** effective add/remove, observed post-epoch-bump *)
  | T_epoch_set  (** [restore_epochs] *)
  | T_seal
  | T_unseal
  | T_copy of t  (** carries the fresh copy; the receiver is the source *)
  | T_read  (** [iter_pattern] / [count_pattern] entry *)

(* One process-global observer (the concurrency trace sink). An [Atomic]
   so worker domains read it without a data race; [None] costs one load
   per probe on the read hot paths. *)
let trace_hook : (t -> trace_event -> unit) option Atomic.t = Atomic.make None

let set_trace_hook h = Atomic.set trace_hook h

let trace st ev =
  match Atomic.get trace_hook with None -> () | Some f -> f st ev

let uids = Atomic.make 0

let uid st = st.uid

let create ?dictionary () =
  let dict = match dictionary with Some d -> d | None -> Dictionary.create () in
  {
    uid = Atomic.fetch_and_add uids 1;
    dict;
    triples = Int_vec.create ~capacity:4096 ();
    triples_shared = false;
    size = 0;
    appended = Hashtbl.create 4096;
    removed = Hashtbl.create 16;
    spo = [||];
    pos = [||];
    osp = [||];
    frozen = 0;
    data_epoch = 0;
    schema_epoch = 0;
    hook = None;
    schema_preds = Hashtbl.create 16;
    sealed = false;
  }

let sealed st = st.sealed

let sealed_fail what =
  invalid_arg
    ("Store." ^ what
   ^ ": store is sealed (parallel read region); mutation is \
      coordinator-only")

let dictionary st = st.dict

(* Removals only record the key; the triple vector keeps stale entries
   until the next [freeze] compacts it, so [size] is counted apart. *)
let size st = st.size

let s_of st i = Int_vec.get st.triples (3 * i)
let p_of st i = Int_vec.get st.triples ((3 * i) + 1)
let o_of st i = Int_vec.get st.triples ((3 * i) + 2)

let data_epoch st = st.data_epoch

let schema_epoch st = st.schema_epoch

(* A triple is schema-level when its predicate is one of the four RDFS
   constraint predicates — the ones [Refq_schema.Schema.constr_of_triple]
   turns into constraints. Everything else (including [rdf:type]) only
   affects instance data. *)
let is_schema_pred st p =
  match Hashtbl.find_opt st.schema_preds p with
  | Some b -> b
  | None -> (
    (* Only memoize ids the dictionary can decode: an out-of-range id
       could later be allocated to a constraint predicate. *)
    match Dictionary.decode st.dict p with
    | t ->
      let b =
        Term.equal t Vocab.rdfs_subclassof
        || Term.equal t Vocab.rdfs_subpropertyof
        || Term.equal t Vocab.rdfs_domain
        || Term.equal t Vocab.rdfs_range
      in
      Hashtbl.add st.schema_preds p b;
      b
    | exception _ -> false)

let bump_epoch st p =
  if is_schema_pred st p then st.schema_epoch <- st.schema_epoch + 1
  else st.data_epoch <- st.data_epoch + 1

let set_delta_hook st hook = st.hook <- hook

let restore_epochs st ~data ~schema =
  if st.sealed then sealed_fail "restore_epochs";
  if data < 0 || schema < 0 then
    invalid_arg
      (Printf.sprintf "Store.restore_epochs: negative epoch (data=%d schema=%d)"
         data schema);
  st.data_epoch <- data;
  st.schema_epoch <- schema;
  trace st T_epoch_set

(* The hook fires after the epoch bump, so it observes the post-mutation
   epochs — exactly what a WAL record must carry. *)
let notify st op s p o =
  match st.hook with None -> () | Some f -> f { op; s; p; o }

(* Make the triple vector this store's own before writing into it. *)
let own_triples st =
  if st.triples_shared then begin
    st.triples <- Int_vec.copy st.triples;
    st.triples_shared <- false
  end

(* Position of triple (s, p, o) in the SPO permutation of the frozen
   prefix, if indexed there. *)
let spo_position st s p o =
  let spo = st.spo in
  let lo = ref 0 and hi = ref (Array.length spo) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let i = spo.(mid) in
    let c = Int.compare (s_of st i) s in
    let c = if c <> 0 then c else Int.compare (p_of st i) p in
    let c = if c <> 0 then c else Int.compare (o_of st i) o in
    if c >= 0 then hi := mid else lo := mid + 1
  done;
  let k = !lo in
  if
    k < Array.length spo
    && s_of st spo.(k) = s
    && p_of st spo.(k) = p
    && o_of st spo.(k) = o
  then Some k
  else None

(* A key appended since the last freeze is live; otherwise one removed
   since is dead; otherwise the frozen prefix decides. *)
let mem_ids st s p o =
  let key = (s, p, o) in
  (Hashtbl.length st.appended > 0 && Hashtbl.mem st.appended key)
  || (Hashtbl.length st.removed = 0 || not (Hashtbl.mem st.removed key))
     && Option.is_some (spo_position st s p o)

let add_ids st s p o =
  if not (mem_ids st s p o) then begin
    if st.sealed then sealed_fail "add_ids";
    Hashtbl.add st.appended (s, p, o) ();
    st.size <- st.size + 1;
    own_triples st;
    Int_vec.push st.triples s;
    Int_vec.push st.triples p;
    Int_vec.push st.triples o;
    bump_epoch st p;
    notify st `Add s p o;
    trace st T_mutate
  end

(* Encoding a term the dictionary already knows is a pure lookup and
   stays legal while sealed; only a fresh allocation is a mutation. *)
let encode_term st t =
  match Dictionary.find st.dict t with
  | Some id -> id
  | None ->
    if st.sealed then sealed_fail "encode_term";
    Dictionary.encode st.dict t
let find_term st t = Dictionary.find st.dict t
let decode_id st id = Dictionary.decode st.dict id

let add st s p o =
  add_ids st (encode_term st s) (encode_term st p) (encode_term st o)

let add_triple st { Triple.s; p; o } = add st s p o

let add_graph st g = Graph.iter (add_triple st) g

let of_graph g =
  let st = create () in
  add_graph st g;
  st

(* The vector may hold stale or repeated entries between a removal and
   the next compaction; with nothing removed since, every entry is live
   and distinct. *)
let to_graph st =
  let all = Hashtbl.length st.removed = 0 in
  let g = ref Graph.empty in
  for i = 0 to (Int_vec.length st.triples / 3) - 1 do
    let s = s_of st i and p = p_of st i and o = o_of st i in
    if all || mem_ids st s p o then
      g :=
        Graph.add
          (Triple.make (decode_id st s) (decode_id st p) (decode_id st o))
          !g
  done;
  !g

let remove_ids st s p o =
  if mem_ids st s p o then begin
    if st.sealed then sealed_fail "remove_ids";
    let key = (s, p, o) in
    Hashtbl.remove st.appended key;
    Hashtbl.replace st.removed key ();
    st.size <- st.size - 1;
    bump_epoch st p;
    notify st `Remove s p o;
    trace st T_mutate
  end

let remove_triple st { Triple.s; p; o } =
  match
    (Dictionary.find st.dict s, Dictionary.find st.dict p, Dictionary.find st.dict o)
  with
  | Some s, Some p, Some o -> remove_ids st s p o
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Index construction and range search                                 *)
(* ------------------------------------------------------------------ *)

(* Key extractors per index order: for each permutation entry (a triple
   index), [key1;key2;key3] are the triple fields in index order. *)
let field st i j = Int_vec.get st.triples ((3 * i) + j)
let key_spo st i k = field st i (match k with 0 -> 0 | 1 -> 1 | _ -> 2)
let key_pos st i k = field st i (match k with 0 -> 1 | 1 -> 2 | _ -> 0)
let key_osp st i k = field st i (match k with 0 -> 2 | 1 -> 0 | _ -> 1)

let compare_entries st key i j =
  let c = Int.compare (key st i 0) (key st j 0) in
  if c <> 0 then c
  else
    let c = Int.compare (key st i 1) (key st j 1) in
    if c <> 0 then c else Int.compare (key st i 2) (key st j 2)

(* Binary search on a permutation w.r.t. a (k1, k2, k3) virtual key;
   [min_int]/[max_int] stand for unbound key components. [strict] selects
   the first entry strictly greater than the key (upper bound) instead of
   the first entry greater or equal (lower bound). *)
let search_bound st key perm ~strict (k1, k2, k3) =
  let above i =
    let c = Int.compare (key st i 0) k1 in
    if c <> 0 then c > 0
    else
      let c = Int.compare (key st i 1) k2 in
      if c <> 0 then c > 0
      else
        let c = Int.compare (key st i 2) k3 in
        if strict then c > 0 else c >= 0
  in
  let lo = ref 0 and hi = ref (Array.length perm) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if above perm.(mid) then hi := mid else lo := mid + 1
  done;
  !lo

let range st key perm ~b1 ~b2 ~b3 =
  let def v d = match v with Some x -> x | None -> d in
  let lo =
    search_bound st key perm ~strict:false
      (def b1 min_int, def b2 min_int, def b3 min_int)
  in
  let hi =
    search_bound st key perm ~strict:true
      (def b1 max_int, def b2 max_int, def b3 max_int)
  in
  (lo, hi)

let dirty st =
  Int_vec.length st.triples > 3 * st.frozen || Hashtbl.length st.removed > 0

(* Drop the vector entries whose triple is no longer (or no longer
   uniquely) live, keeping the first surviving occurrence of each triple
   in vector order, and renumber the indexed prefix's permutations to
   match. Only a key removed since the last freeze can be dead or
   duplicated — [add_ids] never appends a live key — so the work is a
   table of the removed keys, a binary search per key on the SPO
   permutation and one in-place pass over the vector. *)
let compact st =
  let nr = Hashtbl.length st.removed in
  if nr > 0 then begin
    own_triples st;
    (* Per removed key: [`Open] while live with no entry kept yet,
       [`Kept] once one is, [`Dead] if no longer live. An entry is kept
       only in the [`Open] state. *)
    let state = Hashtbl.create nr in
    Hashtbl.iter
      (fun ((s, p, o) as key) () ->
        Hashtbl.replace state key (if mem_ids st s p o then `Open else `Dead))
      st.removed;
    let dead = ref [] in
    Hashtbl.filter_map_inplace
      (fun (s, p, o) v ->
        match spo_position st s p o with
        | None -> Some v
        | Some k ->
          if v = `Dead then dead := st.spo.(k) :: !dead;
          Some (if v = `Open then `Kept else v))
      state;
    let dead = Array.of_list !dead in
    Array.sort Int.compare dead;
    (* Entries before the first dead one, or before the delta, stay put. *)
    let first = if Array.length dead > 0 then dead.(0) else st.frozen in
    let n = Int_vec.length st.triples / 3 in
    let w = ref first and next_dead = ref 0 in
    for i = first to n - 1 do
      let s = s_of st i and p = p_of st i and o = o_of st i in
      let keep =
        if i < st.frozen then
          if !next_dead < Array.length dead && dead.(!next_dead) = i then begin
            incr next_dead;
            false
          end
          else true
        else
          match Hashtbl.find_opt state (s, p, o) with
          | None -> true
          | Some `Open ->
            Hashtbl.replace state (s, p, o) `Kept;
            true
          | Some (`Kept | `Dead) -> false
      in
      if keep then begin
        if !w <> i then begin
          Int_vec.set st.triples (3 * !w) s;
          Int_vec.set st.triples ((3 * !w) + 1) p;
          Int_vec.set st.triples ((3 * !w) + 2) o
        end;
        incr w
      end
    done;
    Int_vec.truncate st.triples (3 * !w);
    Hashtbl.reset st.removed;
    let nd = Array.length dead in
    if nd > 0 then begin
      (* Index [i] of a surviving prefix entry moves down by the number
         of dead entries before it. *)
      let renumber perm =
        let out = Array.make (Array.length perm - nd) 0 in
        let w = ref 0 in
        Array.iter
          (fun i ->
            if i < first then begin
              out.(!w) <- i;
              incr w
            end
            else
              let lo = ref 0 and hi = ref nd in
              while !lo < !hi do
                let mid = (!lo + !hi) / 2 in
                if dead.(mid) < i then lo := mid + 1 else hi := mid
              done;
              if !lo = nd || dead.(!lo) <> i then begin
                out.(!w) <- i - !lo;
                incr w
              end)
          perm;
        out
      in
      st.spo <- renumber st.spo;
      st.pos <- renumber st.pos;
      st.osp <- renumber st.osp;
      st.frozen <- st.frozen - nd
    end
  end

(* Sort the appended entries [frozen, n) in [key] order and merge them
   into [base], the permutation of the indexed prefix: one binary search
   per delta entry, the runs of [base] between them moved by blits. *)
let merge_delta st key base n =
  let delta = Array.init (n - st.frozen) (fun k -> st.frozen + k) in
  Array.sort (compare_entries st key) delta;
  let nb = Array.length base in
  let out = Array.make n 0 in
  let src = ref 0 in
  Array.iteri
    (fun k i ->
      let at =
        search_bound st key base ~strict:false
          (key st i 0, key st i 1, key st i 2)
      in
      Array.blit base !src out (!src + k) (at - !src);
      out.(at + k) <- i;
      src := at)
    delta;
  Array.blit base !src out (!src + Array.length delta) (nb - !src);
  out

(* [reset], not [clear]: a bulk load grows [appended] to the store's
   size, and [clear] would keep that bucket array. *)
let freeze st =
  if dirty st then begin
    compact st;
    let n = Int_vec.length st.triples / 3 in
    if n > st.frozen then begin
      st.spo <- merge_delta st key_spo st.spo n;
      st.pos <- merge_delta st key_pos st.pos n;
      st.osp <- merge_delta st key_osp st.osp n;
      st.frozen <- n
    end;
    Hashtbl.reset st.appended
  end

(* Sealing freezes first so worker domains never trigger the lazy index
   build: after [seal] every public read ([iter_pattern], [count_pattern],
   [find_term], [decode_id], [mem_ids], ...) touches only data no domain
   mutates until [unseal]. *)
let seal st =
  freeze st;
  st.sealed <- true;
  trace st T_seal

let unseal st =
  st.sealed <- false;
  trace st T_unseal

(* Freeze first so the copy starts from the canonical (compacted, indexed)
   shape, with both delta tables empty: once copied, the two stores never
   observe each other's mutations. Nothing is copied in proportion to the
   store. The permutation arrays are shared, since no code writes into
   one after it is built ([compact] and [freeze] replace them with fresh
   arrays); the triple vector is shared copy-on-write ([own_triples]), so
   no array reachable from either store is written below its length; the
   dictionary shares its generation ({!Dictionary.copy}). The delta hook
   is deliberately not carried over — a snapshot copy must not feed the
   original's WAL. A given [dictionary] replaces the private dictionary
   copy; the memo of schema predicates is then rebuilt on demand, since
   it is keyed by ids of the old one. *)
let copy ?dictionary st =
  freeze st;
  st.triples_shared <- true;
  let c =
  {
    uid = Atomic.fetch_and_add uids 1;
    dict =
      (match dictionary with Some d -> d | None -> Dictionary.copy st.dict);
    triples = st.triples;
    triples_shared = true;
    size = st.size;
    appended = Hashtbl.create 16;
    removed = Hashtbl.create 16;
    spo = st.spo;
    pos = st.pos;
    osp = st.osp;
    frozen = st.frozen;
    data_epoch = st.data_epoch;
    schema_epoch = st.schema_epoch;
    hook = None;
    schema_preds =
      (if Option.is_none dictionary then Hashtbl.copy st.schema_preds
       else Hashtbl.create 16);
    sealed = false;
  }
  in
  trace st (T_copy c);
  c

type chosen =
  | Scan
  | Idx of (t -> int -> int -> int) * int array * int option * int option * int option

let choose st ~s ~p ~o =
  match s, p, o with
  | Some _, Some _, Some _ | Some _, Some _, None | Some _, None, None ->
    Idx (key_spo, st.spo, s, p, o)
  | Some _, None, Some _ -> Idx (key_osp, st.osp, o, s, None)
  | None, Some _, _ -> Idx (key_pos, st.pos, p, o, None)
  | None, None, Some _ -> Idx (key_osp, st.osp, o, None, None)
  | None, None, None -> Scan

let iter_pattern st ~s ~p ~o f =
  trace st T_read;
  freeze st;
  match choose st ~s ~p ~o with
  | Scan ->
    for i = 0 to size st - 1 do
      f (s_of st i) (p_of st i) (o_of st i)
    done
  | Idx (key, perm, b1, b2, b3) ->
    let lo, hi = range st key perm ~b1 ~b2 ~b3 in
    for k = lo to hi - 1 do
      let i = perm.(k) in
      f (s_of st i) (p_of st i) (o_of st i)
    done

let count_pattern st ~s ~p ~o =
  trace st T_read;
  freeze st;
  match choose st ~s ~p ~o with
  | Scan -> size st
  | Idx (key, perm, b1, b2, b3) ->
    let lo, hi = range st key perm ~b1 ~b2 ~b3 in
    hi - lo

let iter_all st f = iter_pattern st ~s:None ~p:None ~o:None f

(* ------------------------------------------------------------------ *)
(* Trie cursors (leapfrog access path)                                 *)
(* ------------------------------------------------------------------ *)

type order =
  | O_spo
  | O_pos
  | O_osp

type cursor = {
  c_store : t;
  c_key : t -> int -> int -> int;
  c_perm : int array;
}

(* Freezing here means every later cursor read touches only data no
   domain mutates while the store is sealed: a cursor taken after [seal]
   (which freezes first) is safe to share across reader domains. *)
let cursor st order =
  freeze st;
  match order with
  | O_spo -> { c_store = st; c_key = key_spo; c_perm = st.spo }
  | O_pos -> { c_store = st; c_key = key_pos; c_perm = st.pos }
  | O_osp -> { c_store = st; c_key = key_osp; c_perm = st.osp }

let cursor_length c = Array.length c.c_perm

let cursor_key c ~pos ~level = c.c_key c.c_store c.c_perm.(pos) level

(* Binary search within [lo, hi) on the [level] key alone. Sound only
   when the keys at levels < [level] are constant over the range — the
   invariant a trie descent maintains — because then the permutation is
   sorted by the [level] key inside the range. *)
let cursor_seek c ~level ~strict ~lo ~hi v =
  let above pos =
    let k = cursor_key c ~pos ~level in
    if strict then k > v else k >= v
  in
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if above mid then hi := mid else lo := mid + 1
  done;
  !lo

(* ------------------------------------------------------------------ *)
(* Persistence                                                         *)
(* ------------------------------------------------------------------ *)

let magic = "REFQSTORE1"

let save st path =
  freeze st;
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc magic;
      let write_string s =
        output_binary_int oc (String.length s);
        output_string oc s
      in
      (* Full dictionary, in id order, so that ids survive the roundtrip
         (the dictionary may hold terms that no triple uses, e.g. query
         constants encoded during evaluation). *)
      output_binary_int oc (Dictionary.size st.dict);
      for id = 0 to Dictionary.size st.dict - 1 do
        match Dictionary.decode st.dict id with
        | Term.Uri u ->
          output_byte oc 0;
          write_string u
        | Term.Literal { value; kind = Term.Plain } ->
          output_byte oc 1;
          write_string value
        | Term.Literal { value; kind = Term.Lang tag } ->
          output_byte oc 2;
          write_string value;
          write_string tag
        | Term.Literal { value; kind = Term.Typed dt } ->
          output_byte oc 3;
          write_string value;
          write_string dt
        | Term.Bnode label ->
          output_byte oc 4;
          write_string label
      done;
      output_binary_int oc (size st);
      iter_all st (fun s p o ->
          output_binary_int oc s;
          output_binary_int oc p;
          output_binary_int oc o))

exception Corrupt of string

let load path =
  match open_in_bin path with
  | exception Sys_error m -> Error m
  | ic -> (
    match
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let header = really_input_string ic (String.length magic) in
          if header <> magic then raise (Corrupt "bad magic");
          let read_string () =
            let n = input_binary_int ic in
            if n < 0 then raise (Corrupt "negative length");
            really_input_string ic n
          in
          let st = create () in
          let n_terms = input_binary_int ic in
          for id = 0 to n_terms - 1 do
            let term =
              match input_byte ic with
              | 0 -> Term.uri (read_string ())
              | 1 -> Term.literal (read_string ())
              | 2 ->
                let value = read_string () in
                Term.lang_literal value (read_string ())
              | 3 ->
                let value = read_string () in
                Term.typed_literal value (read_string ())
              | 4 -> Term.bnode (read_string ())
              | tag -> raise (Corrupt (Printf.sprintf "bad term tag %d" tag))
            in
            if Dictionary.encode st.dict term <> id then
              raise (Corrupt "duplicate dictionary entry")
          done;
          let n_triples = input_binary_int ic in
          for _ = 1 to n_triples do
            let s = input_binary_int ic in
            let p = input_binary_int ic in
            let o = input_binary_int ic in
            if s < 0 || s >= n_terms || p < 0 || p >= n_terms || o < 0 || o >= n_terms
            then raise (Corrupt "triple id out of range");
            add_ids st s p o
          done;
          st)
    with
    | st -> Ok st
    | exception Corrupt m -> Error (Printf.sprintf "%s: corrupt store (%s)" path m)
    | exception End_of_file -> Error (Printf.sprintf "%s: truncated store" path))

let fold f st acc =
  let acc = ref acc in
  iter_all st (fun s p o -> acc := f s p o !acc);
  !acc

(* ------------------------------------------------------------------ *)
(* Index transplant (snapshot fast path)                               *)
(* ------------------------------------------------------------------ *)

let export_indexes st =
  freeze st;
  (Array.copy st.spo, Array.copy st.pos, Array.copy st.osp)

(* A candidate permutation is acceptable only if it is a bijection over
   the triple indices and sorted w.r.t. its key order — anything less and
   range search would silently return wrong answers, so reject and let
   [freeze] index the store itself. *)
let valid_perm st key perm n =
  Array.length perm = n
  && begin
       let seen = Array.make n false in
       let ok = ref true in
       Array.iter
         (fun i ->
           if i < 0 || i >= n || seen.(i) then ok := false else seen.(i) <- true)
         perm;
       !ok
     end
  &&
  let sorted = ref true in
  for k = 0 to n - 2 do
    let i = perm.(k) and j = perm.(k + 1) in
    if compare_entries st key i j > 0 then sorted := false
  done;
  !sorted

let import_indexes st ~spo ~pos ~osp =
  if st.sealed then sealed_fail "import_indexes";
  compact st;
  let n = size st in
  if
    Int_vec.length st.triples = 3 * n
    && valid_perm st key_spo spo n
    && valid_perm st key_pos pos n
    && valid_perm st key_osp osp n
  then begin
    st.spo <- spo;
    st.pos <- pos;
    st.osp <- osp;
    st.frozen <- n;
    Hashtbl.reset st.appended;
    true
  end
  else false
