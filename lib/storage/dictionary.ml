open Refq_rdf
module Vec = Refq_util.Vec

(* A dictionary is a generation — a term -> id table and an id -> term
   vector covering ids [0, n) — plus a tail of the ids allocated since
   the generation was shared. An unshared generation takes new ids
   directly. Once [copy] shares it, nobody writes into it again: both
   sides allocate into private tails, and a tail that outgrows
   [1 / fold_fraction] of its generation is folded with it into a new,
   unshared generation. A reader holding a copy therefore never sees a
   table resized under it, and a copy costs its tail, not the
   dictionary. A fold copies the generation once per [n / fold_fraction]
   allocations, O(fold_fraction) amortized per id. *)
type t = {
  mutable gen_terms : (Term.t, int) Hashtbl.t;
  mutable gen_ids : Term.t Vec.t;
  mutable shared : bool;  (** the generation is reachable from a copy *)
  tail_terms : (Term.t, int) Hashtbl.t;  (** ids past the generation *)
  tail_ids : Term.t Vec.t;
}

let fold_fraction = 8

let create ?(capacity = 1024) () =
  {
    gen_terms = Hashtbl.create capacity;
    gen_ids = Vec.create ~capacity ();
    shared = false;
    tail_terms = Hashtbl.create 16;
    tail_ids = Vec.create ();
  }

let size d = Vec.length d.gen_ids + Vec.length d.tail_ids

let find d t =
  match Hashtbl.find_opt d.gen_terms t with
  | Some _ as id -> id
  | None ->
    if Hashtbl.length d.tail_terms = 0 then None
    else Hashtbl.find_opt d.tail_terms t

let fold_tail d =
  let n = Vec.length d.gen_ids in
  let terms = Hashtbl.copy d.gen_terms in
  Vec.iteri (fun k t -> Hashtbl.add terms t (n + k)) d.tail_ids;
  d.gen_ids <-
    Vec.of_array (Array.append (Vec.to_array d.gen_ids) (Vec.to_array d.tail_ids));
  d.gen_terms <- terms;
  d.shared <- false;
  Hashtbl.reset d.tail_terms;
  Vec.clear d.tail_ids

let encode d t =
  match find d t with
  | Some id -> id
  | None ->
    let id = size d in
    if d.shared then begin
      Hashtbl.add d.tail_terms t id;
      Vec.push d.tail_ids t;
      if fold_fraction * Vec.length d.tail_ids > Vec.length d.gen_ids then
        fold_tail d
    end
    else begin
      Hashtbl.add d.gen_terms t id;
      Vec.push d.gen_ids t
    end;
    id

let copy d =
  d.shared <- true;
  {
    gen_terms = d.gen_terms;
    gen_ids = d.gen_ids;
    shared = true;
    tail_terms = Hashtbl.copy d.tail_terms;
    tail_ids = Vec.of_array (Vec.to_array d.tail_ids);
  }

let decode d id =
  (* Ids are dense: the dictionary allocates 0, 1, 2, ... in encode
     order, so any id outside [0, size) was never allocated here — the
     caller is decoding through the wrong dictionary or replaying
     corrupted data. Spell that out: recovery audits surface this
     message verbatim. *)
  let g = Vec.length d.gen_ids in
  if id >= 0 && id < g then Vec.get d.gen_ids id
  else
    let n = size d in
    if id < 0 || id >= n then
      invalid_arg
        (Printf.sprintf
           "Dictionary.decode: id %d violates the dense-allocation invariant \
            (ids are allocated contiguously; this dictionary holds %d ids, \
            0..%d)"
           id n (n - 1));
    Vec.get d.tail_ids (id - g)

let iter f d =
  Vec.iteri f d.gen_ids;
  let g = Vec.length d.gen_ids in
  Vec.iteri (fun k t -> f (g + k) t) d.tail_ids
