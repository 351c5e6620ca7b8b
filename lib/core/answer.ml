open Refq_query
open Refq_schema
open Refq_storage
open Refq_engine
open Refq_cost
open Refq_reform

let src = Logs.Src.create "refq.answer" ~doc:"strategy dispatch"

module Log = (val Logs.src_log src : Logs.LOG)

module Budget = Refq_fault.Budget
module Obs = Refq_obs.Obs
module Cache = Refq_cache.Cache
module Config = Config
module Analysis = Refq_analysis.Analysis
module Diagnostic = Refq_analysis.Diagnostic
module Views = Refq_views.Views
module Par = Refq_par.Par
module Leapfrog = Refq_wco.Leapfrog
module Check_plan = Refq_analysis.Check_plan

(* ------------------------------------------------------------------ *)
(* Degraded-answer reporting (shared with the federation layer)        *)
(* ------------------------------------------------------------------ *)

type endpoint_contribution =
  | Complete
  | Truncated of { returned : int }
  | Failed of {
      attempts : int;
      error : string;
    }
  | Skipped_open_circuit

type fragment_report = {
  fragment : int;
  contributions : (string * endpoint_contribution) list;
}

type completeness =
  | Sound_and_complete
  | Sound_but_possibly_incomplete

type federation_report = {
  fragment_reports : fragment_report list;
  verdict : completeness;
  budget_stop : string option;
}

let contribution_complete = function
  | Complete -> true
  | Truncated _ | Failed _ | Skipped_open_circuit -> false

let completeness_verdict ?budget_stop fragment_reports =
  if
    budget_stop = None
    && List.for_all
         (fun fr ->
           List.for_all (fun (_, c) -> contribution_complete c) fr.contributions)
         fragment_reports
  then Sound_and_complete
  else Sound_but_possibly_incomplete

let pp_completeness ppf = function
  | Sound_and_complete -> Fmt.string ppf "sound and complete"
  | Sound_but_possibly_incomplete ->
    Fmt.string ppf "sound but possibly incomplete"

let pp_contribution ppf = function
  | Complete -> Fmt.string ppf "complete"
  | Truncated { returned } -> Fmt.pf ppf "truncated to %d row(s)" returned
  | Failed { attempts; error } ->
    Fmt.pf ppf "failed after %d attempt(s): %s" attempts error
  | Skipped_open_circuit -> Fmt.string ppf "skipped (circuit open)"

let pp_federation_report ppf r =
  Fmt.pf ppf "@[<v>verdict: %a" pp_completeness r.verdict;
  (match r.budget_stop with
  | Some reason -> Fmt.pf ppf "@,budget stop: %s" reason
  | None -> ());
  List.iter
    (fun fr ->
      Fmt.pf ppf "@,fragment %d:" (fr.fragment + 1);
      List.iter
        (fun (endpoint, c) ->
          Fmt.pf ppf "@,  %-16s %a" endpoint pp_contribution c)
        fr.contributions)
    r.fragment_reports;
  Fmt.pf ppf "@]"

type backend = Config.backend =
  | Nested_loop
  | Sort_merge

type engine = Config.engine =
  | Binary
  | Wco
  | Auto

(* The three cache levels of the answering stack, owned per environment.
   Values are stored under the query's canonical form ([Cache.canon_cq]),
   so renamed variants of one query share entries at every level. *)
type caches = {
  reform : Jucq.t Cache.Lru.t;  (** canonical CQ + cover → JUCQ *)
  cover : Gcov.trace Cache.Lru.t;  (** canonical CQ + stats epoch → trace *)
  results : Relation.t Cache.Lru.t;
      (** reformulation key + fragment index + data epoch → materialized
          fragment relation *)
}

type mutation = [ `Add of Refq_rdf.Triple.t | `Remove of Refq_rdf.Triple.t ]

module Saturate = Refq_saturation.Saturate

(* The cached saturation. A published value is never mutated: a [Current]
   store is frozen and sealed, and a [Pending] one only names such a
   store (of an earlier state of the same data) plus what changed since. *)
type sat_state =
  | Absent
  | Current of { sat : Store.t; info : Saturate.info; cenv : Cardinality.env }
  | Pending of {
      source : Store.t;  (** sealed saturation of an earlier state *)
      source_stats : Stats.t option;  (** [source]'s, when known *)
      source_ids : int;
          (** leading ids of [source]'s dictionary known to mean the same
              term in every later dictionary of its lineage *)
      delta : mutation list;  (** effective mutations since, newest first *)
      delta_len : int;
    }

type env = {
  store : Store.t;
  mutable closure : Closure.t;
  mutable schema_fp : string;  (** fingerprint of [closure] *)
  mutable card_env : Cardinality.env;
  sat : sat_state Atomic.t;
      (** atomic: a serving writer reads a snapshot's state to hand it on
          while a reader may be forcing it *)
  ids_at_make : int;  (** dictionary size when the environment was built *)
  mutable data_epoch : int;  (** store epochs last seen by [invalidate] *)
  mutable schema_epoch : int;
  mutable views : Views.t;  (** materialized-view catalog (empty by default) *)
  policy : Cache.policy;  (** sizes of [caches] *)
  caches : caches;
}

let closure_of_store store = Closure.of_schema (Saturate.schema_of_store store)

let fresh_caches (policy : Cache.policy) =
  {
    reform = Cache.Lru.create ~name:"reform" ~capacity:policy.reform_capacity;
    cover = Cache.Lru.create ~name:"cover" ~capacity:policy.cover_capacity;
    results = Cache.Lru.create ~name:"result" ~capacity:policy.result_capacity;
  }

let make_env ?(cache = Cache.default_policy) store =
  let closure = closure_of_store store in
  {
    store;
    closure;
    schema_fp = Cache.closure_fingerprint closure;
    card_env = Cardinality.make_env store;
    sat = Atomic.make Absent;
    ids_at_make = Dictionary.size (Store.dictionary store);
    data_epoch = Store.data_epoch store;
    schema_epoch = Store.schema_epoch store;
    views = Views.create ();
    policy = cache;
    caches = fresh_caches cache;
  }

let store env = env.store

let epochs env = (env.data_epoch, env.schema_epoch)

let closure env = env.closure

let card_env env = env.card_env

let views env = env.views

let set_views env catalog = env.views <- catalog

let views_ctx env =
  Views.ctx ~store:env.store ~closure:env.closure ~cenv:env.card_env

let cache_stats env =
  [
    Cache.Lru.stats env.caches.reform;
    Cache.Lru.stats env.caches.cover;
    Cache.Lru.stats env.caches.results;
  ]

let clear_caches env =
  Cache.Lru.clear env.caches.reform;
  Cache.Lru.clear env.caches.cover;
  Cache.Lru.clear env.caches.results

let now () = Unix.gettimeofday ()

let c_maintained = Obs.counter "saturate.maintained"

(* Bring a saturation of an earlier state up to date: copy it into this
   environment's dictionary, apply the net delta with the closure-taking
   maintenance primitives — removals first, re-derived against the
   current base, which already holds the additions — then seal. Ids below
   [source_ids] mean the same term in both dictionaries (they are
   append-only copies of one lineage); ids past it were allocated
   privately (e.g. [rdf:type] by a snapshot's own saturation) and are
   translated when this dictionary disagrees on them. The copy's own
   effective mutations carry [source_stats] over to the result; a
   translated copy or a re-saturation is counted afresh. *)
let maintain env ~source ~source_ids ~source_stats ~delta =
  let dict = Store.dictionary env.store and sdict = Store.dictionary source in
  let rec agree id =
    id >= Dictionary.size sdict
    || id < Dictionary.size dict
       && Refq_rdf.Term.equal (Dictionary.decode dict id) (Dictionary.decode sdict id)
       && agree (id + 1)
  in
  let copied = sdict == dict || agree source_ids in
  let sat =
    if copied then Store.copy ~dictionary:dict source
    else begin
      let sat = Store.create ~dictionary:dict () in
      let tr id =
        if id < source_ids then id
        else Dictionary.encode dict (Dictionary.decode sdict id)
      in
      Store.iter_all source (fun s p o -> Store.add_ids sat (tr s) (tr p) (tr o));
      sat
    end
  in
  let sat_delta = ref [] in
  Store.set_delta_hook sat (Some (fun d -> sat_delta := d :: !sat_delta));
  let added, removed =
    List.fold_left
      (fun (added, removed) -> function
        | `Add t when Refq_rdf.Graph.mem t removed ->
          (added, Refq_rdf.Graph.remove t removed)
        | `Add t -> (Refq_rdf.Graph.add t added, removed)
        | `Remove t when Refq_rdf.Graph.mem t added ->
          (Refq_rdf.Graph.remove t added, removed)
        | `Remove t -> (added, Refq_rdf.Graph.add t removed))
      (Refq_rdf.Graph.empty, Refq_rdf.Graph.empty)
      (List.rev delta)
  in
  let closure = env.closure in
  let result =
    match
      Saturate.remove_incremental ~closure ~base:env.store sat
        (Refq_rdf.Graph.to_list removed)
    with
    | `Resaturated sat -> sat
    | `Incremental _ -> (
      match
        Saturate.add_incremental ~closure sat (Refq_rdf.Graph.to_list added)
      with
      | `Incremental _ -> sat
      | `Resaturated sat -> sat)
  in
  Store.set_delta_hook sat None;
  let stats =
    match source_stats with
    | Some st when copied && result == sat ->
      Stats.update st sat (List.rev !sat_delta)
    | _ -> Stats.compute result
  in
  (result, stats)

let publish env sat info stats =
  Store.seal sat;
  let cenv = { Cardinality.store = sat; stats } in
  Atomic.set env.sat (Current { sat; info; cenv });
  (sat, info, cenv)

let saturated_full env =
  match Atomic.get env.sat with
  | Current { sat; info; cenv } -> (sat, info, cenv)
  | Absent ->
    let sat, info = Saturate.store_info env.store in
    publish env sat info (Stats.compute sat)
  | Pending { source; source_stats; source_ids; delta; _ } ->
    Obs.incr c_maintained;
    let t0 = Sys.time () in
    let sat, stats = maintain env ~source ~source_ids ~source_stats ~delta in
    publish env sat
      {
        Saturate.input_triples = Store.size env.store;
        output_triples = Store.size sat;
        rounds = 0;
        elapsed_s = Sys.time () -. t0;
      }
      stats

let saturated_card_env env =
  let _, _, cenv = saturated_full env in
  cenv

let saturated env =
  let st, info, _ = saturated_full env in
  (st, info)

(* Past a third of the store, a delta costs about as much to maintain as
   a fresh saturation costs to compute. Measured on a 22,638-triple LUBM
   store on a 2-core VM: a fresh saturation takes ≈140 ms; maintenance
   ≈4 ms fixed (copy and freeze; the statistics follow from the delta)
   plus ≈13 µs per removed and ≈8 µs per added triple, so removals cross
   over near 0.45 × the store and additions beyond it. *)
let max_delta_share = 3

(* The saturation [source] followed by [delta] (oldest first) on top of
   the [old] pending mutations: pending, unless the delta has outgrown
   its share of [store]. *)
let pending ~source ~source_stats ~source_ids ?(old = []) ?(len = 0) store
    delta =
  let len = len + List.length delta in
  if len > Store.size store / max_delta_share then Absent
  else
    Pending
      {
        source;
        source_stats;
        source_ids;
        delta = List.rev_append delta old;
        delta_len = len;
      }

(* [state], held by an environment whose dictionary had [ids] entries
   when built, followed by [delta]. *)
let pending_after ~ids state store delta =
  match state with
  | Absent -> Absent
  | Current { sat; cenv; _ } ->
    pending ~source:sat ~source_stats:(Some cenv.Cardinality.stats)
      ~source_ids:ids store delta
  | Pending { source; source_stats; source_ids; delta = old; delta_len = len }
    ->
    pending ~source ~source_stats ~source_ids ~old ~len store delta

let inherit_saturation ~from ~delta env =
  Atomic.set env.sat
    (if
       env.schema_epoch = from.schema_epoch
       && env.data_epoch - from.data_epoch = List.length delta
     then
       pending_after ~ids:from.ids_at_make (Atomic.get from.sat) env.store delta
     else Absent)

(* A closure restored from a snapshot, trusted as-is, with the WAL
   records replayed on top of it as a pending delta. [rounds = 0] marks
   it as restored rather than computed. *)
let install_saturated ?(delta = []) env sst =
  match delta with
  | [] ->
    ignore
      (publish env sst
         {
           Saturate.input_triples = Store.size env.store;
           output_triples = Store.size sst;
           rounds = 0;
           elapsed_s = 0.;
         }
         (Stats.compute sst))
  | _ ->
    Store.seal sst;
    Atomic.set env.sat
      (pending ~source:sst ~source_stats:None ~source_ids:env.ids_at_make
         env.store delta)

(* The statistics after the mutations since the last sync: derived from
   the synced ones when [delta] accounts for every epoch move, data and
   schema alike (statistics do not depend on the closure), counted afresh
   otherwise. An effective mutation's terms are all in the dictionary, so
   encoding them allocates nothing. *)
let next_stats ?delta env ~moved =
  match delta with
  | Some delta when List.length delta = moved ->
    let id = Store.encode_term env.store in
    let delta =
      List.map
        (fun m ->
          let op, { Refq_rdf.Triple.s; p; o } =
            match m with `Add t -> (`Add, t) | `Remove t -> (`Remove, t)
          in
          { Store.op; s = id s; p = id p; o = id o })
        delta
    in
    Stats.update env.card_env.Cardinality.stats env.store delta
  | _ -> Stats.compute env.store

(* Epoch-aware refresh after store mutations. A data-only change keeps
   the closure, its fingerprint and the reformulation cache (reformulation
   only depends on the schema); a schema change rebuilds the closure and
   drops everything keyed on it. Both paths bring the statistics up to
   date ([next_stats]) and drop materialized results. The saturation
   survives a data-only change when [delta] accounts for every data
   mutation since the last sync (it becomes pending, brought up to date
   on its next read); otherwise it is dropped. With unchanged epochs this
   is a no-op, so calling it defensively is free. *)
let invalidate ?delta env =
  let d = Store.data_epoch env.store and s = Store.schema_epoch env.store in
  if d <> env.data_epoch || s <> env.schema_epoch then
    env.card_env <-
      {
        Cardinality.store = env.store;
        stats =
          next_stats ?delta env
            ~moved:(d - env.data_epoch + (s - env.schema_epoch));
      };
  if s <> env.schema_epoch then begin
    let closure = closure_of_store env.store in
    env.closure <- closure;
    env.schema_fp <- Cache.closure_fingerprint closure;
    Atomic.set env.sat Absent;
    clear_caches env;
    (* A schema change invalidates every view: both the extent and the
       reformulation it was computed from are gone with the old closure. *)
    Views.clear env.views;
    env.schema_epoch <- s;
    env.data_epoch <- d
  end
  else if d <> env.data_epoch then begin
    Atomic.set env.sat
      (match delta with
      | Some delta when List.length delta = d - env.data_epoch ->
        pending_after ~ids:env.ids_at_make (Atomic.get env.sat) env.store delta
      | _ -> Absent);
    (* Reformulations stay valid (schema unchanged); cover choices and
       materialized fragments are keyed by epoch, but their old entries
       can never hit again — drop them to free the space. *)
    Cache.Lru.clear env.caches.cover;
    Cache.Lru.clear env.caches.results;
    env.data_epoch <- d
  end;
  env

(* The copy holds the synced source's triple set under the same ids, so
   the closure, its fingerprint and the statistics (immutable, a function
   of the triple set) carry over; only the
   cardinality environment's store is rebased. The view catalog is
   shared: every view extent is pinned to the epochs it was built at, so
   against a snapshot it either matches exactly or misses — stale views
   go cold, never wrong. *)
let snapshot_env src =
  ignore (invalidate src);
  let store = Store.copy src.store in
  Store.seal store;
  {
    store;
    closure = src.closure;
    schema_fp = src.schema_fp;
    card_env = { src.card_env with Cardinality.store };
    sat = Atomic.make Absent;
    ids_at_make = Dictionary.size (Store.dictionary store);
    data_epoch = src.data_epoch;
    schema_epoch = src.schema_epoch;
    views = src.views;
    policy = src.policy;
    caches = fresh_caches src.policy;
  }

let release_saturation env = Atomic.set env.sat Absent

let refresh_views ?delta ?full_threshold env =
  (* Maintenance runs against the *current* closure and statistics:
     re-sync the environment first (no-op when the epochs are unchanged;
     drops every view on a schema change, before refresh would touch
     them). *)
  ignore (invalidate env);
  Views.refresh ?delta ?full_threshold (views_ctx env) env.views

type detail =
  | Reformulated of {
      cover : Cover.t;
      jucq_size : int;
      n_fragments : int;
      fragment_cardinalities : int list;
      view_hits : bool list;
      engines : string list;
      gcov : Gcov.trace option;
    }
  | Saturated of Saturate.info
  | Datalog_run of Refq_datalog.Datalog.stats

type report = {
  strategy : Strategy.t;
  answers : Relation.t;
  planning_s : float;
  reformulation_s : float;
  evaluation_s : float;
  detail : detail;
}

let n_answers r = Relation.cardinality r.answers

let total_s r = r.planning_s +. r.reformulation_s +. r.evaluation_s

type failure = {
  f_strategy : Strategy.t;
  reason : string;
  f_reformulation_s : float;
}

let positional_cols q =
  Array.of_list (List.mapi (fun i _ -> Printf.sprintf "c%d" i) q.Cq.head)

(* Evaluate a JUCQ while recording materialized fragment cardinalities
   (mirrors [Evaluator.jucq], which cannot expose intermediates). When a
   [result_key] is given, each fragment relation is looked up in / stored
   into the bounded result cache, keyed additionally by fragment index,
   store data epoch and backend. A cached fragment is reused as-is: keys
   derive from the canonical query, so column names line up, and
   downstream joins never mutate their inputs. *)
let backend_fns (cfg : Config.t) =
  let budget = cfg.Config.budget in
  match cfg.Config.backend with
  | Nested_loop -> (Evaluator.ucq ?budget, Evaluator.join ?budget)
  | Sort_merge -> (Sortmerge.ucq ?budget, Sortmerge.merge_join ?budget)

(* Join the materialized fragment relations and project the head —
   replicating the engine's join order (delegating to [Evaluator.jucq]
   would evaluate the fragments twice). Shared by the reformulation path
   and the all-fragments-from-views fast path. *)
let join_project (cfg : Config.t) env head_pats fragments =
  let _, join = backend_fns cfg in
  let cards = List.map Relation.cardinality fragments in
  let head = Array.of_list head_pats in
  let out_cols =
    Array.mapi
      (fun i pat -> match pat with Cq.Var v -> v | Cq.Cst _ -> Printf.sprintf "_k%d" i)
      head
  in
  let result = Relation.create ~cols:out_cols in
  if List.exists (fun r -> Relation.cardinality r = 0) fragments then (result, cards)
  else begin
    let joinable = List.filter (fun r -> Relation.arity r > 0) fragments in
    let joined =
      Obs.span "join" (fun () ->
          match Evaluator.join_order joinable with
          | [] ->
            let r = Relation.create ~cols:[||] in
            Relation.add_row r [||];
            r
          | first :: rest -> List.fold_left join first rest)
    in
    let add = Relation.distinct_adder result in
    let out_row = Array.make (Array.length head) 0 in
    Relation.iter_rows joined (fun row ->
        Array.iteri
          (fun i pat ->
            match pat with
            | Cq.Var v ->
              out_row.(i) <- row.(Option.get (Relation.col_index joined v))
            | Cq.Cst t -> out_row.(i) <- Store.encode_term env.store t)
          head;
        add out_row);
    (result, cards)
  end

(* Per-backend primitives for evaluating a fragment's disjuncts in
   contiguous chunks such that merging the chunk relations in chunk order
   reproduces the sequential [ucq] output exactly:

   - nested loop: [Evaluator.ucq] feeds every disjunct's rows through one
     first-occurrence [distinct_adder]; dedup-merging chunk-local deduped
     relations in chunk order yields the same rows in the same order;
   - sort/merge: [Sortmerge.ucq] is a sorted-set union of its disjuncts'
     rows, and a union of per-chunk unions is the same sorted set. *)
let backend_chunk_fns (cfg : Config.t) =
  let budget = cfg.Config.budget in
  match cfg.Config.backend with
  | Config.Nested_loop ->
    let eval env ~cols qs =
      let rel = Relation.create ~cols in
      let add = Relation.distinct_adder ~size_hint:256 rel in
      List.iter
        (fun q -> Relation.iter_rows (Evaluator.cq ?budget env ~cols q) add)
        qs;
      rel
    in
    let merge ~cols rels =
      match rels with
      | [ r ] -> r
      | rels ->
        let out = Relation.create ~cols in
        let add = Relation.distinct_adder ~size_hint:256 out in
        List.iter (fun r -> Relation.iter_rows r add) rels;
        out
    in
    (eval, merge)
  | Config.Sort_merge ->
    let eval env ~cols qs =
      Sortmerge.union_all ~cols
        (List.map (fun q -> Sortmerge.cq ?budget env ~cols q) qs)
    in
    let merge ~cols rels =
      match rels with [ r ] -> r | rels -> Sortmerge.union_all ~cols rels
    in
    (eval, merge)

(* Physical-operator decision, one per JUCQ fragment. [Binary] never
   consults the wco planner (no overhead, [None]); [Wco] picks leapfrog
   wherever a feasible variable order exists; [Auto] additionally
   compares the leapfrog and binary cost estimates. A fragment with no
   feasible order is recorded as [Op_binary] with [var_order = None] —
   the decision {e is} the fallback — so plans this function emits
   always satisfy [Check_plan.check_engine_plans]; RP004/RP005 catch
   hand-built or buggy plans, not policy. *)
let engine_plans (cfg : Config.t) cenv (j : Jucq.t) =
  match cfg.Config.engine with
  | Binary -> None
  | (Wco | Auto) as policy ->
    let params =
      Option.value ~default:Cost_model.default_params cfg.Config.params
    in
    Some
      (List.mapi
         (fun i (f : Jucq.fragment) ->
           let lf = Cost_model.leapfrog_ucq ~params cenv f.Jucq.ucq in
           let bin =
             Cost_model.fragment_estimate
               (Cost_model.fragment_profile ~params cenv f)
           in
           let var_order =
             List.find_map
               (fun q -> Option.map fst (Leapfrog.plan cenv q.Cq.body))
               (Ucq.disjuncts f.Jucq.ucq)
           in
           let operator =
             if var_order = None then Plan.Op_binary
             else if policy = Wco || lf.Cost_model.cost < bin.Cost_model.cost
             then Plan.Op_leapfrog
             else Plan.Op_binary
           in
           {
             Plan.fragment = i + 1;
             operator;
             var_order;
             est_leapfrog = lf.Cost_model.cost;
             est_binary = bin.Cost_model.cost;
           })
         j.Jucq.fragments)

(* The per-fragment operator label [--explain] prints. A fragment the
   policy wanted on leapfrog but that admits no feasible variable order
   says so — the CLI smoke test greps for the fallback wording. *)
let engine_label (e : Plan.engine_plan) =
  match (e.Plan.operator, e.Plan.var_order) with
  | Plan.Op_leapfrog, _ -> "leapfrog"
  | Plan.Op_binary, None -> "binary (leapfrog infeasible: no variable order)"
  | Plan.Op_binary, Some _ -> "binary"

(* Fan the uncached, unviewed fragments out over the domain pool.

   Coordinator-only, before sealing: encode every disjunct-head constant,
   so the one store mutation the engine can perform ([Store.encode_term]
   while projecting heads) becomes a pure lookup. Body constants always go
   through the read-only [Store.find_term]. The store is then sealed for
   the whole parallel region — any residual mutation raises instead of
   racing — and unsealed before the merge (which runs on the coordinator
   and only touches relations). Tasks are (fragment × disjunct-chunk);
   per-fragment chunk relations merge in chunk order, making the result
   independent of domain count and scheduling (see [backend_chunk_fns]). *)
let eval_fragments_parallel (cfg : Config.t) pool env ~use_wco compute =
  let chunk_eval, chunk_merge = backend_chunk_fns cfg in
  (* A leapfrog fragment mirrors [Leapfrog.ucq] — first-occurrence dedup
     over the per-disjunct row streams — whatever the binary backend, so
     its chunks evaluate and merge with the distinct-adder discipline.
     Budgeted runs never reach this path, hence no [?budget]. *)
  let wco_chunk_eval cenv ~cols qs =
    let rel = Relation.create ~cols in
    let add = Relation.distinct_adder ~size_hint:256 rel in
    List.iter
      (fun q -> Relation.iter_rows (fst (Leapfrog.cq cenv ~cols q)) add)
      qs;
    rel
  in
  let wco_chunk_merge ~cols rels =
    match rels with
    | [ r ] -> r
    | rels ->
      let out = Relation.create ~cols in
      let add = Relation.distinct_adder ~size_hint:256 out in
      List.iter (fun r -> Relation.iter_rows r add) rels;
      out
  in
  List.iter
    (fun (_, f, _) ->
      List.iter
        (fun q ->
          List.iter
            (function
              | Cq.Cst t -> ignore (Store.encode_term env.store t)
              | Cq.Var _ -> ())
            q.Cq.head)
        (Ucq.disjuncts f.Jucq.ucq))
    compute;
  let total =
    List.fold_left (fun acc (_, f, _) -> acc + Ucq.size f.Jucq.ucq) 0 compute
  in
  let target = Par.fanout pool in
  let csize = max 1 ((total + target - 1) / target) in
  let tasks =
    List.concat_map
      (fun (i, f, _) ->
        let cols = Array.of_list f.Jucq.out in
        let ds = Array.of_list (Ucq.disjuncts f.Jucq.ucq) in
        let nd = Array.length ds in
        Par.split nd ~into:((nd + csize - 1) / csize)
        |> Array.to_list
        |> List.mapi (fun c (lo, hi) ->
               (i, c, cols, Array.to_list (Array.sub ds lo (hi - lo)))))
      compute
  in
  let task_arr = Array.of_list tasks in
  Store.seal env.store;
  let chunk_rels =
    Fun.protect
      ~finally:(fun () -> Store.unseal env.store)
      (fun () ->
        Par.map pool
          ~label:(fun t ->
            let i, c, _, _ = task_arr.(t) in
            Printf.sprintf "fragment-%d-chunk-%d" i c)
          (fun (i, _, cols, qs) ->
            if use_wco i then wco_chunk_eval env.card_env ~cols qs
            else chunk_eval env.card_env ~cols qs)
          task_arr)
  in
  let by_fragment : (int, Relation.t list) Hashtbl.t = Hashtbl.create 8 in
  Array.iteri
    (fun t rel ->
      let i, _, _, _ = task_arr.(t) in
      let prev = Option.value ~default:[] (Hashtbl.find_opt by_fragment i) in
      Hashtbl.replace by_fragment i (rel :: prev))
    chunk_rels;
  let computed : (int, Relation.t) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (i, f, _) ->
      let cols = Array.of_list f.Jucq.out in
      let rels =
        List.rev (Option.value ~default:[] (Hashtbl.find_opt by_fragment i))
      in
      let merge = if use_wco i then wco_chunk_merge else chunk_merge in
      let rel =
        match rels with [] -> Relation.create ~cols | rels -> merge ~cols rels
      in
      Hashtbl.replace computed i rel)
    compute;
  computed

let eval_jucq_with_cards (cfg : Config.t) ?engines ?result_key ?(sources = [])
    env (j : Jucq.t) =
  let ucq_eval, _ = backend_fns cfg in
  let budget = cfg.Config.budget in
  (* The operator a fragment runs on, from the per-fragment decisions
     ([engine_plans]); absent decisions mean the binary engine. The tag
     also keys the result cache: the two operators produce the same
     answer {e set} but different row orders and tags, so a cached
     relation is only reused by the engine that produced it. *)
  let operator_of i =
    match engines with
    | None -> Plan.Op_binary
    | Some plans -> (
      match List.nth_opt plans i with
      | Some e -> e.Plan.operator
      | None -> Plan.Op_binary)
  in
  let use_wco i = operator_of i = Plan.Op_leapfrog in
  let fragment_key =
    match result_key with
    | None -> fun _ -> None
    | Some base ->
      let epoch = Store.data_epoch env.store in
      let backend = Config.backend_name cfg.Config.backend in
      fun i ->
        Some
          (Printf.sprintf "%s#f%d|d:%d|b:%s|e:%s" base i epoch backend
             (Plan.operator_name (operator_of i)))
  in
  let source i = Option.join (List.nth_opt sources i) in
  (* Resolve the coordinator-only sources first. A fragment served by a
     materialized view bypasses the result cache entirely: exactly one
     source of truth (and one set of Obs counters) per fragment. *)
  let slots =
    List.mapi
      (fun i f ->
        match source i with
        | Some rel -> `Ready rel
        | None -> (
          match fragment_key i with
          | None -> `Compute (i, f, None)
          | Some key -> (
            match Cache.Lru.find env.caches.results key with
            | Some rel -> `Ready rel
            | None -> `Compute (i, f, Some key))))
      j.Jucq.fragments
  in
  let compute =
    List.filter_map (function `Compute c -> Some c | `Ready _ -> None) slots
  in
  let computed =
    match Par.get () with
    | Some pool
      when cfg.Config.budget = None
           && List.fold_left
                (fun acc (_, f, _) -> acc + Ucq.size f.Jucq.ucq)
                0 compute
              > 1 ->
      (* Budgets share one mutable spend account (and simulated clock), so
         budgeted runs stay sequential by construction. *)
      eval_fragments_parallel cfg pool env ~use_wco compute
    | _ ->
      let tbl : (int, Relation.t) Hashtbl.t = Hashtbl.create 8 in
      List.iter
        (fun (i, f, _) ->
          Hashtbl.replace tbl i
            (Obs.span_lazy
               (fun () -> Printf.sprintf "fragment-%d" i)
               (fun () ->
                 let cols = Array.of_list f.Jucq.out in
                 if use_wco i then
                   fst (Leapfrog.ucq ?budget env.card_env ~cols f.Jucq.ucq)
                 else ucq_eval env.card_env ~cols f.Jucq.ucq)))
        compute;
      tbl
  in
  (* Result-cache fills are coordinator-side, after the fan-in barrier. *)
  List.iter
    (fun (i, _, key) ->
      match key with
      | Some key -> Cache.Lru.put env.caches.results key (Hashtbl.find computed i)
      | None -> ())
    compute;
  let fragments =
    List.mapi
      (fun i s ->
        match s with `Ready rel -> rel | `Compute _ -> Hashtbl.find computed i)
      slots
  in
  join_project cfg env j.Jucq.head fragments

(* Containment-based minimization is quadratic in the number of
   disjuncts: worth it for JUCQ fragments (hundreds of CQs at most), not
   for monster UCQs. *)
let minimize_gate = 2_000

let minimize_jucq (j : Jucq.t) =
  {
    j with
    Jucq.fragments =
      List.map
        (fun f ->
          if Ucq.size f.Jucq.ucq <= minimize_gate then
            { f with Jucq.ucq = Containment.minimize_ucq f.Jucq.ucq }
          else f)
        j.Jucq.fragments;
  }

(* Debug-mode verification gate ([Config.verify]): every reformulated
   answer has its cover, JUCQ and plan re-validated by the static
   checkers. Findings are counted through the [analysis.*] Obs counters;
   errors — which mean a bug in GCov or the reformulation, not in the
   user's query — are additionally logged. Answering proceeds either way:
   the gate observes, the tests and CI decide. *)
let verify_reformulation (cfg : Config.t) env q cover jucq eplans =
  Obs.span "verify" (fun () ->
      let plan =
        Plan.explain_jucq ?params:cfg.Config.params env.card_env jucq
      in
      let ds =
        Analysis.reformulation ~max_disjuncts:cfg.Config.max_disjuncts ~plan q
          cover jucq
      in
      (* Engine decisions are part of the plan: re-validate them with the
         RP004/RP005 checkers whenever a non-binary policy produced any. *)
      let ds =
        match eplans with
        | None -> ds
        | Some ps -> ds @ Check_plan.check_engine_plans ps
      in
      Analysis.record ds;
      List.iter
        (fun d ->
          Log.err (fun m -> m "verify: %a" Diagnostic.pp d))
        (Diagnostic.errors ds))

let reform_key env (cfg : Config.t) qc cover =
  Printf.sprintf "%s|%s|p:%s|m:%b|fp:%s" (Cache.cq_key qc)
    (Cache.cover_key cover) (Config.profile_name cfg) cfg.Config.minimize
    env.schema_fp

let run_cover (cfg : Config.t) env q strategy cover gcov_trace =
  let max_disjuncts =
    (* The budget's reformulation cap tightens the configured limit. *)
    match Option.bind cfg.Config.budget Budget.max_disjuncts with
    | Some m -> min m cfg.Config.max_disjuncts
    | None -> cfg.Config.max_disjuncts
  in
  (* When caching, the whole pipeline runs on the canonical form: renamed
     variants of one query then share reformulations AND materialized
     fragments (column names included). Canonicalization preserves atom
     order, so [cover]'s atom indices keep their meaning; answers are
     decoded positionally, so canonical head names are inconsequential. *)
  let qc = if cfg.Config.use_cache then Cache.canon_cq q else q in
  let rkey =
    if cfg.Config.use_cache then Some (reform_key env cfg qc cover) else None
  in
  (* Materialized views are consulted per fragment {e before} any
     reformulation: a fragment served by a fresh extent needs neither its
     UCQ nor its evaluation, and it touches no cache level — exactly one
     source of truth per fragment. Stale or profile-mismatched views never
     match ([Views.lookup] checks the epochs), so this path can only trade
     work, not answers. *)
  let view_sources =
    if cfg.Config.views.Views.use && Views.length env.views > 0 then
      List.map
        (fun fc ->
          Views.lookup ~policy:cfg.Config.views ~store:env.store
            ~profile:(Config.profile_name cfg) env.views fc
            ~out:(Cq.head_vars fc))
        (Cover.fragment_cqs qc cover)
    else List.map (fun _ -> None) (Cover.fragments cover)
  in
  let view_hits = List.map Option.is_some view_sources in
  if view_sources <> [] && List.for_all Option.is_some view_sources then begin
    (* Every fragment comes from a view: skip reformulation entirely and
       go straight to the join. *)
    let t0 = now () in
    match
      Obs.span "evaluate" (fun () ->
          join_project cfg env qc.Cq.head (List.filter_map Fun.id view_sources))
    with
    | exception Budget.Exhausted reason ->
      Error
        {
          f_strategy = strategy;
          reason = "budget exhausted: " ^ reason;
          f_reformulation_s = 0.0;
        }
    | answers, cards ->
      Ok
        {
          strategy;
          answers;
          planning_s = 0.0;
          reformulation_s = 0.0;
          evaluation_s = now () -. t0;
          detail =
            Reformulated
              {
                cover;
                jucq_size = 0;
                n_fragments = List.length view_hits;
                fragment_cardinalities = cards;
                view_hits;
                engines = [];
                gcov = gcov_trace;
              };
        }
  end
  else
  let reformulate () =
    let j =
      Reformulate.cover_to_jucq ?profile:cfg.Config.profile ~max_disjuncts
        env.closure qc cover
    in
    if cfg.Config.minimize then minimize_jucq j else j
  in
  let t0 = now () in
  match
    Obs.span "reformulate" (fun () ->
        match rkey with
        | None -> reformulate ()
        | Some key -> (
          match Cache.Lru.find env.caches.reform key with
          (* An entry computed under a laxer limit can exceed a tighter
             budget cap: recompute so [Too_large] fires as uncached. *)
          | Some j when Jucq.size j <= max_disjuncts -> j
          | Some _ | None ->
            let j = reformulate () in
            Cache.Lru.put env.caches.reform key j;
            j))
  with
  | exception Reformulate.Too_large n ->
    Error
      {
        f_strategy = strategy;
        reason =
          Printf.sprintf
            "reformulation exceeds %d disjuncts (stopped at %d): the query \
             could not even be parsed by the evaluation engine"
            max_disjuncts n;
        f_reformulation_s = now () -. t0;
      }
  | jucq -> (
    Log.debug (fun m ->
        m "%a: cover %a, %d disjuncts in %d fragments" Strategy.pp strategy
          Cover.pp cover (Jucq.size jucq) (Jucq.n_fragments jucq));
    let eplans = engine_plans cfg env.card_env jucq in
    (* View-served fragments never reach an operator: label them as such
       so the explain output has exactly one story per fragment. *)
    let engines =
      match eplans with
      | None -> []
      | Some ps ->
        List.mapi
          (fun i e ->
            if List.nth_opt view_hits i = Some true then "view"
            else engine_label e)
          ps
    in
    if cfg.Config.verify then verify_reformulation cfg env qc cover jucq eplans;
    let t1 = now () in
    match
      Obs.span "evaluate" (fun () ->
          eval_jucq_with_cards cfg ?engines:eplans ?result_key:rkey
            ~sources:view_sources env jucq)
    with
    | exception Budget.Exhausted reason ->
      Error
        {
          f_strategy = strategy;
          reason = "budget exhausted: " ^ reason;
          f_reformulation_s = t1 -. t0;
        }
    | answers, cards ->
      let t2 = now () in
      Ok
        {
          strategy;
          answers;
          planning_s = 0.0;
          reformulation_s = t1 -. t0;
          evaluation_s = t2 -. t1;
          detail =
            Reformulated
              {
                cover;
                jucq_size = Jucq.size jucq;
                n_fragments = Jucq.n_fragments jucq;
                fragment_cardinalities = cards;
                view_hits;
                engines;
                gcov = gcov_trace;
              };
        })

let answer ?(config = Config.default) env q strategy =
  let cfg = config in
  let budget = cfg.Config.budget in
  let n_atoms = List.length q.Cq.body in
  match strategy with
  | Strategy.Saturation -> (
    let t0 = now () in
    let _, info, sat_cenv = Obs.span "saturate" (fun () -> saturated_full env) in
    (* The saturated store is sealed and shares the dictionary: intern
       head constants through the base store, as the parallel path does,
       so evaluation only ever looks them up. *)
    List.iter
      (function Cq.Cst t -> ignore (Store.encode_term env.store t) | Cq.Var _ -> ())
      q.Cq.head;
    let t1 = now () in
    let eval_cq =
      let binary =
        match cfg.Config.backend with
        | Nested_loop -> fun env ~cols q -> Evaluator.cq ?budget env ~cols q
        | Sort_merge -> fun env ~cols q -> Sortmerge.cq ?budget env ~cols q
      in
      (* The engine policy applies to saturation-time evaluation too:
         the saturated store has the same three permutation indexes. *)
      match cfg.Config.engine with
      | Binary -> binary
      | Wco -> fun env ~cols q -> fst (Leapfrog.cq ?budget env ~cols q)
      | Auto ->
        fun env ~cols q ->
          let params =
            Option.value ~default:Cost_model.default_params cfg.Config.params
          in
          if
            (Cost_model.leapfrog_cq ~params env q).Cost_model.cost
            < (Cost_model.cq ~params env q).Cost_model.cost
          then fst (Leapfrog.cq ?budget env ~cols q)
          else binary env ~cols q
    in
    match
      Obs.span "evaluate" (fun () ->
          eval_cq sat_cenv ~cols:(positional_cols q) q)
    with
    | exception Budget.Exhausted reason ->
      Error
        {
          f_strategy = strategy;
          reason = "budget exhausted: " ^ reason;
          f_reformulation_s = t1 -. t0;
        }
    | answers ->
      let t2 = now () in
      Ok
        {
          strategy;
          answers;
          planning_s = 0.0;
          reformulation_s = t1 -. t0;
          evaluation_s = t2 -. t1;
          detail = Saturated info;
        })
  | Strategy.Ucq ->
    run_cover cfg env q strategy (Cover.one_fragment ~n_atoms) None
  | Strategy.Scq -> run_cover cfg env q strategy (Cover.singleton ~n_atoms) None
  | Strategy.Jucq cover ->
    if Cover.n_atoms cover <> n_atoms then
      Error
        {
          f_strategy = strategy;
          reason = "cover does not match the query's atom count";
          f_reformulation_s = 0.0;
        }
    else run_cover cfg env q strategy cover None
  | Strategy.Gcov ->
    let t0 = now () in
    let trace =
      Obs.span "plan" (fun () ->
          let compute () = Gcov.search ~config:cfg env.card_env env.closure q in
          if not cfg.Config.use_cache then compute ()
          else begin
            (* The greedy walk only depends on the query shape, the
               reformulation inputs and the statistics; the latter are
               pinned by the store's data epoch. *)
            let key =
              Printf.sprintf "%s|p:%s|params:%d|max:%d|fp:%s|d:%d"
                (Cache.cq_key (Cache.canon_cq q))
                (Config.profile_name cfg)
                (Hashtbl.hash cfg.Config.params)
                cfg.Config.max_disjuncts env.schema_fp
                (Store.data_epoch env.store)
            in
            match Cache.Lru.find env.caches.cover key with
            | Some trace -> trace
            | None ->
              let trace = compute () in
              Cache.Lru.put env.caches.cover key trace;
              trace
          end)
    in
    let search_s = now () -. t0 in
    Result.map
      (fun r -> { r with planning_s = search_s })
      (run_cover cfg env q strategy trace.Gcov.chosen (Some trace))
  | Strategy.Datalog ->
    (* The Datalog arm of the verification gate: the program about to be
       evaluated must be safe and arity-consistent. *)
    if cfg.Config.verify then begin
      let rules =
        Refq_datalog.Rdf_encoding.rdfs_rules env.store
        @ Option.to_list (Refq_datalog.Rdf_encoding.query_rule env.store q)
      in
      let ds =
        Obs.span "verify" (fun () -> Refq_analysis.Check_datalog.check rules)
      in
      Analysis.record ds;
      List.iter
        (fun d -> Log.err (fun m -> m "verify: %a" Diagnostic.pp d))
        (Diagnostic.errors ds)
    end;
    let t0 = now () in
    let answers, stats =
      Obs.span "evaluate" (fun () ->
          Refq_datalog.Rdf_encoding.answer env.store q)
    in
    let t1 = now () in
    Ok
      {
        strategy;
        answers;
        planning_s = 0.0;
        reformulation_s = 0.0;
        evaluation_s = t1 -. t0;
        detail = Datalog_run stats;
      }

let answer_union ?config env u strategy =
  (* A union of BGP queries is answered disjunct by disjunct: answering
     commutes with union (q1 ∪ q2 over G∞ = answers(q1) ∪ answers(q2)). *)
  let rec loop acc_rel acc_reports = function
    | [] -> Ok (acc_rel, List.rev acc_reports)
    | q :: rest -> (
      match answer ?config env q strategy with
      | Error f -> Error f
      | Ok r ->
        let acc_rel =
          match acc_rel with
          | None -> Some (Relation.dedup r.answers)
          | Some acc ->
            let merged = Relation.create ~cols:(Relation.cols acc) in
            let push = Relation.distinct_adder merged in
            Relation.iter_rows acc push;
            Relation.iter_rows r.answers push;
            Some merged
        in
        loop acc_rel (r :: acc_reports) rest)
  in
  match loop None [] (Ucq.disjuncts u) with
  | Ok (Some rel, reports) -> Ok (rel, reports)
  | Ok (None, _) -> invalid_arg "Answer.answer_union: empty union"
  | Error f -> Error f

let decode env rel = Relation.decode_rows (Store.dictionary env.store) rel

let pp_report ppf r =
  let detail ppf = function
    | Reformulated d ->
      Fmt.pf ppf "cover %a, %d disjuncts in %d fragments, fragment sizes [%a]"
        Cover.pp d.cover d.jucq_size d.n_fragments
        (Fmt.list ~sep:(Fmt.any "; ") Fmt.int)
        d.fragment_cardinalities;
      let hits = List.filter Fun.id d.view_hits in
      if hits <> [] then
        Fmt.pf ppf ", %d fragment(s) from materialized views"
          (List.length hits);
      if d.engines <> [] then
        Fmt.pf ppf ", operators [%a]"
          (Fmt.list ~sep:(Fmt.any "; ") Fmt.string)
          d.engines
    | Saturated info ->
      Fmt.pf ppf "saturation %d → %d triples" info.Saturate.input_triples
        info.Saturate.output_triples
    | Datalog_run stats ->
      Fmt.pf ppf "datalog: %d facts derived in %d iterations"
        stats.Refq_datalog.Datalog.derived stats.Refq_datalog.Datalog.iterations
  in
  let plan ppf r =
    if r.planning_s > 0.0 then Fmt.pf ppf "plan %.3fs, " r.planning_s
  in
  Fmt.pf ppf "%a: %d answers (%areform %.3fs, eval %.3fs; %a)" Strategy.pp
    r.strategy
    (Relation.cardinality r.answers)
    plan r r.reformulation_s r.evaluation_s detail r.detail
