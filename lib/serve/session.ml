open Refq_rdf
open Refq_storage
open Refq_core
module Persist = Refq_persist.Persist
module Conc_trace = Refq_analysis.Conc_trace
module Check_conc = Refq_analysis.Check_conc
module Io = Refq_fault.Io
module Par = Refq_par.Par
module Views = Refq_views.Views
module Cache = Refq_cache.Cache

module Config = struct
  type t = {
    answer : Config.t;
    cache : Cache.policy;
    views_file : string option;
    persist_dir : string option;
    domains : int;
    io : Io.t;
  }

  let default =
    {
      answer = Config.default;
      cache = Cache.default_policy;
      views_file = None;
      persist_dir = None;
      domains = 1;
      io = Io.real;
    }

  let with_answer answer t = { t with answer }
  let with_cache cache t = { t with cache }
  let with_views_file path t = { t with views_file = Some path }
  let with_persist_dir dir t = { t with persist_dir = Some dir }
  let with_domains domains t = { t with domains }
  let with_io io t = { t with io }
end

type info = {
  recovery : Persist.report option;
  seeded : int;
  views_loaded : int;
  views_skipped : int;
  views_error : string option;
}

type t = {
  config : Config.t;
  store : Store.t;
  env : Answer.env;
  persist : Persist.t option;
  info : info;
  open_epochs : int * int;  (** store epochs right after open (and seed) *)
  mutable closed : bool;
}

(* Bring the persisted store to exactly [data]'s triple set, streaming
   the term-level diff through the delta hook — one WAL record per
   effective change. Removals run first so the diff never transits
   through a state outside old..new. *)
let sync_persisted h data =
  let st = Persist.store h in
  let current = Store.to_graph st in
  let removed = ref 0 and added = ref 0 in
  Graph.iter
    (fun tr ->
      if not (Graph.mem tr data) then begin
        Store.remove_triple st tr;
        incr removed
      end)
    current;
  Graph.iter
    (fun tr ->
      if not (Graph.mem tr current) then begin
        Store.add_triple st tr;
        incr added
      end)
    data;
  (!added, !removed)

let load_views env side =
  if Sys.file_exists side then
    match Views.load (Answer.views_ctx env) side with
    | Ok { Views.catalog; skipped } ->
      Answer.set_views env catalog;
      (Views.length catalog, skipped, None)
    | Error m -> (0, 0, Some (Fmt.str "%s: %s" side m))
  else (0, 0, None)

let open_ ?(config = Config.default) ?store () =
  match Par.set_domains config.Config.domains with
  | exception Invalid_argument m -> Error m
  | () -> (
    let opened =
      match config.Config.persist_dir with
      | None ->
        let st =
          match store with Some st -> st | None -> Store.create ()
        in
        Ok (st, None, None, None, 0)
      | Some dir -> (
        match Persist.open_dir ~io:config.Config.io dir with
        | Error m -> Error m
        | Ok h ->
          let st = Persist.store h in
          let seeded =
            match store with
            | Some seed when Store.size st = 0 && Store.size seed > 0 ->
              let added, _removed = sync_persisted h (Store.to_graph seed) in
              Persist.snapshot h;
              added
            | _ -> 0
          in
          Ok (st, Persist.take_sat h, Some h, Some (Persist.report h), seeded))
    in
    match opened with
    | Error m -> Error m
    | Ok (st, restored_sat, persist, recovery, seeded) ->
      let env = Answer.make_env ~cache:config.Config.cache st in
      Option.iter
        (fun (sat, delta) -> Answer.install_saturated ~delta env sat)
        restored_sat;
      let views_loaded, views_skipped, views_error =
        match config.Config.views_file with
        | Some side -> load_views env side
        | None -> (0, 0, None)
      in
      Ok
        {
          config;
          store = st;
          env;
          persist;
          info = { recovery; seeded; views_loaded; views_skipped; views_error };
          open_epochs = (Store.data_epoch st, Store.schema_epoch st);
          closed = false;
        })

let of_store ?config store = open_ ?config ~store ()

let config t = t.config
let info t = t.info
let store t = t.store
let env t = t.env
let persisted t = Option.is_some t.persist

let check_open t =
  if t.closed then invalid_arg "Session: use after close"

let sync t =
  check_open t;
  ignore (Answer.invalidate t.env)

let epochs t =
  sync t;
  Answer.epochs t.env

let answer ?config t q s =
  sync t;
  let config = Option.value config ~default:t.config.Config.answer in
  Answer.answer ~config t.env q s

let answer_union ?config t u s =
  sync t;
  let config = Option.value config ~default:t.config.Config.answer in
  Answer.answer_union ~config t.env u s

let lint ?config t q =
  sync t;
  let config = Option.value config ~default:t.config.Config.answer in
  Lint.query ~config t.env q

let decode t rel = Answer.decode t.env rel

let cache_stats t =
  check_open t;
  Answer.cache_stats t.env

(* A mutation is effective iff it moved an epoch; the environment gets
   exactly those, so its saturation is maintained rather than dropped. *)
let apply_effective t muts =
  check_open t;
  let epochs () = Store.data_epoch t.store + Store.schema_epoch t.store in
  let effective =
    List.filter
      (fun m ->
        let before = epochs () in
        (match m with
        | `Add tr -> Store.add_triple t.store tr
        | `Remove tr -> Store.remove_triple t.store tr);
        epochs () <> before)
      muts
  in
  ignore (Answer.invalidate ~delta:effective t.env);
  effective

let apply t muts = List.length (apply_effective t muts)

let snapshot_env t =
  check_open t;
  Answer.snapshot_env t.env

let snapshot t =
  check_open t;
  match t.persist with None -> () | Some h -> Persist.snapshot h

(* Rotate a snapshot generation only when this session actually moved
   the store: read-only runs close cheaply, mutating ones (the server's
   drain) leave a directory that recovers without replaying a WAL. *)
let close t =
  if not t.closed then begin
    t.closed <- true;
    (* Debug gate: while a concurrency trace is live, audit the events
       recorded so far at drain. Findings surface through the
       [conc.findings] counter (and the server's trace report, which runs
       the checker again over the saved trace). *)
    if Conc_trace.enabled () then
      ignore (Check_conc.gate () : Refq_analysis.Diagnostic.t list);
    match t.persist with
    | None -> ()
    | Some h ->
      if (Store.data_epoch t.store, Store.schema_epoch t.store) <> t.open_epochs
      then Persist.snapshot h;
      Persist.close h
  end
