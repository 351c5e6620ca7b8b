(* Interactive demonstration loop — the command-line analogue of the
   paper's GUI scenario:

     1. pick an RDF graph and visualize its statistics,
     2. select a query and answer it through a chosen strategy (or all),
     3. observe runtimes, plans, covers and GCov's explored space,
     4. modify the data or the constraints and re-run.

   Reads commands from stdin; `help` lists them. Designed to be equally
   usable piped from a script (deterministic output, no escape codes). *)

open Refq_rdf
open Refq_query
open Refq_storage
open Refq_core
module Session = Refq_serve.Session

type state = {
  mutable session : Session.t option;
  mutable query : Cq.t option;
  mutable profile : Refq_reform.Profiles.t;
  mutable minimize : bool;
  mutable use_cache : bool;
  ns : Namespace.t;
}

let config st =
  let profile = st.profile and minimize = st.minimize in
  let use_cache = st.use_cache in
  Answer.Config.(
    default |> with_profile profile |> with_minimize minimize
    |> with_cache use_cache)

let help () =
  print_string
    {|commands:
  generate lubm|dblp|geo <scale>   build a synthetic dataset (step 1)
  load <file.nt|file.ttl>          load a dataset
  stats                            dataset statistics (step 1)
  query <SPARQL or q(x) :- ...>    set the current query (step 2)
  run [sat|ucq|scq|gcov|datalog]   answer it (default: every strategy)
  cover <spec e.g. "1,3;2">        answer through a user-chosen cover
  explain                          reformulation sizes, GCov space, plans (step 3)
  profile <name>                   complete | hierarchies-only | subclass-only | none
  minimize on|off                  containment-based disjunct pruning
  cache on|off|stats               answering caches (reformulation, cover, results)
  add <N-Triples statement>        modify the graph (step 4)
  remove <N-Triples statement>     modify the graph (step 4)
  saturate                         materialize and show G∞ statistics
  help                             this text
  quit                             leave
|}

let require_session st k =
  match st.session with
  | Some session -> k session
  | None -> print_endline "no dataset loaded — use `generate` or `load` first"

let set_store st store =
  match Session.of_store store with
  | Ok session -> st.session <- Some session
  | Error m -> print_endline m

let require_query st k =
  match st.query with
  | Some q -> k q
  | None -> print_endline "no query set — use `query ...` first"

let print_report st session r =
  Fmt.pr "%a@." Answer.pp_report r;
  let rows = Session.decode session r.Answer.answers in
  let shown = List.filteri (fun i _ -> i < 10) rows in
  List.iter
    (fun row ->
      Fmt.pr "  %a@."
        (Fmt.list ~sep:(Fmt.any " | ") (Namespace.pp_term st.ns))
        row)
    shown;
  if List.length rows > 10 then
    Fmt.pr "  ... (%d more)@." (List.length rows - 10)

let run_strategy st session q s =
  match Session.answer ~config:(config st) session q s with
  | Ok r -> print_report st session r
  | Error f ->
    Fmt.pr "%s: FAILED after %.3fs: %s@."
      (Strategy.name f.Answer.f_strategy)
      f.Answer.f_reformulation_s f.Answer.reason

let handle st line =
  let line = String.trim line in
  let cmd, arg =
    match String.index_opt line ' ' with
    | Some i ->
      ( String.sub line 0 i,
        String.trim (String.sub line (i + 1) (String.length line - i - 1)) )
    | None -> (line, "")
  in
  match String.lowercase_ascii cmd with
  | "" -> ()
  | "help" -> help ()
  | "generate" -> (
    match String.split_on_char ' ' arg with
    | [ workload; scale ] -> (
      let scale = int_of_string_opt scale in
      match workload, scale with
      | _, None -> print_endline "usage: generate lubm|dblp|geo <scale>"
      | "lubm", Some scale ->
        set_store st (Refq_workload.Lubm.generate ~scale ());
        Fmt.pr "generated LUBM(%d)@." scale
      | "dblp", Some scale ->
        set_store st (Refq_workload.Dblp.generate ~scale ());
        Fmt.pr "generated DBLP(%d)@." scale
      | "geo", Some scale ->
        set_store st (Refq_workload.Geo.generate ~scale ());
        Fmt.pr "generated GEO(%d)@." scale
      | other, _ -> Fmt.pr "unknown workload %S@." other)
    | _ -> print_endline "usage: generate lubm|dblp|geo <scale>")
  | "load" -> (
    let result =
      if Filename.check_suffix arg ".ttl" then
        Result.map_error
          (fun e -> Fmt.str "%a" Turtle.pp_error e)
          (Turtle.parse_file ~env:st.ns arg)
      else
        Result.map_error
          (fun e -> Fmt.str "%a" Ntriples.pp_error e)
          (Ntriples.parse_file arg)
    in
    match result with
    | Ok g ->
      set_store st (Store.of_graph g);
      Fmt.pr "loaded %d triples@." (Graph.cardinal g)
    | Error m -> print_endline m)
  | "stats" ->
    require_session st (fun session ->
        let store = Session.store session in
        Fmt.pr "%a@." Stats.pp store)
  | "query" -> (
    let parse =
      if String.length arg > 1 && arg.[0] = 'q' && String.contains arg '-' then
        Sparql.parse_notation ~env:st.ns
      else Sparql.parse ~env:st.ns
    in
    match parse arg with
    | Ok q ->
      st.query <- Some q;
      Fmt.pr "query set: %a@." Cq.pp q
    | Error e -> Fmt.pr "query: %a@." Sparql.pp_error e)
  | "run" ->
    require_session st (fun session ->
        require_query st (fun q ->
            match arg with
            | "" -> List.iter (run_strategy st session q) Strategy.all_fixed
            | name -> (
              match Strategy.of_string name with
              | Ok s -> run_strategy st session q s
              | Error m -> print_endline m)))
  | "cover" ->
    require_session st (fun session ->
        require_query st (fun q ->
            let n_atoms = List.length q.Cq.body in
            try
              let fragments =
                String.split_on_char ';' arg
                |> List.map (fun frag ->
                       String.split_on_char ',' frag
                       |> List.map (fun s -> int_of_string (String.trim s) - 1))
              in
              let cover = Cover.make ~n_atoms fragments in
              run_strategy st session q (Strategy.Jucq cover)
            with Invalid_argument m | Failure m -> print_endline m))
  | "explain" ->
    require_session st (fun session ->
        require_query st (fun q ->
            let env = Session.env session in
            let cl = Answer.closure env in
            Fmt.pr "UCQ reformulation size: %d disjuncts@."
              (Refq_reform.Reformulate.count_disjuncts ~profile:st.profile cl q);
            let trace =
              Gcov.search ~config:(config st) (Answer.card_env env) cl q
            in
            Fmt.pr "GCov explored %d covers in %d rounds:@."
              (List.length trace.Gcov.explored)
              trace.Gcov.iterations;
            List.iter
              (fun s ->
                Fmt.pr "  %s %-40s cost %12.0f@."
                  (if s.Gcov.accepted then "*" else " ")
                  (Fmt.str "%a" Cover.pp s.Gcov.cover)
                  s.Gcov.estimate.Refq_cost.Cost_model.cost)
              trace.Gcov.explored;
            match
              Refq_reform.Reformulate.cover_to_jucq ~profile:st.profile cl q
                trace.Gcov.chosen
            with
            | jucq ->
              Fmt.pr "@.fragment plan:@.%a@." Refq_cost.Plan.pp_jucq_plan
                (Refq_cost.Plan.explain_jucq (Answer.card_env env) jucq)
            | exception Refq_reform.Reformulate.Too_large _ -> ()))
  | "profile" -> (
    match
      List.find_opt
        (fun p -> p.Refq_reform.Profiles.name = arg)
        Refq_reform.Profiles.all
    with
    | Some p ->
      st.profile <- p;
      Fmt.pr "profile: %s@." p.Refq_reform.Profiles.name
    | None ->
      Fmt.pr "unknown profile %S (try: %s)@." arg
        (String.concat ", "
           (List.map
              (fun p -> p.Refq_reform.Profiles.name)
              Refq_reform.Profiles.all)))
  | "minimize" -> (
    match arg with
    | "on" ->
      st.minimize <- true;
      print_endline "minimization on"
    | "off" ->
      st.minimize <- false;
      print_endline "minimization off"
    | _ -> print_endline "usage: minimize on|off")
  | "cache" -> (
    match arg with
    | "on" ->
      st.use_cache <- true;
      print_endline "caching on"
    | "off" ->
      st.use_cache <- false;
      print_endline "caching off"
    | "stats" ->
      require_session st (fun session ->
          let data, schema = Session.epochs session in
          Fmt.pr "epochs: data=%d schema=%d@." data schema;
          List.iter
            (fun s -> Fmt.pr "%a@." Answer.Cache.pp_stats s)
            (Session.cache_stats session))
    | _ -> print_endline "usage: cache on|off|stats")
  | "add" | "remove" ->
    require_session st (fun session ->
        let apply t =
          let mut = if cmd = "add" then `Add t else `Remove t in
          ignore (Session.apply session [ mut ]);
          Fmt.pr "%s %a@." cmd Triple.pp t
        in
        match Ntriples.parse_triples (arg ^ " .") with
        | Error _ | Ok [] -> (
          (* Accept both with and without the trailing dot. *)
          match Ntriples.parse_triples arg with
          | Ok [ t ] -> apply t
          | Ok _ | Error _ ->
            print_endline "could not parse the statement (N-Triples syntax)")
        | Ok [ t ] -> apply t
        | Ok _ -> print_endline "one statement at a time")
  | "saturate" ->
    require_session st (fun session ->
        let _, info = Answer.saturated (Session.env session) in
        Fmt.pr "G∞: %d → %d triples, %d round(s)@."
          info.Refq_saturation.Saturate.input_triples
          info.Refq_saturation.Saturate.output_triples
          info.Refq_saturation.Saturate.rounds)
  | "quit" | "exit" -> raise Exit
  | other -> Fmt.pr "unknown command %S — try `help`@." other

let main () =
  let ns =
    List.fold_left
      (fun env (prefix, uri) -> Namespace.add env ~prefix ~uri)
      Namespace.default
      [
        ("ub", Refq_workload.Lubm.ns);
        ("dblp", Refq_workload.Dblp.ns);
        ("geo", Refq_workload.Geo.ns);
        ("ex", "http://example.org/");
      ]
  in
  let st =
    {
      session = None;
      query = None;
      profile = Refq_reform.Profiles.complete;
      minimize = false;
      use_cache = true;
      ns;
    }
  in
  let interactive = Unix.isatty Unix.stdin in
  if interactive then begin
    print_endline "refq demo — reformulation-based query answering in RDF";
    print_endline "type `help` for commands";
  end;
  try
    while true do
      if interactive then print_string "demo> ";
      match In_channel.input_line stdin with
      | Some line -> (try handle st line with Exit -> raise Exit)
      | None -> raise Exit
    done
  with Exit -> if interactive then print_endline "bye"
