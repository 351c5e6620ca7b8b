(* The two in-process workloads: one client, one domain, a closed loop
   of reads through [Session] — query text in, rendered rows out. *)

open Refq_rdf
open Refq_storage
open Refq_core
module Session = Refq_serve.Session
module Serve = Refq_serve.Serve
module Obs = Refq_obs.Obs

(* One read of the stream: the query text, and how it is answered and
   checked. *)
type query = {
  text : string;
  strategy : Strategy.t;
  config : Refq_core.Config.t;  (** the answering config of the timed read *)
  reference : Strategy.t * Refq_core.Config.t;
      (** what the untimed gate compares its answer against *)
}

(* Read [i] of a stream: [engines i] gives its join operator and that of
   its reference answer under [reference]. *)
let query ~reference ~engines i text strategy =
  let engine, reference_engine = engines i in
  {
    text;
    strategy;
    config = Config.(with_engine engine default);
    reference = (reference, Config.(with_engine reference_engine default));
  }

type spec = {
  nt_file : string;
  config : Refq_core.Config.t;  (** the session's answering config *)
  stream : query array;  (** read in order, wrapping around at the end *)
  writes : Refq_serve.Protocol.mutation list array;
      (** update batches applied before each pass, each insert followed
          by its delete *)
  tail : float;  (** the percentile reported as [read_tail_ms] *)
}

type read = {
  text : string;
  ok : bool;
  latency : float;  (** seconds, query text to rendered rows *)
  answer_s : float;  (** the answer's own [total_s] *)
  digest : string;
  rows : int;
}

(* Query text in, rendered rows out, as the server answers a read:
   parse, answer, decode, and render the response's JSON rows, each call
   into a layer in a trace span. Returns the row strings (for the digest)
   and the answer's own [total_s]; [None] when the query does not parse
   or answering fails. *)
let answer_text ~answer ~decode text strategy =
  match Obs.span "query.parse" (fun () -> Serve.parse_query ~env:Inputs.ns text) with
  | Error _ -> None
  | Ok q -> (
    match Obs.span "core.answer" (fun () -> answer q strategy) with
    | Error _ -> None
    | Ok r ->
      Obs.span "serve.render" (fun () ->
          let rows = Common.render_terms Inputs.ns (decode r.Answer.answers) in
          let (_ : string) = Common.render_json rows in
          Some (rows, Answer.total_s r)))

let read tr session (q : query) =
  Tracer.root tr "op" @@ fun () ->
  answer_text
    ~answer:(Session.answer ~config:q.config session)
    ~decode:(Session.decode session) q.text q.strategy

let timed_read tr session (q : query) =
  let text = q.text in
  let t0 = Common.now () in
  let out = read tr session q in
  let latency = Common.now () -. t0 in
  match out with
  | None -> { text; ok = false; latency; answer_s = 0.; digest = ""; rows = 0 }
  | Some (rows, answer_s) ->
    {
      text;
      ok = true;
      latency;
      answer_s;
      digest = Common.digest_rows rows;
      rows = List.length rows;
    }

(* Parse and index an N-Triples file. *)
let load_store nt_file =
  let graph =
    Obs.span "rdf.parse" (fun () ->
        match Ntriples.parse_file nt_file with
        | Ok g -> g
        | Error e -> failwith (Fmt.str "%a" Ntriples.pp_error e))
  in
  Obs.span "storage.load" (fun () -> Store.of_graph graph)

let open_session ~config nt_file =
  let store = load_store nt_file in
  Obs.span "core.env_build" (fun () ->
      match Session.of_store ~config:Session.Config.(default |> with_answer config) store with
      | Ok s -> s
      | Error m -> failwith m)

(* From the N-Triples file on disk to the first answer: parse, encode and
   index, build the answering environment, answer the stream's first
   query. The traced part is everything before the first answer. *)
let setup tr spec =
  let t0 = Common.now () in
  let session =
    Tracer.root tr "setup" (fun () -> open_session ~config:spec.config spec.nt_file)
  in
  let first = timed_read Tracer.off session spec.stream.(0) in
  (session, first, Common.now () -. t0)

(* The closed loop: reads in stream order from the second query (set-up
   answered the first) until the measured time (the sum of read
   latencies) reaches the budget, or for a fixed count. A program fast
   enough to reach the end of the stream starts it again; the stream is
   far longer than the caches, so its reads still miss. *)
let loop tr session spec budget =
  let reads = ref [] and busy = ref 0. and count = ref 0 in
  let continue () =
    match budget with
    | Common.Seconds s -> !busy < s
    | Common.Count c -> !count < c
  in
  let n = Array.length spec.stream in
  while continue () do
    let i = !count + 1 in
    if i = n then Common.note "query stream wrapped around after %d reads" (n - 1);
    let r = timed_read tr session spec.stream.(i mod n) in
    busy := !busy +. r.latency;
    reads := r :: !reads;
    incr count
  done;
  (List.rev !reads, !busy)

(* Apply batches in order; each insert is followed by its delete, so the
   store ends as it began. Latency is until [Session.apply] returns; a
   batch fails when not every mutation was effective. *)
let write_all tr session batches =
  List.map
    (fun muts ->
      Tracer.root tr "op" @@ fun () ->
      let t0 = Common.now () in
      let applied = Obs.span "serve.apply" (fun () -> Session.apply session muts) in
      (applied = List.length muts, Common.now () -. t0))
    batches

(* The untimed correctness gate: every read's digest must equal its
   reference answer to the same query on the same store. Returns the
   reads that disagree. *)
let gate session spec reads =
  let by_text = Hashtbl.create 1024 in
  Array.iter (fun (q : query) -> Hashtbl.replace by_text q.text q) spec.stream;
  let want = Hashtbl.create 1024 in
  let reference text =
    match Hashtbl.find_opt want text with
    | Some d -> d
    | None ->
      let (q : query) = Hashtbl.find by_text text in
      let strategy, config = q.reference in
      let d =
        match
          answer_text
            ~answer:(Session.answer ~config session)
            ~decode:(Session.decode session) text strategy
        with
        | Some (rows, _) -> Common.digest_rows rows
        | None -> "no answer"
      in
      Hashtbl.replace want text d;
      d
  in
  List.filter (fun r -> r.ok && reference r.text <> r.digest) reads

let gc_counts () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words, s.Gc.major_collections)

(* [Common.setups] set-ups (each from a collected heap, keeping only the last
   session), then the timed passes, then the untimed gate. Each pass
   applies the update batches and then reads the stream from its second
   query: the first for a share of the measured time
   (the sum of read latencies), the others for as many reads as it
   managed. A pass's writes move the data epoch, which empties the cover
   and result caches, so every pass starts from the same caches.
   With [trace], the batches are applied once and the loop runs twice
   over the same reads: untraced for half the time, then traced, and the
   difference is the tracing overhead. *)
let run spec ~seconds ~trace =
  let setup_tr = Tracer.create ~on:trace and tr = Tracer.create ~on:trace in
  let session = ref None and firsts = ref [] and setup_times = ref [] in
  for _ = 1 to Common.setups do
    session := None;
    Gc.compact ();
    let s, first, t = setup setup_tr spec in
    session := Some s;
    firsts := first :: !firsts;
    setup_times := t :: !setup_times
  done;
  let session = Option.get !session and firsts = !firsts and setup_times = !setup_times in
  let pass budget =
    let writes = write_all Tracer.off session (Array.to_list spec.writes) in
    let reads, busy = loop Tracer.off session spec budget in
    (writes, reads, busy)
  in
  let outcome ~writes ~reads metrics =
    let all_reads = firsts @ reads in
    let wrong = gate session spec all_reads in
    List.iter (fun r -> Common.note "WRONG ANSWER: %s" r.text) wrong;
    {
      Common.correct = wrong = [];
      attempted = List.length all_reads + List.length writes;
      failed =
        List.length (List.filter (fun r -> not r.ok) all_reads)
        + List.length (List.filter (fun (ok, _) -> not ok) writes);
      metrics = metrics ();
    }
  in
  if not trace then begin
    let ((_, first_reads, _) as first) =
      pass (Common.Seconds (seconds /. float_of_int Common.passes))
    in
    let n = List.length first_reads in
    let passes = first :: List.init (Common.passes - 1) (fun _ -> pass (Common.Count n)) in
    let rss = Common.peak_rss_mb "self" in
    let ms_or_inf ok s = if ok then Common.ms s else infinity in
    outcome
      ~writes:(List.concat_map (fun (w, _, _) -> w) passes)
      ~reads:(List.concat_map (fun (_, r, _) -> r) passes)
      (fun () ->
        Common.end_to_end ~tail:spec.tail ~setup_times ~rss
          ~passes:
            (List.map
               (fun (writes, reads, busy) ->
                 {
                   Common.reads = List.map (fun r -> ms_or_inf r.ok r.latency) reads;
                   rows = List.fold_left (fun acc r -> acc + r.rows) 0 reads;
                   ops_per_s = float_of_int (List.length reads) /. busy;
                   writes = List.map (fun (ok, s) -> ms_or_inf ok s) writes;
                 })
               passes))
  end
  else begin
    let writes = write_all tr session (Array.to_list spec.writes) in
    let m0, c0 = gc_counts () in
    let reads, busy = loop Tracer.off session spec (Common.Seconds (seconds /. 2.)) in
    let m1, c1 = gc_counts () in
    let traced_reads, traced_busy =
      loop tr session spec (Common.Count (List.length reads))
    in
    outcome ~writes ~reads:(reads @ traced_reads) (fun () ->
        Layers.print_breakdown setup_tr;
        Layers.print_breakdown tr;
        let n = List.length traced_reads in
        Layers.metrics
          {
            Layers.setup_spans = setup_tr;
            spans = tr;
            span_reads = n;
            counter = Tracer.counter tr;
            counter_reads = n;
            rows = List.fold_left (fun acc r -> acc + r.rows) 0 traced_reads;
            outside_ms =
              Common.mean
                (List.map (fun r -> Common.ms (r.latency -. r.answer_s)) traced_reads);
            minor_words_per_op = (m1 -. m0) /. float_of_int (List.length reads);
            major_collections = c1 - c0;
            wal_bytes_per_user_byte = 0.;
            overhead_share = (traced_busy /. busy) -. 1.;
          })
  end
