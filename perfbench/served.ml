(* serve-mixed: `refq serve --persist` in its own process, driven by this
   process over one TCP connection, one request in eight a write. *)

open Refq_storage
open Refq_core
module Json = Refq_obs.Json
module Session = Refq_serve.Session
module Serve = Refq_serve.Serve
module Protocol = Refq_serve.Protocol
module Persist = Refq_persist.Persist
module Obs = Refq_obs.Obs

type spec = {
  refq : string;  (** the server binary *)
  nt_file : string;
  dir : string;  (** scratch directory for persistence *)
  reads : string array;  (** answer request lines, cycled *)
  writes : string array;  (** insert, delete, insert, ... request lines *)
  tail : float;
}

(* ------------------------------------------------------------------ *)
(* The server process and its connections                              *)
(* ------------------------------------------------------------------ *)

type server = { pid : int; port : int; out : in_channel; persist : string }

let start spec k =
  let persist = Filename.concat spec.dir (Printf.sprintf "persist-%d" k) in
  Common.rm_rf persist;
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process spec.refq
      [| spec.refq; "serve"; spec.nt_file; "--persist"; persist; "--port"; "0" |]
      Unix.stdin wr Unix.stderr
  in
  Unix.close wr;
  let out = Unix.in_channel_of_descr rd in
  (* Start-up lines end with "serving N triple(s) on HOST:PORT (...)". *)
  let rec port () =
    match input_line out with
    | line -> (
      match Scanf.sscanf line "serving %_d triple(s) on %_[^:]:%d" Fun.id with
      | p -> p
      | exception (Scanf.Scan_failure _ | End_of_file | Failure _) -> port ())
    | exception End_of_file -> failwith "refq serve exited before serving"
  in
  { pid; port = port (); out; persist }

type kind = Read of string | Write of string

type conn = { fd : Unix.file_descr; buf : Buffer.t }

let connect server =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, server.port));
  { fd; buf = Buffer.create 65536 }

let send c line =
  let s = line ^ "\n" in
  let rec go off =
    if off < String.length s then
      go (off + Unix.write_substring c.fd s off (String.length s - off))
  in
  go 0

let chunk = Bytes.create 65536

(* Read what is available; return the complete line if one arrived. *)
let receive c =
  let n = Unix.read c.fd chunk 0 (Bytes.length chunk) in
  if n = 0 then failwith "server closed the connection";
  Buffer.add_subbytes c.buf chunk 0 n;
  let s = Buffer.contents c.buf in
  match String.index_opt s '\n' with
  | None -> None
  | Some i ->
    Buffer.clear c.buf;
    Buffer.add_string c.buf (String.sub s (i + 1) (String.length s - i - 1));
    Some (String.sub s 0 i)

let call c line =
  send c line;
  let rec wait () = match receive c with Some l -> l | None -> wait () in
  wait ()

let stop server =
  (try
     let c = connect server in
     ignore (call c {|{"op":"shutdown"}|});
     Unix.close c.fd
   with Unix.Unix_error _ | Failure _ -> ());
  let _ = Unix.waitpid [] server.pid in
  close_in_noerr server.out

let kill server =
  (try Unix.kill server.pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] server.pid) with Unix.Unix_error _ -> ());
  close_in_noerr server.out

(* ------------------------------------------------------------------ *)
(* Responses                                                           *)
(* ------------------------------------------------------------------ *)

type response = {
  kind : kind;
  latency : float;
  ok : bool;
  epochs : int * int;
  rows : string list list;  (** reads only *)
  total_s : float;  (** the server's own answer time, reads only *)
}

let decode_response kind latency line =
  let bad = { kind; latency; ok = false; epochs = (-1, -1); rows = []; total_s = 0. } in
  match Json.parse line with
  | Error _ -> bad
  | Ok j ->
    let int_at path =
      List.fold_left (fun j k -> Option.bind j (Json.member k)) (Some j) path
      |> Fun.flip Option.bind Json.to_int
    in
    let ok = Json.member "ok" j = Some (Json.Bool true) in
    let epochs =
      match int_at [ "epochs"; "data" ], int_at [ "epochs"; "schema" ] with
      | Some d, Some s -> (d, s)
      | _ -> (-1, -1)
    in
    let rows =
      match Option.bind (Json.member "rows" j) Json.to_list with
      | None -> []
      | Some rs ->
        List.map
          (fun r ->
            Option.value ~default:[] (Json.to_list r)
            |> List.map (fun s -> Option.value ~default:"" (Json.to_string_opt s)))
          rs
    in
    let total_s =
      Option.value ~default:0. (Option.bind (Json.member "total_s" j) Json.to_float)
    in
    let ok =
      ok
      &&
      match kind with
      | Read _ -> true
      | Write line -> (
        (* every mutation of a batch must take effect *)
        match Protocol.parse_request line, Option.bind (Json.member "applied" j) Json.to_int with
        | Ok (Protocol.Update muts), Some n -> n = List.length muts
        | _ -> false)
    in
    { kind; latency; ok; epochs; rows; total_s }

(* ------------------------------------------------------------------ *)
(* The closed loop                                                     *)
(* ------------------------------------------------------------------ *)

(* Sends requests in order, each when the previous one has been
   answered, while [more k] holds for the [k]-th; [next k] gives it.
   Returns the responses and the wall time. *)
let send_while c ~more ~next =
  let t0 = Common.now () in
  let rec go k acc =
    if not (more k) then List.rev acc
    else begin
      let kind = next k in
      let line = match kind with Read l | Write l -> l in
      let sent = Common.now () in
      let resp = call c line in
      go (k + 1) (decode_response kind (Common.now () -. sent) resp :: acc)
    end
  in
  let responses = go 0 [] in
  (responses, Common.now () -. t0)

(* The first pass: request [k] is a write when [k mod 8 = 7]; writes
   alternate insert and delete. When the time is spent, a dangling
   insert still gets its delete, so the store ends as it began. Reads
   start at the second line (set-up answered the first). *)
let first_pass c spec ~seconds =
  let t0 = Common.now () in
  let reads = ref 0 and writes = ref 0 in
  let spent () = Common.now () -. t0 >= seconds in
  send_while c
    ~more:(fun _ -> not (spent () && !writes mod 2 = 0))
    ~next:(fun k ->
      if spent () || k mod 8 = 7 then begin
        incr writes;
        Write spec.writes.((!writes - 1) mod Array.length spec.writes)
      end
      else begin
        incr reads;
        Read spec.reads.(!reads mod Array.length spec.reads)
      end)

(* A later pass: the first pass's requests again, in the same order. *)
let repeat_pass c first =
  let a = Array.of_list (List.map (fun r -> r.kind) first) in
  send_while c ~more:(fun k -> k < Array.length a) ~next:(fun k -> a.(k))

(* ------------------------------------------------------------------ *)
(* The gate: a sequential in-process replay                            *)
(* ------------------------------------------------------------------ *)

(* Replays the acknowledged writes in epoch order against an in-process
   session, building each epoch snapshot the way the server does (copy
   the live store, fresh environment), and answers every read against
   the snapshot its pinned epoch pair names. Returns the reads whose
   digest differs and the number of reads whose epochs name no state.
   The replay is traced like an in-process read, which is where the
   serve-mixed per-layer times come from. *)
let replay tr spec ~base responses =
  let session =
    Tracer.root tr "setup" (fun () -> Inproc.open_session ~config:Config.default spec.nt_file)
  in
  let snapshot () =
    Tracer.root tr "op" @@ fun () ->
    let copy = Obs.span "storage.copy" (fun () -> Store.copy (Session.store session)) in
    Obs.span "serve.snapshot_env" (fun () -> Answer.make_env copy)
  in
  let by_epochs = Hashtbl.create 64 in
  List.iter
    (fun r -> match r.kind with Read _ when r.ok -> Hashtbl.add by_epochs r.epochs r | _ -> ())
    responses;
  let wrong = ref [] and checked = ref 0 in
  let answer_reads env epochs =
    List.iter
      (fun r ->
        incr checked;
        let line = match r.kind with Read l | Write l -> l in
        let digest =
          Tracer.root tr "op" @@ fun () ->
          match Protocol.parse_request line with
          | Ok (Protocol.Answer { query; strategy; _ }) -> (
            match Strategy.of_string strategy with
            | Error _ -> "unknown strategy"
            | Ok s -> (
              match
                Inproc.answer_text ~answer:(Answer.answer env) ~decode:(Answer.decode env)
                  query s
              with
              | Some (rows, _) -> Common.digest_rows rows
              | None -> "no answer"))
          | _ -> "not a read"
        in
        if digest <> Common.digest_rows r.rows then wrong := r :: !wrong)
      (List.rev (Hashtbl.find_all by_epochs epochs))
  in
  (* Both sides count one data epoch per effective mutation from their
     own starting pair, so the replay's pairs map onto the server's by a
     constant offset. *)
  let env0 = snapshot () in
  let (d0, s0) = Answer.epochs env0 and (bd, bs) = base in
  let shift (d, s) = (d - d0 + bd, s - s0 + bs) in
  answer_reads env0 base;
  let writes =
    List.filter (fun r -> match r.kind with Write _ -> r.ok | Read _ -> false) responses
    |> List.sort (fun a b -> compare a.epochs b.epochs)
  in
  List.iter
    (fun r ->
      let line = match r.kind with Read l | Write l -> l in
      match Protocol.parse_request line with
      | Ok (Protocol.Update muts) ->
        Tracer.root tr "op" (fun () ->
            ignore (Obs.span "serve.apply" (fun () -> Session.apply session muts)));
        let env = snapshot () in
        (* A divergence leaves the reads pinned there unchecked, which
           fails the run. *)
        if shift (Answer.epochs env) = r.epochs then answer_reads env r.epochs
        else Common.note "replay: epochs diverge from the server's at a write"
      | _ -> ())
    writes;
  let reads = List.filter (fun r -> match r.kind with Read _ -> r.ok | Write _ -> false) responses in
  (List.rev !wrong, List.length reads - !checked)

(* ------------------------------------------------------------------ *)
(* One run                                                             *)
(* ------------------------------------------------------------------ *)

let wal_bytes server =
  match Unix.stat (Persist.path server.persist `Wal_cur) with
  | st -> st.Unix.st_size
  | exception Unix.Unix_error _ -> 0

(* The server's counters, from the [stats] verb's Prometheus text. *)
let scrape server =
  let c = connect server in
  let line = call c {|{"op":"stats"}|} in
  Unix.close c.fd;
  let text =
    match Json.parse line with
    | Ok j -> Option.value ~default:"" (Option.bind (Json.member "prometheus" j) Json.to_string_opt)
    | Error _ -> ""
  in
  String.split_on_char '\n' text
  |> List.filter_map (fun l ->
         if l = "" || l.[0] = '#' then None
         else Scanf.sscanf_opt l "%s %d" (fun name v -> (name, v)))

let user_bytes responses =
  List.fold_left
    (fun acc r ->
      match r.kind with
      | Write line -> (
        match Protocol.parse_request line with
        | Ok (Protocol.Update muts) ->
          List.fold_left
            (fun acc (`Add t | `Remove t) -> acc + String.length (Inputs.triple_line t))
            acc muts
        | _ -> acc)
      | Read _ -> acc)
    0 responses

let is_read r = match r.kind with Read _ -> true | Write _ -> false

(* [Common.setups] server start-ups (each seeding a fresh persistence
   directory) timed to their first answer; the last server then takes
   the timed passes over one connection, or when traced a single pass
   with a [stats] scrape around it. The gate
   replays every response after the server has drained. The server
   cannot be traced from here, so the traced run also replays with
   tracing on: its layer times, and its tracing overhead against the
   untraced replay, are the in-process figures for the same work. *)
let run spec ~seconds ~trace =
  Common.rm_rf spec.dir;
  Unix.mkdir spec.dir 0o755;
  let live = ref None in
  Fun.protect ~finally:(fun () -> Option.iter kill !live) @@ fun () ->
  let setup k =
    let t0 = Common.now () in
    let server = start spec k in
    live := Some server;
    let c = connect server in
    let line = spec.reads.(0) in
    let resp = call c line in
    let t = Common.now () -. t0 in
    Unix.close c.fd;
    (decode_response (Read line) t resp, t)
  in
  let firsts = ref [] and setup_times = ref [] in
  for k = 0 to Common.setups - 1 do
    Option.iter stop !live;
    live := None;
    let first, t = setup k in
    firsts := first :: !firsts;
    setup_times := t :: !setup_times
  done;
  let server = Option.get !live in
  let base = (List.hd !firsts).epochs in
  let c = connect server in
  let wal0 = wal_bytes server in
  let before = if trace then scrape server else [] in
  let passes =
    if trace then [ first_pass c spec ~seconds ]
    else
      let ((first, _) as p0) =
        first_pass c spec ~seconds:(seconds /. float_of_int Common.passes)
      in
      p0 :: List.init (Common.passes - 1) (fun _ -> repeat_pass c first)
  in
  let pass = List.concat_map fst passes in
  let counters =
    if not trace then []
    else
      let after = scrape server in
      List.map
        (fun (name, v) -> (name, v - Option.value ~default:0 (List.assoc_opt name before)))
        after
  in
  let wal1 = wal_bytes server in
  let rss = Common.peak_rss_mb (string_of_int server.pid) in
  Unix.close c.fd;
  stop server;
  live := None;
  let responses = !firsts @ pass in
  let m0, c0 = Inproc.gc_counts () in
  let (wrong, unchecked), replay_s =
    Common.time (fun () -> replay Tracer.off spec ~base responses)
  in
  let m1, c1 = Inproc.gc_counts () in
  Common.note "replay gate: %.2fs, %d wrong, %d unchecked" replay_s
    (List.length wrong) unchecked;
  List.iter
    (fun r ->
      match r.kind with
      | Read l -> Common.note "WRONG ANSWER at epochs (%d,%d): %s" (fst r.epochs) (snd r.epochs) l
      | Write _ -> ())
    wrong;
  let failed = List.length (List.filter (fun r -> not r.ok) responses) + unchecked in
  let outcome metrics =
    {
      Common.correct = wrong = [] && unchecked = 0;
      attempted = List.length responses;
      failed;
      metrics;
    }
  in
  let reads = List.filter is_read pass in
  if not trace then begin
    let lat r = if r.ok then Common.ms r.latency else infinity in
    outcome
      (Common.end_to_end ~tail:spec.tail ~setup_times:!setup_times ~rss
         ~passes:
           (List.map
              (fun (responses, wall) ->
                let reads = List.filter is_read responses in
                {
                  Common.reads = List.map lat reads;
                  rows = List.fold_left (fun acc r -> acc + List.length r.rows) 0 reads;
                  ops_per_s = float_of_int (List.length responses) /. wall;
                  writes = List.map lat (List.filter (fun r -> not (is_read r)) responses);
                })
              passes))
  end
  else begin
    let tr = Tracer.create ~on:true in
    let _, traced_replay_s =
      Common.time (fun () -> replay tr spec ~base responses)
    in
    let replayed = List.length (List.filter is_read responses) in
    (* The server's extra set-up: opening a fresh persistence directory
       seeds it through the WAL and a snapshot (and builds the
       environment). *)
    let store = Inproc.load_store spec.nt_file in
    Tracer.root tr "setup" (fun () ->
        Obs.span "persist.seed" (fun () ->
            let dir = Filename.concat spec.dir "persist-seed" in
            match
              Session.open_ ~config:Session.Config.(default |> with_persist_dir dir) ~store ()
            with
            | Ok s -> Session.close s
            | Error m -> failwith m));
    Layers.print_breakdown tr;
    List.iter (fun (k, v) -> if v <> 0 then Common.note "scrape delta %s %d" k v) counters;
    outcome
      (Layers.metrics
         {
           Layers.setup_spans = tr;
           spans = tr;
           span_reads = replayed;
           counter =
             (fun name ->
               Option.value ~default:0
                 (List.assoc_opt (Refq_serve.Metrics.metric_name name) counters));
           counter_reads = List.length reads;
           rows = List.fold_left (fun acc r -> acc + List.length r.rows) 0 reads;
           outside_ms =
             Common.mean
               (List.map (fun r -> Common.ms (r.latency -. r.total_s)) reads);
           minor_words_per_op = (m1 -. m0) /. float_of_int (max 1 replayed);
           major_collections = c1 - c0;
           wal_bytes_per_user_byte =
             float_of_int (wal1 - wal0) /. float_of_int (max 1 (user_bytes pass));
           overhead_share = (traced_replay_s /. replay_s) -. 1.;
         })
  end
