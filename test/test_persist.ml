(* Crash-safe persistence: codec roundtrips, two-generation recovery,
   and the crash-consistency property — for every injected fault point
   across a seeded mutation workload, recovery must land on some prefix
   of the applied deltas, never raise, and pass the integrity audit. *)

open Refq_rdf
open Refq_storage
module Io = Refq_fault.Io
module Binio = Refq_persist.Binio
module Wal = Refq_persist.Wal
module Snapshot = Refq_persist.Snapshot
module Persist = Refq_persist.Persist
module Crc32 = Refq_util.Crc32
module Audit = Refq_analysis.Audit_store
module Diagnostic = Refq_analysis.Diagnostic

(* ------------------------------------------------------------------ *)
(* Scratch directories                                                 *)
(* ------------------------------------------------------------------ *)

let fresh_dir () =
  let d = Filename.temp_file "refq_persist" ".dir" in
  Sys.remove d;
  Sys.mkdir d 0o755;
  d

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let read_file p = Result.get_ok (Io.read_file Io.real p)
let write_file p s = Io.write_file Io.real p s

(* ------------------------------------------------------------------ *)
(* Fixtures                                                            *)
(* ------------------------------------------------------------------ *)

let ex n = Term.uri ("http://example.org/" ^ n)
let c i = ex (Printf.sprintf "C%d" i)
let x i = ex (Printf.sprintf "x%d" i)
let prop = ex "p"
let t s p o = Triple.make s p o

type delta = A of Triple.t | R of Triple.t

let apply st = function
  | A tr -> Store.add_triple st tr
  | R tr -> Store.remove_triple st tr

(* A deterministic workload mixing schema- and data-level adds and
   removes; every delta is effective by construction (no duplicate adds,
   removals only target live triples). *)
let deltas =
  [
    A (t (c 1) Vocab.rdfs_subclassof (c 2));
    A (t (c 2) Vocab.rdfs_subclassof (c 3));
    A (t prop Vocab.rdfs_domain (c 1));
  ]
  @ List.concat_map
      (fun i -> [ A (t (x i) Vocab.rdf_type (c 1)); A (t (x i) prop (x (i + 1))) ])
      [ 1; 2; 3; 4; 5; 6; 7; 8 ]
  @ [
      R (t (x 2) prop (x 3));
      A (t prop Vocab.rdfs_range (c 3));
      R (t (c 2) Vocab.rdfs_subclassof (c 3));
      A (t (x 9) Vocab.rdf_type (c 2));
      R (t (x 5) Vocab.rdf_type (c 1));
      A (t (x 2) prop (x 3));
      A (t (c 2) Vocab.rdfs_subclassof (c 4));
      R (t (x 9) Vocab.rdf_type (c 2));
      A (t (x 10) prop (x 1));
    ]

(* Snapshot rotations exercised mid-workload (the second carries a
   saturation closure). *)
let snap_points = [ 7; 19 ]

(* Every state the workload legally passes through: the empty store and
   each post-delta state. A crash-recovered store must equal one of
   these. *)
let prefixes =
  let st = Store.create () in
  Graph.empty
  :: List.map
       (fun d ->
         apply st d;
         Store.to_graph st)
       deltas

let last_prefix = List.nth prefixes (List.length deltas)

let run_workload io dir =
  match Persist.open_dir ~io dir with
  | Error m -> Alcotest.failf "open_dir %s: %s" dir m
  | Ok h ->
      let st = Persist.store h in
      List.iteri
        (fun i d ->
          apply st d;
          if List.mem i snap_points then
            if i = List.nth snap_points 1 then
              Persist.snapshot ~sat:(Refq_saturation.Saturate.store st) h
            else Persist.snapshot h)
        deltas;
      Persist.close h

let recover_store dir =
  match Persist.open_dir dir with
  | Error m -> Alcotest.failf "recovery open_dir %s: %s" dir m
  | Ok h ->
      let g = Store.to_graph (Persist.store h) in
      let r = Persist.report h in
      Persist.close h;
      (g, r)

(* ------------------------------------------------------------------ *)
(* Codec units                                                         *)
(* ------------------------------------------------------------------ *)

let test_crc32 () =
  (* The standard check vector for CRC-32/IEEE. *)
  Alcotest.(check int)
    "crc32(123456789)" 0xcbf43926
    (Crc32.to_int (Crc32.string "123456789"));
  Alcotest.(check int) "crc32(empty)" 0 (Crc32.to_int (Crc32.string ""))

let test_binio_roundtrip () =
  let b = Buffer.create 64 in
  Binio.u8 b 0;
  Binio.u8 b 255;
  Binio.u32 b 0;
  Binio.u32 b 0xffff_ffff;
  Binio.u32 b 123456;
  Binio.str b "";
  Binio.str b "héllo";
  List.iter (Binio.term b)
    [
      ex "u";
      Term.literal "plain";
      Term.lang_literal "v" "en";
      Term.typed_literal "1" "http://www.w3.org/2001/XMLSchema#integer";
      Term.bnode "b0";
    ];
  let c = Binio.cursor (Buffer.contents b) in
  Alcotest.(check int) "u8 min" 0 (Binio.r_u8 c);
  Alcotest.(check int) "u8 max" 255 (Binio.r_u8 c);
  Alcotest.(check int) "u32 min" 0 (Binio.r_u32 c);
  Alcotest.(check int) "u32 max" 0xffff_ffff (Binio.r_u32 c);
  Alcotest.(check int) "u32 mid" 123456 (Binio.r_u32 c);
  Alcotest.(check string) "empty str" "" (Binio.r_str c);
  Alcotest.(check string) "utf8 str" "héllo" (Binio.r_str c);
  List.iter
    (fun want ->
      Alcotest.(check bool) "term" true (Term.equal want (Binio.r_term c)))
    [
      ex "u";
      Term.literal "plain";
      Term.lang_literal "v" "en";
      Term.typed_literal "1" "http://www.w3.org/2001/XMLSchema#integer";
      Term.bnode "b0";
    ];
  Alcotest.(check int) "drained" 0 (Binio.remaining c)

let test_binio_corrupt () =
  (* Truncated and over-long reads must raise Corrupt, nothing else. *)
  let corrupt f =
    match f () with
    | _ -> Alcotest.fail "expected Binio.Corrupt"
    | exception Binio.Corrupt _ -> ()
  in
  corrupt (fun () -> Binio.r_u32 (Binio.cursor "ab"));
  corrupt (fun () -> Binio.r_str (Binio.cursor "\x00\x00\x00\x09abc"));
  corrupt (fun () -> Binio.r_term (Binio.cursor "\x09"))

let wal_record i =
  {
    Wal.op = (if i mod 3 = 2 then `Remove else `Add);
    data_epoch = i + 1;
    schema_epoch = 0;
    s = x i;
    p = prop;
    o = x (i + 1);
  }

let test_wal_scan () =
  let records = List.init 5 wal_record in
  let img =
    Wal.header ^ String.concat "" (List.map Wal.encode_record records)
  in
  let s = Wal.scan img in
  Alcotest.(check bool) "header ok" true s.Wal.header_ok;
  Alcotest.(check int) "all records" 5 (List.length s.Wal.entries);
  Alcotest.(check int) "clean" 0 s.Wal.torn_bytes;
  Alcotest.(check int) "prefix is whole file" (String.length img)
    s.Wal.valid_bytes;
  List.iteri
    (fun i (r, _) ->
      Alcotest.(check int) "lsn order" (i + 1) (Wal.lsn r))
    s.Wal.entries;
  (* Torn at every byte: the scan must keep exactly the whole records
     that fit before the tear. *)
  let ends =
    Array.of_list
      (String.length Wal.header :: List.map snd s.Wal.entries)
  in
  for cut = String.length Wal.header to String.length img - 1 do
    let s' = Wal.scan (String.sub img 0 cut) in
    let expected =
      let n = ref 0 in
      Array.iteri (fun i e -> if i > 0 && e <= cut then incr n) ends;
      !n
    in
    Alcotest.(check int)
      (Printf.sprintf "torn at %d" cut)
      expected
      (List.length s'.Wal.entries)
  done;
  (* One flipped byte invalidates its record and everything after. *)
  let bad = Bytes.of_string img in
  let off = (snd (List.nth s.Wal.entries 1)) + 10 in
  Bytes.set bad off (Char.chr (Char.code (Bytes.get bad off) lxor 0x40));
  let s'' = Wal.scan (Bytes.to_string bad) in
  Alcotest.(check int) "corrupt mid-log" 2 (List.length s''.Wal.entries);
  Alcotest.(check bool) "tail reported" true (s''.Wal.torn_bytes > 0);
  (* A wrong magic discards the whole log. *)
  let s3 = Wal.scan ("XXXQWAL1" ^ String.sub img 8 64) in
  Alcotest.(check bool) "bad header" false s3.Wal.header_ok;
  Alcotest.(check int) "nothing survives" 0 (List.length s3.Wal.entries)

let test_snapshot_roundtrip () =
  let st = Store.create () in
  List.iter (apply st) deltas;
  let sat = Refq_saturation.Saturate.store st in
  let img = Snapshot.encode ~sat:(Some sat) st in
  match Snapshot.decode img with
  | Error m -> Alcotest.failf "decode: %s" m
  | Ok { Snapshot.store = st'; sat = sat'; rebuilt_indexes } ->
      Alcotest.(check bool) "same graph" true
        (Graph.equal (Store.to_graph st) (Store.to_graph st'));
      Alcotest.(check int) "data epoch" (Store.data_epoch st)
        (Store.data_epoch st');
      Alcotest.(check int) "schema epoch" (Store.schema_epoch st)
        (Store.schema_epoch st');
      Alcotest.(check bool) "indexes imported" false rebuilt_indexes;
      Alcotest.(check bool) "saturation restored" true
        (match sat' with
        | Some s -> Graph.equal (Store.to_graph sat) (Store.to_graph s)
        | None -> false);
      Alcotest.(check bool) "audit clean" false
        (Diagnostic.has_errors (Audit.check st'))

let test_snapshot_adversarial () =
  let st = Store.create () in
  List.iter (apply st) deltas;
  let img = Snapshot.encode ~sat:None st in
  (* Any single flipped byte, and any truncation, must yield Error — the
     checksum (or the framing) catches it; decode never raises and never
     returns a silently different store. *)
  let n = String.length img in
  let step = max 1 (n / 97) in
  let i = ref 0 in
  while !i < n do
    let bad = Bytes.of_string img in
    Bytes.set bad !i (Char.chr (Char.code (Bytes.get bad !i) lxor 0x01));
    (match Snapshot.decode (Bytes.to_string bad) with
    | Error _ -> ()
    | Ok { Snapshot.store = st'; _ } ->
        (* The flip hit a bit the format does not interpret only if the
           result is byte-identical in meaning — anything else is a
           checksum hole. *)
        Alcotest.failf "flip at byte %d decoded to a store of %d triple(s)"
          !i (Store.size st'));
    (match Snapshot.decode (String.sub img 0 !i) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "truncation at %d decoded" !i);
    i := !i + step
  done

(* ------------------------------------------------------------------ *)
(* Directory protocol                                                  *)
(* ------------------------------------------------------------------ *)

let test_wal_only_recovery () =
  let dir = fresh_dir () in
  (match Persist.open_dir dir with
  | Error m -> Alcotest.fail m
  | Ok h ->
      let st = Persist.store h in
      List.iter (apply st) deltas;
      Persist.close h);
  let g, r = recover_store dir in
  Alcotest.(check bool) "graph equal" true (Graph.equal g last_prefix);
  Alcotest.(check bool) "no snapshot yet" true (r.Persist.source = Persist.Fresh);
  Alcotest.(check int) "all replayed" (List.length deltas)
    r.Persist.wal_cur.Persist.replayed;
  rm_rf dir

let test_snapshot_rotation () =
  let dir = fresh_dir () in
  run_workload Io.real dir;
  let g, r = recover_store dir in
  Alcotest.(check bool) "graph equal" true (Graph.equal g last_prefix);
  Alcotest.(check bool) "seeded from snapshot.cur" true
    (r.Persist.source = Persist.Snapshot_cur);
  Alcotest.(check bool) "clean" true (Persist.clean r);
  Alcotest.(check bool) "prev generation kept" true
    (Sys.file_exists (Persist.path dir `Snapshot_prev));
  rm_rf dir

let test_generation_fallback () =
  let dir = fresh_dir () in
  run_workload Io.real dir;
  (* Rot the current snapshot: recovery must fall back a generation and
     rebuild the exact same state from wal.prev + wal.cur. *)
  let cur = Persist.path dir `Snapshot_cur in
  let img = read_file cur in
  let bad = Bytes.of_string img in
  Bytes.set bad (String.length img / 2)
    (Char.chr (Char.code (Bytes.get bad (String.length img / 2)) lxor 0xff));
  write_file cur (Bytes.to_string bad);
  let g, r = recover_store dir in
  Alcotest.(check bool) "fell back" true r.Persist.fallback;
  Alcotest.(check bool) "prev generation" true
    (r.Persist.source = Persist.Snapshot_prev);
  Alcotest.(check bool) "state fully rebuilt" true (Graph.equal g last_prefix);
  rm_rf dir

let test_torn_tail_truncation () =
  let dir = fresh_dir () in
  run_workload Io.real dir;
  let wal = Persist.path dir `Wal_cur in
  let img = read_file wal in
  (* Tear the last record in half and append garbage. *)
  let scan = Wal.scan img in
  let keep =
    match List.rev scan.Wal.entries with
    | (_, e) :: _ -> (e + String.length img) / 2
    | [] -> String.length img
  in
  write_file wal (String.sub img 0 keep ^ "\x01garbage");
  let g, r = recover_store dir in
  Alcotest.(check bool) "torn tail reported" true
    (r.Persist.wal_cur.Persist.truncated_bytes > 0);
  Alcotest.(check bool) "recovered to a prefix" true
    (List.exists (Graph.equal g) prefixes);
  (* open_dir repaired the file: a second recovery is clean. *)
  let g2, r2 = recover_store dir in
  Alcotest.(check int) "repaired" 0 r2.Persist.wal_cur.Persist.truncated_bytes;
  Alcotest.(check bool) "idempotent" true (Graph.equal g g2);
  rm_rf dir

let test_epoch_gap_discard () =
  let dir = fresh_dir () in
  (match Persist.open_dir dir with
  | Error m -> Alcotest.fail m
  | Ok h ->
      let st = Persist.store h in
      List.iter (apply st) deltas;
      Persist.close h);
  (* Splice one record out of the middle: the suffix no longer follows
     from the prefix state and must be discarded, not applied. *)
  let wal = Persist.path dir `Wal_cur in
  let img = read_file wal in
  let scan = Wal.scan img in
  let e3 = snd (List.nth scan.Wal.entries 2) in
  let e4 = snd (List.nth scan.Wal.entries 3) in
  write_file wal
    (String.sub img 0 e3
    ^ String.sub img e4 (String.length img - e4));
  let g, r = recover_store dir in
  Alcotest.(check int) "prefix kept" 3 r.Persist.wal_cur.Persist.replayed;
  Alcotest.(check bool) "suffix discarded" true
    (r.Persist.wal_cur.Persist.discarded > 0);
  Alcotest.(check bool) "state is the 3-delta prefix" true
    (Graph.equal g (List.nth prefixes 3));
  rm_rf dir

(* Satellite: epoch monotonicity across process "restarts" — restoring
   an older generation under a newer durable watermark must be reported
   as an epoch gap (stale), and the audit must flag it as an error. *)
let test_restart_stale_generation () =
  let dir = fresh_dir () in
  (* Generation 1. *)
  (match Persist.open_dir dir with
  | Error m -> Alcotest.fail m
  | Ok h ->
      let st = Persist.store h in
      List.iteri (fun i d -> if i < 10 then apply st d) deltas;
      Persist.snapshot h;
      Persist.close h);
  let gen1_snap = read_file (Persist.path dir `Snapshot_cur) in
  let gen1_wal = read_file (Persist.path dir `Wal_cur) in
  (* Generation 2 moves the durable watermark forward. *)
  (match Persist.open_dir dir with
  | Error m -> Alcotest.fail m
  | Ok h ->
      let st = Persist.store h in
      List.iteri (fun i d -> if i >= 10 then apply st d) deltas;
      Persist.snapshot h;
      Persist.close h);
  (* "Load the older generation": restore gen-1 files wholesale (as a
     backup restore would), keeping the newer meta. *)
  write_file (Persist.path dir `Snapshot_cur) gen1_snap;
  write_file (Persist.path dir `Wal_cur) gen1_wal;
  Sys.remove (Persist.path dir `Snapshot_prev);
  Sys.remove (Persist.path dir `Wal_prev);
  (match Persist.recover dir with
  | Error m -> Alcotest.fail m
  | Ok { Persist.report; _ } ->
      Alcotest.(check bool) "stale flagged" true report.Persist.stale);
  let ds = Audit.check_persist dir in
  Alcotest.(check bool) "RS005 error raised" true
    (List.exists
       (fun d ->
         d.Diagnostic.code = "RS005"
         && d.Diagnostic.severity = Diagnostic.Error)
       ds);
  rm_rf dir

let test_recover_never_raises () =
  (* Seeded fuzz: flip bytes of every protocol file in turn; recovery
     must always return, and always return a prefix state. *)
  let rng = Refq_util.Splitmix64.create 0xF00DL in
  let dir = fresh_dir () in
  run_workload Io.real dir;
  let files =
    List.filter
      (fun f -> Sys.file_exists (Persist.path dir f))
      [ `Snapshot_cur; `Snapshot_prev; `Wal_cur; `Wal_prev; `Meta ]
  in
  List.iter
    (fun f ->
      let p = Persist.path dir f in
      let orig = read_file p in
      for _ = 1 to 25 do
        let bad = Bytes.of_string orig in
        let i = Refq_util.Splitmix64.int rng (Bytes.length bad) in
        Bytes.set bad i
          (Char.chr (Refq_util.Splitmix64.int rng 256));
        write_file p (Bytes.to_string bad);
        match Persist.recover dir with
        | Error m -> Alcotest.failf "recover raised an environment error: %s" m
        | Ok { Persist.store = st; _ } ->
            if not (List.exists (Graph.equal (Store.to_graph st)) prefixes)
            then
              Alcotest.failf "corrupting %s byte %d: recovered a non-prefix"
                (Filename.basename p) i
      done;
      write_file p orig)
    files;
  rm_rf dir

(* ------------------------------------------------------------------ *)
(* The crash-consistency property                                      *)
(* ------------------------------------------------------------------ *)

let check_fault mode =
  let dir = fresh_dir () in
  let io = Io.make ~seed:0x5EEDL mode in
  (try run_workload io dir with Io.Crash _ -> ());
  (match Persist.open_dir dir with
  | Error m -> Alcotest.failf "%a: recovery failed: %s" Io.pp_mode mode m
  | Ok h ->
      let st = Persist.store h in
      let g = Store.to_graph st in
      if not (List.exists (Graph.equal g) prefixes) then
        Alcotest.failf "%a: recovered %d triple(s), not a workload prefix"
          Io.pp_mode mode (Store.size st);
      let errors = Diagnostic.errors (Audit.check st) in
      if errors <> [] then
        Alcotest.failf "%a: recovered store fails the audit: %a" Io.pp_mode
          mode Diagnostic.pp_list errors;
      Persist.close h);
  rm_rf dir

let test_crash_consistency () =
  (* Calibrate: one healthy run measures the byte/op surface. *)
  let io = Io.make Io.Healthy in
  let dir = fresh_dir () in
  run_workload io dir;
  let g, _ = recover_store dir in
  Alcotest.(check bool) "healthy run reaches the final state" true
    (Graph.equal g last_prefix);
  rm_rf dir;
  let total_bytes = Io.bytes_written io and total_ops = Io.ops io in
  Alcotest.(check bool) "workload writes something" true (total_bytes > 0);
  let stride = max 1 (total_bytes / 120) in
  let byte_points =
    List.init ((total_bytes / stride) + 1) (fun i -> i * stride)
  in
  let faults =
    List.concat_map (fun n -> [ Io.Short_at n; Io.Fail_at n ]) byte_points
    @ List.map
        (fun n -> Io.Corrupt_at n)
        (List.filteri (fun i _ -> i mod 3 = 0) byte_points)
    @ List.init total_ops (fun k -> Io.Op_crash_at k)
  in
  List.iter check_fault faults

(* ------------------------------------------------------------------ *)
(* The restored closure across a WAL tail                              *)
(* ------------------------------------------------------------------ *)

module Session = Refq_serve.Session
module Answer = Refq_core.Answer
module Saturate = Refq_saturation.Saturate
module Strategy = Refq_core.Strategy

(* A snapshot carrying its saturation, then a WAL tail of [tail] on top
   (written by a live handle that is closed without a new snapshot). *)
let dir_with_tail tail =
  let dir = fresh_dir () in
  let h = Result.get_ok (Persist.open_dir dir) in
  let st = Persist.store h in
  Graph.iter (Store.add_triple st)
    (Store.to_graph (Refq_workload.Lubm.generate ~scale:1 ()));
  Persist.snapshot ~sat:(Saturate.store st) h;
  List.iter (apply st) tail;
  Persist.close h;
  dir

let ub n = Term.uri (Refq_workload.Lubm.ns ^ n)
let member = t (ex "newStudent") (ub "memberOf") (Term.uri "http://www.Department0.University0.edu")

(* A data-only tail keeps the closure, as pending: the first Sat read
   maintains it — one maintenance application, no saturation round —
   and lands on exactly a fresh saturation's triples and answers. *)
let test_sat_across_wal_tail () =
  let dir =
    dir_with_tail
      [ A member; A (t (ex "newStudent") Vocab.rdf_type (ub "GraduateStudent")) ]
  in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let config = Session.Config.(default |> with_persist_dir dir) in
  let session = Result.get_ok (Session.open_ ~config ()) in
  let report = Option.get (Session.info session).Session.recovery in
  Alcotest.(check int) "tail replayed" 2 report.Persist.wal_cur.Persist.replayed;
  Alcotest.(check bool) "closure restored" true report.Persist.sat_restored;
  let counter = Refq_obs.Obs.counter in
  let rounds = counter "saturate.rounds" and maintained = counter "saturate.maintained" in
  Refq_obs.Obs.set_enabled true;
  let r0 = Refq_obs.Obs.value rounds and m0 = Refq_obs.Obs.value maintained in
  let sat, _ = Answer.saturated (Session.env session) in
  let ran = Refq_obs.Obs.value rounds - r0 and applied = Refq_obs.Obs.value maintained - m0 in
  Refq_obs.Obs.set_enabled false;
  Alcotest.(check int) "no saturation round" 0 ran;
  Alcotest.(check int) "one maintenance application" 1 applied;
  let fresh_env = Answer.make_env (Store.copy (Session.store session)) in
  let fresh, _ = Answer.saturated fresh_env in
  Alcotest.(check bool) "saturated triples = fresh" true
    (Graph.equal (Store.to_graph sat) (Store.to_graph fresh));
  List.iter
    (fun (name, q) ->
      let rows env r = List.sort compare (Answer.decode env r.Answer.answers) in
      match
        ( Session.answer session q Strategy.Saturation,
          Answer.answer fresh_env q Strategy.Saturation )
      with
      | Ok a, Ok b ->
        if rows (Session.env session) a <> rows fresh_env b then
          Alcotest.failf "%s: Sat answers differ from a fresh saturation" name
      | _ -> Alcotest.failf "%s: Sat failed" name)
    Refq_workload.Lubm.queries;
  Session.close session

(* A schema record in the tail changes the closure itself: dropped. *)
let test_sat_dropped_by_schema_tail () =
  let dir = dir_with_tail [ A member; A (t (c 1) Vocab.rdfs_subclassof (c 2)) ] in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  match Persist.recover dir with
  | Error m -> Alcotest.fail m
  | Ok r ->
    Alcotest.(check bool) "closure dropped" false r.Persist.report.Persist.sat_restored;
    Alcotest.(check bool) "no saturation handed on" true (r.Persist.sat = None)

(* ------------------------------------------------------------------ *)
(* Observability                                                       *)
(* ------------------------------------------------------------------ *)

let test_counters () =
  Refq_obs.Obs.reset ();
  Refq_obs.Obs.set_enabled true;
  let dir = fresh_dir () in
  run_workload Io.real dir;
  let wal = Persist.path dir `Wal_cur in
  let img = read_file wal in
  write_file wal (img ^ "torn");
  ignore (recover_store dir);
  Refq_obs.Obs.set_enabled false;
  let v name =
    match List.assoc_opt name (Refq_obs.Obs.counters ()) with
    | Some n -> n
    | None -> Alcotest.failf "counter %s not registered" name
  in
  Alcotest.(check bool) "wal_appends" true (v "persist.wal_appends" > 0);
  Alcotest.(check int) "snapshot_writes" 2 (v "persist.snapshot_writes");
  Alcotest.(check bool) "wal_replayed" true (v "persist.wal_replayed" > 0);
  Alcotest.(check bool) "wal_truncated" true (v "persist.wal_truncated" > 0);
  Alcotest.(check bool) "recoveries" true (v "persist.recoveries" > 0);
  Refq_obs.Obs.reset ();
  rm_rf dir

let () =
  Alcotest.run "persist"
    [
      ( "codec",
        [
          Alcotest.test_case "crc32 vectors" `Quick test_crc32;
          Alcotest.test_case "binio roundtrip" `Quick test_binio_roundtrip;
          Alcotest.test_case "binio corrupt" `Quick test_binio_corrupt;
          Alcotest.test_case "wal scan + tears" `Quick test_wal_scan;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "roundtrip" `Quick test_snapshot_roundtrip;
          Alcotest.test_case "adversarial bytes" `Quick
            test_snapshot_adversarial;
        ] );
      ( "directory",
        [
          Alcotest.test_case "wal-only recovery" `Quick test_wal_only_recovery;
          Alcotest.test_case "snapshot rotation" `Quick test_snapshot_rotation;
          Alcotest.test_case "generation fallback" `Quick
            test_generation_fallback;
          Alcotest.test_case "torn tail truncation" `Quick
            test_torn_tail_truncation;
          Alcotest.test_case "epoch gap discard" `Quick test_epoch_gap_discard;
          Alcotest.test_case "stale generation across restarts" `Quick
            test_restart_stale_generation;
          Alcotest.test_case "recover never raises (fuzz)" `Quick
            test_recover_never_raises;
        ] );
      ( "crash consistency",
        [
          Alcotest.test_case "every fault point recovers to a prefix" `Slow
            test_crash_consistency;
        ] );
      ( "saturation",
        [
          Alcotest.test_case "kept across a data-only WAL tail" `Quick
            test_sat_across_wal_tail;
          Alcotest.test_case "dropped by a schema record" `Quick
            test_sat_dropped_by_schema_tail;
        ] );
      ("obs", [ Alcotest.test_case "counters" `Quick test_counters ]);
    ]
