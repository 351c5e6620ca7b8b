open Refq_rdf
open Refq_storage
module Io = Refq_fault.Io
module Obs = Refq_obs.Obs
module Crc32 = Refq_util.Crc32

let c_snapshot_writes = Obs.counter "persist.snapshot_writes"
let c_wal_appends = Obs.counter "persist.wal_appends"
let c_wal_replayed = Obs.counter "persist.wal_replayed"
let c_wal_truncated = Obs.counter "persist.wal_truncated"
let c_recoveries = Obs.counter "persist.recoveries"

let path dir f =
  Filename.concat dir
    (match f with
    | `Snapshot_cur -> "snapshot.cur"
    | `Snapshot_prev -> "snapshot.prev"
    | `Wal_cur -> "wal.cur"
    | `Wal_prev -> "wal.prev"
    | `Meta -> "meta")

let tmp p = p ^ ".tmp"

(* ------------------------------------------------------------------ *)
(* Meta: the latest durable epoch pair, checksummed                    *)
(* ------------------------------------------------------------------ *)

let meta_magic = "REFQMETA1"

let encode_meta ~data ~schema =
  let payload = Buffer.create 8 in
  Binio.u32 payload data;
  Binio.u32 payload schema;
  let payload = Buffer.contents payload in
  let b = Buffer.create 24 in
  Buffer.add_string b meta_magic;
  Binio.u32 b (Crc32.to_int (Crc32.string payload));
  Buffer.add_string b payload;
  Buffer.contents b

let decode_meta src =
  let hdr = String.length meta_magic in
  if String.length src <> hdr + 12 || String.sub src 0 hdr <> meta_magic then
    None
  else
    let c = Binio.cursor ~pos:hdr src in
    match
      let crc = Binio.r_u32 c in
      let data = Binio.r_u32 c in
      let schema = Binio.r_u32 c in
      if Crc32.to_int (Crc32.string ~off:(hdr + 4) ~len:8 src) <> crc then None
      else Some (data, schema)
    with
    | v -> v
    | exception Binio.Corrupt _ -> None

(* ------------------------------------------------------------------ *)
(* Reports                                                             *)
(* ------------------------------------------------------------------ *)

type counts = {
  replayed : int;
  skipped : int;
  discarded : int;
  truncated_bytes : int;
}

let no_counts = { replayed = 0; skipped = 0; discarded = 0; truncated_bytes = 0 }

type source = Snapshot_cur | Snapshot_prev | Fresh

type report = {
  source : source;
  fallback : bool;
  wal_prev : counts;
  wal_cur : counts;
  recovered : int * int;
  durable : (int * int) option;
  stale : bool;
  sat_restored : bool;
  rebuilt_indexes : bool;
  notes : string list;
}

let clean r =
  (not r.fallback) && (not r.stale)
  && r.wal_prev.discarded = 0
  && r.wal_prev.truncated_bytes = 0
  && r.wal_cur.discarded = 0
  && r.wal_cur.truncated_bytes = 0

let pp_source ppf = function
  | Snapshot_cur -> Fmt.string ppf "snapshot.cur"
  | Snapshot_prev -> Fmt.string ppf "snapshot.prev"
  | Fresh -> Fmt.string ppf "fresh (no snapshot)"

let pp_counts ppf c =
  Fmt.pf ppf "%d replayed, %d skipped, %d discarded, %d torn bytes" c.replayed
    c.skipped c.discarded c.truncated_bytes

let pp_report ppf r =
  let data, schema = r.recovered in
  Fmt.pf ppf "@[<v>source: %a%s@,wal.prev: %a@,wal.cur: %a@,"
    pp_source r.source
    (if r.fallback then " (fell back from snapshot.cur)" else "")
    pp_counts r.wal_prev pp_counts r.wal_cur;
  Fmt.pf ppf "epochs: data=%d schema=%d" data schema;
  (match r.durable with
  | Some (d, s) -> Fmt.pf ppf " (durable: data=%d schema=%d)" d s
  | None -> ());
  if r.stale then Fmt.pf ppf "@,STALE: acknowledged mutations were lost";
  if r.sat_restored then Fmt.pf ppf "@,saturation: restored from snapshot";
  if r.rebuilt_indexes then Fmt.pf ppf "@,indexes: rejected on import, rebuilt";
  List.iter (fun n -> Fmt.pf ppf "@,note: %s" n) r.notes;
  Fmt.pf ppf "@]"

(* ------------------------------------------------------------------ *)
(* Replay                                                              *)
(* ------------------------------------------------------------------ *)

(* Term-level twin of the store's schema-predicate test: the WAL carries
   terms, and the classification must match what [Store.bump_epoch] did
   when the record was written. *)
let schema_pred p =
  Term.equal p Vocab.rdfs_subclassof
  || Term.equal p Vocab.rdfs_subpropertyof
  || Term.equal p Vocab.rdfs_domain
  || Term.equal p Vocab.rdfs_range

(* Replay one WAL's sound records onto [store]. Returns the counts, the
   byte offset after the last record the recovered state accounts for —
   the point the file must be cut back to before new appends — and the
   replayed mutations, newest first. *)
let replay store entries ~start =
  let replayed = ref 0 and skipped = ref 0 and discarded = ref 0 in
  let applied = ref [] in
  let cut = ref start in
  let apply (r : Wal.record) =
    let data = Store.data_epoch store and schema = Store.schema_epoch store in
    let expect =
      if schema_pred r.Wal.p then (data, schema + 1) else (data + 1, schema)
    in
    if (r.Wal.data_epoch, r.Wal.schema_epoch) <> expect then false
    else
      match r.Wal.op with
      | `Add ->
          let s = Store.encode_term store r.Wal.s in
          let p = Store.encode_term store r.Wal.p in
          let o = Store.encode_term store r.Wal.o in
          if Store.mem_ids store s p o then false
          else begin
            Store.add_ids store s p o;
            true
          end
      | `Remove -> (
          match
            ( Store.find_term store r.Wal.s,
              Store.find_term store r.Wal.p,
              Store.find_term store r.Wal.o )
          with
          | Some s, Some p, Some o when Store.mem_ids store s p o ->
              Store.remove_ids store s p o;
              true
          | _ -> false)
  in
  let rec go = function
    | [] -> ()
    | (r, end_off) :: rest ->
        let lsn_state = Store.data_epoch store + Store.schema_epoch store in
        if Wal.lsn r <= lsn_state then begin
          incr skipped;
          cut := end_off;
          go rest
        end
        else if Wal.lsn r = lsn_state + 1 && apply r then begin
          incr replayed;
          let t = Triple.make r.Wal.s r.Wal.p r.Wal.o in
          applied := (match r.Wal.op with `Add -> `Add t | `Remove -> `Remove t) :: !applied;
          cut := end_off;
          go rest
        end
        else
          (* Epoch gap or replay divergence: the record does not follow
             from the state we reached, so neither it nor anything after
             it can be trusted. Keep the sound prefix. *)
          discarded := !discarded + 1 + List.length rest
  in
  go entries;
  (!replayed, !skipped, !discarded, !cut, !applied)

(* ------------------------------------------------------------------ *)
(* Read-only recovery                                                  *)
(* ------------------------------------------------------------------ *)

type mutation = [ `Add of Triple.t | `Remove of Triple.t ]

type recovered = {
  store : Store.t;
  sat : (Store.t * mutation list) option;
  report : report;
}

(* What [open_dir] additionally needs to repair the directory. *)
type wal_state = {
  w_exists : bool;
  w_len : int;
  w_header_ok : bool;
  w_cut : int; (* sound-and-accounted-for prefix length *)
}

let absent_wal = { w_exists = false; w_len = 0; w_header_ok = false; w_cut = 0 }

let recover_wal io store p =
  if not (Io.exists io p) then (no_counts, absent_wal, [], [])
  else
    match Io.read_file io p with
    | Error m ->
        ( no_counts,
          { absent_wal with w_exists = true },
          [ Printf.sprintf "%s: unreadable (%s)" (Filename.basename p) m ],
          [] )
    | Ok img ->
        let scan = Wal.scan img in
        let name = Filename.basename p in
        let notes =
          if not scan.Wal.header_ok then
            [ Printf.sprintf "%s: bad header, log discarded" name ]
          else if scan.Wal.torn_bytes > 0 then
            [
              Printf.sprintf "%s: torn tail, %d bytes truncated" name
                scan.Wal.torn_bytes;
            ]
          else []
        in
        let replayed, skipped, discarded, cut, applied =
          replay store scan.Wal.entries ~start:(String.length Wal.header)
        in
        let notes =
          if discarded > 0 then
            notes
            @ [
                Printf.sprintf "%s: %d records discarded (epoch gap)" name
                  discarded;
              ]
          else notes
        in
        ( {
            replayed;
            skipped;
            discarded;
            truncated_bytes = scan.Wal.torn_bytes;
          },
          {
            w_exists = true;
            w_len = String.length img;
            w_header_ok = scan.Wal.header_ok;
            w_cut = (if scan.Wal.header_ok then cut else 0);
          },
          notes,
          applied )

let load_snapshot io p =
  if not (Io.exists io p) then `Absent
  else
    match Io.read_file io p with
    | Error m -> `Bad (Printf.sprintf "unreadable (%s)" m)
    | Ok img -> (
        match Snapshot.decode img with
        | Ok loaded -> `Ok loaded
        | Error m -> `Bad m)

let recover_internal io dir =
  let snap_cur = path dir `Snapshot_cur and snap_prev = path dir `Snapshot_prev in
  let notes = ref [] in
  let note fmt = Printf.ksprintf (fun m -> notes := !notes @ [ m ]) fmt in
  let from_prev fallback =
    match load_snapshot io snap_prev with
    | `Ok l -> (Snapshot_prev, fallback, l)
    | `Absent ->
        ( Fresh,
          fallback,
          { Snapshot.store = Store.create (); sat = None; rebuilt_indexes = false }
        )
    | `Bad m ->
        note "snapshot.prev: %s" m;
        ( Fresh,
          fallback,
          { Snapshot.store = Store.create (); sat = None; rebuilt_indexes = false }
        )
  in
  let source, fallback, loaded =
    match load_snapshot io snap_cur with
    | `Ok l -> (Snapshot_cur, false, l)
    | `Absent -> from_prev false
    | `Bad m ->
        note "snapshot.cur: %s" m;
        from_prev true
  in
  let store = loaded.Snapshot.store in
  let wal_prev, _, n1, d1 = recover_wal io store (path dir `Wal_prev) in
  let wal_cur, cur_state, n2, d2 = recover_wal io store (path dir `Wal_cur) in
  let delta = List.rev_append d1 (List.rev d2) in
  notes := !notes @ n1 @ n2;
  let recovered = (Store.data_epoch store, Store.schema_epoch store) in
  let durable =
    if not (Io.exists io (path dir `Meta)) then None
    else
      match Io.read_file io (path dir `Meta) with
      | Error _ -> None
      | Ok img -> (
          match decode_meta img with
          | Some v -> Some v
          | None ->
              note "meta: corrupt, staleness cannot be checked";
              None)
  in
  let stale =
    match durable with
    | Some (d, s) -> fst recovered + snd recovered < d + s
    | None -> false
  in
  (* The snapshot's closure describes the snapshot's state: it is handed
     on with the replayed data records as its delta. A replayed schema
     record changes the closure itself and drops it. *)
  let sat_valid =
    not
      (List.exists
         (function `Add t | `Remove t -> Triple.is_schema_triple t)
         delta)
  in
  if (not sat_valid) && loaded.Snapshot.sat <> None then
    note "saturation closure outdated by a replayed schema record, dropped";
  let report =
    {
      source;
      fallback;
      wal_prev;
      wal_cur;
      recovered;
      durable;
      stale;
      sat_restored = sat_valid && loaded.Snapshot.sat <> None;
      rebuilt_indexes = loaded.Snapshot.rebuilt_indexes;
      notes = !notes;
    }
  in
  ( {
      store;
      sat =
        (match loaded.Snapshot.sat with
        | Some sat when sat_valid -> Some (sat, delta)
        | _ -> None);
      report;
    },
    cur_state )

let check_dir dir =
  if not (Sys.file_exists dir) then
    Error (Printf.sprintf "%s: no such directory" dir)
  else if not (Sys.is_directory dir) then
    Error (Printf.sprintf "%s: not a directory" dir)
  else Ok ()

let recover ?(io = Io.real) dir =
  match check_dir dir with
  | Error _ as e -> e
  | Ok () -> Ok (fst (recover_internal io dir))

(* ------------------------------------------------------------------ *)
(* Live handles                                                        *)
(* ------------------------------------------------------------------ *)

type t = {
  io : Io.t;
  dir : string;
  h_store : Store.t;
  mutable h_sat : (Store.t * mutation list) option;
  h_report : report;
  mutable app : Io.appender option;
  mutable closed : bool;
}

let store t = t.h_store
let take_sat t =
  let sat = t.h_sat in
  t.h_sat <- None;
  sat
let report t = t.h_report

let detach t =
  (match t.app with Some a -> Io.close_append a | None -> ());
  t.app <- None;
  Store.set_delta_hook t.h_store None;
  t.closed <- true

let close t = if not t.closed then detach t

(* Concurrency trace observer for WAL appends: installed by the audit
   layer ([Refq_analysis.Conc_trace]), called with each record's LSN
   right after the bytes reach the appender. *)
let wal_trace_hook : (int -> unit) option Atomic.t = Atomic.make None

let set_wal_trace_hook h = Atomic.set wal_trace_hook h

let install_hook t =
  t.app <- Some (Io.open_append t.io (path t.dir `Wal_cur));
  Store.set_delta_hook t.h_store
    (Some
       (fun d ->
         match t.app with
         | None -> ()
         | Some a ->
             let r =
               {
                 (* The hook fires post-bump: the store's epochs are the
                    record's post-mutation pair. *)
                 Wal.op = (d.Store.op :> [ `Add | `Remove ]);
                 data_epoch = Store.data_epoch t.h_store;
                 schema_epoch = Store.schema_epoch t.h_store;
                 s = Store.decode_id t.h_store d.Store.s;
                 p = Store.decode_id t.h_store d.Store.p;
                 o = Store.decode_id t.h_store d.Store.o;
               }
             in
             Io.append a (Wal.encode_record r);
             Obs.incr c_wal_appends;
             (match Atomic.get wal_trace_hook with
             | None -> ()
             | Some f -> f (Wal.lsn r))))

let open_dir ?(io = Io.real) dir =
  if not (Sys.file_exists dir) then Io.mkdir io dir;
  match check_dir dir with
  | Error _ as e -> e
  | Ok () ->
      let recovered, cur_state = recover_internal io dir in
      let r = recovered.report in
      (* Leftover tmp files are debris from an interrupted rotation. *)
      List.iter
        (fun f ->
          let p = tmp (path dir f) in
          if Io.exists io p then Io.remove io p)
        [ `Snapshot_cur; `Wal_cur; `Meta ];
      (* Cut wal.cur back to the prefix recovery accounted for, so new
         appends follow the last trusted record rather than garbage. *)
      let wal_cur = path dir `Wal_cur in
      if not cur_state.w_exists then Io.write_file io wal_cur Wal.header
      else if not cur_state.w_header_ok then begin
        Io.write_file io wal_cur Wal.header;
        if cur_state.w_len > 0 then Obs.incr c_wal_truncated
      end
      else if cur_state.w_cut < cur_state.w_len then begin
        (match Io.read_file io wal_cur with
        | Ok img ->
            Io.write_file io wal_cur (String.sub img 0 cur_state.w_cut)
        | Error _ -> Io.write_file io wal_cur Wal.header);
        Obs.incr c_wal_truncated
      end;
      Obs.add c_wal_replayed (r.wal_prev.replayed + r.wal_cur.replayed);
      if not (clean r) then Obs.incr c_recoveries;
      let t =
        {
          io;
          dir;
          h_store = recovered.store;
          h_sat = recovered.sat;
          h_report = r;
          app = None;
          closed = false;
        }
      in
      install_hook t;
      Ok t

let snapshot ?sat t =
  if t.closed then invalid_arg "Persist.snapshot: handle is closed";
  (* Stop logging while we rotate; if a fault kills us mid-way the hook
     stays detached — the handle dies with the simulated process. *)
  (match t.app with Some a -> Io.close_append a | None -> ());
  t.app <- None;
  match
    let img = Snapshot.encode ~sat t.h_store in
    let snap_cur = path t.dir `Snapshot_cur
    and snap_prev = path t.dir `Snapshot_prev
    and wal_cur = path t.dir `Wal_cur
    and wal_prev = path t.dir `Wal_prev
    and meta = path t.dir `Meta in
    Io.write_file t.io (tmp snap_cur) img;
    Io.write_file t.io (tmp wal_cur) Wal.header;
    if Io.exists t.io wal_cur then
      Io.rename t.io ~src:wal_cur ~dst:wal_prev;
    if Io.exists t.io snap_cur then
      Io.rename t.io ~src:snap_cur ~dst:snap_prev;
    Io.rename t.io ~src:(tmp snap_cur) ~dst:snap_cur;
    Io.rename t.io ~src:(tmp wal_cur) ~dst:wal_cur;
    Io.write_file t.io (tmp meta)
      (encode_meta
         ~data:(Store.data_epoch t.h_store)
         ~schema:(Store.schema_epoch t.h_store));
    Io.rename t.io ~src:(tmp meta) ~dst:meta
  with
  | () ->
      Obs.incr c_snapshot_writes;
      install_hook t
  | exception e ->
      detach t;
      raise e
