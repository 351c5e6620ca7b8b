(* Shared measurement plumbing: clock, order statistics, answer digests,
   row rendering, peak memory and the result line. *)

open Refq_rdf
module Json = Refq_obs.Json

let now = Unix.gettimeofday

(* Set-ups per run; [setup_s] is their median. *)
let setups = 5

(* Timed passes per run. The first pass runs for its share of the
   measured time; the others repeat exactly its operations. Other
   tenants of a shared host only ever slow a pass down, for seconds at a
   time, so every latency and rate metric is the best of its per-pass
   values: each one a value some whole pass measured. *)
let passes = 4

(* How long a timed loop runs: measured seconds, or a number of
   operations (the traced pass repeats the untraced pass's count). *)
type budget = Seconds of float | Count of int

let time f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

(* Nearest-rank percentile of an unsorted sample; [p] in [0, 100]. *)
let percentile p xs =
  match xs with
  | [] -> nan
  | _ ->
    let a = Array.of_list xs in
    Array.sort Float.compare a;
    let n = Array.length a in
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let median xs = percentile 50. xs

(* Samples strictly above the nearest-rank [p]-th percentile. *)
let beyond p xs =
  let v = percentile p xs in
  List.length (List.filter (fun x -> x > v) xs)

(* The percentile reported as [read_tail_ms]. Each workload fixes one
   that its passes give at least ten samples beyond; should the shortest
   pass of a run fall short, the highest lower one of 95 / 90 / 80 / 75
   / 50 that it does give ten beyond is used instead (the log line
   beside the value names the one used). [n] is the shortest pass's
   read count. *)
let checked_tail p n =
  let n = float_of_int n in
  let ok q = n *. (1. -. (q /. 100.)) >= 10. in
  if ok p then p
  else
    Option.value ~default:50.
      (List.find_opt (fun q -> q < p && ok q) [ 95.; 90.; 80.; 75.; 50. ])

(* Order-insensitive digest of an answer: sorted, de-duplicated rendered
   rows. Strategies may return rows in any order. *)
let digest_rows (rows : string list list) =
  let lines = List.map (String.concat "\t") rows in
  let lines = List.sort_uniq String.compare lines in
  Digest.to_hex (Digest.string (String.concat "\n" lines))

(* Rows as the server renders them: each term in prefixed form. *)
let render_terms ns (rows : Term.t list list) =
  List.map (List.map (fun t -> Fmt.str "%a" (Namespace.pp_term ns) t)) rows

let render_json rows =
  Json.to_string ~indent:false
    (Json.List
       (List.map (fun r -> Json.List (List.map (fun s -> Json.String s) r)) rows))

(* Peak resident set (VmHWM) of a process, in MiB. *)
let peak_rss_mb pid =
  let file = Printf.sprintf "/proc/%s/status" pid in
  let ic = open_in file in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
        (fun kb -> float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> failwith ("no VmHWM in " ^ file)
  in
  scan ()

(* Informational lines go to stdout before the result line, prefixed so
   a reader can tell them from it. *)
let note fmt = Printf.ksprintf (fun s -> print_endline ("# " ^ s)) fmt

(* A metric as it appears in the result line. *)
type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

(* What one run produced: the untimed gate's verdict, operation counts
   and the metrics of the requested mode. *)
type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
}

(* Writes come as an insert batch followed by the delete of the same
   batch. The two differ in cost, so the median of single writes would
   sit between two modes; each pair's mean latency is one sample
   instead. *)
let rec pair_means = function
  | a :: b :: rest -> ((a +. b) /. 2.) :: pair_means rest
  | rest -> rest

(* One timed pass as the end-to-end metrics see it. Latencies are in
   ms, a failed operation's is [infinity]. *)
type pass = {
  reads : float list;
  rows : int;  (** rows the reads returned *)
  ops_per_s : float;
  writes : float list;  (** insert, delete, insert, ... *)
}

(* The end-to-end metrics, in BENCHMARK.json's order: [setup_s] is the
   median set-up, every other timing the best pass's. A pass without
   writes has no [write_p50_ms]. *)
let end_to_end ~tail ~setup_times ~passes ~rss =
  let reads = List.concat_map (fun p -> p.reads) passes in
  let shortest = List.fold_left (fun n p -> min n (List.length p.reads)) max_int passes in
  let p = checked_tail tail shortest in
  note "set-up times (s): %s" (String.concat " " (List.map (Printf.sprintf "%.3f") setup_times));
  note "%d passes, %d reads, %.1f rows per read; read_tail_ms is p%g (at least %d reads beyond it in every pass)"
    (List.length passes) (List.length reads)
    (float_of_int (List.fold_left (fun acc p -> acc + p.rows) 0 passes)
    /. float_of_int (max 1 (List.length reads)))
    p
    (List.fold_left (fun n pass -> min n (beyond p pass.reads)) max_int passes);
  let per_pass name f =
    let vs = List.filter_map f passes in
    note "%s per pass: %s" name (String.concat " " (List.map (Printf.sprintf "%.4g") vs));
    vs
  in
  let lowest = List.fold_left Float.min infinity
  and highest = List.fold_left Float.max 0. in
  [
    metric "setup_s" "s" (median setup_times);
    metric "read_p50_ms" "ms" (lowest (per_pass "read_p50_ms" (fun ps -> Some (median ps.reads))));
    metric "read_tail_ms" "ms"
      (lowest (per_pass "read_tail_ms" (fun ps -> Some (percentile p ps.reads))));
    metric "ops_per_s" "op/s" (highest (per_pass "ops_per_s" (fun ps -> Some ps.ops_per_s)));
    metric "write_p50_ms" "ms"
      (lowest
         (per_pass "write_p50_ms" (fun ps ->
              if ps.writes = [] then None else Some (median (pair_means ps.writes)))));
    metric "peak_rss_mb" "MiB" rss;
  ]

let result_line o =
  Json.to_string ~indent:false
    (Json.Obj
       [
         ("correct", Json.Bool o.correct);
         ("attempted", Json.Int o.attempted);
         ("failed", Json.Int o.failed);
         ( "metrics",
           Json.Obj
             (List.map
                (fun m ->
                  ( m.name,
                    Json.Obj
                      [ ("value", Json.Float m.value); ("unit", Json.String m.unit_) ]
                  ))
                o.metrics) );
       ])

let ms s = s *. 1000.

let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
