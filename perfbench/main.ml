(* The benchmark's two steps, run as separate processes by run.py so the
   generator's memory never counts towards the measured process:

     main.exe prepare --workload W --seed N
     main.exe measure --workload W --seconds S --trace 0|1 --refq PATH

   [prepare] writes the workload's N-Triples file and request lines under
   .perfbench_tmp/W; [measure] reads only those, runs the timed loop and
   the untimed correctness gate, and prints the result line last. *)

open Perfbench
open Refq_core
module Protocol = Refq_serve.Protocol

let root = ".perfbench_tmp"
let dir workload = Filename.concat root workload
let nt_file workload = Filename.concat (dir workload) "data.nt"
let reads_file workload = Filename.concat (dir workload) "reads.jsonl"
let writes_file workload = Filename.concat (dir workload) "writes.jsonl"

(* Sizes. lubm-reform's stream holds more queries than a run answers at
   today's speed (it wraps around past its end); serve-mixed's reads and
   writes are cycled. The in-process write batches are applied before
   each pass. *)
let lubm_reform_scale = 50
let lubm_reform_triples = 106_000
let lubm_reform_random = 6000
let lubm_reform_write_batches = 2
let cyclic_nodes = 1000
let cyclic_preds = 8
let cyclic_degree = 4
let cyclic_write_batches = 4
let serve_mixed_scale = 10
let serve_mixed_triples = 22_000
let serve_mixed_write_batches = 200

(* One serve-mixed read in [sat_every] runs under sat, the rest under
   gcov. *)
let sat_every = 6

let mkdir_p d = try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

let prepare workload ~seed =
  Common.rm_rf (dir workload);
  mkdir_p root;
  mkdir_p (dir workload);
  let store, reads, updates =
    match workload with
    | "lubm-reform" ->
      let store =
        Inputs.lubm_store_sized ~seed ~scale:lubm_reform_scale ~target:lubm_reform_triples
      in
      let texts = Inputs.lubm_stream ~seed store ~count:lubm_reform_random in
      Common.note "canonical repeats in the stream: %.4f"
        (Inputs.canonical_repeat_share texts);
      ( store,
        List.map (Inputs.answer_line ~strategy:"gcov") texts,
        Inputs.update_lines
          (List.init lubm_reform_write_batches Inputs.lubm_batch) )
    | "graph-cyclic" ->
      let store =
        Inputs.digraph ~seed ~nodes:cyclic_nodes ~preds:cyclic_preds
          ~degree:cyclic_degree
      in
      ( store,
        List.map (Inputs.answer_line ~strategy:"sat")
          (Inputs.cyclic_stream ~seed ~preds:cyclic_preds),
        Inputs.update_lines
          (List.init cyclic_write_batches Inputs.digraph_batch) )
    | "serve-mixed" ->
      let store =
        Inputs.lubm_store_sized ~seed ~scale:serve_mixed_scale ~target:serve_mixed_triples
      in
      let bundled = Array.of_list (Inputs.bundled_queries ()) in
      (* Enough reads that no two consecutive cycles line up with the
         sat share. *)
      let n = Array.length bundled * sat_every in
      ( store,
        List.init n (fun i ->
            Inputs.answer_line
              ~strategy:(if i mod sat_every = sat_every - 1 then "sat" else "gcov")
              (Inputs.query_text bundled.(i mod Array.length bundled))),
        Inputs.update_lines
          (List.init serve_mixed_write_batches Inputs.lubm_batch) )
    | w -> failwith ("unknown workload " ^ w)
  in
  let bytes, triples = Inputs.write_ntriples (nt_file workload) store in
  Inputs.write_lines (reads_file workload) reads;
  Inputs.write_lines (writes_file workload) updates;
  Common.note "%s seed=%d: %d triples, %d N-Triples bytes, %d read lines (%d distinct), %d write lines"
    workload seed triples bytes (List.length reads)
    (List.length (List.sort_uniq String.compare reads))
    (List.length updates)

(* ------------------------------------------------------------------ *)
(* measure                                                             *)
(* ------------------------------------------------------------------ *)

let read_lines file =
  let ic = open_in_bin file in
  let rec go acc =
    match input_line ic with
    | l -> go (l :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  go []

let inproc_spec workload ~reference ~engines ~tail =
  let reads =
    List.mapi
      (fun i line ->
        match Protocol.parse_request line with
        | Ok (Protocol.Answer { query; strategy; _ }) -> (
          match Strategy.of_string strategy with
          | Ok strategy -> Inproc.query ~reference ~engines i query strategy
          | Error m -> failwith m)
        | _ -> failwith ("not an answer request: " ^ line))
      (read_lines (reads_file workload))
  in
  let writes =
    List.map
      (fun line ->
        match Protocol.parse_request line with
        | Ok (Protocol.Update muts) -> muts
        | _ -> failwith ("not an update request: " ^ line))
      (read_lines (writes_file workload))
  in
  {
    Inproc.nt_file = nt_file workload;
    config = Config.default;
    stream = Array.of_list reads;
    writes = Array.of_list writes;
    tail;
  }

let measure workload ~seconds ~trace ~refq =
  match workload with
  | "lubm-reform" ->
    (* The paper's path: GCov reformulation, checked against Sat. *)
    Inproc.run ~seconds ~trace
      (inproc_spec workload ~reference:Strategy.Saturation
         ~engines:(fun _ -> Config.(Binary, Binary))
         ~tail:98.)
  | "graph-cyclic" ->
    (* Sat under Auto and under forced leapfrog, each checked against
       the other operator. *)
    Inproc.run ~seconds ~trace
      (inproc_spec workload ~reference:Strategy.Saturation
         ~engines:Inputs.cyclic_engines ~tail:80.)
  | "serve-mixed" ->
    Served.run ~seconds ~trace
      {
        Served.refq;
        nt_file = nt_file workload;
        dir = Filename.concat (dir workload) "server";
        reads = Array.of_list (read_lines (reads_file workload));
        writes = Array.of_list (read_lines (writes_file workload));
        tail = 75.;
      }
  | w -> failwith ("unknown workload " ^ w)

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opts acc = function
    | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
      opts ((String.sub key 2 (String.length key - 2), value) :: acc) rest
    | [] -> acc
    | other :: _ -> failwith ("unexpected argument " ^ other)
  in
  let usage () =
    prerr_endline
      "usage: main.exe prepare --workload W --seed N\n\
      \       main.exe measure --workload W --seconds S --trace 0|1 --refq PATH";
    exit 2
  in
  match args with
  | cmd :: rest -> (
    let o = try opts [] rest with Failure _ -> usage () in
    let get k = match List.assoc_opt k o with Some v -> v | None -> usage () in
    match cmd with
    | "prepare" -> prepare (get "workload") ~seed:(int_of_string (get "seed"))
    | "measure" ->
      let outcome =
        measure (get "workload")
          ~seconds:(float_of_string (get "seconds"))
          ~trace:(get "trace" = "1") ~refq:(get "refq")
      in
      print_endline (Common.result_line outcome)
    | _ -> usage ())
  | [] -> usage ()
