(* The benchmark's correctness gates must fail a run whose answers are
   wrong. A tiny LUBM store keeps this fast enough for `dune runtest`. *)

open Perfbench
open Refq_core

let temp_nt name store =
  lazy
    (let file = Filename.temp_file name ".nt" in
     at_exit (fun () -> Sys.remove file);
     ignore (Inputs.write_ntriples file store);
     file)

let nt_file = temp_nt "perfbench_gate" (Inputs.lubm_store ~seed:1 ~scale:1)

let writes batch =
  Array.of_list
    (List.map
       (fun line ->
         match Refq_serve.Protocol.parse_request line with
         | Ok (Refq_serve.Protocol.Update muts) -> muts
         | _ -> assert false)
       (Inputs.update_lines [ batch ]))

(* The bundled LUBM queries under UCQ, answered with [config] applied
   to the workload's config and checked against Sat. *)
let spec config =
  let texts = List.map Inputs.query_text (Inputs.bundled_queries ()) in
  {
    Inproc.nt_file = Lazy.force nt_file;
    config = Config.default;
    stream =
      Array.of_list
        (List.mapi
           (fun i text ->
             let q =
               Inproc.query ~reference:Strategy.Saturation
                 ~engines:(fun _ -> Config.(Binary, Binary))
                 i text Strategy.Ucq
             in
             { q with config = config q.config })
           texts);
    writes = writes (Inputs.lubm_batch 0);
    tail = 90.;
  }

let inproc_sound () =
  let o = Inproc.run (spec Fun.id) ~seconds:0.02 ~trace:false in
  Alcotest.(check bool) "complete reformulation passes" true o.Common.correct;
  Alcotest.(check int) "no failed operations" 0 o.Common.failed

(* Reformulating without RDFS reasoning loses answers Sat has: the run
   must come out incorrect. *)
let inproc_wrong () =
  let o = Inproc.run (spec (Config.with_profile Refq_reform.Profiles.none)) ~seconds:0.02 ~trace:false in
  Alcotest.(check bool) "incomplete reformulation fails the gate" false o.Common.correct

(* graph-cyclic at a small size: the same stream and operator choice. *)
let cyclic_file =
  temp_nt "perfbench_cyclic" (Inputs.digraph ~seed:1 ~nodes:60 ~preds:3 ~degree:2)

let cyclic_spec () =
  {
    Inproc.nt_file = Lazy.force cyclic_file;
    config = Config.default;
    stream =
      Array.of_list
        (List.mapi
           (fun i text ->
             Inproc.query ~reference:Strategy.Saturation ~engines:Inputs.cyclic_engines i
               text Strategy.Saturation)
           (Inputs.cyclic_stream ~seed:1 ~preds:3));
    writes = writes (Inputs.digraph_batch 0);
    tail = 90.;
  }

(* Every check compares two different operators, the leapfrog one runs
   in the loop, and a whole run passes. *)
let cyclic_sound () =
  let spec = cyclic_spec () in
  Array.iteri
    (fun i _ ->
      let read, reference = Inputs.cyclic_engines i in
      Alcotest.(check bool) "read and reference operators differ" true (read <> reference))
    spec.stream;
  let o = Inproc.run spec ~seconds:0.05 ~trace:true in
  Alcotest.(check bool) "Auto and leapfrog agree with their references" true o.Common.correct;
  let seeks = List.find (fun m -> m.Common.name = "wco.seeks") o.Common.metrics in
  Alcotest.(check bool) "leapfrog runs in the loop" true (seeks.Common.value > 0.)

(* A read whose digest differs from its reference fails the gate. *)
let cyclic_wrong () =
  let spec = cyclic_spec () in
  let session = Inproc.open_session ~config:spec.config spec.nt_file in
  let read i digest =
    { Inproc.text = spec.stream.(i).text; ok = true; latency = 0.; answer_s = 0.; digest; rows = 0 }
  in
  let good i =
    match Inproc.timed_read Tracer.off session spec.stream.(i) with
    | { Inproc.digest; _ } -> read i digest
  in
  let wrong = Inproc.gate session spec [ good 0; good 5; read 6 "tampered" ] in
  Alcotest.(check (list string)) "only the tampered read is caught"
    [ spec.stream.(6).text ]
    (List.map (fun (r : Inproc.read) -> r.text) wrong)

let served_wrong () =
  let spec =
    {
      Served.refq = "refq";
      nt_file = Lazy.force nt_file;
      dir = Filename.get_temp_dir_name ();
      reads = [||];
      writes = [||];
      tail = 90.;
    }
  in
  let line = Inputs.answer_line ~strategy:"gcov" (Inputs.query_text Refq_workload.Lubm.example1_query) in
  let read epochs rows =
    { Served.kind = Served.Read line; latency = 0.; ok = true; epochs; rows; total_s = 0. }
  in
  let wrong, unchecked =
    Served.replay (Tracer.create ~on:false) spec ~base:(7, 3)
      [ read (7, 3) [ [ "not"; "an"; "answer" ] ]; read (99, 3) [] ]
  in
  Alcotest.(check int) "tampered rows are caught" 1 (List.length wrong);
  Alcotest.(check int) "unknown epochs are not checked" 1 unchecked

let () =
  Alcotest.run "perfbench"
    [
      ( "gate",
        [
          Alcotest.test_case "in-process, sound" `Quick inproc_sound;
          Alcotest.test_case "in-process, wrong digest" `Quick inproc_wrong;
          Alcotest.test_case "graph-cyclic, sound" `Quick cyclic_sound;
          Alcotest.test_case "graph-cyclic, wrong digest" `Quick cyclic_wrong;
          Alcotest.test_case "served replay, wrong digest" `Quick served_wrong;
        ] );
    ]
