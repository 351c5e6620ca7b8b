(* The per-layer metrics of a traced run, in the order BENCHMARK.json
   lists them. Every workload reports every metric; a layer a workload
   does not exercise reads 0 (see README.md for the predictions). *)

open Common

type inputs = {
  setup_spans : Tracer.t;  (** the traced set-ups *)
  spans : Tracer.t;  (** benchmark spans with the program's stage spans *)
  span_reads : int;  (** reads the spans cover *)
  counter : string -> int;  (** Obs counter delta over the traced reads *)
  counter_reads : int;  (** reads the counters cover *)
  rows : int;  (** rows the counted reads returned *)
  outside_ms : float;
      (** mean read latency minus the answer's own [total_s] *)
  minor_words_per_op : float;  (** from the untraced pass *)
  major_collections : int;  (** from the untraced pass *)
  wal_bytes_per_user_byte : float;
  overhead_share : float;  (** traced time / untraced time - 1 *)
}

let per_call sp name =
  match Tracer.calls sp name with
  | 0 -> 0.
  | n -> Tracer.wall_s sp name /. float_of_int n

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

let metrics i =
  let sp = i.spans in
  let per n x = if n = 0 then 0. else x /. float_of_int n in
  let self_ms name = ms (per i.span_reads (Tracer.self_s sp name)) in
  let count name = per i.counter_reads (float_of_int (i.counter name)) in
  let hit_ratio level =
    let h = i.counter ("cache." ^ level ^ "_hits")
    and m = i.counter ("cache." ^ level ^ "_misses") in
    ratio h (h + m)
  in
  let op_wall = Tracer.wall_s sp "op" in
  [
    metric "rdf.parse_s" "s" (per_call i.setup_spans "rdf.parse");
    metric "storage.load_s" "s" (per_call i.setup_spans "storage.load");
    metric "core.env_build_ms" "ms" (ms (per_call i.setup_spans "core.env_build"));
    metric "persist.seed_s" "s" (per_call i.setup_spans "persist.seed");
    metric "reform.reformulate_ms" "ms" (self_ms "reform.reformulate");
    metric "reform.disjuncts" "count" (count "reform.disjuncts");
    metric "reform.atom_rewrites" "count" (count "reform.atom_rewrites");
    metric "gcov.plan_ms" "ms" (self_ms "gcov.plan");
    metric "gcov.covers_explored" "count" (count "gcov.covers_explored");
    metric "cost.estimates" "count" (count "cost.estimates");
    metric "engine.evaluate_ms" "ms" (self_ms "engine.evaluate");
    metric "engine.join_ms" "ms" (self_ms "engine.join");
    metric "engine.triples_scanned" "count" (count "engine.triples_scanned");
    metric "engine.intermediate_rows" "count" (count "engine.intermediate_rows");
    metric "engine.intermediate_per_answer" "ratio"
      (ratio (i.counter "engine.intermediate_rows") i.rows);
    metric "wco.seeks" "count" (count "wco.seeks");
    metric "wco.emits" "count" (count "wco.emits");
    metric "wco.fallbacks" "count" (count "wco.fallbacks");
    metric "cache.reform_hit_ratio" "ratio" (hit_ratio "reform");
    metric "cache.cover_hit_ratio" "ratio" (hit_ratio "cover");
    metric "cache.result_hit_ratio" "ratio" (hit_ratio "result");
    metric "serve.apply_ms" "ms" (ms (per_call sp "serve.apply"));
    metric "storage.copy_ms" "ms" (ms (per_call sp "storage.copy"));
    metric "serve.snapshot_env_ms" "ms" (ms (per_call sp "serve.snapshot_env"));
    metric "saturation.saturate_ms" "ms" (self_ms "saturation.saturate");
    metric "persist.wal_appends" "count" (float_of_int (i.counter "persist.wal_appends"));
    metric "persist.wal_bytes_per_user_byte" "ratio" i.wal_bytes_per_user_byte;
    metric "query.parse_us" "us" (1000. *. self_ms "query.parse");
    metric "core.answer_self_ms" "ms" (self_ms "core.answer");
    metric "serve.render_ms" "ms" (self_ms "serve.render");
    metric "serve.rows_per_read" "count" (ratio i.rows i.counter_reads);
    metric "serve.outside_answer_ms" "ms" i.outside_ms;
    metric "gc.minor_words_per_op" "words" i.minor_words_per_op;
    metric "gc.major_collections" "count" (float_of_int i.major_collections);
    metric "unattributed_share" "ratio"
      (if op_wall = 0. then 0. else Tracer.self_s sp "op" /. op_wall);
    metric "trace.overhead_share" "ratio" i.overhead_share;
  ]

(* The self-time breakdown behind the metrics, for the log. *)
let print_breakdown sp =
  List.iter
    (fun (name, (t : Tracer.total)) ->
      note "span %-24s calls=%-6d wall=%9.3fs self=%9.3fs" name t.Tracer.calls
        t.Tracer.wall t.Tracer.self)
    (Tracer.breakdown sp)
