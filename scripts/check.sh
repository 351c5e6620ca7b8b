#!/bin/sh
# Repo health check: build, run the test suites, and (when ocamlformat is
# available) verify formatting. bench/ is excluded from the default build
# aliases and left out here too — it is exercised explicitly via
# `dune exec bench/main.exe`.
set -eu

cd "$(dirname "$0")/.."

echo "== dune build"
dune build

echo "== dune runtest"
dune runtest

echo "== bench trajectory smoke (--json + --validate, incl. cache cold/warm runs)"
bench_json=$(mktemp /tmp/refq_bench.XXXXXX.json)
smoke_nt=$(mktemp /tmp/refq_smoke.XXXXXX.nt)
trap 'rm -f "$bench_json" "$smoke_nt"' EXIT
dune exec bench/main.exe -- --fast --scale 1 --json "$bench_json" >/dev/null
dune exec bench/main.exe -- --validate "$bench_json"
grep -q '"strategy": *"gcov+warm"' "$bench_json" || {
  echo "trajectory is missing the warm-cache runs" >&2
  exit 1
}
grep -q '"strategy": *"sat+wco"' "$bench_json" || {
  echo "trajectory is missing the wco engine runs" >&2
  exit 1
}

echo "== parallel differential smoke (--domains 1 and --domains 4)"
# The parallel suite re-answers the 210 seeded queries through the domain
# pool and demands bit-identical answer sets and epochs; REFQ_DOMAINS pins
# the swept domain counts so each invocation stays cheap.
REFQ_DOMAINS=1 dune exec test/test_differential.exe -- test 'parallel' \
  >/dev/null
REFQ_DOMAINS=4 dune exec test/test_differential.exe -- test 'parallel' \
  >/dev/null
dune exec test/test_par.exe >/dev/null

echo "== parallel bench smoke (--domains 2 --json + --validate)"
par_json=$(mktemp /tmp/refq_bench_par.XXXXXX.json)
trap 'rm -f "$bench_json" "$smoke_nt" "$par_json"' EXIT
dune exec bench/main.exe -- --fast --scale 2 --domains 2 --json "$par_json" \
  >/dev/null
dune exec bench/main.exe -- --validate "$par_json"
grep -q '"strategy": *"load+par2"' "$par_json" || {
  echo "parallel trajectory is missing the sharded-load runs" >&2
  exit 1
}
grep -q '"strategy": *"gcov+par2"' "$par_json" || {
  echo "parallel trajectory is missing the parallel query-eval runs" >&2
  exit 1
}

echo "== wco differential smoke (engines agree under the domain pool)"
# The sixth differential axis re-answers the 210 seeded queries under
# --engine wco and auto against the binary reference; REFQ_DOMAINS=4
# additionally routes the wco fragments through the domain pool
# (dune runtest already covers the 1-domain sweep).
REFQ_DOMAINS=4 dune exec test/test_differential.exe -- test 'wco' >/dev/null

echo "== maintained-saturation differential smoke (seventh axis under the domain pool)"
# The seventh axis routes the cached-mutations suite through Session.apply
# and checks the maintained saturation against a fresh one at every step;
# REFQ_DOMAINS=4 fans the fresh saturations' rounds out over the pool.
REFQ_DOMAINS=4 dune exec test/test_differential.exe -- test 'cached' >/dev/null

echo "== wco engine smoke (answer --engine wco --explain on bundled workloads)"
wco_queries() {
  case "$1" in
  lubm) echo 'q(x, y, z) :- x ub:advisor y, y ub:teacherOf z, x ub:takesCourse z' ;;
  dblp) echo 'q(p, au, v) :- p dblp:authoredBy au, p dblp:publishedIn v' ;;
  geo) echo 'q(p, c, d) :- p geo:locatedIn c, c geo:inDepartement d' ;;
  esac
}
for workload in lubm dblp geo; do
  wl_nt=$(mktemp "/tmp/refq_wco_${workload}.XXXXXX.nt")
  dune exec bin/refq.exe -- generate "$workload" --scale 1 -o "$wl_nt" >/dev/null
  dune exec bin/refq.exe -- answer "$wl_nt" -q "$(wco_queries $workload)" \
    -s ucq --engine wco --explain | grep -q "operator: leapfrog" || {
    echo "answer --engine wco --explain did not report the leapfrog operator on $workload" >&2
    rm -f "$wl_nt"
    exit 1
  }
  rm -f "$wl_nt"
done

echo "== wco engine: negative check (infeasible variable order must fall back)"
# Atoms (x,y,z) and (x,z,y) force both y<z and z<y in the global variable
# order: no feasible order exists, the fragment must fall back to the
# binary engine and --explain must say so.
wco_nt=$(mktemp /tmp/refq_wco_neg.XXXXXX.nt)
{
  echo '<http://example.org/a> <http://example.org/b> <http://example.org/c> .'
  echo '<http://example.org/a> <http://example.org/c> <http://example.org/b> .'
} > "$wco_nt"
wco_explain=$(dune exec bin/refq.exe -- answer "$wco_nt" \
  -q 'q(x, y, z) :- x y z, x z y' -s ucq --engine wco --explain)
echo "$wco_explain" | grep -q "leapfrog infeasible" || {
  echo "--engine wco did not report the fallback on an infeasible variable order" >&2
  exit 1
}
if echo "$wco_explain" | grep -q "operator: leapfrog$"; then
  echo "--engine wco claimed the leapfrog operator on an infeasible variable order" >&2
  exit 1
fi
rm -f "$wco_nt"

echo "== cache cold/warm bench smoke (e17)"
dune exec bench/main.exe -- --fast --scale 1 --only e17 | grep -q "gcov" || {
  echo "e17 cache experiment produced no output" >&2
  exit 1
}

echo "== CLI cache smoke (refq cache stats, --no-cache)"
dune exec bin/refq.exe -- generate lubm --scale 1 -o "$smoke_nt" >/dev/null
dune exec bin/refq.exe -- cache stats "$smoke_nt" \
  -q 'q(x) :- x rdf:type ub:Student' --runs 2 | grep -q "reform" || {
  echo "refq cache stats printed no cache statistics" >&2
  exit 1
}
dune exec bin/refq.exe -- answer "$smoke_nt" --no-cache \
  -q 'q(x) :- x rdf:type ub:Student' -s gcov >/dev/null

echo "== CLI stats smoke (refq stats: the on-demand distribution report)"
stats_out=$(dune exec bin/refq.exe -- stats "$smoke_nt")
for section in "top properties:" "top classes:" "top subjects:" \
  "top objects:" "top (property, object) pairs:"; do
  echo "$stats_out" | grep -qF "$section" || {
    echo "refq stats printed no '$section' section" >&2
    exit 1
  }
done
echo "$stats_out" | grep -q "univ-bench#UndergraduateStudent" || {
  echo "refq stats listed no LUBM class in its class distribution" >&2
  exit 1
}

echo "== CLI views smoke (recommend -> materialize -> answer -> refresh -> audit)"
dune exec bin/refq.exe -- views recommend "$smoke_nt" --bundled lubm \
  | grep -q "candidate" || {
  echo "refq views recommend printed no selection trace" >&2
  exit 1
}
dune exec bin/refq.exe -- views materialize "$smoke_nt" --bundled lubm \
  | grep -q "materialized" || {
  echo "refq views materialize reported no views" >&2
  exit 1
}
dune exec bin/refq.exe -- answer "$smoke_nt" \
  -q 'q(x) :- x rdf:type ub:Student' -s ucq --explain \
  | grep -q "materialized views served" || {
  echo "answer --explain did not report a view-served fragment" >&2
  exit 1
}
# Mutate the data: the sidecar goes stale, refresh repairs it, audit is clean.
echo '<http://refq.org/check#s> <http://refq.org/check#p> <http://refq.org/check#o> .' \
  >> "$smoke_nt"
dune exec bin/refq.exe -- views list "$smoke_nt" | grep -q "stale" || {
  echo "mutated data did not make the views stale" >&2
  exit 1
}
dune exec bin/refq.exe -- views refresh "$smoke_nt" >/dev/null
dune exec bin/refq.exe -- views audit "$smoke_nt" | grep -q "views OK" || {
  echo "refq views audit did not report a clean catalog after refresh" >&2
  exit 1
}
dune exec bin/refq.exe -- answer "$smoke_nt" --no-views \
  -q 'q(x) :- x rdf:type ub:Student' -s ucq >/dev/null
rm -f "$smoke_nt.views"

echo "== source lint (scripts/lint.sh)"
scripts/lint.sh

echo "== A/B pairs script smoke (syntax and --help)"
bash -n scripts/perf_pairs.sh
scripts/perf_pairs.sh --help | grep -q "PARENT_REV WORKLOAD SEED" || {
  echo "scripts/perf_pairs.sh --help printed no usage" >&2
  exit 1
}

echo "== static analysis: refq lint over bundled workloads + generated queries"
for workload in lubm dblp geo; do
  wl_nt=$(mktemp "/tmp/refq_lint_${workload}.XXXXXX.nt")
  dune exec bin/refq.exe -- generate "$workload" --scale 1 -o "$wl_nt" >/dev/null
  dune exec bin/refq.exe -- lint "$wl_nt" --bundled "$workload" --gen 20 --gen-seed 7 \
    >/dev/null || {
    echo "refq lint found errors in the $workload workload" >&2
    rm -f "$wl_nt"
    exit 1
  }
  rm -f "$wl_nt"
done

echo "== static analysis: refq audit-store"
dune exec bin/refq.exe -- audit-store "$smoke_nt" | grep -q "store OK" || {
  echo "refq audit-store did not report a clean store" >&2
  exit 1
}

echo "== static analysis: negative check (broken query must fail lint)"
if dune exec bin/refq.exe -- lint "$smoke_nt" \
  -q 'q(x, y) :- x rdf:type ub:Student' >/dev/null 2>&1; then
  echo "refq lint accepted a query with an unsafe head variable" >&2
  exit 1
fi

echo "== crash-safe persistence smoke (snapshot, torn WAL, recovery, audit)"
persist_dir=$(mktemp -d /tmp/refq_persist.XXXXXX)
bad_dir=$(mktemp -d /tmp/refq_persist_bad.XXXXXX)
trap 'rm -f "$bench_json" "$smoke_nt" "$par_json"; rm -rf "$persist_dir" "$bad_dir"' EXIT
dune exec bin/refq.exe -- snapshot save "$smoke_nt" "$persist_dir" --sat >/dev/null
dune exec bin/refq.exe -- audit-store --persist "$persist_dir" \
  | grep -q "persist OK" || {
  echo "audit-store --persist did not report a clean directory" >&2
  exit 1
}
# Tear the WAL mid-record: sync a mutated data file through an injected
# short write (the first delta record lands whole, the second is torn).
{
  echo '<http://refq.org/check#s2> <http://refq.org/check#p2> <http://refq.org/check#o2> .'
  echo '<http://refq.org/check#s3> <http://refq.org/check#p3> <http://refq.org/check#o3> .'
} >> "$smoke_nt"
dune exec bin/refq.exe -- snapshot sync "$smoke_nt" "$persist_dir" \
  --io-fault short:120 | grep -q "crash injected" || {
  echo "snapshot sync did not report the injected crash" >&2
  exit 1
}
# The torn tail is reported (RS004 warning) but is not fatal: the audit
# exits 0 because recovery truncates it soundly.
dune exec bin/refq.exe -- audit-store --persist "$persist_dir" \
  | grep -q "RS004" || {
  echo "audit-store did not report the torn WAL tail" >&2
  exit 1
}
# Reopening repairs the log in place; the directory audits clean again
# and the recovered store answers queries.
dune exec bin/refq.exe -- snapshot load "$persist_dir" >/dev/null
dune exec bin/refq.exe -- audit-store --persist "$persist_dir" \
  | grep -q "persist OK" || {
  echo "recovery did not repair the torn WAL tail" >&2
  exit 1
}
dune exec bin/refq.exe -- answer "$smoke_nt" --persist "$persist_dir" \
  -q 'q(x) :- x rdf:type ub:Student' -s sat >/dev/null

echo "== crash-safe persistence: negative check (corrupt snapshot magic must fail)"
dune exec bin/refq.exe -- snapshot save "$smoke_nt" "$bad_dir" >/dev/null
printf 'XXXXXXXXX' | dd of="$bad_dir/snapshot.cur" bs=1 count=9 conv=notrunc \
  2>/dev/null
if dune exec bin/refq.exe -- audit-store --persist "$bad_dir" >/dev/null 2>&1; then
  echo "audit-store accepted a corrupted snapshot with no fallback generation" >&2
  exit 1
fi

echo "== serve smoke (random port, mixed read/write, stats scrape, graceful drain)"
# The binaries are already built; drive them directly so the background
# server cannot contend with dune's build lock.
refq=_build/default/bin/refq.exe
serve_port=$((10240 + $$ % 20000))
serve_log=$(mktemp /tmp/refq_serve.XXXXXX.log)
trap 'rm -f "$bench_json" "$smoke_nt" "$par_json" "$serve_log"; rm -rf "$persist_dir" "$bad_dir"' EXIT
"$refq" serve "$smoke_nt" --no-views --port "$serve_port" > "$serve_log" 2>&1 &
serve_pid=$!
for _ in 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20; do
  grep -q "serving" "$serve_log" 2>/dev/null && break
  sleep 0.25
done
grep -q "serving" "$serve_log" || {
  echo "refq serve did not come up on port $serve_port" >&2
  cat "$serve_log" >&2
  exit 1
}
# Mixed read/write script: every response must be ok, the insert must be
# effective, and the post-insert read must see it (one more answer row).
"$refq" client --port "$serve_port" \
  '{"op":"ping"}' \
  '{"op":"answer","query":"q(x) :- x rdf:type ub:Student","strategy":"gcov"}' \
  '{"op":"insert","triples":["<http://refq.org/check#srv> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://refq.org/univ-bench#Student> ."]}' \
  '{"op":"answer","query":"q(x) :- x rdf:type ub:Student","strategy":"ucq"}' \
  '{"op":"epochs"}' \
  | grep -q '"applied":1' || {
  echo "serve smoke: the writer batch was not applied" >&2
  exit 1
}
"$refq" client --port "$serve_port" '{"op":"stats"}' \
  | grep -q 'refq_serve_requests' || {
  echo "serve smoke: the stats verb exported no Prometheus counters" >&2
  exit 1
}
# Must-fail negative: a malformed request gets a structured error (the
# client exits non-zero on ok:false) and the server stays up.
if "$refq" client --port "$serve_port" 'this is not json' >/dev/null 2>&1; then
  echo "serve smoke: a malformed request was not answered with an error" >&2
  exit 1
fi
"$refq" client --port "$serve_port" '{"op":"ping"}' | grep -q '"ok":true' || {
  echo "serve smoke: the server did not survive a malformed request" >&2
  exit 1
}
"$refq" client --port "$serve_port" '{"op":"shutdown"}' >/dev/null
wait "$serve_pid" || {
  echo "serve smoke: refq serve did not exit 0 on graceful shutdown" >&2
  cat "$serve_log" >&2
  exit 1
}
grep -q "drained" "$serve_log" || {
  echo "serve smoke: the server did not report a graceful drain" >&2
  exit 1
}

echo "== concurrency audit smoke (serve --trace, mixed load, drain, replay)"
conc_trace=$(mktemp /tmp/refq_conc.XXXXXX.trace)
racy_trace=$(mktemp /tmp/refq_racy.XXXXXX.trace)
trap 'rm -f "$bench_json" "$smoke_nt" "$par_json" "$serve_log" "$conc_trace" "$racy_trace"; rm -rf "$persist_dir" "$bad_dir"' EXIT
conc_port=$((10240 + ($$ + 137) % 20000))
conc_log=$(mktemp /tmp/refq_conc_serve.XXXXXX.log)
"$refq" serve "$smoke_nt" --no-views --port "$conc_port" --trace "$conc_trace" \
  > "$conc_log" 2>&1 &
conc_pid=$!
for _ in 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20; do
  grep -q "serving" "$conc_log" 2>/dev/null && break
  sleep 0.25
done
grep -q "serving" "$conc_log" || {
  echo "conc smoke: refq serve --trace did not come up" >&2
  cat "$conc_log" >&2
  exit 1
}
"$refq" client --port "$conc_port" \
  '{"op":"answer","query":"q(x) :- x rdf:type ub:Student","strategy":"ucq"}' \
  '{"op":"insert","triples":["<http://refq.org/check#conc> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://refq.org/univ-bench#Student> ."]}' \
  '{"op":"answer","query":"q(x) :- x rdf:type ub:Student","strategy":"gcov"}' \
  '{"op":"shutdown"}' >/dev/null
wait "$conc_pid" || {
  echo "conc smoke: traced server did not drain cleanly" >&2
  cat "$conc_log" >&2
  exit 1
}
grep -q "concurrency audit:" "$conc_log" || {
  echo "conc smoke: the server did not report its drain-time audit" >&2
  cat "$conc_log" >&2
  exit 1
}
grep -q "0 finding(s)" "$conc_log" || {
  echo "conc smoke: the drain-time audit reported findings" >&2
  cat "$conc_log" >&2
  exit 1
}
"$refq" audit-concurrency "$conc_trace" | grep -q "concurrency OK" || {
  echo "conc smoke: replaying the saved trace did not audit clean" >&2
  exit 1
}
rm -f "$conc_log"

echo "== concurrency audit: negative check (racy harness must be rejected)"
# The flag-gated harness in test/test_conc.ml commits a deliberate
# unsynchronized handoff and saves its trace; the audit must refuse it.
REFQ_CONC_TRACE_RACY="$racy_trace" _build/default/test/test_conc.exe \
  test stress >/dev/null
if "$refq" audit-concurrency "$racy_trace" >/dev/null 2>&1; then
  echo "conc negative: audit-concurrency accepted the racy trace" >&2
  exit 1
fi
"$refq" audit-concurrency "$racy_trace" 2>&1 | grep -q "RX001" || {
  echo "conc negative: the racy trace was rejected without naming RX001" >&2
  exit 1
}

if opam switch list -s 2>/dev/null | grep -q tsan; then
  tsan_switch=$(opam switch list -s 2>/dev/null | grep tsan | head -1)
  echo "== ThreadSanitizer pass (switch $tsan_switch: test_par + test_serve)"
  # A separate build dir keeps the tsan artifacts from clobbering the
  # default switch's; TSan aborts the run on any data race it observes.
  opam exec --switch "$tsan_switch" -- dune build --build-dir _build_tsan \
    test/test_par.exe test/test_serve.exe
  opam exec --switch "$tsan_switch" -- \
    ./_build_tsan/default/test/test_par.exe >/dev/null
  opam exec --switch "$tsan_switch" -- \
    ./_build_tsan/default/test/test_serve.exe >/dev/null
else
  echo "== no +tsan opam switch; skipping ThreadSanitizer pass"
fi

if command -v ocamlformat >/dev/null 2>&1; then
  echo "== dune fmt (check only)"
  dune build @fmt 2>/dev/null || {
    echo "formatting differs; run 'dune fmt' to fix" >&2
    exit 1
  }
else
  echo "== ocamlformat not installed; skipping format check"
fi

echo "OK"
