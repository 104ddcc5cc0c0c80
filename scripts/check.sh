#!/bin/sh
# Strict pre-merge gate: configure with warnings-as-errors, build
# everything, run the test suite, and smoke-test the metrics output.
# Then rebuild under ASan+UBSan and run a deterministic fault-injection
# soak: every seeded fault plan must end in a clean exit code (0 on
# survival or recovery, 1/2 on rejected input) — never a sanitizer
# report, crash, or hang.
# Usage: scripts/check.sh [build-dir]   (default: build-check)
set -e

cd "$(dirname "$0")/.."
BUILD="${1:-build-check}"

echo "== configure ($BUILD, -Wall -Wextra -Werror) =="
cmake -B "$BUILD" -S . \
    -DCMAKE_CXX_FLAGS="-Wall -Wextra -Werror" > /dev/null

echo "== build =="
cmake --build "$BUILD" -j

REL="$BUILD-release"
echo "== Release build ($REL, -Werror, every target) =="
# GCC's -O3 inlining raises -Wrestrict false positives on string
# concatenations that the -O2 build above never sees; the whole tree,
# tests included, must build clean at -O3 too.
cmake -B "$REL" -S . -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_CXX_FLAGS="-Wall -Wextra -Werror" > /dev/null
cmake --build "$REL" -j

echo "== test (5 runs, parallel) =="
# Every test runs five times under -j: a test that shares a file or
# other state with another process fails one of the runs.
ctest --test-dir "$BUILD" --output-on-failure -j --repeat until-fail:5

echo "== metrics smoke =="
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
"$BUILD/tools/topo_sim" --benchmark=m88ksim --trace-scale=0.02 \
    --taxonomy --metrics-out="$WORK/metrics.json" > /dev/null
for key in '"topo_metrics": 1' '"phase.synthesis.ms"' \
    '"phase.trg_build.ms"' '"phase.placement.gbsc.ms"' \
    '"phase.simulate.ms"' '"cache.misses"' \
    '"taxonomy.compulsory"' '"taxonomy.conflict"' \
    '"provenance"' '"git_sha"'; do
    grep -q "$key" "$WORK/metrics.json" || {
        echo "FAIL: metrics snapshot missing $key"; exit 1; }
done
"$BUILD/tools/topo_report" --check-json="$WORK/metrics.json" \
    > /dev/null || {
    echo "FAIL: metrics.json fails schema validation"; exit 1; }

echo "== debug-log gate =="
# Neither --log-level=debug nor --trace-out may change a byte of
# stdout, on a plain (batched) replay or on an observed (--taxonomy)
# one. Both run the same replay variant as the plain run: no logging
# or tracing flag selects the per-fetch replay.
for extra in "" "--taxonomy"; do
    # shellcheck disable=SC2086
    "$BUILD/tools/topo_sim" --benchmark=m88ksim --trace-scale=0.02 \
        $extra > "$WORK/log_default.txt" 2> /dev/null
    # shellcheck disable=SC2086
    "$BUILD/tools/topo_sim" --benchmark=m88ksim --trace-scale=0.02 \
        $extra --log-level=debug > "$WORK/log_debug.txt" 2> /dev/null
    cmp -s "$WORK/log_default.txt" "$WORK/log_debug.txt" || {
        echo "FAIL: --log-level=debug changes stdout (${extra:-plain})"
        exit 1; }
    # shellcheck disable=SC2086
    "$BUILD/tools/topo_sim" --benchmark=m88ksim --trace-scale=0.02 \
        $extra --trace-out="$WORK/log_trace.json" \
        > "$WORK/log_traced.txt" 2> /dev/null
    cmp -s "$WORK/log_default.txt" "$WORK/log_traced.txt" || {
        echo "FAIL: --trace-out changes stdout (${extra:-plain})"
        exit 1; }
done

echo "== report smoke =="
"$BUILD/tools/topo_report" --microsuite=thrash_pair \
    --algorithms=default,ph,gbsc --out="$WORK/report.md" \
    --json-out="$WORK/report.json" > /dev/null
grep -q "Top conflicting procedure pairs" "$WORK/report.md" || {
    echo "FAIL: report.md missing the conflict-pair section"; exit 1; }
"$BUILD/tools/topo_report" --check-json="$WORK/report.json" \
    > /dev/null || {
    echo "FAIL: report.json is not valid JSON"; exit 1; }

echo "== explain smoke =="
# Placement explainability end to end: {ph,gbsc} x assoc {1,2}
# decisions artifacts and attributed layout diffs. --check-json
# enforces the decision-record schema and the exact attribution-sum
# invariant (per-proc and per-set miss deltas each sum to the total
# miss delta); the jobs=1 / jobs=4 artifacts must be byte-identical.
"$BUILD/tools/topo_trace_gen" --benchmark=m88ksim --input=train \
    --trace-scale=0.02 --out-program="$WORK/ex.prog" \
    --out-trace="$WORK/ex.trace" 2> /dev/null
for assoc in 1 2; do
    for alg in ph gbsc; do
        for jobs in 1 4; do
            "$BUILD/tools/topo_place" --program="$WORK/ex.prog" \
                --trace="$WORK/ex.trace" --algorithm="$alg" \
                --assoc="$assoc" --jobs="$jobs" \
                --out-layout="$WORK/ex_${alg}_a${assoc}_j${jobs}.layout" \
                --decisions-out="$WORK/ex_${alg}_a${assoc}_j${jobs}.json" \
                2> /dev/null
            "$BUILD/tools/topo_report" \
                --check-json="$WORK/ex_${alg}_a${assoc}_j${jobs}.json" \
                > /dev/null || {
                echo "FAIL: decisions ($alg assoc=$assoc jobs=$jobs)"
                exit 1; }
        done
        cmp -s "$WORK/ex_${alg}_a${assoc}_j1.json" \
            "$WORK/ex_${alg}_a${assoc}_j4.json" || {
            echo "FAIL: $alg assoc=$assoc decisions differ by jobs"
            exit 1; }
        grep -q "^!algorithm $alg" \
            "$WORK/ex_${alg}_a${assoc}_j1.layout" || {
            echo "FAIL: $alg assoc=$assoc layout missing provenance"
            exit 1; }
    done
    for jobs in 1 4; do
        "$BUILD/tools/topo_report" \
            --diff="$WORK/ex_ph_a${assoc}_j1.layout,$WORK/ex_gbsc_a${assoc}_j1.layout" \
            --program="$WORK/ex.prog" --trace="$WORK/ex.trace" \
            --decisions="$WORK/ex_gbsc_a${assoc}_j1.json" \
            --assoc="$assoc" --jobs="$jobs" \
            --out="$WORK/ex_diff_a${assoc}_j${jobs}.md" \
            --json-out="$WORK/ex_diff_a${assoc}_j${jobs}.json" \
            2> /dev/null
        "$BUILD/tools/topo_report" \
            --check-json="$WORK/ex_diff_a${assoc}_j${jobs}.json" \
            > /dev/null || {
            echo "FAIL: diff invariant (assoc=$assoc jobs=$jobs)"
            exit 1; }
    done
    cmp -s "$WORK/ex_diff_a${assoc}_j1.json" \
        "$WORK/ex_diff_a${assoc}_j4.json" || {
        echo "FAIL: assoc=$assoc diff differs jobs=1 vs jobs=4"
        exit 1; }
    grep -q "Layout diff" "$WORK/ex_diff_a${assoc}_j1.md" || {
        echo "FAIL: assoc=$assoc diff report missing title"; exit 1; }
done

echo "== taxonomy invariants =="
# Every microsuite case x {ph,hkc,gbsc} x both cache geometries x
# jobs in {1,4}: --check-json enforces the exact 3C-sum invariant
# (compulsory + capacity + conflict == misses, per layout and per
# timeline window) on each artefact, and the jobs=1 / jobs=4 suite
# documents must be byte-identical (taxonomy is deterministic and
# jobs-invariant).
for assoc in 1 2; do
    for jobs in 1 4; do
        "$BUILD/tools/topo_report" --microsuite \
            --algorithms=ph,hkc,gbsc --assoc="$assoc" --jobs="$jobs" \
            --out="$WORK/tax_a${assoc}_j${jobs}.md" \
            --json-out="$WORK/tax_a${assoc}_j${jobs}.json" > /dev/null
        "$BUILD/tools/topo_report" \
            --check-json="$WORK/tax_a${assoc}_j${jobs}.json" \
            > /dev/null || {
            echo "FAIL: taxonomy invariant (assoc=$assoc jobs=$jobs)"
            exit 1; }
    done
    cmp -s "$WORK/tax_a${assoc}_j1.json" "$WORK/tax_a${assoc}_j4.json" || {
        echo "FAIL: assoc=$assoc taxonomy differs jobs=1 vs jobs=4"
        exit 1; }
done
grep -q "Miss taxonomy (3C)" "$WORK/tax_a1_j1.md" || {
    echo "FAIL: microsuite report missing the 3C section"; exit 1; }

echo "== replacement-policy gate =="
# Every replacement policy on the full microsuite x {ph,gbsc}: the
# artefacts must validate, --policy=lru must be byte-identical to the
# default (the policy zoo may not perturb the historical path), and
# the black-box probe must uniquely identify every implemented policy
# from hit/miss bits alone.
"$BUILD/tools/topo_report" --microsuite --algorithms=ph,gbsc \
    --assoc=4 --jobs=4 --json-out="$WORK/pol_default.json" > /dev/null
for policy in lru plru srrip fifo random; do
    "$BUILD/tools/topo_report" --microsuite --algorithms=ph,gbsc \
        --assoc=4 --jobs=4 --policy="$policy" \
        --json-out="$WORK/pol_$policy.json" > /dev/null
    "$BUILD/tools/topo_report" --check-json="$WORK/pol_$policy.json" \
        > /dev/null || {
        echo "FAIL: policy $policy microsuite artefact invalid"
        exit 1; }
done
cmp -s "$WORK/pol_default.json" "$WORK/pol_lru.json" || {
    echo "FAIL: --policy=lru differs from the default policy"; exit 1; }
"$BUILD/tools/topo_sim" --probe-policy > /dev/null || {
    echo "FAIL: --probe-policy could not identify every policy"
    exit 1; }

echo "== store smoke =="
# The persistent profile store end to end: init, an exact ingest, a
# sampled ingest, a placement, a compaction, and a reopen for the
# status and a forced re-placement (its document carries a layout
# diff). Every --json-out document must pass --check-json.
"$BUILD/tools/topo_trace_gen" --benchmark=m88ksim --input=train \
    --trace-scale=0.02 --out-program="$WORK/st.prog" \
    --out-trace="$WORK/st.trace" 2> /dev/null
PROFILE="$BUILD/tools/topo_profile"
"$PROFILE" init --store="$WORK/st" --program="$WORK/st.prog" 2> /dev/null
"$PROFILE" ingest --store="$WORK/st" --trace="$WORK/st.trace" \
    --json-out="$WORK/st_exact.json" 2> /dev/null
"$PROFILE" ingest --store="$WORK/st" --trace="$WORK/st.trace" \
    --sample=simpoint --label=sampled \
    --json-out="$WORK/st_sampled.json" 2> /dev/null
"$PROFILE" place --store="$WORK/st" --json-out="$WORK/st_place.json" \
    2> /dev/null
"$PROFILE" compact --store="$WORK/st" \
    --json-out="$WORK/st_compact.json" 2> /dev/null
"$PROFILE" status --store="$WORK/st" --json-out="$WORK/st_status.json" \
    > /dev/null
"$PROFILE" place --store="$WORK/st" --algorithm=ph --force \
    --json-out="$WORK/st_replace.json" 2> /dev/null
grep -q '"topo_diff"' "$WORK/st_replace.json" || {
    echo "FAIL: forced store re-placement wrote no layout diff"; exit 1; }
for doc in exact sampled place compact status replace; do
    "$BUILD/tools/topo_report" --check-json="$WORK/st_$doc.json" \
        > /dev/null || {
        echo "FAIL: store $doc document fails --check-json"; exit 1; }
done

echo "== bench smoke =="
TOPO_BENCH_SCALE=0.02 TOPO_BENCH_NAMES=m88ksim \
    scripts/bench.sh "$WORK/BENCH_smoke.json" "$BUILD" > /dev/null
[ -s "$WORK/BENCH_smoke.json" ] || {
    echo "FAIL: bench.sh produced no BENCH json"; exit 1; }
grep -q '"topo_bench": 1' "$WORK/BENCH_smoke.json" || {
    echo "FAIL: BENCH json missing the topo_bench marker"; exit 1; }
"$BUILD/tools/topo_report" --check-json="$WORK/BENCH_smoke.json" \
    > /dev/null || {
    echo "FAIL: BENCH json does not parse"; exit 1; }

echo "== stream memory gate =="
# The fetch stream is stored as repeat-compressed runs, so exact-mode
# peak RSS grows with runs, not fetches: gcc at scale 1 (24M test
# fetches) must stay under 40 MB. One id per fetch peaked at ~130 MB.
"$BUILD/tools/topo_sim" --benchmark=gcc --trace-scale=1.0 \
    --algorithms=gbsc --jobs=1 --bench-out="$WORK/stream_rss.json" \
    > /dev/null
rss=$(sed -n 's/^ *"peak_rss_kb": *\([0-9]*\).*/\1/p' \
    "$WORK/stream_rss.json")
[ -n "$rss" ] && [ "$rss" -lt 40960 ] || {
    echo "FAIL: gcc exact-mode peak RSS ${rss:-?} KB, want < 40960"
    exit 1; }

echo "== placement time gate =="
# Placing gcc at scale 1, best of 3 runs, per algorithm. GBSC's Figure 4
# alignment prices each TRG_place edge between two nodes' flat chunk
# spans with the division-free colour kernel that HKC, refinement and
# the set-associative merge share (DESIGN.md §10): under 40 ms. It took
# 83-100 ms when every merge rebuilt a chunk-colour map. PH and GBSC
# take the heaviest edge off a lazy heap, and HKC prices colours with
# that kernel too: PH under 2.5 ms and HKC under 6 ms. On a shared 4-vCPU VM this build took 1.1-1.7 ms and
# 1.5-2.6 ms; a full adjacency scan per merge and a modulo per line
# pair took 3.4-5.7 ms and 11.7-12.6 ms.
for run in 1 2 3; do
    "$BUILD/tools/topo_sim" --benchmark=gcc --trace-scale=1.0 \
        --algorithms=ph,hkc,gbsc --jobs=1 \
        --metrics-out="$WORK/place_time_$run.json" > /dev/null 2>&1
done
for gate in "gbsc 40" "ph 2.5" "hkc 6"; do
    # shellcheck disable=SC2086
    set -- $gate
    best=$(for run in 1 2 3; do
        sed -n "/\"phase.placement.$1.ms\"/,/}/s/^ *\"min\": *\([0-9.e+-]*\).*/\1/p" \
            "$WORK/place_time_$run.json"
    done | sort -g | head -n 1)
    [ -n "$best" ] && awk -v ms="$best" -v b="$2" \
        'BEGIN { exit !(ms < b) }' || {
        echo "FAIL: gcc placement.$1 best of 3 is ${best:-?} ms, want < $2"
        exit 1; }
done

echo "== replay time gate =="
# Per fetch (phase.simulate.ms over cache.accesses, best of 3 runs at
# scale 1). The --taxonomy replay probes the cache once per fetch on
# each run's first pass and credits cache-resident repeats in closed
# form. Stack distances come from the fetch stream's reuse table,
# built once per stream by Olken's algorithm over first passes and read
# by every layout replayed against it (DESIGN.md §11). Table build
# included:
# - m88ksim, one layout, under 35 ns; 59% of its fetches are resident
#   repeats. This build took 19-20 ns, and 25-38 ns with a Fenwick
#   walk in every layout's replay.
# - gcc, one layout, under 12 ns; 85-87% of its fetches are resident
#   repeats, so a return to replaying every repeat fails here first.
#   This build took 6.2-6.7 ns, and 16.3-16.7 ns replaying every
#   repeat (48 ns when each replayed fetch also walked a Fenwick tree).
# - m88ksim, four layouts, under 13 ns, so one table serves every
#   layout: this build took 8.3-9.1 ns, and a walk per layout 39-40 ns.
# Without sinks the walk feeds every run that lies wholly between two
# events through one whole-run loop (DESIGN.md §8, §10):
# - gcc with --attribute, which only adds each run's misses to its
#   procedure, must cost under 0.4 ns per fetch. It took 0.18-0.28 ns
#   in this build, and 0.63-0.80 ns when attribution sent every run
#   fetch by fetch.
# - gcc with two checkpoints, whose cuts send only the runs they fall
#   inside fetch by fetch, must cost under 1.0 ns per fetch, its two
#   fsync'd writes included. It took 0.22-0.35 ns in this build,
#   0.69-1.15 ns when a checkpoint sent every run fetch by fetch, and
#   8.5-10.1 ns when it also made the replay expand every repeat.
# Timings are from a shared 4-vCPU VM.
for gate in "m88ksim 35 --algorithms=gbsc --taxonomy" \
    "gcc 12 --algorithms=gbsc --taxonomy" \
    "m88ksim 13 --algorithms=default,ph,hkc,gbsc --taxonomy" \
    "gcc 0.4 --algorithms=gbsc --attribute" \
    "gcc 1.0 --algorithms=gbsc --checkpoint=$WORK/gate.ckpt --checkpoint-every=10000000"; do
    # shellcheck disable=SC2086
    set -- $gate
    bench=$1
    bound=$2
    shift 2
    best=$(for run in 1 2 3; do
        "$BUILD/tools/topo_sim" --benchmark="$bench" --trace-scale=1.0 \
            --jobs=1 "$@" \
            --metrics-out="$WORK/observed_time_$run.json" > /dev/null 2>&1
        ms=$(sed -n '/"phase.simulate.ms"/,/}/s/^ *"sum": *\([0-9.e+-]*\).*/\1/p' \
            "$WORK/observed_time_$run.json")
        fetches=$(sed -n 's/^ *"cache.accesses": *\([0-9]*\).*/\1/p' \
            "$WORK/observed_time_$run.json")
        awk -v ms="$ms" -v n="$fetches" \
            'BEGIN { if (n > 0) printf "%.2f\n", ms * 1e6 / n }'
    done | sort -g | head -n 1)
    [ -n "$best" ] && awk -v ns="$best" -v b="$bound" \
        'BEGIN { exit !(ns < b) }' || {
        echo "FAIL: $bench replay ($*) best of 3 is" \
            "${best:-?} ns per fetch, want < $bound"
        exit 1; }
done

echo "== sample-plan time gate =="
# The sampler's k-means skips window-to-centre distances that Elkan's
# triangle-inequality bounds rule out (DESIGN.md §15): one gcc sample
# plan at scale 1 (phase.sample_plan.ms sum over count) must take under
# 130 ms, best of 3 runs. On a shared 4-vCPU VM it took 85-97 ms in this
# build, and 201-224 ms when every Lloyd iteration computed every
# distance. The gate runs on one lane with one layout, and again with
# four layouts at --jobs=4, the lane count tools default to on such a
# machine.
for config in "--jobs=1 --algorithms=gbsc" \
              "--jobs=4 --algorithms=default,ph,hkc,gbsc"; do
    best=$(for run in 1 2 3; do
        # shellcheck disable=SC2086
        "$BUILD/tools/topo_sim" --benchmark=gcc --trace-scale=1.0 \
            $config --sample=simpoint \
            --metrics-out="$WORK/plan_time_$run.json" > /dev/null 2>&1
        ms=$(sed -n '/"phase.sample_plan.ms"/,/}/s/^ *"sum": *\([0-9.e+-]*\).*/\1/p' \
            "$WORK/plan_time_$run.json")
        plans=$(sed -n '/"phase.sample_plan.ms"/,/}/s/^ *"count": *\([0-9]*\).*/\1/p' \
            "$WORK/plan_time_$run.json")
        awk -v ms="$ms" -v n="$plans" \
            'BEGIN { if (n > 0) printf "%.1f\n", ms / n }'
    done | sort -g | head -n 1)
    [ -n "$best" ] && awk -v ms="$best" 'BEGIN { exit !(ms < 130) }' || {
        echo "FAIL: gcc sample plan ($config) best of 3 is ${best:-?} ms, want < 130"
        exit 1; }
done

echo "== sampling gate =="
# Representative-interval sampling (DESIGN.md §15): across the full
# suite x {ph,gbsc}, the sampled estimate must stay within 2% absolute
# miss rate of the exact replay (--sample-max-error aborts the run
# otherwise), the stdout must be byte-identical for jobs=1 vs jobs=4,
# and the bench artefact's sampling block must pass schema validation.
for jobs in 1 4; do
    "$BUILD/tools/topo_sim" --benchmark='*' --algorithms=ph,gbsc \
        --trace-scale=0.05 --jobs="$jobs" --sample=simpoint \
        --sample-verify --sample-max-error=0.02 \
        --bench-out="$WORK/sample_j${jobs}.json" \
        > "$WORK/sample_j${jobs}.txt" || {
        echo "FAIL: sampled suite run (jobs=$jobs)"; exit 1; }
    "$BUILD/tools/topo_report" --check-json="$WORK/sample_j${jobs}.json" \
        > /dev/null || {
        echo "FAIL: sampled bench artefact invalid (jobs=$jobs)"
        exit 1; }
    grep -q '"sampling"' "$WORK/sample_j${jobs}.json" || {
        echo "FAIL: sampled bench artefact missing the sampling block"
        exit 1; }
done
cmp -s "$WORK/sample_j1.txt" "$WORK/sample_j4.txt" || {
    echo "FAIL: sampled output differs jobs=1 vs jobs=4"; exit 1; }
# Misuse must be rejected with the stable usage exit code (1), not a
# crash or a silent fallback to the exact path.
for bad in "--trace-scale=0" "--trace-scale=nan" \
    "--trace-scale=0.02 --sample=bogus" \
    "--trace-scale=0.02 --sample-verify" \
    "--trace-scale=0.02 --sample=simpoint --sample-max-error=0.01"; do
    rc=0
    # shellcheck disable=SC2086
    "$BUILD/tools/topo_sim" --benchmark=m88ksim \
        $bad > /dev/null 2>&1 || rc=$?
    [ "$rc" = 1 ] || {
        echo "FAIL: '$bad' exited $rc, want usage error 1"; exit 1; }
done

echo "== perf smoke =="
# The microbenchmarks must run (a filter keeps the smoke fast), and
# the perf gate must hold against the committed baseline. The smoke
# uses single-job bench runs (stable per-run wall times) and a
# generous tolerance: shared CI boxes are noisy, and the gate's job
# here is to catch order-of-magnitude hot-path regressions — the
# committed 15% default is for dedicated perf runs.
"$BUILD/bench/perf_microbench" \
    --benchmark_filter='FlatMap|UnorderedMap|TraceLoad' \
    --benchmark_min_time=0.05 > /dev/null 2>&1 || {
    echo "FAIL: perf_microbench did not run"; exit 1; }
TOPO_BENCH_JOBS=1 TOPO_PERF_TOL="${TOPO_PERF_TOL:-0.6}" \
    scripts/perf_gate.sh "" "$BUILD" || {
    echo "FAIL: perf gate"; exit 1; }

SAN="$BUILD-asan"
echo "== configure ($SAN, ASan+UBSan) =="
cmake -B "$SAN" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined" \
    > /dev/null

echo "== build (sanitized) =="
cmake --build "$SAN" -j

echo "== test (sanitized) =="
# exitcode=99 separates "sanitizer found a bug" from the tools' own
# stable exit codes 0/1/2/3.
export ASAN_OPTIONS="exitcode=99:abort_on_error=0"
export UBSAN_OPTIONS="exitcode=99:halt_on_error=1"
ctest --test-dir "$SAN" --output-on-failure -j

echo "== taxonomy smoke (sanitized) =="
# The reuse table's bitmap and Fenwick walk (compaction included) and
# the shadow-model bookkeeping must be clean under ASan+UBSan on a real
# benchmark stream, not just the unit fixtures.
"$SAN/tools/topo_sim" --benchmark=m88ksim --trace-scale=0.02 \
    --taxonomy > /dev/null

echo "== replacement-policy smoke (sanitized) =="
# The policy probe walks every policy's metadata (tree bits, RRPVs,
# FIFO hands, RNG draws) through thousands of eviction decisions, and
# a random-policy benchmark run exercises the PolicyCache replay loop
# at scale — both must be clean under ASan+UBSan.
"$SAN/tools/topo_sim" --probe-policy > /dev/null
"$SAN/tools/topo_sim" --benchmark=m88ksim --trace-scale=0.02 \
    --assoc=4 --policy=random > /dev/null

echo "== placement sweep smoke (sanitized) =="
# The set-associative merge intersects circular runs of cache sets and
# refinement keeps one colour run per chunk; both hand that run
# arithmetic to the shared colour kernel. Both benches cover every
# paper benchmark and must be clean under ASan+UBSan.
"$SAN/bench/section6_setassoc" --trace-scale=0.05 > /dev/null
"$SAN/bench/ablation_refinement" --trace-scale=0.05 > /dev/null

echo "== explain smoke (sanitized) =="
# Decision recording and the diff's double replay must be clean under
# ASan+UBSan on a real benchmark, not just the unit fixtures.
"$SAN/tools/topo_trace_gen" --benchmark=m88ksim --input=train \
    --trace-scale=0.02 --out-program="$WORK/sx.prog" \
    --out-trace="$WORK/sx.trace" 2> /dev/null
"$SAN/tools/topo_place" --program="$WORK/sx.prog" \
    --trace="$WORK/sx.trace" --algorithm=gbsc \
    --out-layout="$WORK/sx_g.layout" \
    --decisions-out="$WORK/sx_g.json" 2> /dev/null
"$SAN/tools/topo_place" --program="$WORK/sx.prog" \
    --trace="$WORK/sx.trace" --algorithm=ph \
    --out-layout="$WORK/sx_p.layout" 2> /dev/null
"$SAN/tools/topo_report" \
    --diff="$WORK/sx_p.layout,$WORK/sx_g.layout" \
    --program="$WORK/sx.prog" --trace="$WORK/sx.trace" \
    --decisions="$WORK/sx_g.json" \
    --json-out="$WORK/sx_diff.json" > /dev/null 2>&1
"$SAN/tools/topo_report" --check-json="$WORK/sx_diff.json" \
    > /dev/null || {
    echo "FAIL: sanitized diff artifact fails validation"; exit 1; }

echo "== fault-injection soak (sanitized) =="
TOOLS="$SAN/tools"
"$TOOLS/topo_trace_gen" --benchmark=m88ksim --input=train \
    --trace-scale=0.02 --out-program="$WORK/m.prog" \
    --out-trace="$WORK/m.btrace" --binary 2> /dev/null
"$TOOLS/topo_trace_gen" --benchmark=m88ksim --input=train \
    --trace-scale=0.02 --out-trace="$WORK/m.trace" 2> /dev/null

echo "== mmap reader exercise (sanitized) =="
# A file load maps the trace and a piped load reads it into memory;
# both feed the one binary-trace decoder under ASan and must agree
# byte-for-byte. The --fault-spec soak below loads mapped files too,
# so it exercises the decoder's fault hooks on mapped bytes.
"$TOOLS/topo_sim" --program="$WORK/m.prog" --trace="$WORK/m.btrace" \
    > "$WORK/mmap_file.txt" 2> /dev/null
cat "$WORK/m.btrace" | "$TOOLS/topo_sim" --program="$WORK/m.prog" \
    --trace=/dev/stdin > "$WORK/mmap_pipe.txt" 2> /dev/null
cmp -s "$WORK/mmap_file.txt" "$WORK/mmap_pipe.txt" || {
    echo "FAIL: mapped file and piped trace loads disagree"; exit 1; }

# check_rc <description> <allowed-codes> <cmd...>: the command must
# exit with one of the allowed codes — never a sanitizer failure (99),
# a signal (>= 128), or an unexpected code.
check_rc() {
    desc="$1"; allowed="$2"; shift 2
    set +e
    "$@" > /dev/null 2>&1
    rc=$?
    set -e
    [ "$rc" != "99" ] || { echo "FAIL ($desc): sanitizer report"; exit 1; }
    [ "$rc" -lt 128 ] || { echo "FAIL ($desc): died with signal ($rc)"; exit 1; }
    case " $allowed " in
        *" $rc "*) ;;
        *) echo "FAIL ($desc): exit $rc, want one of [$allowed]"; exit 1 ;;
    esac
}

for seed in 1 2 3; do
    for spec in "read_short@0.01:$seed" "bitflip@0.01:$seed" \
        "throw_io@0.001:$seed" \
        "read_short@0.02:$seed,bitflip@0.02:$seed,throw_io@0.002:$seed"; do
        # Strict runs may survive (fault never fired) or reject the
        # injected damage as corrupt input.
        check_rc "sim strict $spec" "0 2" \
            "$TOOLS/topo_sim" --program="$WORK/m.prog" \
            --trace="$WORK/m.btrace" --fault-spec="$spec"
        check_rc "sim text strict $spec" "0 2" \
            "$TOOLS/topo_sim" --program="$WORK/m.prog" \
            --trace="$WORK/m.trace" --fault-spec="$spec"
        # Recover runs additionally salvage what they can; throw_io
        # faults in the simulator itself still abort with code 2.
        check_rc "sim recover $spec" "0 2" \
            "$TOOLS/topo_sim" --program="$WORK/m.prog" \
            --trace="$WORK/m.btrace" --recover --fault-spec="$spec"
        check_rc "place recover $spec" "0 2" \
            "$TOOLS/topo_place" --program="$WORK/m.prog" \
            --trace="$WORK/m.btrace" --recover \
            --out-layout="$WORK/soak.layout" --fault-spec="$spec"
        check_rc "benchmark $spec" "0 2" \
            "$TOOLS/topo_sim" --benchmark=m88ksim --trace-scale=0.02 \
            --fault-spec="$spec"
    done
done

# Exhaustive-ish damage soak: every truncation fraction and a spread
# of deterministic bit flips must recover (0) or reject (2).
for frac in 0.1 0.3 0.5 0.7 0.9 0.99; do
    "$TOOLS/topo_corrupt" --in="$WORK/m.btrace" \
        --out="$WORK/soak.btrace" --truncate-frac="$frac" 2> /dev/null
    check_rc "truncate $frac strict" "2" \
        "$TOOLS/topo_sim" --program="$WORK/m.prog" \
        --trace="$WORK/soak.btrace"
    check_rc "truncate $frac recover" "0" \
        "$TOOLS/topo_sim" --program="$WORK/m.prog" \
        --trace="$WORK/soak.btrace" --recover
done
for seed in 1 2 3 4 5; do
    "$TOOLS/topo_corrupt" --in="$WORK/m.btrace" \
        --out="$WORK/soak.btrace" --random-flips=4 --seed="$seed" \
        2> /dev/null
    check_rc "flips seed $seed strict" "0 2" \
        "$TOOLS/topo_sim" --program="$WORK/m.prog" \
        --trace="$WORK/soak.btrace"
    check_rc "flips seed $seed recover" "0 2" \
        "$TOOLS/topo_sim" --program="$WORK/m.prog" \
        --trace="$WORK/soak.btrace" --recover
done

# Kill/resume soak: SIGKILL a checkpointing `topo_sim --benchmark`
# run mid-stream, then resume from whatever checkpoint survived; the
# final miss count must match an uninterrupted run.
BENCH_ARGS="--benchmark=m88ksim --trace-scale=0.02"
"$TOOLS/topo_sim" $BENCH_ARGS > "$WORK/whole.txt" 2> /dev/null
whole=$(sed -n 's/^misses: *\([0-9]*\)/\1/p' "$WORK/whole.txt")
set +e
"$TOOLS/topo_sim" $BENCH_ARGS --checkpoint="$WORK/soak.ckpt" \
    --checkpoint-every=2000 > /dev/null 2>&1 &
pid=$!
while [ ! -s "$WORK/soak.ckpt" ] && kill -0 "$pid" 2> /dev/null; do
    :
done
kill -9 "$pid" 2> /dev/null
wait "$pid" 2> /dev/null
set -e
if [ -s "$WORK/soak.ckpt" ]; then
    "$TOOLS/topo_sim" $BENCH_ARGS --resume="$WORK/soak.ckpt" \
        > "$WORK/resumed.txt" 2> /dev/null
    resumed=$(sed -n 's/^misses: *\([0-9]*\)/\1/p' "$WORK/resumed.txt")
    [ "$resumed" = "$whole" ] || {
        echo "FAIL: kill/resume gave $resumed misses, want $whole"
        exit 1; }
else
    echo "note: run finished before a checkpoint landed; resume skipped"
fi

echo "== profile-store crash drill (sanitized) =="
# The persistent store must survive a crash at every injected site:
# the process dies with the crash-point code (42) and a subsequent
# `status` reopen must succeed, replaying the journal's valid prefix
# and/or salvaging the older snapshot generation. The in-process
# crash matrix (store_test) already ran under ASan in the ctest pass
# above; this drills the same sites through the real CLI and fsync.
STORE="$WORK/store"
rm -rf "$STORE"
"$TOOLS/topo_profile" init --store="$STORE" \
    --program="$WORK/m.prog" 2> /dev/null
for site in store.journal.mid_record store.journal.pre_fsync \
    store.journal.post_fsync; do
    check_rc "ingest crash at $site" "42" \
        "$TOOLS/topo_profile" ingest --store="$STORE" \
        --trace="$WORK/m.btrace" --crash-at="$site"
    check_rc "reopen after $site" "0" \
        "$TOOLS/topo_profile" status --store="$STORE"
done
"$TOOLS/topo_profile" ingest --store="$STORE" \
    --trace="$WORK/m.btrace" 2> /dev/null
for site in store.snapshot.pre_rename store.snapshot.post_rename \
    store.compact.pre_journal store.compact.pre_rename \
    store.compact.post_rename; do
    check_rc "compact crash at $site" "42" \
        "$TOOLS/topo_profile" compact --store="$STORE" \
        --crash-at="$site"
    check_rc "reopen after $site" "0" \
        "$TOOLS/topo_profile" status --store="$STORE"
done
# Deliberate damage must degrade, never brick: a torn journal tail is
# dropped, a flipped snapshot bit salvages the older generation. The
# ingest first puts a record in the journal — tearing into the 16-byte
# header itself is external damage and is rejected as corrupt instead.
"$TOOLS/topo_profile" ingest --store="$STORE" \
    --trace="$WORK/m.btrace" 2> /dev/null
"$TOOLS/topo_corrupt" --target=store --store="$STORE" \
    --truncate-tail=7 2> /dev/null
check_rc "reopen after torn tail" "0" \
    "$TOOLS/topo_profile" status --store="$STORE"
"$TOOLS/topo_profile" compact --store="$STORE" 2> /dev/null
"$TOOLS/topo_corrupt" --target=store --store="$STORE" \
    --bitflip-snapshot=100 2> /dev/null
check_rc "reopen after snapshot flip" "0" \
    "$TOOLS/topo_profile" status --store="$STORE"

# SIGKILL an ingest at arbitrary points; every reopen must succeed
# and the scarred store must still produce a placement.
for i in 1 2 3; do
    set +e
    "$TOOLS/topo_profile" ingest --store="$STORE" \
        --trace="$WORK/m.btrace" --label="kill$i" > /dev/null 2>&1 &
    pid=$!
    [ "$i" = 1 ] || sleep "0.0$i"
    kill -9 "$pid" 2> /dev/null
    wait "$pid" 2> /dev/null
    set -e
    check_rc "reopen after kill -9 #$i" "0" \
        "$TOOLS/topo_profile" status --store="$STORE"
done
check_rc "place from the drilled store" "0" \
    "$TOOLS/topo_profile" place --store="$STORE" --force \
    --out-layout="$WORK/drilled.layout"

# Placement through the store must not depend on the ingestion
# schedule: one-shot ingest vs ingest+compact+ingest must give
# byte-identical layouts.
rm -rf "$WORK/storeA" "$WORK/storeB"
"$TOOLS/topo_profile" init --store="$WORK/storeA" \
    --program="$WORK/m.prog" 2> /dev/null
"$TOOLS/topo_profile" init --store="$WORK/storeB" \
    --program="$WORK/m.prog" 2> /dev/null
"$TOOLS/topo_profile" ingest --store="$WORK/storeA" \
    --trace="$WORK/m.btrace,$WORK/m.btrace" 2> /dev/null
"$TOOLS/topo_profile" ingest --store="$WORK/storeB" \
    --trace="$WORK/m.btrace" 2> /dev/null
"$TOOLS/topo_profile" compact --store="$WORK/storeB" 2> /dev/null
"$TOOLS/topo_profile" ingest --store="$WORK/storeB" \
    --trace="$WORK/m.btrace" 2> /dev/null
"$TOOLS/topo_profile" place --store="$WORK/storeA" --force \
    --out-layout="$WORK/layoutA.txt" 2> /dev/null
"$TOOLS/topo_profile" place --store="$WORK/storeB" --force \
    --out-layout="$WORK/layoutB.txt" 2> /dev/null
cmp -s "$WORK/layoutA.txt" "$WORK/layoutB.txt" || {
    echo "FAIL: store placement differs across ingestion schedules"
    exit 1; }

TSAN="$BUILD-tsan"
echo "== configure ($TSAN, TSan) =="
cmake -B "$TSAN" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread" \
    > /dev/null

echo "== build (TSan targets) =="
cmake --build "$TSAN" -j \
    --target topo_sim topo_report exec_test determinism_test \
    trg_differential_test simpoint_test taxonomy_test

echo "== parallel smoke (TSan) =="
# exitcode=66 separates "TSan found a race" from the tools' own codes.
export TSAN_OPTIONS="exitcode=66:halt_on_error=1"
"$TSAN/tests/exec_test" > /dev/null
# PooledProfileBuildsMatchSerial runs buildWcg's shards on pool threads
# at jobs 4.
"$TSAN/tests/determinism_test" > /dev/null
# The differential TRG test builds the suite at jobs 1, 2 and 4.
"$TSAN/tests/trg_differential_test" > /dev/null
# Sampled profiles at jobs 4: each segment warms up and measures its
# own accumulator inside a pool task.
"$TSAN/tests/simpoint_test" > /dev/null
# Four report candidates at jobs 4 race for one stream's reuse table,
# which must be built once.
"$TSAN/tests/taxonomy_test" \
    --gtest_filter=TaxonomyReportTest.ConcurrentCandidatesBuildOneTable \
    > /dev/null
"$TSAN/tools/topo_sim" --benchmark='*' --algorithms=ph,gbsc,hkc \
    --trace-scale=0.01 --jobs=4 > "$WORK/tsan_j4.txt" 2> /dev/null
"$TSAN/tools/topo_sim" --benchmark='*' --algorithms=ph,gbsc,hkc \
    --trace-scale=0.01 --jobs=1 > "$WORK/tsan_j1.txt" 2> /dev/null
cmp -s "$WORK/tsan_j1.txt" "$WORK/tsan_j4.txt" || {
    echo "FAIL: --jobs=4 output differs from --jobs=1 under TSan"
    exit 1; }
"$TSAN/tools/topo_report" --microsuite --algorithms=default,ph,gbsc \
    --jobs=4 --out="$WORK/tsan_report.md" > /dev/null
unset TSAN_OPTIONS

echo "OK: all checks passed"
