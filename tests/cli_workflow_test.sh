#!/bin/sh
# End-to-end test of the command-line workflow:
#   topo_trace_gen -> topo_place -> topo_sim
# Usage: cli_workflow_test.sh <tools-dir>
set -e

TOOLS_DIR="$1"
[ -n "$TOOLS_DIR" ] || { echo "usage: $0 <tools-dir>"; exit 2; }
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

"$TOOLS_DIR/topo_trace_gen" --benchmark=m88ksim --input=train \
    --trace-scale=0.02 --out-program="$WORK/m.prog" \
    --out-trace="$WORK/m.trace" 2> "$WORK/gen.log"

grep -q "topo-program v1" "$WORK/m.prog" || {
    echo "FAIL: program file missing header"; exit 1; }
grep -q "topo-trace v1" "$WORK/m.trace" || {
    echo "FAIL: trace file missing header"; exit 1; }

"$TOOLS_DIR/topo_place" --program="$WORK/m.prog" \
    --trace="$WORK/m.trace" --algorithm=gbsc \
    --out-layout="$WORK/m.layout" --out-script="$WORK/m.ld" \
    --evaluate 2> "$WORK/place.log"

grep -q "topo-layout v" "$WORK/m.layout" || {
    echo "FAIL: layout file missing header"; exit 1; }
grep -q "^!algorithm gbsc" "$WORK/m.layout" || {
    echo "FAIL: layout file missing provenance"; exit 1; }
grep -q "SECTIONS" "$WORK/m.ld" || {
    echo "FAIL: linker script missing SECTIONS"; exit 1; }
grep -q "miss rate on this trace" "$WORK/place.log" || {
    echo "FAIL: --evaluate produced no report"; exit 1; }

"$TOOLS_DIR/topo_sim" --program="$WORK/m.prog" \
    --trace="$WORK/m.trace" --layout="$WORK/m.layout" \
    --attribute --pages > "$WORK/sim.txt"
grep -q "miss rate:" "$WORK/sim.txt" || {
    echo "FAIL: topo_sim printed no miss rate"; exit 1; }
grep -q "pages touched:" "$WORK/sim.txt" || {
    echo "FAIL: topo_sim printed no page stats"; exit 1; }

# The GBSC layout must beat the default layout on the same trace.
"$TOOLS_DIR/topo_sim" --program="$WORK/m.prog" \
    --trace="$WORK/m.trace" > "$WORK/sim_default.txt"
gbsc_mr=$(sed -n 's/^miss rate:  *\([0-9.]*\)%/\1/p' "$WORK/sim.txt")
def_mr=$(sed -n 's/^miss rate:  *\([0-9.]*\)%/\1/p' \
    "$WORK/sim_default.txt")
better=$(awk -v a="$gbsc_mr" -v b="$def_mr" 'BEGIN{print (a<b)?1:0}')
[ "$better" = "1" ] || {
    echo "FAIL: GBSC ($gbsc_mr%) not better than default ($def_mr%)"
    exit 1; }

# topo_compare runs all algorithms and prints the comparison table.
"$TOOLS_DIR/topo_compare" --program="$WORK/m.prog" \
    --trace="$WORK/m.trace" --refine > "$WORK/cmp.txt" \
    2> "$WORK/cmp.log"
grep -q "GBSC" "$WORK/cmp.txt" || {
    echo "FAIL: topo_compare missing GBSC row"; exit 1; }
grep -q "GBSC+refine" "$WORK/cmp.txt" || {
    echo "FAIL: topo_compare missing refine row"; exit 1; }

# Bad inputs must fail cleanly (non-zero exit, no crash).
if "$TOOLS_DIR/topo_place" --program=/nonexistent --trace=/nonexistent \
    2> /dev/null; then
    echo "FAIL: topo_place accepted nonexistent inputs"; exit 1
fi

# --metrics-out on the full in-process pipeline: the snapshot must be
# valid JSON carrying the per-phase timings and the cache counters.
"$TOOLS_DIR/topo_sim" --benchmark=m88ksim --trace-scale=0.02 \
    --metrics-out="$WORK/metrics.json" > /dev/null 2> "$WORK/sim2.log"
[ -s "$WORK/metrics.json" ] || {
    echo "FAIL: --metrics-out wrote nothing"; exit 1; }
if command -v python3 > /dev/null 2>&1; then
    if ! python3 - "$WORK/metrics.json" <<'EOF'
import json, sys
m = json.load(open(sys.argv[1]))
assert m["topo_metrics"] == 1
for phase in ("phase.synthesis.ms", "phase.trg_build.ms",
              "phase.placement.gbsc.ms", "phase.simulate.ms"):
    assert phase in m["histograms"], phase
    assert m["histograms"][phase]["count"] >= 1, phase
for counter in ("cache.accesses", "cache.misses", "cache.simulations"):
    assert m["counters"][counter] >= 1, counter
EOF
    then
        echo "FAIL: metrics snapshot invalid"; exit 1
    fi
else
    for key in '"topo_metrics": 1' '"phase.synthesis.ms"' \
        '"phase.trg_build.ms"' '"phase.placement.gbsc.ms"' \
        '"phase.simulate.ms"' '"cache.accesses"' '"cache.misses"'; do
        grep -q "$key" "$WORK/metrics.json" || {
            echo "FAIL: metrics snapshot missing $key"; exit 1; }
    done
fi

# topo_place writes a snapshot too, and debug logging emits per-pass
# placement lines.
"$TOOLS_DIR/topo_place" --program="$WORK/m.prog" \
    --trace="$WORK/m.trace" --algorithm=gbsc \
    --out-layout="$WORK/m2.layout" --log-level=debug \
    --metrics-out="$WORK/place_metrics.json" 2> "$WORK/place2.log"
grep -q '"gbsc.merge_steps"' "$WORK/place_metrics.json" || {
    echo "FAIL: place metrics missing gbsc.merge_steps"; exit 1; }
grep -q "merge pass" "$WORK/place2.log" || {
    echo "FAIL: --log-level=debug shows no per-pass lines"; exit 1; }

# --- One simulation path -------------------------------------------

# A file run is a grid of one cell: a GBSC layout placed from a written
# train trace and replayed on the written test trace prints exactly the
# numbers of the in-process --benchmark cell.
"$TOOLS_DIR/topo_trace_gen" --benchmark=m88ksim --input=train \
    --trace-scale=0.05 --out-program="$WORK/c.prog" \
    --out-trace="$WORK/c_train.trace" 2> /dev/null
"$TOOLS_DIR/topo_trace_gen" --benchmark=m88ksim --input=test \
    --trace-scale=0.05 --out-trace="$WORK/c_test.trace" 2> /dev/null
"$TOOLS_DIR/topo_place" --program="$WORK/c.prog" \
    --trace="$WORK/c_train.trace" --algorithm=gbsc \
    --out-layout="$WORK/c.layout" 2> /dev/null
"$TOOLS_DIR/topo_sim" --program="$WORK/c.prog" \
    --trace="$WORK/c_test.trace" --layout="$WORK/c.layout" \
    > "$WORK/cell_file.txt" 2> /dev/null
"$TOOLS_DIR/topo_sim" --benchmark=m88ksim --trace-scale=0.05 \
    --algorithms=gbsc > "$WORK/cell_bench.txt" 2> /dev/null
for run in cell_file cell_bench; do
    grep -E '^(accesses|misses|miss rate):' "$WORK/$run.txt" \
        > "$WORK/$run.nums" || true
done
[ "$(wc -l < "$WORK/cell_file.nums")" = "3" ] &&
    cmp -s "$WORK/cell_file.nums" "$WORK/cell_bench.nums" || {
    echo "FAIL: file and --benchmark runs of one layout disagree"
    cat "$WORK/cell_file.nums" "$WORK/cell_bench.nums"; exit 1; }

# --pages and --attribute report in --benchmark cells too.
"$TOOLS_DIR/topo_sim" --benchmark=m88ksim --trace-scale=0.02 \
    --pages --attribute > "$WORK/cell_tables.txt" 2> /dev/null
grep -q "pages touched:" "$WORK/cell_tables.txt" || {
    echo "FAIL: --benchmark --pages printed no page stats"; exit 1; }
grep -q "Top miss contributors" "$WORK/cell_tables.txt" || {
    echo "FAIL: --benchmark --attribute printed no miss table"; exit 1; }

# --trace-out records phase spans; only --timeline-window adds the
# per-fetch counter tracks.
"$TOOLS_DIR/topo_sim" --program="$WORK/m.prog" --trace="$WORK/m.trace" \
    --trace-out="$WORK/spans.json" > /dev/null 2>&1
grep -q '"simulate"' "$WORK/spans.json" || {
    echo "FAIL: --trace-out wrote no simulate span"; exit 1; }
if grep -q '"miss_rate"' "$WORK/spans.json"; then
    echo "FAIL: --trace-out without --timeline-window wrote counters"
    exit 1
fi
"$TOOLS_DIR/topo_sim" --program="$WORK/m.prog" --trace="$WORK/m.trace" \
    --trace-out="$WORK/counters.json" --timeline-window=1024 \
    > /dev/null 2>&1
grep -q '"simulate"' "$WORK/counters.json" &&
    grep -q '"miss_rate"' "$WORK/counters.json" || {
    echo "FAIL: --timeline-window trace lacks spans or counters"; exit 1; }

# --- Parallel execution --------------------------------------------

# --jobs validation: zero, negative, and non-numeric values are user
# errors (exit 1), never silently clamped.
for bad_jobs in 0 -3 abc; do
    set +e
    "$TOOLS_DIR/topo_sim" --benchmark=m88ksim --trace-scale=0.02 \
        --jobs=$bad_jobs > /dev/null 2> "$WORK/jobs.log"
    rc=$?
    set -e
    [ "$rc" = "1" ] || {
        echo "FAIL: --jobs=$bad_jobs exited $rc, want 1"; exit 1; }
    grep -qi "jobs" "$WORK/jobs.log" || {
        echo "FAIL: --jobs=$bad_jobs error does not name the option"
        exit 1; }
done

# Determinism contract: the multi-benchmark grid with --jobs=2 must be
# byte-identical to --jobs=1 (DESIGN.md §9).
"$TOOLS_DIR/topo_sim" --benchmark='*' --algorithms=ph,gbsc \
    --trace-scale=0.005 --jobs=1 > "$WORK/grid_j1.txt" 2> /dev/null
"$TOOLS_DIR/topo_sim" --benchmark='*' --algorithms=ph,gbsc \
    --trace-scale=0.005 --jobs=2 > "$WORK/grid_j2.txt" 2> /dev/null
cmp -s "$WORK/grid_j1.txt" "$WORK/grid_j2.txt" || {
    echo "FAIL: --jobs=2 grid output differs from --jobs=1"; exit 1; }
grep -q "miss rate:" "$WORK/grid_j1.txt" || {
    echo "FAIL: grid run printed no miss rates"; exit 1; }

# Metrics snapshots are jobs-invariant too: the same counters and
# gauges and the same histogram keys at --jobs=1 and --jobs=4, over
# gcc's whole pipeline. Timings may differ.
for jobs in 1 4; do
    "$TOOLS_DIR/topo_sim" --benchmark=gcc --trace-scale=0.05 \
        --algorithms=gbsc --jobs=$jobs \
        --metrics-out="$WORK/jobs_metrics_$jobs.json" > /dev/null 2>&1
done
if command -v python3 > /dev/null 2>&1; then
    if ! python3 - "$WORK/jobs_metrics_1.json" \
        "$WORK/jobs_metrics_4.json" <<'EOF'
import json, sys
serial, pooled = (json.load(open(path)) for path in sys.argv[1:])
for kind in ("counters", "gauges"):
    assert serial[kind] == pooled[kind], kind
assert serial["counters"]["wcg.builds"] >= 1
assert serial["histograms"].keys() == pooled["histograms"].keys(), \
    sorted(serial["histograms"].keys() ^ pooled["histograms"].keys())
EOF
    then
        echo "FAIL: metrics snapshot differs jobs=1 vs jobs=4"; exit 1
    fi
else
    # Counter and gauge lines, then histogram key lines.
    for jobs in 1 4; do
        sed -n '/"counters"/,/"histograms"/p; /^    "[^"]*": {$/p' \
            "$WORK/jobs_metrics_$jobs.json" > "$WORK/jobs_keys_$jobs.txt"
    done
    grep -q '"wcg.builds"' "$WORK/jobs_keys_1.txt" &&
        cmp -s "$WORK/jobs_keys_1.txt" "$WORK/jobs_keys_4.txt" || {
        echo "FAIL: metrics snapshot differs jobs=1 vs jobs=4"; exit 1; }
fi

# --- Resilience workflow -------------------------------------------

# Unknown options are a user error (exit 1) with a spelling hint.
set +e
"$TOOLS_DIR/topo_sim" --progam="$WORK/m.prog" 2> "$WORK/unknown.log"
rc=$?
set -e
[ "$rc" = "1" ] || {
    echo "FAIL: unknown option exited $rc, want 1"; exit 1; }
grep -q "did you mean '--program'" "$WORK/unknown.log" || {
    echo "FAIL: unknown option gave no spelling hint"; exit 1; }

# A binary trace damaged by topo_corrupt is corrupt input: exit 2.
"$TOOLS_DIR/topo_trace_gen" --benchmark=m88ksim --input=train \
    --trace-scale=0.02 --out-trace="$WORK/m.btrace" --binary \
    2> /dev/null
"$TOOLS_DIR/topo_corrupt" --in="$WORK/m.btrace" \
    --out="$WORK/bad.btrace" --truncate-frac=0.5 2> /dev/null
set +e
"$TOOLS_DIR/topo_sim" --program="$WORK/m.prog" \
    --trace="$WORK/bad.btrace" > /dev/null 2> "$WORK/corrupt.log"
rc=$?
set -e
[ "$rc" = "2" ] || {
    echo "FAIL: corrupt trace exited $rc, want 2"; exit 1; }

# --recover salvages the valid prefix and reports the loss in metrics.
"$TOOLS_DIR/topo_sim" --program="$WORK/m.prog" \
    --trace="$WORK/bad.btrace" --recover \
    --metrics-out="$WORK/recover_metrics.json" > "$WORK/recover.txt" \
    2> /dev/null
grep -q "miss rate:" "$WORK/recover.txt" || {
    echo "FAIL: --recover run printed no miss rate"; exit 1; }
grep -q '"trace.dropped_records"' "$WORK/recover_metrics.json" || {
    echo "FAIL: --recover reported no dropped records"; exit 1; }

# Deterministic bit corruption is caught by the chunk CRC.
"$TOOLS_DIR/topo_corrupt" --in="$WORK/m.btrace" \
    --out="$WORK/flip.btrace" --random-flips=3 --seed=9 2> /dev/null
set +e
"$TOOLS_DIR/topo_sim" --program="$WORK/m.prog" \
    --trace="$WORK/flip.btrace" > /dev/null 2>&1
rc=$?
set -e
[ "$rc" = "2" ] || {
    echo "FAIL: bit-flipped trace exited $rc, want 2"; exit 1; }

# Traces load from a pipe: for a text and a binary trace, a piped load
# prints exactly what the file load prints.
for t in m.trace m.btrace; do
    "$TOOLS_DIR/topo_sim" --program="$WORK/m.prog" --trace="$WORK/$t" \
        > "$WORK/file_load.txt" 2> /dev/null
    cat "$WORK/$t" | "$TOOLS_DIR/topo_sim" --program="$WORK/m.prog" \
        --trace=/dev/stdin > "$WORK/pipe_load.txt" 2> /dev/null || {
        echo "FAIL: piped $t load failed"; exit 1; }
    cmp -s "$WORK/file_load.txt" "$WORK/pipe_load.txt" || {
        echo "FAIL: piped $t load differs from the file load"; exit 1; }
done

# Checkpoint/resume: an interrupted run resumed from its checkpoint
# must report exactly the miss count of the uninterrupted run.
"$TOOLS_DIR/topo_sim" --program="$WORK/m.prog" \
    --trace="$WORK/m.btrace" > "$WORK/whole.txt" 2> /dev/null
"$TOOLS_DIR/topo_sim" --program="$WORK/m.prog" \
    --trace="$WORK/m.btrace" --checkpoint="$WORK/sim.ckpt" \
    --checkpoint-every=1000 --stop-after=12345 > "$WORK/part.txt" \
    2> /dev/null
grep -q "interrupted at 12345" "$WORK/part.txt" || {
    echo "FAIL: interrupted run printed no resume hint"; exit 1; }
"$TOOLS_DIR/topo_sim" --program="$WORK/m.prog" \
    --trace="$WORK/m.btrace" --resume="$WORK/sim.ckpt" \
    > "$WORK/resumed.txt" 2> /dev/null
whole_misses=$(sed -n 's/^misses: *\([0-9]*\)/\1/p' "$WORK/whole.txt")
resumed_misses=$(sed -n 's/^misses: *\([0-9]*\)/\1/p' \
    "$WORK/resumed.txt")
[ -n "$whole_misses" ] && [ "$whole_misses" = "$resumed_misses" ] || {
    echo "FAIL: resume gave $resumed_misses misses, want $whole_misses"
    exit 1; }

# A resume whose --stop-after is at or before the checkpoint's cursor
# would replay nothing: it is a usage error (exit 1) naming the cursor,
# and it leaves the checkpoint as it was.
cp "$WORK/sim.ckpt" "$WORK/sim_before.ckpt"
for stop in 12345 100; do
    set +e
    "$TOOLS_DIR/topo_sim" --program="$WORK/m.prog" \
        --trace="$WORK/m.btrace" --resume="$WORK/sim.ckpt" \
        --checkpoint="$WORK/sim.ckpt" --stop-after="$stop" \
        > /dev/null 2> "$WORK/stop_early.err"
    rc=$?
    set -e
    [ "$rc" = "1" ] || {
        echo "FAIL: --stop-after=$stop at cursor 12345 exited $rc, want 1"
        exit 1; }
    grep -q "cursor 12345" "$WORK/stop_early.err" || {
        echo "FAIL: --stop-after=$stop error does not name the cursor"
        exit 1; }
done
cmp -s "$WORK/sim.ckpt" "$WORK/sim_before.ckpt" || {
    echo "FAIL: a rejected --stop-after changed the checkpoint"; exit 1; }

# The in-process --benchmark pipeline checkpoints and resumes the
# same way: interrupted + resumed must equal uninterrupted.
"$TOOLS_DIR/topo_sim" --benchmark=m88ksim --trace-scale=0.02 \
    > "$WORK/bwhole.txt" 2> /dev/null
"$TOOLS_DIR/topo_sim" --benchmark=m88ksim --trace-scale=0.02 \
    --checkpoint="$WORK/bench.ckpt" --stop-after=7777 > /dev/null \
    2> /dev/null
"$TOOLS_DIR/topo_sim" --benchmark=m88ksim --trace-scale=0.02 \
    --resume="$WORK/bench.ckpt" > "$WORK/bresumed.txt" 2> /dev/null
bwhole=$(sed -n 's/^misses: *\([0-9]*\)/\1/p' "$WORK/bwhole.txt")
bresumed=$(sed -n 's/^misses: *\([0-9]*\)/\1/p' "$WORK/bresumed.txt")
[ -n "$bwhole" ] && [ "$bwhole" = "$bresumed" ] || {
    echo "FAIL: benchmark resume gave $bresumed misses, want $bwhole"
    exit 1; }

# Observer state is not checkpointed, so an observer flag with
# --checkpoint is a usage error (exit 1) that names the flag.
set +e
"$TOOLS_DIR/topo_sim" --program="$WORK/m.prog" \
    --trace="$WORK/m.btrace" --taxonomy \
    --checkpoint="$WORK/tax.ckpt" > /dev/null 2> "$WORK/tax_ckpt.err"
rc=$?
set -e
[ "$rc" = "1" ] || {
    echo "FAIL: --taxonomy --checkpoint exited $rc, want 1"; exit 1; }
grep -q -- "--taxonomy" "$WORK/tax_ckpt.err" || {
    echo "FAIL: --taxonomy --checkpoint error does not name --taxonomy"
    exit 1; }

# A corrupted checkpoint must be refused as corrupt input.
"$TOOLS_DIR/topo_corrupt" --in="$WORK/sim.ckpt" \
    --out="$WORK/bad.ckpt" --bitflip=20 --flip-bit=3 2> /dev/null
set +e
"$TOOLS_DIR/topo_sim" --program="$WORK/m.prog" \
    --trace="$WORK/m.btrace" --resume="$WORK/bad.ckpt" \
    > /dev/null 2>&1
rc=$?
set -e
[ "$rc" = "2" ] || {
    echo "FAIL: corrupt checkpoint exited $rc, want 2"; exit 1; }

# --- Explainability workflow ---------------------------------------

# Decision provenance: --decisions-out writes a validating artifact,
# and topo_report --diff joins it against a layout diff.
"$TOOLS_DIR/topo_place" --program="$WORK/m.prog" \
    --trace="$WORK/m.trace" --algorithm=ph \
    --out-layout="$WORK/ph.layout" 2> /dev/null
"$TOOLS_DIR/topo_place" --program="$WORK/m.prog" \
    --trace="$WORK/m.trace" --algorithm=gbsc \
    --out-layout="$WORK/g.layout" \
    --decisions-out="$WORK/g.decisions.json" 2> /dev/null
"$TOOLS_DIR/topo_report" --check-json="$WORK/g.decisions.json" \
    > /dev/null || {
    echo "FAIL: decisions artifact failed validation"; exit 1; }

"$TOOLS_DIR/topo_report" --diff="$WORK/ph.layout,$WORK/g.layout" \
    --program="$WORK/m.prog" --trace="$WORK/m.trace" \
    --decisions="$WORK/g.decisions.json" \
    --json-out="$WORK/diff.json" --out="$WORK/diff.md" 2> /dev/null
grep -q "Layout diff" "$WORK/diff.md" || {
    echo "FAIL: diff report missing title"; exit 1; }
grep -q "algorithm=gbsc" "$WORK/diff.md" || {
    echo "FAIL: diff report missing provenance label"; exit 1; }
"$TOOLS_DIR/topo_report" --check-json="$WORK/diff.json" \
    > /dev/null || {
    echo "FAIL: diff artifact failed validation"; exit 1; }

# A damaged decisions file is corrupt input (exit 2), never a crash:
# truncation and a deterministic bit flip both must be caught.
"$TOOLS_DIR/topo_corrupt" --in="$WORK/g.decisions.json" \
    --out="$WORK/trunc.decisions.json" --truncate-frac=0.5 \
    2> /dev/null
"$TOOLS_DIR/topo_corrupt" --in="$WORK/g.decisions.json" \
    --out="$WORK/flip.decisions.json" --bitflip=20 --flip-bit=3 \
    2> /dev/null
for broken in "$WORK/trunc.decisions.json" "$WORK/flip.decisions.json"
do
    set +e
    "$TOOLS_DIR/topo_report" \
        --diff="$WORK/ph.layout,$WORK/g.layout" \
        --program="$WORK/m.prog" --decisions="$broken" \
        > /dev/null 2>&1
    rc=$?
    set -e
    [ "$rc" = "2" ] || {
        echo "FAIL: corrupt decisions $broken exited $rc, want 2"
        exit 1; }
    set +e
    "$TOOLS_DIR/topo_report" --check-json="$broken" > /dev/null 2>&1
    rc=$?
    set -e
    [ "$rc" = "2" ] || {
        echo "FAIL: --check-json on $broken exited $rc, want 2"
        exit 1; }
done

# Every tool resolves algorithm names through one table: an unknown
# name is a usage error (exit 1) with the same message. topo_profile
# place must reject it even when no drift keeps the stored layout.
"$TOOLS_DIR/topo_profile" init --store="$WORK/store" \
    --program="$WORK/m.prog" 2> /dev/null
"$TOOLS_DIR/topo_profile" ingest --store="$WORK/store" \
    --trace="$WORK/m.trace" 2> /dev/null
"$TOOLS_DIR/topo_profile" place --store="$WORK/store" > /dev/null 2>&1
want="error: unknown placement algorithm 'bogus'"
want="$want (use default, ph, hkc, or gbsc)"
for cmd in \
    "topo_place --program=$WORK/m.prog --trace=$WORK/m.trace" \
    "topo_sim --benchmark=m88ksim --trace-scale=0.02" \
    "topo_profile place --store=$WORK/store"
do
    tool=${cmd%% *}
    set +e
    $TOOLS_DIR/$cmd --algorithm=bogus > /dev/null 2> "$WORK/bogus.log"
    rc=$?
    set -e
    [ "$rc" = "1" ] || {
        echo "FAIL: $tool --algorithm=bogus exited $rc, want 1"; exit 1; }
    grep -Fxq "$tool: $want" "$WORK/bogus.log" || {
        echo "FAIL: $tool --algorithm=bogus gave another message"
        cat "$WORK/bogus.log"; exit 1; }
done
# topo_report names its algorithms with --algorithms.
set +e
"$TOOLS_DIR/topo_report" --microsuite --algorithms=ph,bogus \
    > /dev/null 2> "$WORK/bogus.log"
rc=$?
set -e
[ "$rc" = "1" ] && grep -Fxq "topo_report: $want" "$WORK/bogus.log" || {
    echo "FAIL: topo_report --algorithms=ph,bogus exited $rc:"
    cat "$WORK/bogus.log"; exit 1; }


# Out-of-range Q factors and coverages are usage errors (exit 1) where
# they are parsed, never an undefined budget conversion or a store
# that fails at every later place. topo_profile init takes no
# replacement policy: the store never replays a cache, and its meta has
# no field for one.
for bad in "--q-factor=-1" "--q-factor=nan" "--q-factor=0" \
    "--q-factor=1e30" "--coverage=0" "--coverage=2"; do
    set +e
    "$TOOLS_DIR/topo_place" --program="$WORK/m.prog" \
        --trace="$WORK/m.trace" --out-layout="$WORK/bad.layout" \
        "$bad" > /dev/null 2> "$WORK/bad.log"
    rc=$?
    set -e
    [ "$rc" = "1" ] || {
        echo "FAIL: topo_place $bad exited $rc, want 1"; exit 1; }
    grep -q "error: ${bad%%=*} must" "$WORK/bad.log" || {
        echo "FAIL: topo_place $bad gave no actionable message"
        cat "$WORK/bad.log"; exit 1; }
done
for bad in "--q-factor=-1" "--q-factor=1e30" "--coverage=2" \
    "--policy=fifo" "--policy-seed=7"; do
    set +e
    "$TOOLS_DIR/topo_profile" init --store="$WORK/bad_store" \
        --program="$WORK/m.prog" "$bad" > /dev/null 2> "$WORK/bad.log"
    rc=$?
    set -e
    [ "$rc" = "1" ] || {
        echo "FAIL: topo_profile init $bad exited $rc, want 1"; exit 1; }
    [ ! -e "$WORK/bad_store/store.meta" ] || {
        echo "FAIL: topo_profile init $bad created a store"; exit 1; }
done
