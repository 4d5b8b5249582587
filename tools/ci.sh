#!/usr/bin/env bash
# CI gate: build + full ctest under ASan+UBSan, a TSan pass over the parallel
# sweep tests, the channel-sharded engine tests, and one sharded preset run,
# a recorded (non-gating) perf-harness run in an unsanitized build tree, then
# clang-tidy over src/.
#
# Usage:  tools/ci.sh [build-dir]        (default: build-ci)
#
# The sanitizer runs are the hard gate — any leak, overflow, UB, or data race
# aborts the suite and this script exits non-zero. TSan cannot coexist with
# ASan in one binary, so the race check uses its own build tree
# (<build-dir>-tsan) and only rebuilds the thread-bearing sim tests.
# clang-tidy runs when available and is skipped with a notice otherwise (the
# container image may not ship it); when it does run, its warnings fail the
# gate too.
set -euo pipefail

# MB_REQUIRE_STATIC=1 is the umbrella switch for the source-level analysis
# stages: it implies MB_REQUIRE_TIDY=1, MB_REQUIRE_DET=1 and
# MB_REQUIRE_SNAP=1, turning every warn-only static check into a hard gate.
if [ "${MB_REQUIRE_STATIC:-0}" = "1" ]; then
  MB_REQUIRE_TIDY=1
  MB_REQUIRE_DET=1
  MB_REQUIRE_SNAP=1
fi
# Per-stage verdicts for the consolidated summary printed at the end.
static_mblint="not run"
static_det="not run"
static_snap="not run"
static_tidy="not run"

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$repo/build-ci}"
build_tsan="${build}-tsan"

echo "== configure (${build}) with MB_SANITIZE=address;undefined =="
cmake -B "$build" -S "$repo" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DMB_SANITIZE="address;undefined" \
  -DCMAKE_EXPORT_COMPILE_COMMANDS=ON

echo "== build =="
cmake --build "$build" -j"$(nproc)"

echo "== ctest under ASan+UBSan =="
# halt_on_error makes UBSan findings fatal instead of log-and-continue, so a
# green suite really means zero sanitizer reports.
ASAN_OPTIONS=detect_leaks=1:strict_string_checks=1 \
UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
  ctest --test-dir "$build" --output-on-failure -j"$(nproc)"

echo "== configure (${build_tsan}) with MB_SANITIZE=thread =="
cmake -B "$build_tsan" -S "$repo" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DMB_SANITIZE="thread"

echo "== build sim_tests for TSan =="
cmake --build "$build_tsan" -j"$(nproc)" --target sim_tests

echo "== parallel-sweep and shard tests under TSan =="
# The SweepRunner worker pool, the parallel runSpecGroup overload, and the
# channel-sharded engine (ShardedEngine worker pool, DESIGN.md §14) are the
# only intentionally multithreaded code paths; any report here is a real
# race. ShardWindow drives the engine's barrier directly with a two-worker
# pool; ShardDifferential runs whole sharded simulations against serial
# ones.
TSAN_OPTIONS=halt_on_error=1 \
  ctest --test-dir "$build_tsan" --output-on-failure \
    -R 'SweepRunner|RunSpecGroupParallel|ShardWindow|ShardDifferential'

echo "== one preset at --shards=4 under TSan =="
# End-to-end sharded run through the real mbsim binary: 16 channels over 4
# worker threads, long enough to cross thousands of window barriers.
cmake --build "$build_tsan" -j"$(nproc)" --target mbsim
TSAN_OPTIONS=halt_on_error=1 \
  "$build_tsan/tools/mbsim" --preset=tsi-baseline --workload=RADIX \
    --instrs=20000 --shards=4 > /dev/null

echo "== mblint conformance =="
"$build/tools/mblint" --all-presets
static_mblint="pass"

echo "== mbdetcheck determinism & ownership =="
# The seeded violation corpus must trip exactly its expected codes (this is
# the proof the analyzer fires, so it is always fatal). The whole-tree scan
# and the ownership map are also enforced by ctest (mbdetcheck_tree_clean /
# mbdetcheck_ownership_json); here they run warn-only by default so a CI
# box mid-refactor still gets the full report, and MB_REQUIRE_DET=1 makes
# them fatal like MB_REQUIRE_TIDY does for tidy.
"$build/tools/mbdetcheck" --self-test="$repo/tests/analysis/det_fixtures"
if "$build/tools/mbdetcheck" --root="$repo" --ownership; then
  static_det="pass"
elif [ "${MB_REQUIRE_DET:-0}" = "1" ]; then
  echo "FAIL: mbdetcheck found determinism/ownership violations and MB_REQUIRE_DET=1" >&2
  exit 1
else
  static_det="warn"
  echo "mbdetcheck reported findings (warn-only; set MB_REQUIRE_DET=1 to enforce)"
fi

echo "== mbsnapcheck snapshot completeness =="
# Same two-step contract as mbdetcheck: the seeded MB-SNP fixture corpus is
# always fatal (it proves the analyzer fires), while the whole-tree scan —
# stream symmetry, section names, completeness, and the fingerprint
# baseline in tools/snap_baseline.txt — is warn-only unless
# MB_REQUIRE_SNAP=1 (ctest's mbsnapcheck_tree_clean enforces it regardless).
"$build/tools/mbsnapcheck" --self-test="$repo/tests/analysis/snap_fixtures"
if "$build/tools/mbsnapcheck" --root="$repo"; then
  static_snap="pass"
elif [ "${MB_REQUIRE_SNAP:-0}" = "1" ]; then
  echo "FAIL: mbsnapcheck found snapshot-completeness violations and MB_REQUIRE_SNAP=1" >&2
  exit 1
else
  static_snap="warn"
  echo "mbsnapcheck reported findings (warn-only; set MB_REQUIRE_SNAP=1 to enforce)"
fi

echo "== offline command-trace audit =="
# Record a short run of every shipped preset (one trace per sweep point)
# and let the independent auditor re-verify each; --audit makes mbsim exit
# non-zero if any trace fails. Then the auditor must reject a seeded
# single-command mutant with a non-zero exit (proving the audit actually
# fires, not merely that clean traces pass).
audit_dir="$build/ci-audit"
mkdir -p "$audit_dir"
"$build/tools/mbsim" --sweep --workload=429.mcf --instrs=10000 \
  --record-cmds="$audit_dir/cmds.mbc" --audit >/dev/null
"$build/tools/mbaudit" "$audit_dir/cmds.tsi-baseline.mbc" --geometry=tsi-baseline
if "$build/tools/mbaudit" "$audit_dir/cmds.tsi-baseline.mbc" \
     --mutate=cas-before-trcd >/dev/null 2>&1; then
  echo "FAIL: mbaudit accepted a mutated trace" >&2
  exit 1
fi
rm -rf "$audit_dir"

echo "== checkpoint/restore equivalence per preset =="
# For every shipped preset: run cold, run again writing a mid-flight MBCKPT1
# checkpoint, then restore from it — all three reports must be byte-identical
# (the ASan build also shakes memory bugs out of the save/load paths). The
# checkpoint tick is chosen inside the fast slice's runtime for every preset.
ckpt_dir="$build/ci-ckpt"
mkdir -p "$ckpt_dir"
while read -r preset; do
  "$build/tools/mbsim" --preset="$preset" --workload=429.mcf --instrs=10000 \
    > "$ckpt_dir/cold.txt"
  "$build/tools/mbsim" --preset="$preset" --workload=429.mcf --instrs=10000 \
    --checkpoint-at=15000000 --checkpoint="$ckpt_dir/ck.mbk" \
    > "$ckpt_dir/save.txt"
  "$build/tools/mbsim" --preset="$preset" --workload=429.mcf --instrs=10000 \
    --restore-from="$ckpt_dir/ck.mbk" > "$ckpt_dir/restore.txt"
  cmp "$ckpt_dir/cold.txt" "$ckpt_dir/save.txt" || {
    echo "FAIL: checkpointing perturbed the run for preset $preset" >&2; exit 1; }
  cmp "$ckpt_dir/cold.txt" "$ckpt_dir/restore.txt" || {
    echo "FAIL: restore diverged from cold run for preset $preset" >&2; exit 1; }
  echo "checkpoint/restore ok: $preset"
done < <("$build/tools/mblint" --list-presets)

rm -rf "$ckpt_dir"

echo "== resumable sweep through the result cache =="
# mbsim --sweep --cache-dir memoizes every finished point in mbserve's
# content-addressed result cache (serve::runPlan, the path mbserve uses),
# so re-running the same command resumes an interrupted sweep. Stage an
# interruption by deleting all but two entries: the re-run must print the
# identical table and put every entry back. The cache key folds each
# point's effective seed, so a reseeded sweep resumes the same way and a
# different seed adds entries instead of replaying old ones.
sweep_dir="$build/ci-sweep"
rm -rf "$sweep_dir"
mkdir -p "$sweep_dir"
mbr_count() { { ls "$1" | grep -c '\.mbr$'; } || true; }
keep_two_entries() {
  ls "$1" | grep '\.mbr$' | tail -n +3 | while read -r f; do rm "$1/$f"; done
}
sweep=("$build/tools/mbsim" --sweep --workload=429.mcf --instrs=10000 --jobs=2)
for mode in plain reseed; do
  flags=()
  [ "$mode" = reseed ] && flags=(--reseed)
  cache="$sweep_dir/cache-$mode"
  "${sweep[@]}" "${flags[@]}" > "$sweep_dir/$mode-ref.txt"
  "${sweep[@]}" "${flags[@]}" --cache-dir="$cache" > "$sweep_dir/$mode-cold.txt"
  full=$(mbr_count "$cache")
  keep_two_entries "$cache"
  [ "$(mbr_count "$cache")" = 2 ] || {
    echo "FAIL: could not stage a partial $mode sweep cache" >&2; exit 1; }
  "${sweep[@]}" "${flags[@]}" --cache-dir="$cache" > "$sweep_dir/$mode-resumed.txt"
  cmp "$sweep_dir/$mode-ref.txt" "$sweep_dir/$mode-cold.txt" || {
    echo "FAIL: $mode sweep with a cold cache diverged from the uncached run" >&2
    exit 1; }
  cmp "$sweep_dir/$mode-ref.txt" "$sweep_dir/$mode-resumed.txt" || {
    echo "FAIL: resumed $mode sweep diverged from the uninterrupted run" >&2
    exit 1; }
  [ "$(mbr_count "$cache")" = "$full" ] || {
    echo "FAIL: resumed $mode sweep did not restore all $full cache entries" >&2
    exit 1; }
done
before=$(mbr_count "$sweep_dir/cache-plain")
"${sweep[@]}" --seed=999 --cache-dir="$sweep_dir/cache-plain" > /dev/null
[ "$(mbr_count "$sweep_dir/cache-plain")" = $((before * 2)) ] || {
  echo "FAIL: a different seed replayed cached points instead of simulating" >&2
  exit 1; }
for bad in --record-cmds="$sweep_dir/c.mbc" --audit; do
  rc=0
  "${sweep[@]}" --cache-dir="$sweep_dir/cache-plain" "$bad" \
    > /dev/null 2>&1 || rc=$?
  [ "$rc" = 2 ] || {
    echo "FAIL: --cache-dir with $bad exited $rc (want 2: cached points record no trace)" >&2
    exit 1; }
done
rm -rf "$sweep_dir"
echo "sweep cache resume ok"

echo "== mbserve serving layer =="
# Three live checks of the daemon, all on the ASan+UBSan binaries (both the
# daemon and the --client one-shot run sanitized — this IS the smoke client):
#   1. double submit over the socket: the second session must simulate
#      nothing and its point line must be byte-identical to the cold one
#      modulo the cached flag;
#   2. SIGKILL mid-sweep, restart over the same --journal: the resumed
#      daemon completes exactly the remaining points (pre-kill cache entries
#      untouched, one accepted + one completed journal line, resubmission
#      fully memoized);
#   3. malformed specs produce MB-SRV error events without killing the
#      session.
srv_dir="$build/ci-serve"
rm -rf "$srv_dir"
mkdir -p "$srv_dir"
sock="$srv_dir/mb.sock"

"$build/tools/mbserve" --socket="$sock" --cache-dir="$srv_dir/cache1" &
srv_pid=$!
for _ in $(seq 100); do [ -S "$sock" ] && break; sleep 0.1; done
[ -S "$sock" ] || { echo "FAIL: mbserve did not create $sock" >&2; exit 1; }
spec='{"verb":"submit","id":"ci","workload":"429.mcf","instrs":8000,"seed":7}'
"$build/tools/mbserve" --client --socket="$sock" --spec="$spec" \
  > "$srv_dir/cold.jsonl"
"$build/tools/mbserve" --client --socket="$sock" --spec="$spec" \
  > "$srv_dir/hot.jsonl"
grep -q '"cached":1,"simulated":0' "$srv_dir/hot.jsonl" || {
  kill "$srv_pid" 2>/dev/null || true
  echo "FAIL: second submit was not fully served from the memo cache" >&2
  exit 1; }
grep '"event":"point"' "$srv_dir/cold.jsonl" \
  | sed 's/"cached":false/"cached":true/' > "$srv_dir/cold-points.jsonl"
grep '"event":"point"' "$srv_dir/hot.jsonl" > "$srv_dir/hot-points.jsonl"
cmp "$srv_dir/cold-points.jsonl" "$srv_dir/hot-points.jsonl" || {
  kill "$srv_pid" 2>/dev/null || true
  echo "FAIL: cached point bytes diverge from the cold run" >&2
  exit 1; }
if "$build/tools/mbserve" --client --socket="$sock" \
     --spec='{"verb":"frobnicate"}' > "$srv_dir/bad.jsonl"; then
  kill "$srv_pid" 2>/dev/null || true
  echo "FAIL: client exited 0 on a rejected spec" >&2
  exit 1
fi
grep -q 'MB-SRV-004' "$srv_dir/bad.jsonl" || {
  kill "$srv_pid" 2>/dev/null || true
  echo "FAIL: unknown verb did not produce MB-SRV-004" >&2
  exit 1; }
kill "$srv_pid" 2>/dev/null || true
wait "$srv_pid" 2>/dev/null || true
echo "mbserve cache-hit byte identity ok"

# SIGKILL mid-sweep + journal resume. --sweep-jobs=1 serializes the killed
# daemon's points so the kill reliably lands with most of the sweep still
# outstanding (the restarted daemon drains the remainder at full width). A
# SIGKILL mid-store can leave a *.tmp.<pid> file behind, so entry listings
# filter to committed *.mbr files.
journal="$srv_dir/journal.jsonl"
cache2="$srv_dir/cache2"
# The killed daemon left its socket FILE behind (SIGTERM skips cleanup), so
# remove it first — otherwise the stale file satisfies the bind wait below
# and the client connects before the new daemon is listening.
rm -f "$sock"
"$build/tools/mbserve" --socket="$sock" --cache-dir="$cache2" \
  --journal="$journal" --sweep-jobs=1 &
srv_pid=$!
for _ in $(seq 100); do [ -S "$sock" ] && break; sleep 0.1; done
sweep='{"verb":"submit","id":"sw","workload":"429.mcf","sweep":true,"instrs":100000,"seed":3}'
"$build/tools/mbserve" --client --socket="$sock" --spec="$sweep" \
  > "$srv_dir/sweep1.jsonl" 2>/dev/null &
cli_pid=$!
for _ in $(seq 600); do
  n=$(ls "$cache2" 2>/dev/null | grep -c '\.mbr$' || true)
  [ "$n" -ge 2 ] && break
  sleep 0.1
done
[ "$n" -ge 2 ] || {
  kill -9 "$srv_pid" 2>/dev/null || true
  echo "FAIL: sweep cached $n points in 60s; cannot stage a mid-sweep kill" >&2
  exit 1; }
kill -9 "$srv_pid" 2>/dev/null || true
wait "$cli_pid" 2>/dev/null || true  # connection drop: non-zero expected
wait "$srv_pid" 2>/dev/null || true
{ ls "$cache2" | grep '\.mbr$' || true; } | sort > "$srv_dir/pre-kill-entries.txt"
pre_n=$(grep -c . "$srv_dir/pre-kill-entries.txt" || true)
grep -q '"completed":"sw"' "$journal" && {
  echo "FAIL: kill landed after sweep completion; nothing to resume" >&2
  exit 1; }

# Restart over the same journal in stdio mode with stdin at EOF: the only
# work is the resumed job, which the daemon drains before exiting 0.
"$build/tools/mbserve" --stdio --cache-dir="$cache2" --journal="$journal" \
  < /dev/null > "$srv_dir/resume.jsonl" 2> "$srv_dir/resume.err"
grep -q 'resuming job sw' "$srv_dir/resume.err" || {
  echo "FAIL: restarted daemon did not resume the journaled job" >&2
  exit 1; }
grep -q '"completed":"sw"' "$journal" || {
  echo "FAIL: resumed job never journaled its completion" >&2
  exit 1; }
[ "$(grep -c '"accepted":"sw"' "$journal")" = 1 ] || {
  echo "FAIL: journal re-accepted the resumed job (duplicate run)" >&2
  exit 1; }
# Pre-kill entries must have survived untouched (remaining points ran
# exactly once; completed ones were served from the cache, not re-stored).
{ ls "$cache2" | grep '\.mbr$' || true; } | sort > "$srv_dir/post-resume-entries.txt"
comm -23 "$srv_dir/pre-kill-entries.txt" "$srv_dir/post-resume-entries.txt" \
  | grep -q . && {
  echo "FAIL: resume dropped pre-kill cache entries" >&2
  exit 1; }
post_n=$(grep -c . "$srv_dir/post-resume-entries.txt" || true)
[ "$post_n" -gt "$pre_n" ] || {
  echo "FAIL: resume simulated nothing ($pre_n -> $post_n entries)" >&2
  exit 1; }
# And the whole sweep is now memoized: resubmitting simulates nothing.
printf '%s\n' "$sweep" \
  | "$build/tools/mbserve" --stdio --cache-dir="$cache2" \
  > "$srv_dir/sweep2.jsonl"
grep -q '"simulated":0' "$srv_dir/sweep2.jsonl" || {
  echo "FAIL: resubmitted sweep re-simulated memoized points" >&2
  exit 1; }
rm -rf "$srv_dir"
echo "mbserve SIGKILL + journal resume ok"

echo "== perf harness (recorded, non-gating) =="
# Host-throughput trajectory: build mbperf WITHOUT sanitizers (ASan skews
# throughput ~5-10x, which would drown any real regression in the diff
# against the committed baseline) in its own build tree, emit
# BENCH_PERF.json next to it, and diff events/sec against
# bench/perf_baseline.txt. Warn-only by design: shared CI hosts are noisy;
# a WARN line in the log is the signal to investigate, not a gate failure.
build_perf="${build}-perf"
cmake -B "$build_perf" -S "$repo" -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$build_perf" -j"$(nproc)" --target mbperf
# --serve records the mbserve memo-cache cold/cached latencies and the
# snapshot-LRU hit rate into the same MBPERF1 record (a "serve" block).
# --shard-bench records serial vs --shards=4 wall clock on the multicore
# fig.8 configuration (a "shard" block), with the host's hardware thread
# count alongside so the ratio is interpretable — a box with no free cores
# cannot show a speedup and that is not a regression.
"$build_perf/bench/mbperf" --out="$build_perf/BENCH_PERF.json" \
  --baseline="$repo/bench/perf_baseline.txt" --serve --shard-bench=4
echo "perf record: $build_perf/BENCH_PERF.json"

echo "== clang-tidy over src/ =="
if command -v clang-tidy >/dev/null 2>&1; then
  # run-clang-tidy parallelises when present; fall back to a plain loop.
  files=$(find "$repo/src" -name '*.cpp' | sort)
  if command -v run-clang-tidy >/dev/null 2>&1; then
    run-clang-tidy -p "$build" -quiet $files
  else
    status=0
    for f in $files; do
      clang-tidy -p "$build" --quiet "$f" || status=1
    done
    [ "$status" -eq 0 ]
  fi
  static_tidy="pass"
elif [ "${MB_REQUIRE_TIDY:-0}" = "1" ]; then
  echo "FAIL: clang-tidy not installed but MB_REQUIRE_TIDY=1" >&2
  exit 1
else
  static_tidy="skipped (not installed)"
  echo "clang-tidy not installed; skipping tidy pass (build+sanitizer gate still enforced)"
fi

echo "== static-analysis summary =="
# One block to scan instead of four scattered stage logs. "warn" means the
# stage reported findings but was not enforced on this run; set the listed
# switch (or MB_REQUIRE_STATIC=1 for all of them) to make it a hard gate.
printf '  %-14s %s\n' \
  "mblint"      "$static_mblint" \
  "mbdetcheck"  "$static_det   (enforce: MB_REQUIRE_DET=1)" \
  "mbsnapcheck" "$static_snap   (enforce: MB_REQUIRE_SNAP=1)" \
  "clang-tidy"  "$static_tidy   (enforce: MB_REQUIRE_TIDY=1)"
echo "  MB_REQUIRE_STATIC=1 enforces all of the above at once."

echo "== CI gate passed =="
