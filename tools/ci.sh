#!/usr/bin/env bash
# CI gate: build + full ctest under ASan+UBSan (with MB_DCHECKs and libstdc++
# assertions on; the ctest run includes the hostile-snapshot gate, where an
# oversized allocation aborts as allocation-size-too-big) and three DCHECKed
# mbsim runs over write drains, one per scheduler, a TSan pass over
# the parallel sweep tests, the channel-sharded engine tests, and two
# sharded mbsim runs, the config lint (mblint), end-to-end audit /
# checkpoint / warm-up file / sweep-resume / mbserve stages, the mbbench
# self-test plus two recorded (uncompared) mbbench runs, a bench --jobs
# invariance check and a --shards invariance check of a forward-cut point
# in unsanitized build trees, then clang-tidy over src/.
#
# Usage:  tools/ci.sh [build-dir]        (default: build-ci)
#
# The sanitizer runs are the hard gate — any leak, overflow, UB, or data race
# aborts the suite and this script exits non-zero. TSan cannot coexist with
# ASan in one binary, so the race check uses its own build tree
# (<build-dir>-tsan) and only rebuilds the thread-bearing sim tests.
# clang-tidy runs when available and is skipped with a notice otherwise (the
# container image may not ship it; MB_REQUIRE_TIDY=1 makes its absence a
# failure); when it does run, its warnings fail the gate too. Every other
# stage is fatal.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$repo/build-ci}"
build_tsan="${build}-tsan"

echo "== configure (${build}) with MB_SANITIZE=address;undefined, MB_DCHECKs on =="
# RelWithDebInfo minus its -DNDEBUG: MB_DCHECK compiles out under NDEBUG, so
# this is the stage that runs those invariants (arena-handle liveness, the
# device-state commit preconditions, the arbitration cross-checks against
# their full-scan references). _GLIBCXX_ASSERTIONS adds libstdc++'s
# precondition checks (bounds on operator[], non-empty front/back, ...).
cmake -B "$build" -S "$repo" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS_RELWITHDEBINFO="-O2 -g" \
  -DCMAKE_CXX_FLAGS="-D_GLIBCXX_ASSERTIONS" \
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

echo "== DCHECKed arbitration over write drains, one run per scheduler =="
# Tier-1 reaches write drains and window refills only in short cases. These
# runs (tsi-ubank(4,4) 470.lbm, an 8-entry read window, about 24 k reads and
# 12 k writes each) check every full arbitration pass's one walk against the
# predicate scan of a materialized candidate list, every wake-only pass
# against a full pass's minimum, and every precharge guard against its queue
# scan, under each scheduler's key.
for sched in fcfs frfcfs parbs; do
  ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
    "$build/tools/mbsim" --preset='tsi-ubank(4,4)' --workload=470.lbm \
    --warmup=100000 --instrs=200000 --queue=8 --scheduler="$sched" >/dev/null
done

echo "== configure (${build_tsan}) with MB_SANITIZE=thread =="
cmake -B "$build_tsan" -S "$repo" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DMB_SANITIZE="thread"

echo "== build sim_tests for TSan =="
cmake --build "$build_tsan" -j"$(nproc)" --target sim_tests

echo "== parallel-sweep and shard tests under TSan =="
# The sweep worker pool in serve::runPlan (DESIGN.md §8) and the
# channel-sharded engine (ShardedEngine worker pool, §14) are the only
# intentionally multithreaded code paths; any report here is a real race.
# RunPlanPool runs the pool with a null result cache, including two workers
# that wait on one shared warm-up capture; ShardWindow drives the engine's
# barrier directly with two threads (the caller plus one pool thread);
# ShardDifferential runs whole sharded simulations against serial ones, and
# its grid (one ctest case per cell) restores snapshots across engines. The
# cells run in parallel: serially the stage takes ~90 s on a 4-vCPU VM.
TSAN_OPTIONS=halt_on_error=1 \
  ctest --test-dir "$build_tsan" --output-on-failure -j"$(nproc)" \
    -R 'RunPlanPool|ShardWindow|ShardDifferential'

echo "== two mbsim runs at --shards=4 under TSan =="
# End-to-end sharded runs through the real mbsim binary: 16 channels over 4
# threads (the caller plus 3 pool threads), long enough to cross thousands
# of window barriers. --timing-check gives every controller its protocol
# auditor, which runs on the shard workers with the controller it checks.
# mix-high at 100 k instructions is the multi-channel point where the
# engine cuts windows short for forwarded reads while the pool is awake
# (DESIGN.md §14); it takes about 35 s under TSan on a 4-vCPU VM.
cmake --build "$build_tsan" -j"$(nproc)" --target mbsim
TSAN_OPTIONS=halt_on_error=1 \
  "$build_tsan/tools/mbsim" --preset=tsi-baseline --workload=RADIX \
    --instrs=20000 --shards=4 --timing-check > /dev/null
TSAN_OPTIONS=halt_on_error=1 \
  "$build_tsan/tools/mbsim" --workload=mix-high --instrs=100000 --shards=4 \
    --timing-check > /dev/null

echo "== mblint conformance =="
"$build/tools/mblint" --all-presets

echo "== offline command-trace audit =="
# Record a short run of every shipped preset (one trace per sweep point)
# and let the protocol auditor re-verify each; --audit makes mbsim exit
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

echo "== checkpoint/restore and warm-up file equivalence per preset =="
# For every shipped preset: run cold, run again writing a mid-flight MBCKPT1
# checkpoint, then restore from it — all three reports must be byte-identical
# (the ASan build also shakes memory bugs out of the save/load paths). The
# checkpoint tick, 20 us, is inside every preset's run (the shortest takes
# 26 us), and there the hmc run has a serial-link response hop in flight,
# so one file restores that hop in a fresh process.
ckpt_dir="$build/ci-ckpt"
mkdir -p "$ckpt_dir"
while read -r preset; do
  "$build/tools/mbsim" --preset="$preset" --workload=429.mcf --instrs=10000 \
    > "$ckpt_dir/cold.txt"
  "$build/tools/mbsim" --preset="$preset" --workload=429.mcf --instrs=10000 \
    --checkpoint-at=20000000 --checkpoint="$ckpt_dir/ck.mbk" \
    > "$ckpt_dir/save.txt"
  "$build/tools/mbsim" --preset="$preset" --workload=429.mcf --instrs=10000 \
    --restore-from="$ckpt_dir/ck.mbk" > "$ckpt_dir/restore.txt"
  cmp "$ckpt_dir/cold.txt" "$ckpt_dir/save.txt" || {
    echo "FAIL: checkpointing perturbed the run for preset $preset" >&2; exit 1; }
  cmp "$ckpt_dir/cold.txt" "$ckpt_dir/restore.txt" || {
    echo "FAIL: restore diverged from cold run for preset $preset" >&2; exit 1; }
  echo "checkpoint/restore ok: $preset"
done < <("$build/tools/mblint" --list-presets)

# Warm-up files (--warmup-save / --warmup-load): the warm-up key excludes
# every memory-side knob, so one snapshot saved from the default config
# serves all presets, and each restore must print the report a --warmup=N
# replay prints.
"$build/tools/mbsim" --workload=429.mcf --warmup=2000 \
  --warmup-save="$ckpt_dir/warm.mbk" >/dev/null
while read -r preset; do
  "$build/tools/mbsim" --preset="$preset" --workload=429.mcf --instrs=10000 \
    --warmup=2000 > "$ckpt_dir/replay.txt"
  "$build/tools/mbsim" --preset="$preset" --workload=429.mcf --instrs=10000 \
    --warmup=2000 --warmup-load="$ckpt_dir/warm.mbk" > "$ckpt_dir/load.txt"
  cmp "$ckpt_dir/replay.txt" "$ckpt_dir/load.txt" || {
    echo "FAIL: --warmup-load diverged from the replayed warm-up for preset $preset" >&2
    exit 1; }
  echo "warm-up load ok: $preset"
done < <("$build/tools/mblint" --list-presets)

# 429.mcf runs one cluster, so its directory never sees another cluster. A
# 64-core TPC-H warm-up saves cross-cluster coherence state (16 L2s and
# their directory), and its restore must print the replay's report in the
# serial engine and in the sharded one.
"$build/tools/mbsim" --workload=TPC-H --warmup=2000 \
  --warmup-save="$ckpt_dir/tpch.mbk" >/dev/null
"$build/tools/mbsim" --workload=TPC-H --instrs=2000 --warmup=2000 \
  > "$ckpt_dir/replay.txt"
for shards in 1 3; do
  "$build/tools/mbsim" --workload=TPC-H --instrs=2000 --warmup=2000 \
    --warmup-load="$ckpt_dir/tpch.mbk" --shards="$shards" > "$ckpt_dir/load.txt"
  cmp "$ckpt_dir/replay.txt" "$ckpt_dir/load.txt" || {
    echo "FAIL: TPC-H --warmup-load at --shards=$shards diverged from the replayed warm-up" >&2
    exit 1; }
  echo "warm-up load ok: TPC-H at --shards=$shards"
done

# 429.mcf's checkpoints hold a handful of DRAM fills, all in one cluster. A
# 64-core TPC-H run cut at 15 us holds 128 fills across all 16 clusters in
# the hierarchy's MSHR file, each with its waiter, and the 16 L2s and their
# directory. At each shard count the cold run, the run that writes the
# checkpoint and its restore must print the serial cold run's report, and
# both shard counts must write the same snapshot.
tpch=("$build/tools/mbsim" --workload=TPC-H --instrs=20000 --warmup=5000)
"${tpch[@]}" --shards=1 > "$ckpt_dir/ref.txt"
for shards in 1 3; do
  "${tpch[@]}" --shards="$shards" > "$ckpt_dir/cold.txt"
  "${tpch[@]}" --shards="$shards" --checkpoint-at=15000000 \
    --checkpoint="$ckpt_dir/tpch-$shards.mbk" > "$ckpt_dir/save.txt"
  "${tpch[@]}" --shards="$shards" --restore-from="$ckpt_dir/tpch-$shards.mbk" \
    > "$ckpt_dir/restore.txt"
  for run in cold save restore; do
    cmp "$ckpt_dir/ref.txt" "$ckpt_dir/$run.txt" || {
      echo "FAIL: TPC-H $run run at --shards=$shards diverged from the cold run" >&2
      exit 1; }
  done
  echo "checkpoint/restore ok: TPC-H in flight at --shards=$shards"
done
cmp "$ckpt_dir/tpch-1.mbk" "$ckpt_dir/tpch-3.mbk" || {
  echo "FAIL: TPC-H checkpoints at --shards=1 and 3 differ" >&2; exit 1; }

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

echo "== mbbench self-test and two recorded runs =="
# mbbench (BENCHMARK.json, mbbench/README.md) is the repository's perf
# harness. It is a CMake package of its own; build it WITHOUT sanitizers
# (ASan skews throughput 5-10x) into <build-dir>-bench, so the checkout's
# .bench_build/ is never written. The self-test is fatal: it checks the
# metric names BENCHMARK.json declares and every output check, not speed.
# It runs each workload at 1/50 size, where no report hash is pinned. The
# two short full-size runs check their pinned report hashes: spec-mcf, and
# mt-tpch-sharded, whose every timed run restores the 15 MB 64-core warm-up
# snapshot. They are recorded and compared with nothing (a 2-second window
# on a shared host is noise); each fails only when one of its output checks
# does. Perf claims cite alternating pairs of run.py runs.
build_bench="${build}-bench"
cmake -B "$build_bench" -S "$repo/mbbench" -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$build_bench" -j"$(nproc)" --target mbbench mbserve
"$build_bench/mbbench" --self-test="$repo/BENCHMARK.json"
for workload in spec-mcf mt-tpch-sharded; do
  "$build_bench/mbbench" --workload="$workload" --seconds=2 \
    --out="$build_bench/$workload.json"
  echo "perf record: $build_bench/$workload.json"
done

echo "== bench stdout is the same at every --jobs =="
# bench/bench_util.hpp promises identical stdout for every worker count.
# fig8 with a warm-up covers the shared snapshots too. The output is
# deterministic, only wall clock varies; an unsanitized tree keeps the two
# sweeps short.
build_nosan="${build}-nosan"
cmake -B "$build_nosan" -S "$repo" -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$build_nosan" -j"$(nproc)" --target fig8_ipc_sweep
"$build_nosan/bench/fig8_ipc_sweep" --warmup=2000 --jobs=1 > "$build_nosan/fig8.j1.txt"
"$build_nosan/bench/fig8_ipc_sweep" --warmup=2000 --jobs=4 > "$build_nosan/fig8.j4.txt"
cmp "$build_nosan/fig8.j1.txt" "$build_nosan/fig8.j4.txt" || {
  echo "FAIL: fig8_ipc_sweep stdout differs between --jobs=1 and --jobs=4" >&2
  exit 1; }
echo "fig8 --jobs=1 and --jobs=4 stdout identical"

echo "== a forward-cut point is the same at every --shards =="
# The TSan stage's mix-high point, unsanitized: its report and its MBCMDT1
# command trace must be the same bytes at --shards=1 and --shards=4, with
# windows cut short for forwarded reads while the pool runs.
cmake --build "$build_nosan" -j"$(nproc)" --target mbsim
fwd=("$build_nosan/tools/mbsim" --workload=mix-high --instrs=100000 --timing-check)
for n in 1 4; do
  "${fwd[@]}" --shards="$n" --record-cmds="$build_nosan/fwd.s$n.mbc" \
    > "$build_nosan/fwd.s$n.txt"
done
cmp "$build_nosan/fwd.s1.txt" "$build_nosan/fwd.s4.txt" || {
  echo "FAIL: mix-high report differs between --shards=1 and --shards=4" >&2
  exit 1; }
cmp "$build_nosan/fwd.s1.mbc" "$build_nosan/fwd.s4.mbc" || {
  echo "FAIL: mix-high command trace differs between --shards=1 and --shards=4" >&2
  exit 1; }
echo "mix-high --shards=1 and --shards=4 report and command trace identical"

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
elif [ "${MB_REQUIRE_TIDY:-0}" = "1" ]; then
  echo "FAIL: clang-tidy not installed but MB_REQUIRE_TIDY=1" >&2
  exit 1
else
  echo "clang-tidy not installed; skipping tidy pass (build+sanitizer gate still enforced)"
fi

echo "== CI gate passed =="
