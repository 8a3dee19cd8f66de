#!/usr/bin/env bash
# Sanitizer CI: builds the tsan and asan-ubsan presets and runs the
# concurrency-heavy test suites (runtime, BFS, stress) plus the metrics
# and block-cache suites under each.  Any report is fatal
# (halt_on_error / -fno-sanitize-recover=all).
#
# Usage: tools/ci_sanitize.sh [tsan|asan-ubsan]   (default: both)
set -euo pipefail

cd "$(dirname "$0")/.."
ROOT="$PWD"
JOBS="${JOBS:-$(nproc)}"

# The suites that exercise cross-thread behavior: the simulated-cluster
# runtime, the SPMD searches, the ingestion pipeline, and the stress
# suite — plus the metrics layer and BlockCache regressions this CI
# exists to guard.
FILTER='Mailbox.*:Comm.*:CommStress.*:Stream.*:StreamBackpressure.*'
FILTER+=':FilterGraph.*:*ParallelBfs*:PipelinedExtreme.*:FileIngestion.*'
FILTER+=':GrdbTorture.*:BlockCache.*:Metrics*.*'
# PR 2: the async I/O engine is the one place a second thread touches
# storage — every engine/cache/prefetch suite runs under both sanitizers.
FILTER+=':IoEngine.*:AsyncIo.*:PagerFreeList.*:*BfsAsyncEquivalence*'
# PR 3: shared zero-copy payload buffers cross threads by design, and the
# mailbox wakeup protocol uses per-waiter condition variables — the codec
# and wire-equivalence suites must stay clean under both sanitizers.
FILTER+=':PayloadBuffer.*:VertexCodec.*:BfsWireEquivalence.*'
# PR 5: crash-safety — the kill-point sweep and torn-write fuzz throw
# through the eviction/write-behind paths from both threads; strided so
# a sanitizer run stays bounded (a stride-7 sweep still crosses every
# phase of the flush protocol).
FILTER+=':CrashRecovery.*:*CrashRecovery*:TornWrite.*:FaultInjector.*'
# PR 6: the concurrent query engine — scheduler admission, the shared 2Q
# cache under eight query threads, MS-BFS equivalence, and the
# cross-backend differential harness.  (These are also the `ctest -L
# concurrency` label, run below under tsan via ctest so label coverage
# and filter coverage cannot drift apart.)
FILTER+=':ConcurrencyStress.*:MsBfsEquivalence.*:*Differential.*:BlockCache2Q.*'
# PR 7: the multi-lane I/O engine — N workers share the completion queue,
# the quiescence predicates, and the metrics registry; the stress suite
# races submit/poll/wait/drain/metrics across all of them.  The full io
# label (engine + async cache + group-commit crash sweeps) also runs via
# ctest under BOTH presets below.
FILTER+=':IoEngineStress.*'
# PR 8: the VertexProgram engine — every analysis runs one kernel thread
# per simulated rank, all charging one shared QueryBudget and merging
# into per-query registries; the scheduler mix runs six analyses at once
# over the shared cache.  The full analytics label (these suites plus the
# A14 mixed-workload smoke) also runs via ctest under BOTH presets below.
FILTER+=':VertexProgramEngine.*:*VpBfsEquivalence*:CcDeterminism.*'
FILTER+=':AnalyticsReference.*:*AnalyticsScheduler*'
# PR 9: the zero-copy mmap read path — scan threads read MAP_SHARED
# views while the verified-bitmap latches lazily (fetch_or) and map/unmap
# transitions race point probes on the cache path.  The full mmap label
# (these suites plus the A15 smoke) also runs via ctest under BOTH
# presets below.
FILTER+=':MappedFile.*:MappedBlockSource.*:Mmap*'
# PR 10: epoch-based snapshot isolation — reader threads pin epochs and
# walk COW pre-images while the ingest path captures versions, advances
# epochs and retires them; the stress suites race 8 readers against a
# live writer and the interleaved differential harness replays
# store/flush/pin/release schedules on every backend.  (Note the PR 6
# `*Differential.*` pattern does NOT match `DifferentialTxn.*` — the
# literal dot sits after "Differential", so the new suite is listed
# explicitly.)  The full txn label also runs via ctest under BOTH
# presets below.
FILTER+=':EpochMechanics.*:*SnapshotCow*:SnapshotMmap.*:*SnapshotStress*'
FILTER+=':*DifferentialTxn*'
# PR 11: the serving front-end — the parser fuzz wall hammers the
# lexer's byte handling (mutated non-UTF8 input is exactly where a
# one-past-the-end read hides, asan territory), the SLO scheduler
# invariants race queued waiters against priority overtake and
# deadline-expiry wakeups (tsan territory), and the live-ingest
# differential runs session reads against a concurrent writer.  The
# full serve label (these suites plus the A17 loadgen smoke) also runs
# via ctest under BOTH presets below.
FILTER+=':QueryLangParse.*:QueryLangFuzz.*:*QueryLangDifferential*'
FILTER+=':ServeScheduler.*:ServeAccounting.*:ServeLiveIngest.*'
# CRC32C runtime dispatch: the SSE4.2 path reads 8-byte words from
# unaligned starts, checked against the table loop at every length and
# alignment.  Snapshot reads copy one sub-block out of a block: the deep
# sub-block test walks that offset arithmetic on the shelf, mapped and
# live paths (asan), and the snapshot stress suites above race the live
# copy against a writer's capture (tsan).
FILTER+=':Crc32c.*:SnapshotCowGrdb.DeepSubblockReadsKeepTheirOffsets'
# Cluster connected components: MssgCluster::connected_components() runs
# the VertexProgram engine on every rank thread and publishes its vp.*
# counters into the per-rank registries from those threads.
FILTER+=':ConnectedComponents.*:CcBackends.*'
# The frontier read primitive (GraphDB::visit_adjacency): grDB decodes
# many sub-blocks out of one pinned block at computed offsets, and every
# backend's contract suite checks it against get_adjacency, live and
# under a pinned snapshot.
FILTER+=':*GraphDBContract*:GrDBVisit.*:StreamDBBatch.*'
export MSSG_CRASH_SWEEP_STRIDE="${MSSG_CRASH_SWEEP_STRIDE:-7}"

run_preset() {
  local preset="$1" build_dir="$2"
  echo "=== [$preset] configure + build ==="
  cmake --preset "$preset"
  cmake --build --preset "$preset" -j "$JOBS"
  echo "=== [$preset] running filtered suites ==="
  TSAN_OPTIONS="suppressions=$ROOT/tools/sanitizers/tsan.supp halt_on_error=1 second_deadlock_stack=1" \
  ASAN_OPTIONS="detect_stack_use_after_return=1 strict_string_checks=1" \
  LSAN_OPTIONS="suppressions=$ROOT/tools/sanitizers/asan.supp" \
  UBSAN_OPTIONS="print_stacktrace=1" \
    "$build_dir/tests/mssg_tests" --gtest_filter="$FILTER" \
    --gtest_brief=1
  if [ "$preset" = tsan ]; then
    echo "=== [$preset] ctest -L concurrency ==="
    TSAN_OPTIONS="suppressions=$ROOT/tools/sanitizers/tsan.supp halt_on_error=1 second_deadlock_stack=1" \
      ctest --test-dir "$build_dir" -L concurrency --output-on-failure
  fi
  # The io label (multi-lane engine, async cache protocols, the A13
  # smoke) runs under BOTH presets: tsan for the lane handoffs, asan for
  # the iovec arithmetic in the vectored read/write paths.
  echo "=== [$preset] ctest -L io ==="
  TSAN_OPTIONS="suppressions=$ROOT/tools/sanitizers/tsan.supp halt_on_error=1 second_deadlock_stack=1" \
  ASAN_OPTIONS="detect_stack_use_after_return=1 strict_string_checks=1" \
  LSAN_OPTIONS="suppressions=$ROOT/tools/sanitizers/asan.supp" \
  UBSAN_OPTIONS="print_stacktrace=1" \
    ctest --test-dir "$build_dir" -L io --output-on-failure
  # The analytics label (VertexProgram engine suites + the A14 smoke)
  # also runs under BOTH presets: tsan for the rank threads racing the
  # shared budget/cache, asan for the slot/bitset arithmetic in the
  # engine's frontier machinery.
  echo "=== [$preset] ctest -L analytics ==="
  TSAN_OPTIONS="suppressions=$ROOT/tools/sanitizers/tsan.supp halt_on_error=1 second_deadlock_stack=1" \
  ASAN_OPTIONS="detect_stack_use_after_return=1 strict_string_checks=1" \
  LSAN_OPTIONS="suppressions=$ROOT/tools/sanitizers/asan.supp" \
  UBSAN_OPTIONS="print_stacktrace=1" \
    ctest --test-dir "$build_dir" -L analytics --output-on-failure
  # The mmap label (MappedFile/MappedBlockSource mechanics, mmap-on/off
  # equivalence, bit-rot parity, the A15 smoke) also runs under BOTH
  # presets: tsan for the mapped-active/verified-bitmap atomics against
  # concurrent scans, asan because mmap regions are *not* heap — asan
  # poisons no redzones around them, so the per-block span bounds in
  # MappedBlockSource are the only thing standing between a stale block
  # index and a silent out-of-bounds read; shadow memory for MAP_SHARED
  # pages is materialized lazily and must not trip intra-object checks.
  echo "=== [$preset] ctest -L mmap ==="
  TSAN_OPTIONS="suppressions=$ROOT/tools/sanitizers/tsan.supp halt_on_error=1 second_deadlock_stack=1" \
  ASAN_OPTIONS="detect_stack_use_after_return=1 strict_string_checks=1" \
  LSAN_OPTIONS="suppressions=$ROOT/tools/sanitizers/asan.supp" \
  UBSAN_OPTIONS="print_stacktrace=1" \
    ctest --test-dir "$build_dir" -L mmap --output-on-failure
  # The txn label (epoch/COW mechanics, snapshot stress, the interleaved
  # differential harness, the crash-label epoch sweeps' sibling suites,
  # the A16 smoke) also runs under BOTH presets: tsan because snapshot
  # isolation IS a cross-thread visibility claim — readers on retired
  # pins, the version-shelf double-check, the eager-remap handoff — and
  # asan for the captured pre-image buffers (a version outliving its
  # block, or a purge racing a reader, shows up as heap-use-after-free
  # here first).
  echo "=== [$preset] ctest -L txn ==="
  TSAN_OPTIONS="suppressions=$ROOT/tools/sanitizers/tsan.supp halt_on_error=1 second_deadlock_stack=1" \
  ASAN_OPTIONS="detect_stack_use_after_return=1 strict_string_checks=1" \
  LSAN_OPTIONS="suppressions=$ROOT/tools/sanitizers/asan.supp" \
  UBSAN_OPTIONS="print_stacktrace=1" \
    ctest --test-dir "$build_dir" -L txn --output-on-failure
  # The serve label (query-language parse/fuzz/differential, the SLO
  # scheduler invariants, the A17 loadgen smoke) also runs under BOTH
  # presets: tsan for the admission queue's waiter set and the open-loop
  # harness's dispatcher/worker threads, asan-ubsan for the hand-written
  # lexer over hostile bytes (the fuzz corpus exists to catch exactly
  # the out-of-bounds reads asan sees first).
  echo "=== [$preset] ctest -L serve ==="
  TSAN_OPTIONS="suppressions=$ROOT/tools/sanitizers/tsan.supp halt_on_error=1 second_deadlock_stack=1" \
  ASAN_OPTIONS="detect_stack_use_after_return=1 strict_string_checks=1" \
  LSAN_OPTIONS="suppressions=$ROOT/tools/sanitizers/asan.supp" \
  UBSAN_OPTIONS="print_stacktrace=1" \
    ctest --test-dir "$build_dir" -L serve --output-on-failure
  echo "=== [$preset] OK ==="
}

TARGET="${1:-all}"
case "$TARGET" in
  tsan)       run_preset tsan build-tsan ;;
  asan-ubsan) run_preset asan-ubsan build-asan ;;
  all)        run_preset tsan build-tsan
              run_preset asan-ubsan build-asan ;;
  *) echo "usage: $0 [tsan|asan-ubsan]" >&2; exit 2 ;;
esac
