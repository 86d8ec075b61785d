#!/usr/bin/env bash
# Builds the tree with ThreadSanitizer in a separate build directory and
# runs the concurrency-sensitive suites: the thread pool + parallel
# matcher/closure tests, the parallel core/nf engine parity tests and
# in-place folding differential tests (folds applied between pooled
# search rounds), the Database snapshot stress tests (including racing
# normalized() readers against the call_once core build, and readers
# answering through the shared view cache while the writer
# delta-patches it), the
# sharded-dictionary tests (concurrent interning, lock-free Name()
# readers, fresh-blank races), the view-cache suite (parallel
# union-query fan-out over the materialized view layer), the batch
# suite (trie root subtrees fanned over the pool while the calling
# thread runs the minting jobs), and the serving suite (the closed-loop
# traffic driver: N checked readers pinning snapshots against one
# writer applying generator mutation batches).
#
# check_asan.sh needs no such list — it runs the full ctest suite, so
# serving_test is covered there automatically.
#
# Usage: scripts/check_tsan.sh [build-dir]
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build-tsan}"

# Worker-pool width for the parity sweeps. Exported (not just assigned)
# so it reaches the test processes ctest spawns; default 4 keeps the
# pool tests meaningful on any host.
export SWDB_THREADS="${SWDB_THREADS:-4}"

cmake -B "$build_dir" -S "$repo_root" -DSWDB_SANITIZE=thread
cmake --build "$build_dir" -j --target parallel_test concurrency_test \
  core_parallel_test core_fold_test view_cache_test batch_test serving_test
ctest --test-dir "$build_dir" --output-on-failure \
  -R '^(parallel|concurrency|core_parallel|core_fold|view_cache|batch|serving)_test$'

echo "tsan: concurrency suites passed (SWDB_THREADS=$SWDB_THREADS)"
