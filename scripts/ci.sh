#!/usr/bin/env bash
# Harness-level CI: docs checks (module READMEs present, markdown links
# resolve), configure, build, run the test suite, then run every bench
# binary at --scale smoke so that a perf regression or bit-rotted bench
# fails the pipeline, not just a broken unit test. Also emits
# BENCH_scalar.json (field / pairing / G1 / G2 / GT exponentiation / MSM /
# hashing / AEAD / ECIES / encrypt and decrypt at |S| = 16 and 256; schema
# in docs/benchmarks.md) so future revisions have a perf trajectory to diff
# against.
#
# Usage: scripts/ci.sh [build-dir]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
JOBS="$(nproc)"

# require_ignored DIR: build trees must stay out of version control, so
# refuse to build into a directory git would track (build/ and the
# -portable/-asan/-tsan trees derived from it are in .gitignore; anything
# else needs to be ignored too, or live outside the work tree).
require_ignored() {
  git rev-parse --is-inside-work-tree > /dev/null 2>&1 || return 0
  local status=0
  git check-ignore -q "$1/.ci-probe" 2> /dev/null || status=$?
  # 0 = ignored (fine); 128 = outside the work tree (also fine); 1 = a
  # build into the work tree that git would pick up.
  if [ "$status" -eq 1 ]; then
    echo "ci.sh: build dir '$1' is not git-ignored;" \
         "add it to .gitignore or build outside the work tree" >&2
    exit 1
  fi
}

# sanitizer_stage DIR FLAGS SUITES...: builds SUITES in DIR with
# -DIBBE_SANITIZE=FLAGS and runs each. Probed rather than assumed: minimal
# containers often ship a compiler without the sanitizer runtimes, in which
# case the stage is skipped.
sanitizer_stage() {
  local dir="$1" flags="$2"
  shift 2
  local probe
  probe="$(mktemp)"
  if ! echo 'int main() { return 0; }' \
       | c++ -x c++ - -fsanitize="$flags" -fno-omit-frame-pointer \
             -o "$probe" 2> /dev/null; then
    rm -f "$probe"
    echo "ci.sh: toolchain lacks the -fsanitize=$flags runtime; skipping $dir"
    return 0
  fi
  rm -f "$probe"
  require_ignored "$dir"
  echo "==> sanitizer build ($dir, $flags)"
  cmake -B "$dir" -S . -DIBBE_SANITIZE="$flags"
  cmake --build "$dir" -j"$JOBS" --target "$@"
  for suite in "$@"; do
    echo "==> $dir/$suite ($flags)"
    "$dir/$suite" --gtest_brief=1
  done
}

require_ignored "$BUILD_DIR"

# Documentation gate: every src/<module>/ must carry a README.md, and no
# markdown link in any README.md (or docs/*.md) may point at a nonexistent
# file — so the module map cannot rot silently.
docs_failed=0
for module_dir in src/*/; do
  if [ ! -f "$module_dir/README.md" ]; then
    echo "ci.sh: missing $module_dir/README.md" >&2
    docs_failed=1
  fi
done
# Relative markdown links: [text](target). External links (scheme:// or
# mailto:) and pure #anchors are skipped; optional "title" suffixes are
# stripped; /-rooted targets resolve against the repo root; intra-repo
# anchors are checked by file part.
while IFS=: read -r doc target; do
  target="${target%% \"*}"
  target="${target%% \'*}"
  case "$target" in
    *://*|mailto:*|'#'*) continue ;;
    /*) resolved=".${target%%#*}" ;;
    *)  resolved="$(dirname "$doc")/${target%%#*}" ;;
  esac
  if [ ! -e "$resolved" ]; then
    echo "ci.sh: broken link in $doc -> $target" >&2
    docs_failed=1
  fi
done < <(find . \( -name 'build*' -o -name '.git' \) -prune -o -name '*.md' -print \
           | grep -E 'README\.md$|^\./docs/' \
           | xargs grep -oE '\]\([^)]+\)' /dev/null \
           | sed -E 's/\]\(([^)]*)\)$/\1/')
if [ "$docs_failed" -ne 0 ]; then
  echo "ci.sh: documentation checks failed" >&2
  exit 1
fi
echo "ci.sh: documentation checks passed"

# The default and forced-portable trees build with -Werror: the build is
# warning-free, and a new warning fails CI instead of piling up unseen.
cmake -B "$BUILD_DIR" -S . -DCMAKE_CXX_FLAGS=-Werror
cmake --build "$BUILD_DIR" -j"$JOBS"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j"$JOBS"

# Forced single-thread pass: IBBE_THREADS=1 makes every parallel_for inline
# on the calling thread (the pool spawns no workers). The whole suite must
# stay green with the pool compiled in but idle — serial recoverability is
# a hard requirement, same contract as the forced-portable stage below.
echo "==> ctest (IBBE_THREADS=1, pool inline)"
IBBE_THREADS=1 ctest --test-dir "$BUILD_DIR" --output-on-failure -j"$JOBS"

# The networked front-end by name under the inline pool: the NetServer's
# session threads and the long-poll wake path must not depend on worker
# threads existing. Already inside the ctest pass above; pinned here so a
# future filtered ctest invocation cannot silently drop it.
echo "==> $BUILD_DIR/net_test (IBBE_THREADS=1)"
IBBE_THREADS=1 "$BUILD_DIR/net_test" --gtest_brief=1

# Figure/table reproduction benches, smoke scale (seconds each).
for bench in "$BUILD_DIR"/bench_fig* "$BUILD_DIR"/bench_table* \
             "$BUILD_DIR"/bench_ablation*; do
  [ -x "$bench" ] || continue
  echo "==> $bench --scale smoke"
  "$bench" --scale smoke
done

# Scalar-multiplication perf trajectory: machine-readable summary for
# cross-revision diffing. The bench header prints which Montgomery backend
# (MULX/ADX vs portable) the run dispatched to.
echo "==> $BUILD_DIR/bench_scalar_suite"
"$BUILD_DIR/bench_scalar_suite" --scale smoke --json "$BUILD_DIR/BENCH_scalar.json"
cat "$BUILD_DIR/BENCH_scalar.json"

# Degraded-mode trajectory: admin mutation cost at 0%/1%/10% cloud fault
# rates plus 64-partition crash recovery, merged into the same JSON so one
# file carries the whole perf surface.
echo "==> $BUILD_DIR/bench_fault_suite"
"$BUILD_DIR/bench_fault_suite" --scale smoke --json "$BUILD_DIR/BENCH_fault.json"

# Networked front-end trajectory: RPC round-trip cost, grant/revoke
# throughput over the wire, and long-poll fan-out wake-up latency against a
# live loopback NetServer, merged into the same JSON.
echo "==> $BUILD_DIR/bench_net_suite"
"$BUILD_DIR/bench_net_suite" --scale smoke --json "$BUILD_DIR/BENCH_net.json"

# Million-member group-state trajectory: mutation throughput, index bytes per
# membership op under the sharded layout vs the monolithic matrix (the bench
# itself fails below the 100x acceptance ratio), client delta-fold cost, and
# the Linux-trace metadata replay. The RSS ceiling is always on: the
# million-member scenario must never regress into matrix-sized allocations.
echo "==> $BUILD_DIR/bench_group_suite"
"$BUILD_DIR/bench_group_suite" --scale smoke --rss-ceiling-mb 1536 \
  --json "$BUILD_DIR/BENCH_group.json"
python3 - "$BUILD_DIR/BENCH_scalar.json" "$BUILD_DIR/BENCH_fault.json" \
  "$BUILD_DIR/BENCH_net.json" "$BUILD_DIR/BENCH_group.json" << 'PY'
import json, sys
merged = json.load(open(sys.argv[1]))
for extra in sys.argv[2:]:
    merged.update(json.load(open(extra)))
with open(sys.argv[1], "w") as f:
    json.dump(merged, f, indent=2)
    f.write("\n")
PY

# Diff against the committed baseline snapshot: prints per-metric ratios and
# WARNS (never fails — container timings jitter) on >1.15x regressions.
if [ -f BENCH_baseline.json ]; then
  echo "==> bench_diff vs BENCH_baseline.json"
  python3 scripts/bench_diff.py BENCH_baseline.json "$BUILD_DIR/BENCH_scalar.json"
else
  echo "ci.sh: no BENCH_baseline.json committed; skipping perf diff" >&2
fi

# When this machine can run the MULX/ADX Montgomery backend, the suite above
# exercised only the accelerated path — build and test a second tree with the
# backend compiled out (-DIBBE_FORCE_PORTABLE_MUL=ON) and the runtime
# override exported too, so the portable fallback stays green on every
# commit. Results are bit-identical by construction; only timings differ.
if [ -r /proc/cpuinfo ] && grep -qw adx /proc/cpuinfo; then
  PORTABLE_DIR="${BUILD_DIR}-portable"
  require_ignored "$PORTABLE_DIR"
  echo "==> portable-fallback build ($PORTABLE_DIR)"
  cmake -B "$PORTABLE_DIR" -S . -DIBBE_FORCE_PORTABLE_MUL=ON \
    -DCMAKE_CXX_FLAGS=-Werror
  cmake --build "$PORTABLE_DIR" -j"$JOBS"
  IBBE_FORCE_PORTABLE_MUL=1 ctest --test-dir "$PORTABLE_DIR" \
    --output-on-failure -j"$JOBS"
  # The differential strategy-equivalence suite (every G2 scalar-mul
  # strategy against the double-and-add oracle) must hold bit-for-bit under
  # the portable backend too. It already ran inside the full ctest above;
  # run it once more by name so a future filtered ctest invocation cannot
  # silently drop it from the fallback tree.
  echo "==> $PORTABLE_DIR/strategy_equivalence_test (portable backend)"
  IBBE_FORCE_PORTABLE_MUL=1 "$PORTABLE_DIR/strategy_equivalence_test" \
    --gtest_brief=1
  # The comb and the ladder of every group (G1, G2, GT, P-256) against the
  # oracles, by name likewise.
  echo "==> $PORTABLE_DIR/endo_test (portable backend)"
  IBBE_FORCE_PORTABLE_MUL=1 "$PORTABLE_DIR/endo_test" --gtest_brief=1
  # Point encodings and the G2 subgroup check (its psi test and the twist
  # points it must refuse) under the portable backend, by name likewise.
  echo "==> $PORTABLE_DIR/ec_test (portable backend)"
  IBBE_FORCE_PORTABLE_MUL=1 "$PORTABLE_DIR/ec_test" --gtest_brief=1
  # The curve-constant literals (Montgomery-form beta and Frobenius gammas,
  # the GLV/psi lattices) must hold their defining properties under the
  # portable backend too.
  echo "==> $PORTABLE_DIR/curve_constants_test (portable backend)"
  IBBE_FORCE_PORTABLE_MUL=1 "$PORTABLE_DIR/curve_constants_test" \
    --gtest_brief=1
else
  echo "ci.sh: no ADX on this CPU; default build already covers the portable path"
fi

# Sanitizer stage: ASan+UBSan over the suites that exercise the
# fault-injection / crash-recovery machinery (heap-heavy, exception-heavy),
# plus the deserialization fuzz suite (the metadata reader parses untrusted
# cloud bytes), the pairing/IBBE suites (Miller-loop operands point into
# line tables that move with PreparedPartition and the PK's caches), the
# comb-and-ladder suites (endo, strategy-equivalence, gt_exp and scalar_mul:
# the combs and ladders index their tables by recoded scalar digits, so an
# off-by-one in a recoding is an out-of-bounds read), the curve-constants
# suite (its BigUInt oracle recomputes every
# lattice and Montgomery constant the library carries as a literal), and
# the ec and field suites (point decoding of untrusted bytes, the G2
# subgroup check, square roots), and the enclave suite (partition records
# are opened and sealed over spans of handles and batch-encoded C1s on the
# pool, and a refused record must fall back to the full re-key cleanly).
sanitizer_stage "${BUILD_DIR}-asan" address,undefined \
  util_test cloud_test fault_injection_test byzantine_test system_test \
  extensions_test shard_delta_test thread_pool_test \
  parallel_equivalence_test net_test fuzz_deserialize_test \
  pairing_test ibbe_test strategy_equivalence_test curve_constants_test \
  ec_test field_test enclave_test endo_test gt_exp_test scalar_mul_test

# ThreadSanitizer stage: the Byzantine store wraps every fault decision in a
# mutex and clients race long-polls, gossip publishes, and CAS retries
# against it — exactly the shapes TSan exists to check. The thread-pool
# suites ride along: they hammer the pool's job list and shared chunk
# cursors and the lazy first-use of the shared crypto singletons (the
# generator comb tables, the Montgomery contexts and backend dispatch) and of
# a shared PublicKey's tables from many workers at once. The enclave suite
# runs ECALLs from two threads on one enclave: its DRBG draws, EPC meter,
# lazily built comb for h and record key are shared with each other and
# with the pool workers.
sanitizer_stage "${BUILD_DIR}-tsan" thread \
  cloud_test fault_injection_test byzantine_test system_test \
  thread_pool_test parallel_equivalence_test net_test enclave_test

# One TSan pass sees one interleaving per test; twenty repeats of the pool
# suite let the job list, the chunk cursor and the caller's wait race in
# many orders, and ten repeats of the PublicKey-table test let seven workers
# race the first build of every lazy PK table (the G2 powers MSM, the
# pairing line tables, the fixed-base tables for v and w, the comb for h)
# in many orders. Ten repeats of the enclave's concurrent-ECALL test let two
# admin threads' joins and revocations race the first build of the comb for
# h, and pool workers read the record key, in many orders.
# Skipped with the stage when the toolchain lacks TSan.
if [ -x "${BUILD_DIR}-tsan/thread_pool_test" ]; then
  echo "==> ${BUILD_DIR}-tsan/thread_pool_test --gtest_repeat=20 (thread)"
  "${BUILD_DIR}-tsan/thread_pool_test" --gtest_brief=1 --gtest_repeat=20
  echo "==> ${BUILD_DIR}-tsan/parallel_equivalence_test" \
       "--gtest_filter='*PublicKeyTables*' --gtest_repeat=10 (thread)"
  "${BUILD_DIR}-tsan/parallel_equivalence_test" --gtest_brief=1 \
    --gtest_filter='*PublicKeyTables*' --gtest_repeat=10
  echo "==> ${BUILD_DIR}-tsan/enclave_test" \
       "--gtest_filter='*Concurrent*' --gtest_repeat=10 (thread)"
  "${BUILD_DIR}-tsan/enclave_test" --gtest_brief=1 \
    --gtest_filter='*Concurrent*' --gtest_repeat=10
fi

echo "ci.sh: all stages passed"
