#!/usr/bin/env bash
# Full local check: configure, build (warnings are errors), test, run every
# benchmark harness once, build and test perfbench, then rebuild the
# kernel-critical tests under ASan/UBSan and run them — the event core does
# placement-new/launder tricks that only the sanitizers can vouch for.
# Usage: scripts/check.sh [build-dir]
set -euo pipefail
BUILD="${1:-build-check}"
cmake -B "$BUILD" -G Ninja -DDLAJA_WERROR=ON
cmake --build "$BUILD"
ctest --test-dir "$BUILD" --output-on-failure
for bench in "$BUILD"/bench/bench_*; do
  [ -x "$bench" ] || continue
  echo "==== $bench"
  "$bench"
done

# perfbench (the BENCHMARK.json harness) is its own CMake project compiled
# against the simulator's headers; the tier-1 build never compiles it, so an
# API change that breaks it only shows here.
cmake -S perfbench -B .bench_build -DCMAKE_BUILD_TYPE=Release
cmake --build .bench_build --parallel "$(nproc)" --target perfbench_dlaja perfbench_tests
.bench_build/perfbench_tests
python3 -m unittest discover -s perfbench/tests

# The tests that run under each sanitizer, and why, are listed in
# tests/CMakeLists.txt: `sanitizer_tests` and `tsan_tests` build a pass's
# tests (and dlaja_fuzz) as one goal, so they compile in parallel, and the
# lists the tree writes next to the binaries say what to run. The asan
# preset bundles address+undefined; the ubsan preset runs undefined alone
# (no shadow memory), which changes layout enough to surface different
# misuses.
export ASAN_OPTIONS="detect_leaks=1:strict_string_checks=1"
export UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1"
for PRESET in asan ubsan; do
  echo "==== sanitizer pass ($PRESET)"
  cmake --preset "$PRESET"
  cmake --build --preset "$PRESET" --parallel "$(nproc)" --target sanitizer_tests
  mapfile -t SAN_TESTS < "build-$PRESET/tests/sanitizer_tests.txt"
  for t in "${SAN_TESTS[@]}"; do
    "build-$PRESET/tests/$t"
  done
  # A short fuzz sweep under the sanitizer: random scenarios reach engine
  # paths (fault x federation x open-arrival combinations) no fixed test pins.
  # Repro files from a failure land inside the build tree, not examples/.
  "build-$PRESET/tools/dlaja_fuzz" --seed 20240808 --count 10 \
    --out-dir "build-$PRESET"
done

export TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1"
echo "==== sanitizer pass (tsan)"
cmake --preset tsan
cmake --build --preset tsan --parallel "$(nproc)" --target tsan_tests
mapfile -t TSAN_TESTS < build-tsan/tests/tsan_tests.txt
for t in "${TSAN_TESTS[@]}"; do
  "build-tsan/tests/$t"
done
echo "ALL CHECKS PASSED"
