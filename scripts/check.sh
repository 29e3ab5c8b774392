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

# Kernel-critical and flow-model tests under both sanitizer presets: the
# event core does placement-new/launder tricks and the flow network recycles
# generation-tagged slots whose handlers can re-enter it — exactly the
# lifetime bugs the sanitizers exist to catch. test_fault rides along
# because the lifecycle slab-parks retries and cancels in-flight lease
# events, another lifetime-heavy path. test_scale covers the broker's
# subscriber slab and in-flight message slab (handler re-entry that grows
# them under the running handler). test_telemetry rides along because
# samplers hold raw pointers into the probe registry and the watchdog path
# dumps mid-run state. test_federation and test_sched_spec ride along
# because the federated wrapper hands each instance a masked view of the
# shared fleet (raw WorkerNode pointers nulled outside the partition) and
# re-routes in-flight jobs across instances on crash/adoption — pointer
# lifetime paths only the sanitizers can vouch for. test_broker rides along
# because message payloads are refcounted boxes carved from the kernel's
# pool: ASan cannot see a use after free inside the pool, so the broker
# tests pin box sharing and lifetime themselves and run here for the rest.
# The asan preset bundles address+undefined; the ubsan preset runs undefined
# alone (no shadow memory), which changes layout enough to surface different
# misuses.
SAN_TESTS=(test_simulator test_sim_alloc test_broker test_stress
           test_flow test_flow_properties test_flow_alloc test_obs test_fault
           test_scale test_telemetry test_sched_spec test_federation)
export ASAN_OPTIONS="detect_leaks=1:strict_string_checks=1"
export UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1"
for PRESET in asan ubsan; do
  echo "==== sanitizer pass ($PRESET)"
  cmake --preset "$PRESET"
  cmake --build --preset "$PRESET" --parallel "$(nproc)" --target "${SAN_TESTS[@]}" dlaja_fuzz
  for t in "${SAN_TESTS[@]}"; do
    "build-$PRESET/tests/$t"
  done
  # A short fuzz sweep under the sanitizer: random scenarios reach engine
  # paths (fault x federation x open-arrival combinations) no fixed test pins.
  # Repro files from a failure land inside the build tree, not examples/.
  "build-$PRESET/tools/dlaja_fuzz" --seed 20240808 --count 10 \
    --out-dir "build-$PRESET"
done

# Each run is single-threaded; the only threads are run_matrix's, which fan
# whole cells out across the ThreadPool. test_thread_pool exercises the pool
# itself; test_experiment, test_integration and test_stress run matrices of
# cells concurrently (shared read-only state: scheduler specs, presets).
TSAN_TESTS=(test_thread_pool test_experiment test_integration test_stress)
export TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1"
echo "==== sanitizer pass (tsan)"
cmake --preset tsan
cmake --build --preset tsan --parallel "$(nproc)" --target "${TSAN_TESTS[@]}"
for t in "${TSAN_TESTS[@]}"; do
  "build-tsan/tests/$t"
done
echo "ALL CHECKS PASSED"
