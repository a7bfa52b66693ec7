#!/bin/sh
# Tier-1 verification: the standard build + full test suite, a bench
# smoke run that emits and schema-checks the machine-readable
# BENCH_*.json observability report, a crash-safety smoke over the
# checkpoint store (SEMAP_IO_FAULT kill + validated replay + resumed
# --explain byte-identity), then the robustness/governance/validation
# and crash-injection tests again under ASan+UBSan (-DSEMAP_SANITIZE=ON),
# and the supervised-execution tests under TSan (-DSEMAP_SANITIZE=THREAD).
set -eu
cd "$(dirname "$0")/.."

jobs="$(nproc 2>/dev/null || echo 4)"

cmake -B build -S .
cmake --build build -j "$jobs"
(cd build && ctest --output-on-failure -j "$jobs")

# Bench smoke: the smallest bench_scaling configuration, one iteration —
# enough to exercise the instrumented pass and validate its JSON report.
mkdir -p build/bench-json
SEMAP_BENCH_JSON_DIR="$PWD/build/bench-json" ./build/bench/bench_scaling \
  --benchmark_filter='BenchDiscovery/2/0$' --benchmark_min_time=0.01
# The directory form fails when the bench run produced zero reports.
python3 scripts/check_bench_json.py build/bench-json

# Rewriting fast-path smoke: one cheap bench_table1 timing plus its
# instrumented pass, then assert the memo and signature fast paths
# actually fired — a silently dead fast path would pass every
# equivalence test while the engine quietly runs the slow path.
SEMAP_BENCH_JSON_DIR="$PWD/build/bench-json" ./build/bench/bench_table1 \
  --benchmark_filter='table1/generate/Hotel$' --benchmark_min_time=0.01 \
  > /dev/null
python3 - build/bench-json/BENCH_table1.json <<'EOF'
import json, sys
counters = json.load(open(sys.argv[1]))["counters"]
for name in ("rewriting.memo_hits", "rewriting.signature_skips",
             "rewriting.rules_indexed_hits", "rewriting.arena_bytes"):
    assert counters.get(name, 0) > 0, f"{name} did not fire: {counters}"
print("rewriting fast paths live:",
      {k: v for k, v in counters.items() if k.startswith("rewriting.")})
EOF

# Observability smoke: run the CLI with every export flag on the shipped
# bookstore scenario (serial and --jobs=4) and schema-check all four
# formats. The supervisor run also exercises the deterministic explain
# merge path.
mkdir -p build/obs-json
bookstore=examples/data/bookstore
./build/tools/semap_map \
  "$bookstore/source.schema" "$bookstore/source.cm" "$bookstore/source.sem" \
  "$bookstore/target.schema" "$bookstore/target.cm" "$bookstore/target.sem" \
  "$bookstore/correspondences.txt" \
  --trace=build/obs-json/trace.json --metrics=build/obs-json/metrics.json \
  --explain=build/obs-json/explain.json \
  --events=build/obs-json/events.ndjson > /dev/null
./build/tools/semap_map \
  "$bookstore/source.schema" "$bookstore/source.cm" "$bookstore/source.sem" \
  "$bookstore/target.schema" "$bookstore/target.cm" "$bookstore/target.sem" \
  "$bookstore/correspondences.txt" --jobs=4 \
  --explain=build/obs-json/explain-jobs4.json > /dev/null
python3 scripts/check_obs_json.py build/obs-json/trace.json \
  build/obs-json/metrics.json build/obs-json/explain.json \
  build/obs-json/events.ndjson build/obs-json/explain-jobs4.json
# The explain report is timestamp-free by design: a parallel run must be
# byte-identical to the serial one.
cmp build/obs-json/explain.json build/obs-json/explain-jobs4.json
# And the reader must be able to answer questions about it.
./build/tools/semap_explain --summary build/obs-json/explain.json > /dev/null
./build/tools/semap_explain --table=hasBookSoldAt \
  build/obs-json/explain.json > /dev/null

# Crash-safety smoke: checkpoint a run (the journal must validate as
# semap.journal.v1 and must not perturb the explain output), then kill
# the store's I/O at a live syscall with SEMAP_IO_FAULT, check the torn
# journal still validates, resume, and demand byte-identical explain
# output — the end-to-end recovery contract of docs/ROBUSTNESS.md.
rm -f build/obs-json/cp.journal
./build/tools/semap_map \
  "$bookstore/source.schema" "$bookstore/source.cm" "$bookstore/source.sem" \
  "$bookstore/target.schema" "$bookstore/target.cm" "$bookstore/target.sem" \
  "$bookstore/correspondences.txt" --checkpoint=build/obs-json/cp.journal \
  --explain=build/obs-json/explain-checkpointed.json > /dev/null
python3 scripts/check_obs_json.py build/obs-json/cp.journal
cmp build/obs-json/explain.json build/obs-json/explain-checkpointed.json
rm -f build/obs-json/cp.journal
# fsync #3 is the first unit's append: its frame is on disk, its fsync
# "never happened", and every later store write fails — the worst
# mid-run kill shape. The run may exit 0 (appends degrade to warnings)
# or nonzero; either is a legitimate crash.
SEMAP_IO_FAULT=fsync:3:crash ./build/tools/semap_map \
  "$bookstore/source.schema" "$bookstore/source.cm" "$bookstore/source.sem" \
  "$bookstore/target.schema" "$bookstore/target.cm" "$bookstore/target.sem" \
  "$bookstore/correspondences.txt" --checkpoint=build/obs-json/cp.journal \
  --explain=build/obs-json/explain-crashed.json > /dev/null || true
python3 scripts/check_obs_json.py build/obs-json/cp.journal
./build/tools/semap_map \
  "$bookstore/source.schema" "$bookstore/source.cm" "$bookstore/source.sem" \
  "$bookstore/target.schema" "$bookstore/target.cm" "$bookstore/target.sem" \
  "$bookstore/correspondences.txt" --resume=build/obs-json/cp.journal \
  --explain=build/obs-json/explain-resumed.json > /dev/null
python3 scripts/check_obs_json.py build/obs-json/cp.journal \
  build/obs-json/explain-resumed.json
cmp build/obs-json/explain.json build/obs-json/explain-resumed.json

# Why-not smoke on the teams scenario, which degrades to the RIC
# baseline by design (exit 3): the explain report must name the
# semantic-type rejection that caused the degradation.
teams=examples/data/teams
./build/tools/semap_map \
  "$teams/source.schema" "$teams/source.cm" "$teams/source.sem" \
  "$teams/target.schema" "$teams/target.cm" "$teams/target.sem" \
  "$teams/correspondences.txt" \
  --explain=build/obs-json/teams-explain.json > /dev/null || [ "$?" -eq 3 ]
python3 scripts/check_obs_json.py build/obs-json/teams-explain.json
./build/tools/semap_explain --why-not=emp build/obs-json/teams-explain.json \
  | grep -q 'killed by semantic-type'

# Serve smoke: the daemon end to end — start, map/explain/retry over the
# socket, SIGTERM drain, validated journal/events, restart byte-identity
# (docs/SERVING.md).
./scripts/serve_smoke.sh

cmake -B build-asan -S . -DSEMAP_SANITIZE=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build build-asan -j "$jobs" --target robustness_test \
  resilient_pipeline_test supervisor_test util_test validate_test \
  provenance_test store_test crash_matrix_test serve_test
# Note: ctest's -j needs an explicit value here — a bare -j would swallow
# the -R flag and run the NOT_BUILT placeholders of the unbuilt targets.
# The crash-injection suites (store, journal, syscall-sweep crash matrix)
# run under ASan on purpose: a recovery path that touches freed or
# uninitialized state must fail here, not in production.
(cd build-asan && ctest --output-on-failure -j "$jobs" \
  -R 'RobustnessTest|CorpusSweepTest|ResilientPipelineTest|GovernedDiscoveryTest|GovernorTest|StatusTest|DiagTest|GoldenDiagnosticsTest|CrossCheckTest|TgdCheckTest|QuarantineScenarioTest|SupervisorTest|CheckpointTest|ProvenanceRecorderTest|EventEmitterTest|ProvenancePipelineTest|ProvenanceDeterminismTest|ProvenanceWhyNotTest|Crc32Test|FaultEnvTest|JournalTest|MappingStoreTest|CrashMatrixTest|ServeTest|ServeFaultMatrixTest')

# TSan pass over the concurrent paths: the supervised worker pool
# (--jobs=4 equality tests included), the shared governor, the shared
# term interner the pool hammers from every worker, and the inline run
# it must keep matching.
cmake -B build-tsan -S . -DSEMAP_SANITIZE=THREAD -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build build-tsan -j "$jobs" --target supervisor_test \
  resilient_pipeline_test util_test provenance_test serve_test interner_test
(cd build-tsan && ctest --output-on-failure -j "$jobs" \
  -R 'SupervisorTest|CheckpointTest|ResilientPipelineTest|GovernedDiscoveryTest|GovernorTest|GovernorConcurrencyTest|BackoffTest|JsonTest|ProvenancePipelineTest|ProvenanceDeterminismTest|EventEmitterTest|ServeTest|InternerTest')
