# Run the micro_overhead benchmarks briefly and validate the emitted
# BENCH_hotpath.json against the ipm-bench-v1 schema (see harness.hpp).
# Invoked by the bench_smoke ctest entry:
#   cmake -DBENCH_BIN=<exe> -DWORK_DIR=<dir> -P bench_smoke.cmake

cmake_policy(VERSION 3.25)

if(NOT BENCH_BIN OR NOT WORK_DIR)
  message(FATAL_ERROR "bench_smoke: BENCH_BIN and WORK_DIR are required")
endif()

# 1. Live-telemetry overhead gate: a filtered, longer run of the prepared
# vs live monitor update pair (the live row adds the snapshot due check to
# the same table update); the binary itself enforces the <= 1.5x ratio
# when IPM_BENCH_LIVE_RATIO_MAX is set (float math is easier there than in
# CMake).  Runs first: the full run below rewrites the JSON.
# The test is RUN_SERIAL, but scheduler noise can still skew a ~7 ns
# measurement, so allow a couple of retries before declaring a regression.
set(ratio_ok FALSE)
foreach(attempt RANGE 1 3)
  execute_process(
    COMMAND "${CMAKE_COMMAND}" -E env IPM_BENCH_LIVE_RATIO_MAX=1.5
            "${BENCH_BIN}" "--benchmark_filter=^BM_MonitorUpdate(Prepared|Live)$"
            --benchmark_min_time=0.05
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE rc
    OUTPUT_QUIET)
  if(rc EQUAL 0)
    set(ratio_ok TRUE)
    break()
  endif()
  message(STATUS "bench_smoke: ratio gate attempt ${attempt} failed (${rc}), retrying")
endforeach()
if(NOT ratio_ok)
  message(FATAL_ERROR "bench_smoke: live-snapshot ratio gate failed 3 attempts")
endif()

# 2. Full suite, whose JSON is validated below.
execute_process(
  COMMAND "${BENCH_BIN}" --benchmark_min_time=0.001
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE rc
  OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bench_smoke: micro_overhead exited with ${rc}")
endif()

set(json_path "${WORK_DIR}/BENCH_hotpath.json")
if(NOT EXISTS "${json_path}")
  message(FATAL_ERROR "bench_smoke: ${json_path} was not written")
endif()
file(READ "${json_path}" doc)

string(JSON schema ERROR_VARIABLE err GET "${doc}" schema)
if(err OR NOT schema STREQUAL "ipm-bench-v1")
  message(FATAL_ERROR "bench_smoke: bad schema '${schema}' (${err})")
endif()
string(JSON suite ERROR_VARIABLE err GET "${doc}" suite)
if(err OR NOT suite STREQUAL "micro_overhead")
  message(FATAL_ERROR "bench_smoke: bad suite '${suite}' (${err})")
endif()

string(JSON count ERROR_VARIABLE err LENGTH "${doc}" benchmarks)
if(err OR count LESS 1)
  message(FATAL_ERROR "bench_smoke: benchmarks array missing or empty (${err})")
endif()

set(seen_names "")
math(EXPR last "${count} - 1")
foreach(i RANGE 0 ${last})
  string(JSON name ERROR_VARIABLE err GET "${doc}" benchmarks ${i} name)
  if(err OR name STREQUAL "")
    message(FATAL_ERROR "bench_smoke: benchmarks[${i}] has no name (${err})")
  endif()
  string(JSON iters ERROR_VARIABLE err GET "${doc}" benchmarks ${i} iterations)
  if(err OR iters LESS 1)
    message(FATAL_ERROR "bench_smoke: ${name}: bad iterations '${iters}' (${err})")
  endif()
  string(JSON nspo ERROR_VARIABLE err GET "${doc}" benchmarks ${i} ns_per_op)
  if(err)
    message(FATAL_ERROR "bench_smoke: ${name}: missing ns_per_op (${err})")
  endif()
  string(JSON ctype ERROR_VARIABLE err TYPE "${doc}" benchmarks ${i} counters)
  if(err OR NOT ctype STREQUAL "OBJECT")
    message(FATAL_ERROR "bench_smoke: ${name}: counters must be an object (${err})")
  endif()
  list(APPEND seen_names "${name}")
endforeach()

# The hot-path benchmarks this PR tracks must be present.
foreach(required
    BM_HashTableUpdateHit
    BM_HashTableUpdateManyKeys/10
    BM_HashTableFindHit
    BM_HashTableFindMiss
    BM_MonitorUpdate
    BM_MonitorUpdatePrepared
    BM_MonitorUpdateTraced
    BM_TraceFlush
    BM_MonitorUpdateLive
    BM_LiveCapture
    BM_InternName
    BM_NameOf
    BM_WrappedCudaCall)
  if(NOT "${required}" IN_LIST seen_names)
    message(FATAL_ERROR "bench_smoke: required benchmark '${required}' missing")
  endif()
endforeach()

message(STATUS "bench_smoke: ${count} benchmarks, schema ipm-bench-v1 OK")
