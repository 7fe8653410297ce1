# Aggregation-daemon gates: fleetgen measures, this script holds the bounds
# and validates the emitted ipm-bench-v1 JSON (harness.hpp).  Invoked by the
# bench_aggd_gate ctest entry:
#   cmake -DBENCH_BIN=<fleetgen> -DWORK_DIR=<dir> -P bench_aggd_gate.cmake
#
# Both gates ask one question of the daemon: does its CPU follow work, not
# wall time?  Each bound sits at least 2x clear of the worst of ten runs on
# a 4-vCPU host, and fails for the daemon that polled every 2 ms and for
# the single-thread seed daemon (EXPERIMENTS.md "Event-driven
# aggregation").  There is no retry: a bound that needs one is too tight.
#
#   * Stretch: a steady-state fleet, 2000 jobs x 5 ranks x 4 samples with
#     chaos kills, phase-staggered so most sessions are idle on any daemon
#     wake, replayed at 600 and again at 4800 paced 2 ms ticks.  The work
#     is the same; `stretch` is the CPU per applied sample at 4800 over the
#     figure at 600.
#   * Idle: 2000 sessions say HELLO and go silent; daemon CPU per wall
#     second, serial and with 4 workers.
#
# fleetgen itself fails on any conservation violation, unfinalized rank,
# lost or double-counted sample, or kill not counted as a truncated frame.

cmake_policy(VERSION 3.25)

if(NOT BENCH_BIN OR NOT WORK_DIR)
  message(FATAL_ERROR "bench_aggd_gate: BENCH_BIN and WORK_DIR are required")
endif()

set(STRETCH_MAX 2.5)
set(IDLE_MS_PER_S_MAX 2.0)

# Read counter `key` of benchmark `name` in `doc` into `out`.
function(bench_counter doc name key out)
  string(JSON count LENGTH "${doc}" benchmarks)
  math(EXPR last "${count} - 1")
  foreach(i RANGE 0 ${last})
    string(JSON n GET "${doc}" benchmarks ${i} name)
    if(n STREQUAL name)
      string(JSON v ERROR_VARIABLE err GET "${doc}" benchmarks ${i} counters ${key})
      if(err)
        message(FATAL_ERROR "bench_aggd_gate: ${name}: counter '${key}' missing (${err})")
      endif()
      set(${out} "${v}" PARENT_SCOPE)
      return()
    endif()
  endforeach()
  message(FATAL_ERROR "bench_aggd_gate: benchmark '${name}' missing")
endfunction()

# Run fleetgen with `args`, writing `json`, and return the document.
function(run_fleetgen json out)
  execute_process(
    COMMAND "${BENCH_BIN}" ${ARGN} --out-dir "${WORK_DIR}/fleetgen_out"
            --json "${json}"
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "bench_aggd_gate: fleetgen ${ARGN} failed (${rc})")
  endif()
  file(READ "${json}" doc)
  string(JSON schema ERROR_VARIABLE err GET "${doc}" schema)
  if(err OR NOT schema STREQUAL "ipm-bench-v1")
    message(FATAL_ERROR "bench_aggd_gate: ${json}: bad schema '${schema}' (${err})")
  endif()
  string(JSON suite ERROR_VARIABLE err GET "${doc}" suite)
  if(err OR NOT suite STREQUAL "aggd")
    message(FATAL_ERROR "bench_aggd_gate: ${json}: bad suite '${suite}' (${err})")
  endif()
  set(${out} "${doc}" PARENT_SCOPE)
endfunction()

# --- stretch -------------------------------------------------------------------
run_fleetgen("${WORK_DIR}/BENCH_aggd.json" doc
  --jobs 2000 --ranks 5 --samples 4 --chaos-every 10 --inflight 2000
  --stagger 256 --pace-rounds 600 --stretch-rounds 4800)
foreach(name aggd_sharded aggd_stretch)
  foreach(key samples_per_s samples_per_cpu_s daemon_wakes_per_sample
          ack_p50_ms ack_p99_ms resent kills truncated_frames protocol_errors)
    bench_counter("${doc}" ${name} ${key} v)
  endforeach()
  bench_counter("${doc}" ${name} conservation_violations violations)
  if(NOT violations EQUAL 0)
    message(FATAL_ERROR "bench_aggd_gate: ${name}: ${violations} conservation violations")
  endif()
endforeach()
bench_counter("${doc}" aggd_stretch stretch stretch)
if(stretch GREATER STRETCH_MAX)
  message(FATAL_ERROR "bench_aggd_gate: stretch ${stretch}x over the bound ${STRETCH_MAX}x")
endif()
message(STATUS "bench_aggd_gate: stretch ${stretch}x (bound ${STRETCH_MAX}x)")

# --- idle ----------------------------------------------------------------------
foreach(workers 0 4)
  run_fleetgen("${WORK_DIR}/BENCH_aggd_idle${workers}.json" doc
    --idle-sessions 2000 --workers ${workers})
  bench_counter("${doc}" aggd_idle daemon_cpu_ms_per_s ms)
  if(ms GREATER IDLE_MS_PER_S_MAX)
    message(FATAL_ERROR "bench_aggd_gate: ${workers} workers: idle daemon burns "
                        "${ms} ms CPU per second, over the bound ${IDLE_MS_PER_S_MAX}")
  endif()
  message(STATUS "bench_aggd_gate: idle, ${workers} workers: ${ms} ms CPU per "
                 "second (bound ${IDLE_MS_PER_S_MAX})")
endforeach()
