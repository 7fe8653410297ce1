# ipm_aggd rejects a malformed or out-of-range numeric flag value: each bad
# value below must exit 2 with "invalid value '<value>' for <flag>" before
# the daemon starts, and the boundary values of every range are accepted.
#
#   cmake -DAGGD_BIN=<path to ipm_aggd> -P aggd_bad_flags.cmake
if(NOT AGGD_BIN)
  message(FATAL_ERROR "AGGD_BIN not set")
endif()

# Flag, value pairs.
set(cases
  --stall-ms abc
  --stall-ms 0
  --outbuf-max -1
  --outbuf-max 0
  --workers x
  --workers -2
  --workers 257
  --fleet-interval nan
  --fleet-interval inf
  --fleet-interval 0
  --exit-after-jobs -1
  --exit-after-jobs 2x)
list(LENGTH cases n)
math(EXPR last "${n} - 1")
foreach(i RANGE 0 ${last} 2)
  math(EXPR j "${i} + 1")
  list(GET cases ${i} flag)
  list(GET cases ${j} value)
  execute_process(COMMAND ${AGGD_BIN} ${flag} ${value}
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err TIMEOUT 10)
  if(NOT rc EQUAL 2 OR NOT err MATCHES "invalid value '${value}' for ${flag}")
    message(FATAL_ERROR "${flag} ${value}: exit ${rc}, stderr:\n${err}")
  endif()
endforeach()

# Every range's boundary is a valid value: parsing reaches --help, exit 0.
execute_process(COMMAND ${AGGD_BIN} --stall-ms 1 --outbuf-max 1 --workers -1
    --workers 256 --fleet-interval 1e-3 --exit-after-jobs 0 --help
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err TIMEOUT 10)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "boundary values rejected: exit ${rc}, stderr:\n${err}")
endif()
message(STATUS "ipm_aggd rejected every bad flag value")
