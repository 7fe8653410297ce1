# ipm_parse rejects a --follow-timeout that is not a finite number >= 0:
# each bad value below must exit 2 with "invalid value '<value>' for
# --follow-timeout" before it follows anything.  Each run follows a stream
# that never ends, under a timeout, so a value read as "wait forever" fails
# this script instead of hanging it; a valid timeout gives up on that stream
# with exit 1.
#
#   cmake -DPARSE_BIN=<path to ipm_parse> -DWORK_DIR=<dir> -P parse_bad_follow_timeout.cmake
if(NOT PARSE_BIN OR NOT WORK_DIR)
  message(FATAL_ERROR "PARSE_BIN and WORK_DIR must be set")
endif()

set(stream "${WORK_DIR}/unfinished_timeseries.jsonl")
file(WRITE "${stream}" "{\"ipm_timeseries\":1,\"command\":\"./a.out\",\"interval\":1}\n")

foreach(value abc nan -5 inf 1x)
  execute_process(COMMAND ${PARSE_BIN} --follow --follow-timeout ${value} ${stream}
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err TIMEOUT 4)
  if(NOT rc EQUAL 2 OR NOT err MATCHES "invalid value '${value}' for --follow-timeout")
    message(FATAL_ERROR "--follow-timeout ${value}: exit ${rc}, stderr:\n${err}")
  endif()
endforeach()

# A valid timeout ends the follow of the unfinished stream.
execute_process(COMMAND ${PARSE_BIN} --follow --follow-timeout 0.2 ${stream}
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err TIMEOUT 4)
if(NOT rc EQUAL 1 OR NOT err MATCHES "no progress on")
  message(FATAL_ERROR "--follow-timeout 0.2: exit ${rc}, stderr:\n${err}")
endif()
message(STATUS "ipm_parse rejected every bad --follow-timeout")
