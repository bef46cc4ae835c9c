# Checks that sweep_main and dump_stats reject malformed numbers.
#
# Every numeric flag of both tools goes through one checked parser
# (bench/cli.hh): a value that is not a plain non-negative decimal of
# the flag's type, or is above the flag's bound, prints usage and exits
# 2 instead of aborting on an uncaught exception, wrapping a negative
# value or reading garbage as 0. Registered as the ctest
# cli_bad_numbers; run by hand with
#
#   cmake -DSWEEP_MAIN=build/sweep_main -DDUMP_STATS=build/dump_stats \
#         -P tests/cli_bad_numbers.cmake
#
# Only rejected forms run here. Each sits beside flags that would make
# the tool do cheap single-threaded work (sweep_main --repro uses no
# worker pool), so a wrongly accepted value shows as exit 0, never as a
# thread-hungry run.

foreach(var SWEEP_MAIN DUMP_STATS)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "cli_bad_numbers: pass -D${var}=...")
  endif()
endforeach()

# Each form is one argument list, `|`-separated.
set(sweep_forms
  "--jobs|x"
  "--jobs|-1"
  "--jobs|257"
  "--jobs|4294967296"
  "--fuzz|99999999999999999999"
  "--fuzz|12abc"
  "--seed|+1"
  "--seed|0x10"
  "--seeds|1,x"
  "--shrink|4294967296"
  "--timeout-ms|1.5"
  "--sample-tol|nan"
  "--sample-tol|-1"
  "--sample-spread|inf")
set(dump_forms
  "--period|x"
  "--period|-1"
  "--period|99999999999999999999")

set(failures "")
function(expect_usage tool form)
  string(REPLACE "|" ";" args "${form}")
  execute_process(COMMAND ${ARGN} ${args}
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err
                  RESULT_VARIABLE rc)
  if(NOT rc STREQUAL "2" OR NOT err MATCHES "usage:")
    list(JOIN args " " shown)
    string(APPEND failures "\n  ${tool} ${shown}: exit ${rc}, stderr [${err}]")
    set(failures "${failures}" PARENT_SCOPE)
  endif()
endfunction()

foreach(form IN LISTS sweep_forms)
  expect_usage(sweep_main "${form}" "${SWEEP_MAIN}" --repro 1 --no-cycle)
endforeach()
foreach(form IN LISTS dump_forms)
  expect_usage(dump_stats "${form}" "${DUMP_STATS}")
endforeach()

if(failures)
  message(FATAL_ERROR "cli_bad_numbers: want exit 2 and usage on stderr:"
                      "${failures}")
endif()
message(STATUS "cli_bad_numbers: all malformed numbers rejected")
