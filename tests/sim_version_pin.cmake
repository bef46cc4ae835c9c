# Checks that `dump_stats --all` still prints what SIM_VERSION promises.
#
# src/sim/campaign.hh pins SIM_VERSION together with the SHA-256 of the
# `dump_stats --all` stdout the model produced under that version. A
# digest change with the version left alone means simulation results
# changed without a cache-version bump, so stale campaign-cache entries
# would be served as current. Registered as the `slow` ctest
# sim_version_pin; run by hand with
#
#   cmake -DDUMP_STATS=build/dump_stats \
#         -DCAMPAIGN_HH=src/sim/campaign.hh -P tests/sim_version_pin.cmake

foreach(var DUMP_STATS CAMPAIGN_HH)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "sim_version_pin: pass -D${var}=...")
  endif()
endforeach()

file(READ "${CAMPAIGN_HH}" header)
string(REGEX MATCH "SIM_VERSION = \"([^\"]+)\"" _ "${header}")
set(version "${CMAKE_MATCH_1}")
string(REGEX MATCH "SIM_VERSION_STATS_SHA256 =[ \n]*\"([0-9a-f]+)\"" _
       "${header}")
set(pinned "${CMAKE_MATCH_1}")
if(version STREQUAL "" OR NOT pinned MATCHES "^[0-9a-f]+$")
  message(FATAL_ERROR "sim_version_pin: cannot find SIM_VERSION and "
                      "SIM_VERSION_STATS_SHA256 in ${CAMPAIGN_HH}")
endif()

execute_process(COMMAND "${DUMP_STATS}" --all
                OUTPUT_VARIABLE stats
                ERROR_VARIABLE stats_err
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "sim_version_pin: dump_stats --all failed (${rc}):\n"
                      "${stats_err}")
endif()
string(SHA256 digest "${stats}")

if(NOT digest STREQUAL pinned)
  message(FATAL_ERROR
    "sim_version_pin: dump_stats --all output changed under "
    "SIM_VERSION ${version}: its SHA-256 is ${digest}, the pin says "
    "${pinned}. If the change is deliberate, bump SIM_VERSION in "
    "src/sim/campaign.hh and set SIM_VERSION_STATS_SHA256 to the new "
    "digest in the same change; otherwise the simulator's results "
    "drifted.")
endif()
message(STATUS "sim_version_pin: ${version} ${digest}")
