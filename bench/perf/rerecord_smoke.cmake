# ctest bench_perf_rerecord: --record-answers replaces an entry whose
# answers changed. Copies the answers file with one checksum of the smoke
# entry made stale, re-records that entry into the copy, then checks that a
# plain run passes against the copy.
#
#   cmake -DBENCH_PERF=<bench_perf> -DANSWERS=<expected_answers.json>
#         -DWORK=<dir> -P rerecord_smoke.cmake
set(key "sf=0.01 seed=19921201 threads=4")
file(READ "${ANSWERS}" text)
string(REGEX REPLACE "(\"${key}\": {\"q1\":\")[0-9a-f]+" "\\10000000000000000"
       stale "${text}")
if(stale STREQUAL text)
  message(FATAL_ERROR "no q1 checksum for ${key} in ${ANSWERS}")
endif()
set(copy "${WORK}/rerecord_answers.json")
file(WRITE "${copy}" "${stale}")

foreach(mode record check)
  set(extra)
  if(mode STREQUAL "record")
    set(extra --record-answers)
  endif()
  execute_process(
    COMMAND "${BENCH_PERF}" --workload cached_sf005_t4 --sf 0.01 --seconds 0
            --laps 2 --answers "${copy}" ${extra}
    OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0 OR NOT out MATCHES "\"correct\": true")
    message(FATAL_ERROR "${mode} run failed (exit ${rc}):\n${out}\n${err}")
  endif()
  if(mode STREQUAL "check" AND out MATCHES "answers=first-lap")
    message(FATAL_ERROR "check run found no entry for ${key}:\n${out}")
  endif()
endforeach()

file(READ "${copy}" recorded)
if(recorded MATCHES "0000000000000000")
  message(FATAL_ERROR "the stale checksum survived re-recording:\n${recorded}")
endif()
