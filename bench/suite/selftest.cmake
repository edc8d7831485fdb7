# simsub_bench self-test (ctest -P script): every workload must pass in
# smoke mode, and a run whose reference answer is deliberately corrupted
# must exit non-zero.
#   cmake -DBENCH=<simsub_bench> -DWORKDIR=<dir> -P selftest.cmake
foreach(workload serve_steady serve_peak batch_exact pairs_rl)
  execute_process(
    COMMAND ${BENCH} --workload=${workload} --seed=3 --seconds=1 --smoke
            --workdir=${WORKDIR}
    RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "${workload} smoke run failed (${code}):\n${out}\n${err}")
  endif()
  if(NOT out MATCHES "\"correct\": true")
    message(FATAL_ERROR "${workload} smoke run printed no correct result:\n${out}")
  endif()
  message(STATUS "${workload}: ok")
endforeach()

foreach(workload serve_steady batch_exact pairs_rl)
  execute_process(
    COMMAND ${BENCH} --workload=${workload} --seed=3 --seconds=1 --smoke
            --corrupt_reference --workdir=${WORKDIR}
    RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(code EQUAL 0)
    message(FATAL_ERROR "${workload}: a corrupted reference was not detected:\n${out}")
  endif()
  message(STATUS "${workload} with a corrupted reference: exit ${code}, as required")
endforeach()
