# The tools' own paths (ctest -P script): every refused flag value and
# every unservable input exits 1 with a typed "error:" on stderr instead of
# aborting on a library precondition, a corpus without width or height is
# answered under every plan, and a query prints the same answer lines
# whatever its scan's participant count. Writes its own tiny inputs.
#   cmake -DCLI=<simsub_cli> -DSERVER=<simsub_server> -DWORKDIR=<dir>
#         -P paths_test.cmake
file(REMOVE_RECURSE ${WORKDIR})
file(MAKE_DIRECTORY ${WORKDIR})

# Runs one command in WORKDIR; sets `code`, `out` and `err` in the caller.
# The timeout turns a server that starts serving instead of refusing its
# input into a failure rather than a hang.
macro(run_tool)
  execute_process(COMMAND ${ARGN} WORKING_DIRECTORY ${WORKDIR} TIMEOUT 60
                  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
endmacro()

macro(expect_success what)
  run_tool(${ARGN})
  if(NOT code STREQUAL "0")
    message(FATAL_ERROR "${what}: expected exit 0, got ${code}:\n${out}\n${err}")
  endif()
endmacro()

function(expect_refused what)
  run_tool(${ARGN})
  if(NOT code STREQUAL "1" OR NOT err MATCHES "error: ")
    message(FATAL_ERROR
            "${what}: expected exit 1 and 'error:' on stderr, got ${code}:\n"
            "${out}\n${err}")
  endif()
  string(REGEX MATCH "error: [^\n]*" first_error "${err}")
  message(STATUS "${what}: exit 1, ${first_error}")
endfunction()

# Inputs: a small corpus, a one-trajectory corpus, a header-only CSV, and
# the valid 0-trajectory snapshot that `ingest` writes from it.
expect_success("generate" ${CLI} generate --kind=porto --count=40 --seed=3
               --out=small.csv)
expect_success("generate one" ${CLI} generate --kind=porto --count=1 --seed=3
               --out=one.csv)
file(WRITE ${WORKDIR}/empty.csv "trajectory_id,x,y,t\n")
expect_success("ingest empty" ${CLI} ingest --data=empty.csv --kind=porto
               --out=empty.snap)

expect_refused("generate --count=0" ${CLI} generate --count=0 --out=x.csv)
expect_refused("train --episodes=0" ${CLI} train --data=small.csv
               --episodes=0 --out=p.txt)
expect_refused("train --skip=-1" ${CLI} train --data=small.csv --episodes=5
               --skip=-1 --out=p.txt)
expect_refused("train on a header-only CSV" ${CLI} train --data=empty.csv
               --episodes=5 --out=p.txt)
expect_refused("query --batch --batch_size=-1" ${CLI} query --data=small.csv
               --batch --batch_size=-1)
expect_refused("query --batch over one trajectory" ${CLI} query --data=one.csv
               --batch)
expect_refused("query --topk=0" ${CLI} query --data=small.csv --query_id=5
               --topk=0)
expect_refused("query --threads=0" ${CLI} query --data=small.csv --query_id=5
               --threads=0)
# Pool widths above util::ThreadPool::kMaxThreads (256). Only ever run one
# above the ceiling: a build without the check would start that many threads.
expect_refused("query --threads=257" ${CLI} query --data=small.csv
               --query_id=5 --threads=257)
expect_refused("server --threads=257" ${SERVER} --data=small.csv --port=0
               --threads=257)
expect_refused("server --max_connections=257" ${SERVER} --data=small.csv
               --port=0 --max_connections=257)
expect_refused("query --index (removed)" ${CLI} query --data=small.csv
               --query_id=5 --index=false)
expect_refused("server --max_connections=0" ${SERVER} --data=small.csv
               --port=0 --max_connections=0)
expect_refused("server over a header-only CSV" ${SERVER} --data=empty.csv
               --port=0)
expect_refused("server over a 0-trajectory snapshot" ${SERVER}
               --snapshot=empty.snap --port=0)

# Corpora with no width, no height or neither: the grid gives such an axis
# one cell, and every plan answers with the query trajectory first.
file(WRITE ${WORKDIR}/point.csv "trajectory_id,x,y,t\n0,5,5,0\n")
file(WRITE ${WORKDIR}/vertical.csv
     "trajectory_id,x,y,t\n0,2,0,0\n0,2,1,1\n1,2,5,0\n1,2,6,1\n")
file(WRITE ${WORKDIR}/horizontal.csv
     "trajectory_id,x,y,t\n0,0,7,0\n0,1,7,1\n1,5,7,0\n1,6,7,1\n")
foreach(corpus point vertical horizontal)
  foreach(plan auto none rtree grid)
    expect_success("query ${corpus}.csv --plan=${plan}" ${CLI} query
                   --data=${corpus}.csv --query_id=0 --topk=5 --plan=${plan})
    string(REGEX MATCH "  trajectory[^\n]*" first "${out}")
    string(REGEX MATCHALL "  trajectory[^\n]*" answer "${out}")
    list(LENGTH answer lines)
    if(NOT first MATCHES "trajectory +0 .*distance 0\\.000$" OR
       (corpus STREQUAL "point" AND NOT lines EQUAL 1))
      message(FATAL_ERROR "query ${corpus}.csv --plan=${plan}: expected "
                          "trajectory 0 at distance 0 first:\n${out}")
    endif()
  endforeach()
  message(STATUS "query ${corpus}.csv: answered under every plan")
endforeach()

# The answer does not depend on how many workers take part in the scan.
foreach(algo exacts topk-sub)
  foreach(threads 1 3)
    expect_success("query --algo=${algo} --threads=${threads}" ${CLI} query
                   --data=small.csv --query_id=5 --topk=5 --plan=none
                   --algo=${algo} --threads=${threads})
    string(REGEX MATCHALL "  trajectory[^\n]*" answer_${threads} "${out}")
  endforeach()
  if(NOT answer_1 OR NOT answer_1 STREQUAL answer_3)
    message(FATAL_ERROR "query --algo=${algo}: --threads=1 and --threads=3 "
                        "differ or print nothing:\n${answer_1}\n${answer_3}")
  endif()
  message(STATUS "query --algo=${algo}: --threads=1 and 3 print the same "
                 "answer lines")
endforeach()
