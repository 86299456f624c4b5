# Run one binary on a bad or --help command line, in an empty
# directory, and check its exit status and that it created nothing.
#
#   cmake -DBIN=<binary> -DARGS=<comma-separated args> -DEXPECT=<status>
#         -DWORKDIR=<scratch dir> [-DOUTPUT=<regex stdout must match>]
#         [-DEMPTY_OUTPUT=ON (stdout must be empty)] -P check_cli.cmake

file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")
string(REPLACE "," ";" args "${ARGS}")
execute_process(COMMAND "${BIN}" ${args}
                WORKING_DIRECTORY "${WORKDIR}"
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT status STREQUAL "${EXPECT}")
    message(FATAL_ERROR "${BIN} ${ARGS}: exit status ${status}, "
                        "expected ${EXPECT}\n${out}${err}")
endif()
if(DEFINED OUTPUT AND NOT out MATCHES "${OUTPUT}")
    message(FATAL_ERROR "${BIN} ${ARGS}: stdout lacks '${OUTPUT}'\n${out}")
endif()
if(EMPTY_OUTPUT AND NOT out STREQUAL "")
    message(FATAL_ERROR "${BIN} ${ARGS}: printed to stdout\n${out}")
endif()
file(GLOB created LIST_DIRECTORIES true "${WORKDIR}/*" "${WORKDIR}/.*")
if(created)
    message(FATAL_ERROR "${BIN} ${ARGS}: created ${created}")
endif()
file(REMOVE_RECURSE "${WORKDIR}")
