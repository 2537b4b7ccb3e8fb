# Stdout gate: run one binary and require its stdout to match a
# committed file byte for byte.
#
#   cmake -DBIN=<exe> [-DARGS=<arg;...>] -DEXPECTED=<file>
#         -DACTUAL=<file> -P check_stdout.cmake
#
# Fails when the binary exits non-zero or prints anything else. The
# fresh stdout is then left in ACTUAL and diffed against EXPECTED.
# Re-record a file only when a change is meant to move the output.

execute_process(COMMAND ${BIN} ${ARGS}
                OUTPUT_VARIABLE actual
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} ${ARGS} exited with ${rc}")
endif()

file(READ ${EXPECTED} expected)
if(NOT actual STREQUAL expected)
  file(WRITE ${ACTUAL} "${actual}")
  execute_process(COMMAND diff -u ${EXPECTED} ${ACTUAL})
  message(FATAL_ERROR "stdout of ${BIN} ${ARGS} differs from ${EXPECTED}")
endif()
