# Runs one paper-output binary and compares its stdout with the
# committed golden file.  On a mismatch the test fails with a unified
# diff, so the log shows which numbers moved.
#
#   cmake -DBINARY=<exe> -DGOLDEN=<file> -DOUTPUT=<file> \
#         -P check_golden.cmake
#
# An intended change to paper output updates the golden file and
# EXPERIMENTS.md in the same change.

execute_process(COMMAND ${BINARY} OUTPUT_FILE ${OUTPUT}
                RESULT_VARIABLE status)
if (NOT status EQUAL 0)
    message(FATAL_ERROR "${BINARY} failed: ${status}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                        ${GOLDEN} ${OUTPUT}
                RESULT_VARIABLE differs)
if (differs)
    execute_process(COMMAND diff -u ${GOLDEN} ${OUTPUT}
                    OUTPUT_VARIABLE delta)
    # Indented lines reach the log verbatim; message() reflows the
    # rest, which would collapse the tables' column alignment.
    string(REPLACE "\n" "\n  " delta "  ${delta}")
    message(FATAL_ERROR "stdout differs from ${GOLDEN}:\n${delta}")
endif()
