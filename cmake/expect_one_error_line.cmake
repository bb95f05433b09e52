# Write SPEC_TEXT to SPEC, run PROGRAM on it, and require a non-zero
# exit with exactly one line on stderr matching EXPECT. Pins that a
# user error is reported once, not once per layer that sees it.
# Variables PROGRAM, SPEC, SPEC_TEXT and EXPECT arrive via -D.

file(WRITE ${SPEC} "${SPEC_TEXT}\n")
execute_process(
    COMMAND ${PROGRAM} ${SPEC}
    RESULT_VARIABLE RC
    OUTPUT_QUIET
    ERROR_VARIABLE ERR)

if(NOT RC MATCHES "^[1-9][0-9]*$")
    message(FATAL_ERROR "expected a non-zero exit code, got '${RC}'")
endif()
string(REGEX MATCHALL "\n" NEWLINES "${ERR}")
list(LENGTH NEWLINES LINES)
if(NOT LINES EQUAL 1 OR NOT ERR MATCHES "${EXPECT}")
    message(FATAL_ERROR
        "expected one stderr line matching '${EXPECT}', got:\n${ERR}")
endif()
