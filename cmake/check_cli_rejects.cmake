# Gate: a config the CLI cannot map must fail the run, naming the culprit.
# Run as: cmake -DRUN_BIN=... -DCONFIG=... -DEXPECT=... -P check_cli_rejects.cmake

if(NOT RUN_BIN OR NOT CONFIG OR NOT EXPECT)
  message(FATAL_ERROR "usage: cmake -DRUN_BIN=... -DCONFIG=... -DEXPECT=... -P check_cli_rejects.cmake")
endif()

execute_process(
  COMMAND ${RUN_BIN} ${CONFIG}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "expected a non-zero exit for ${CONFIG}, got 0:\n${out}")
endif()
string(FIND "${err}" "${EXPECT}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "stderr does not name \"${EXPECT}\":\n${err}")
endif()
message(STATUS "rejected with exit ${rc}: ${err}")
