# CTest script: run PROGRAM with ARGS ('|'-separated) and require the exit
# code EXPECT. With ABSENT set, the path must not exist before the run (so
# the check is meaningful) nor after it (the program created nothing).
#
#   cmake -DPROGRAM=... -DARGS="a|b|c" -DEXPECT=2 [-DABSENT=path]
#         -P exit_code_check.cmake

foreach(var PROGRAM EXPECT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "exit_code_check: ${var} not set")
  endif()
endforeach()

if(DEFINED ABSENT AND EXISTS "${ABSENT}")
  message(FATAL_ERROR "exit_code_check: ${ABSENT} exists before the run")
endif()

string(REPLACE "|" ";" args "${ARGS}")
execute_process(COMMAND ${PROGRAM} ${args}
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL EXPECT)
  message(FATAL_ERROR
          "exit_code_check: exit code ${rc}, expected ${EXPECT}\n${err}")
endif()
if(DEFINED ABSENT AND EXISTS "${ABSENT}")
  message(FATAL_ERROR "exit_code_check: the run created ${ABSENT}")
endif()
