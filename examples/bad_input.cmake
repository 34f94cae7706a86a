# Bad-input regression for the example programs: every case must be reported
# as a clean exit status 2 with a "<program>: " message on stderr, never by
# dying in std::terminate, and before anything is written to stdout (flags
# are read right after parsing, so bad input is rejected before any work).
#
#   cmake -DPROGRAM=<path to an example> -DEMPTY_FLAG=<one of its int flags>
#         [-DCASES=<more cases>] -P bad_input.cmake
#
# Every program gets an unknown flag and an empty value for EMPTY_FLAG. Cases
# are separated by '|', the arguments of one case by ','.

get_filename_component(name "${PROGRAM}" NAME)
set(cases "--bogus,1|--${EMPTY_FLAG}=")
if(CASES)
  string(APPEND cases "|${CASES}")
endif()
string(REPLACE "|" ";" cases "${cases}")

foreach(args IN LISTS cases)
  string(REPLACE "," " " shown "${args}")
  string(REPLACE "," ";" argv "${args}")
  execute_process(COMMAND ${PROGRAM} ${argv}
                  RESULT_VARIABLE status
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT status EQUAL 2)
    message(FATAL_ERROR "${name} ${shown}: exit status ${status}, "
                        "expected 2\n${out}${err}")
  endif()
  if("${out}${err}" MATCHES "terminate")
    message(FATAL_ERROR "${name} ${shown}: died in terminate\n${err}")
  endif()
  if(NOT out STREQUAL "")
    message(FATAL_ERROR "${name} ${shown}: wrote to stdout before failing\n"
                        "${out}")
  endif()
  if(NOT err MATCHES "^${name}: ")
    message(FATAL_ERROR "${name} ${shown}: no error message\n${err}")
  endif()
endforeach()
