# Bad-input regression for experiment_runner: each configuration below is
# rejected by the library, and the runner must report it as a clean exit
# status 2 with a message, never by dying in std::terminate.
#
#   cmake -DRUNNER=<path to experiment_runner> -P runner_bad_input.cmake

# One case per entry, its arguments separated by commas.
set(cases
  "--app,chol,--plane,functional,--p,1"
  "--app,mm,--plane,functional,--n,64,--b,16,--p,4,--bf,200"
  "--app,chol,--plane,functional,--n,100,--b,33")

foreach(args IN LISTS cases)
  string(REPLACE "," " " shown "${args}")
  string(REPLACE "," ";" argv "${args}")
  execute_process(COMMAND ${RUNNER} ${argv}
                  RESULT_VARIABLE status
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT status EQUAL 2)
    message(FATAL_ERROR "experiment_runner ${shown}: exit status ${status}, "
                        "expected 2\n${out}${err}")
  endif()
  if("${out}${err}" MATCHES "terminate")
    message(FATAL_ERROR "experiment_runner ${shown}: died in terminate\n${err}")
  endif()
  if(NOT err MATCHES "^experiment_runner: ")
    message(FATAL_ERROR "experiment_runner ${shown}: no error message\n${err}")
  endif()
endforeach()
