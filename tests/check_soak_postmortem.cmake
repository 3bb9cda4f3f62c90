# Runs chaos_soak with an arq floor no run can meet (1.01), so its one arq
# cell violates that invariant whatever arq delivers, and checks the
# postmortem dump that cell leaves in a fresh directory:
#   - exactly one file, named after the seed, the mode, the reliability
#     profile and the violated invariant (the tail no longer holds the
#     run's run.start, so the name is what says which run it is);
#   - at most 256 lines, each one JSON object with "event" and "t", as
#     `run_experiment --trace-out` writes them;
#   - the last line is the failing ttmqo run's run.end.
#
# Usage: cmake -DSOAK=<chaos_soak binary> -DDIR=<scratch dir>
#              -P check_soak_postmortem.cmake
file(REMOVE_RECURSE "${DIR}")
execute_process(
  COMMAND "${SOAK}" --runs=1 --seed=1 --arq-floor=1.01
          "--postmortem-dir=${DIR}"
  RESULT_VARIABLE rc
  OUTPUT_QUIET
  ERROR_VARIABLE err)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "chaos_soak exited with ${rc}, expected 1:\n${err}")
endif()

file(GLOB dumps "${DIR}/*")
list(LENGTH dumps count)
if(NOT count EQUAL 1)
  message(FATAL_ERROR "expected one dump in ${DIR}, found ${count}: ${dumps}")
endif()
get_filename_component(name "${dumps}" NAME)
set(expected "seed1_ttmqo_arq_arq_average_completeness_below_the_arq_floor.jsonl")
if(NOT name STREQUAL expected)
  message(FATAL_ERROR "dump is named '${name}', expected '${expected}'")
endif()

# Walk the lines by hand: a trace line may hold ';' or '[', which CMake's
# list splitting would mangle.
file(READ "${dumps}" rest)
set(lines 0)
set(last "")
while(NOT rest STREQUAL "")
  string(FIND "${rest}" "\n" newline)
  if(newline EQUAL -1)
    message(FATAL_ERROR "line ${lines} of ${name} has no newline")
  endif()
  string(SUBSTRING "${rest}" 0 ${newline} line)
  math(EXPR newline "${newline} + 1")
  string(SUBSTRING "${rest}" ${newline} -1 rest)
  math(EXPR lines "${lines} + 1")
  string(JSON type ERROR_VARIABLE json_error TYPE "${line}")
  if(json_error OR NOT type STREQUAL "OBJECT")
    message(FATAL_ERROR "line ${lines} is not a JSON object: ${line}")
  endif()
  foreach(key event t)
    string(JSON value ERROR_VARIABLE json_error GET "${line}" ${key})
    if(json_error)
      message(FATAL_ERROR "line ${lines} has no \"${key}\": ${line}")
    endif()
  endforeach()
  set(last "${line}")
endwhile()

if(lines LESS 2 OR lines GREATER 256)
  message(FATAL_ERROR "${name} holds ${lines} lines, expected 2 to 256")
endif()
string(JSON event GET "${last}" event)
string(JSON mode ERROR_VARIABLE json_error GET "${last}" mode)
if(NOT event STREQUAL "run.end" OR NOT mode STREQUAL "ttmqo")
  message(FATAL_ERROR "the last line is not the ttmqo run's run.end: ${last}")
endif()
message(STATUS "${name}: ${lines} trace lines ending in run.end")
