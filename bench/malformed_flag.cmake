# CTest script (bench/CMakeLists.txt): a bench given a malformed number must
# reject it with exit code 2 and a "not a valid integer" message
# (bench_common.h), not abort on an uncaught std::stoul exception or
# silently parse a prefix.

foreach(args "--threads;abc" "--frames;12abc")
  execute_process(
    COMMAND "${BENCH}" ${args}
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "${BENCH} ${args}: expected exit code 2, got ${rc}")
  endif()
  if(NOT err MATCHES "not a valid integer")
    message(FATAL_ERROR
      "${BENCH} ${args}: no \"not a valid integer\" message in: ${err}")
  endif()
endforeach()
