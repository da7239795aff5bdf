# CTest script (tools/CMakeLists.txt): soak_driver given a fault program the
# link cannot run must reject it with exit code 2 and a "fault schedule:"
# message, not abort in the link's constructor. The programs: a NaN loss
# probability, and a phase that starts at or after --fault-period.

foreach(args "--fault-schedule;0:nan:-1"
             "--fault-schedule;0:0:-1,200:0.1:-1;--fault-period;100")
  execute_process(
    COMMAND "${SOAK}" ${args} --steps 10 --quiet
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "${SOAK} ${args}: expected exit code 2, got ${rc}")
  endif()
  if(NOT err MATCHES "fault schedule:")
    message(FATAL_ERROR
      "${SOAK} ${args}: no \"fault schedule:\" message in: ${err}")
  endif()
endforeach()
