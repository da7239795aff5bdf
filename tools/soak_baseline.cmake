# CTest driver for the daemon result baseline (see tools/CMakeLists): rerun
# the overloaded 6-channel soak and require its rtsmooth-soak-v1 snapshot to
# equal bench/baselines/SOAK_overload.json byte for byte. The run covers
# reconfiguration drains, every degradation rung including the value floor,
# and eight watchdog incidents; the snapshot holds no wall-clock field, so
# any difference is a behaviour change. It passes a cycling fault program,
# but the program reads engine-local time, which every 500-step
# reconfiguration restarts, so its impaired phases (from step 2000) never
# act: the run erases, NACKs and caps nothing.
#
# With -DUPDATE=ON the snapshot is written to BASELINE instead of compared
# (tools/regen_bench_baselines.sh does this).

set(soak_args
  --steps 20000 --channels 6 --rate 256 --delay 4 --reconfig-every 500
  --fault-schedule "0:0:-1,2000:0.25:-1,3500:0:128,5000:0:-1"
  --fault-period 6000 --slo-window 512 --slo-cooldown 2048
  --series-every 1000 --quiet)

if(UPDATE)
  set(out "${BASELINE}")
else()
  set(out "${WORK_DIR}/SOAK_overload.json")
endif()

execute_process(
  COMMAND "${SOAK}" ${soak_args} --snapshot "${out}"
  RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "soak_driver failed (${rc})")
endif()
if(UPDATE)
  return()
endif()

execute_process(
  COMMAND "${CMAKE_COMMAND}" -E compare_files "${BASELINE}" "${out}"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
    "the soak snapshot ${out} differs from the committed baseline "
    "${BASELINE}; if the change is intended, rerun "
    "tools/regen_bench_baselines.sh and review the diff")
endif()
