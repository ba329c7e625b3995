# Runs the benchmark driver on tiny shapes for 0.3 s per workload:
# fd_local, fanout_cs and service_mixed untraced, then fd_local and
# service_mixed traced. Traced fanout_cs stays out: its re-enactment of
# the CountSketch local phase races on pool threads (see ROADMAP.md).
# Fails on the first run that exits non-zero, i.e. a failed output check.
#
#   cmake -DSKETCHBENCH=<path> -DTMP_DIR=<dir> -P perfbench_tiny_smoke.cmake
foreach(run fd_local:0 fanout_cs:0 service_mixed:0 fd_local:1
            service_mixed:1)
  string(REPLACE ":" ";" parts "${run}")
  list(GET parts 0 workload)
  list(GET parts 1 trace)
  execute_process(
    COMMAND "${SKETCHBENCH}" --workload ${workload} --seed 1 --seconds 0.3
            --trace ${trace} --tiny --tmp "${TMP_DIR}/${workload}-${trace}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
      "sketchbench --workload ${workload} --trace ${trace} exited ${rc}\n"
      "${err}\n${out}")
  endif()
  message(STATUS "sketchbench ${workload} trace ${trace}: ok")
endforeach()
