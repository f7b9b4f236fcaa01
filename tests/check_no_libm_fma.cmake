# Fails when the mt library references libm's fma/fmaf.
#
#   cmake -DNM=<nm> -DLIB=<path to libmt> -P check_no_libm_fma.cmake
#
# The SIMD kernels fuse multiply-adds in vector registers. A std::fmaf
# written outside an MT_SIMD_TARGET function compiles to a call into
# libm instead (software FMA on the baseline x86-64 target, one call per
# multiply-add), which once made a GEMM column tail more than 10x slower
# than its vector tiles without changing a single result bit.
if(NOT NM OR NOT LIB)
  message(FATAL_ERROR "usage: cmake -DNM=<nm> -DLIB=<library> -P ${CMAKE_SCRIPT_MODE_FILE}")
endif()
execute_process(COMMAND ${NM} -u ${LIB}
  OUTPUT_VARIABLE undefined RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${NM} -u ${LIB} failed (${rc})")
endif()
string(REPLACE "\n" ";" lines "${undefined}")
foreach(line IN LISTS lines)
  if(line MATCHES "(^|[ \t])(fmaf?)(@[A-Za-z0-9_.]*)?[ \t]*$")
    message(FATAL_ERROR
      "${LIB} calls libm's ${CMAKE_MATCH_2}: move the multiply-add into an "
      "MT_SIMD_TARGET function (or use simd::fma) so it compiles to an "
      "FMA instruction")
  endif()
endforeach()
message(STATUS "no libm fma/fmaf reference in ${LIB}")
