# Fails when an FMA instruction in the mt library takes an operand from
# the stack.
#
#   cmake -DOBJDUMP=<objdump> -DLIB=<path to libmt> -DOUT=<scratch file>
#         -P check_no_stack_fma.cmake
#
# A vector kernel keeps its accumulators in registers. When a register
# tile's size is not known at compile time (a row loop bounded by a
# runtime count, say), the compiler keeps the accumulator array on the
# stack instead: every multiply-add then reads its accumulator from
# memory and stores it back, which once made an n < 16 GEMM about 3x
# slower than its register-resident form without changing a result bit.
# Stack operands are addressed through %rsp, or through %rbp in a frame
# the compiler realigns for 32-byte vectors.
#
# Only meaningful for an optimized build: at -O0 every value lives on the
# stack, and an instrumented (sanitizer) build spills freely.
if(NOT OBJDUMP OR NOT LIB OR NOT OUT)
  message(FATAL_ERROR "usage: cmake -DOBJDUMP=<objdump> -DLIB=<library> -DOUT=<file> -P ${CMAKE_SCRIPT_MODE_FILE}")
endif()
execute_process(COMMAND ${OBJDUMP} -d --no-show-raw-insn ${LIB}
  OUTPUT_FILE ${OUT} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${OBJDUMP} -d ${LIB} failed (${rc})")
endif()
file(STRINGS ${OUT} fmas REGEX "[ \t]vfn?m(add|sub)[a-z0-9]*[ \t]")
set(spilled 0)
foreach(line IN LISTS fmas)
  if(line MATCHES "%r[sb]p")
    math(EXPR spilled "${spilled} + 1")
    message(STATUS "stack operand: ${line}")
  endif()
endforeach()
list(LENGTH fmas total)
if(spilled GREATER 0)
  message(FATAL_ERROR
    "${spilled} of ${total} FMA instructions in ${LIB} take a stack "
    "operand: give the register tile a compile-time size so its "
    "accumulators stay in registers")
endif()
message(STATUS "none of ${total} FMA instructions in ${LIB} takes a stack operand")
