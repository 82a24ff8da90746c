# The one-definition-rule guard of the AVX2 object library:
#
#   cmake -DNM=<nm> -DOBJECTS=<object;...> -P avx2_symbols.cmake
#
# Fails when an object defines a global or weak symbol other than the
# entry point uavf1::sim::boxMullerAvx2 or a name inside the
# uavf1::simd::avx2 namespace. Any other inline or template function
# emitted there is AVX-encoded under a name the baseline build
# shares, so the linker may keep it for SSE2 callers. Prints
# "SKIPPED:" (a ctest skip) when nm is missing.

if(NOT NM OR NOT EXISTS "${NM}")
  message("SKIPPED: nm not found; the AVX2 object was not checked")
  return()
endif()

set(entry "^_ZN5uavf13sim13boxMullerAvx2E")
# Nested names, members with cv- or ref-qualifiers (K, V, r, R, O)
# included.
set(isa_namespace "^_ZN[KVrRO]*5uavf14simd4avx2")
# The address of the C++ personality routine: a data word that any
# TU with unwind tables may emit (-O0, TSan), the same in every TU.
set(personality "^DW\\.ref\\.__gxx_personality_v0$")
set(found_entry FALSE)
set(offenders "")
foreach(object IN LISTS OBJECTS)
  execute_process(COMMAND "${NM}" --defined-only "${object}"
                  OUTPUT_VARIABLE listing RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "nm failed on ${object}")
  endif()
  string(REPLACE "\n" ";" lines "${listing}")
  foreach(line IN LISTS lines)
    # "<value> <type> <name>"; upper-case types and u, v, w, i are
    # global or weak, the other lower-case ones local.
    if(NOT line MATCHES "^[0-9a-fA-F]* *([A-Za-z]) (.+)$")
      continue()
    endif()
    set(type "${CMAKE_MATCH_1}")
    set(name "${CMAKE_MATCH_2}")
    if(NOT type MATCHES "^[A-Zuvwi]$")
      continue()
    endif()
    if(name MATCHES "${entry}")
      set(found_entry TRUE)
    elseif(NOT name MATCHES "${isa_namespace}" AND
           NOT name MATCHES "${personality}")
      list(APPEND offenders "${type} ${name}")
    endif()
  endforeach()
endforeach()

if(offenders)
  list(JOIN offenders "\n  " shown)
  message(FATAL_ERROR
          "the AVX2 object defines symbols outside uavf1::simd::avx2 "
          "(see src/sim/normals_avx2.cc):\n  ${shown}")
endif()
if(NOT found_entry)
  message(FATAL_ERROR "the AVX2 object does not define "
                      "uavf1::sim::boxMullerAvx2")
endif()
message("ok: only uavf1::sim::boxMullerAvx2 and uavf1::simd::avx2 names")
