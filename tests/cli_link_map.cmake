# The reachability guard of the library:
#
#   cmake -DAR=<ar> -DARCHIVE=<libuavf1.a> -DMAP=<map>
#         [-DISA_DEPENDENT=<member;...>] -P cli_link_map.cmake
#
# MAP is the GNU ld map of the skyline_cli link. Its "Archive member
# included" section names every archive member the link loaded.
# Fails when a member of ARCHIVE is not loaded and is not on the
# allow-list below, and when an allow-listed member is loaded or gone
# (the entry is stale). ISA_DEPENDENT names members that the build's
# instruction-set level decides on (the runtime-dispatch AVX2
# object); they are neither required nor stale. Members are compared
# by count, not by name: the archive holds two dvfs.cc.o (workload/
# and scenario/studies/) and two table1.cc.o (sim/ and
# scenario/studies/). Prints "SKIPPED:" (a ctest skip) when the map
# is missing or lacks GNU ld's section, as a gold or lld map does.

# Members no CLI path loads, each with the reason it stays.
#   dse.cc.o  skyline::DesignSpaceExplorer, reached only by
#             examples/design_space_exploration.cpp; it stays until
#             the DSE becomes a study or gives way to the sweep study.
set(allowed dse.cc.o)

set(header "Archive member included to satisfy reference by file")
if(NOT EXISTS "${MAP}")
  message("SKIPPED: no link map at ${MAP}; the linker does not "
          "write one")
  return()
endif()
file(READ "${MAP}" map)
string(FIND "${map}" "${header}" start)
if(start EQUAL -1)
  message("SKIPPED: ${MAP} has no archive-member section (not GNU "
          "ld); the library's reach was not checked")
  return()
endif()

execute_process(COMMAND "${AR}" t "${ARCHIVE}"
                OUTPUT_VARIABLE listing RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${AR} t failed on ${ARCHIVE}")
endif()
string(STRIP "${listing}" listing)
string(REPLACE "\n" ";" members "${listing}")

# The section ends at the first blank line after its entries; each
# entry starts in column 0 with "<archive>(<member>)", and the file
# that pulled it in follows on the same or the next, indented line.
string(SUBSTRING "${map}" ${start} -1 section)
string(FIND "${section}" "\n\n" body)
math(EXPR body "${body} + 2")
string(SUBSTRING "${section}" ${body} -1 section)
string(FIND "${section}" "\n\n" end)
string(SUBSTRING "${section}" 0 ${end} section)
get_filename_component(archive_name "${ARCHIVE}" NAME)
string(REPLACE "." "\\." archive_pattern "${archive_name}")
string(REPLACE "\n" ";" lines "${section}")
set(loaded "")
foreach(line IN LISTS lines)
  if(line MATCHES "^[^ \t]*${archive_pattern}\\(([^)]+)\\)")
    list(APPEND loaded "${CMAKE_MATCH_1}")
  endif()
endforeach()

set(names ${members})
list(REMOVE_DUPLICATES names)
set(unloaded "")
foreach(name IN LISTS names)
  set(in_archive ${members})
  string(REPLACE "." "\\." name_pattern "${name}")
  list(FILTER in_archive INCLUDE REGEX "^${name_pattern}$")
  set(in_map ${loaded})
  list(FILTER in_map INCLUDE REGEX "^${name_pattern}$")
  list(LENGTH in_archive archive_count)
  list(LENGTH in_map map_count)
  if(map_count LESS archive_count)
    list(APPEND unloaded "${name}")
  endif()
endforeach()

set(offenders ${unloaded})
list(REMOVE_ITEM offenders ${allowed} ${ISA_DEPENDENT})
set(stale ${allowed})
list(REMOVE_ITEM stale ${unloaded})
list(LENGTH members member_count)
list(LENGTH loaded loaded_count)
if(offenders)
  list(JOIN offenders "\n  " shown)
  message(FATAL_ERROR
          "skyline_cli does not load (every copy of) these "
          "${archive_name} members; reach them from a study or "
          "delete them, or add them to the allow-list in "
          "tests/cli_link_map.cmake with a reason:\n  ${shown}")
endif()
if(stale)
  list(JOIN stale "\n  " shown)
  message(FATAL_ERROR
          "these allow-listed members are loaded by skyline_cli or "
          "gone from ${archive_name}; remove them from the "
          "allow-list in tests/cli_link_map.cmake:\n  ${shown}")
endif()
list(JOIN allowed ", " shown)
message("ok: skyline_cli loads ${loaded_count} of ${member_count} "
        "${archive_name} members; allowed unloaded: ${shown}")
