# The REPL's sweep command with hostile arguments:
#
#   cmake -DCLI=<skyline_cli> -P skyline_cli_repl_sweep.cmake
#
# Feeds four sweep lines and then `knobs` to `skyline_cli interactive`
# on stdin. Fails unless each sweep prints an "error:" line that names
# its argument, in order, and the session goes on to list the knobs.
# Without the checks in SkylineSession::sweep the first line ends in
# std::bad_alloc (or allocates gigabytes), the second prints a row at
# inf, the third silently sweeps the default 9 steps, and the fourth
# sweeps 9 infeasible rows at 0.

set(dir "${CMAKE_CURRENT_BINARY_DIR}/artifacts/skyline_cli_repl_sweep")
file(MAKE_DIRECTORY "${dir}")
file(WRITE "${dir}/input.txt"
     "sweep sensor_framerate 1 100 1000000000\n"
     "sweep sensor_framerate 1 1e308 3\n"
     "sweep sensor_framerate 1 100 18446744073709551615\n"
     "sweep sensor_framerate nan 100\n"
     "knobs\n")
execute_process(COMMAND "${CLI}" interactive
                INPUT_FILE "${dir}/input.txt"
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                RESULT_VARIABLE status
                TIMEOUT 60)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "skyline_cli interactive exited with '${status}':\n"
                      "${out}${err}")
endif()

set(expected
    "error: sweep 'steps' [^\n]*, got 1000000000\n"
    "error: sweep span \\('to' - 'from'\\) [^\n]*from 1 to 1e\\+308[^\n]*\n"
    "error: sweep 'steps' [^\n]*'18446744073709551615'[^\n]*\n"
    "error: sweep 'from' [^\n]*nan\n"
    "sensor_framerate, ")
string(CONCAT pattern ${expected})
if(NOT out MATCHES "${pattern}")
  message(FATAL_ERROR "expected one named error per hostile sweep, then "
                      "the knob list; got:\n${out}${err}")
endif()
message("ok: each hostile sweep failed naming its argument")
