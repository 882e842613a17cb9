# Byte gates and end-to-end replays run by ctest (label `gate`), as
#   cmake -DGATE=<name> -DBIN=<build dir> -DSRC=<source dir> -DWORK=<dir>
#         -P tests/gates.cmake
#
#   paper_artifacts      every registered paper artifact re-derives its
#                        committed report under examples/paper byte for
#                        byte; a missing report fails, and the registry
#                        keeps at least 10 artifacts.
#   serve_hostile_input  dring_serve --oneshot answers each hostile request
#                        line with "ok":false and exits 0, never a signal.
#   stable_test_ids      two listings of dring_tests are identical, so every
#                        ctest id is a pure function of the test source.

function(run_checked)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc STREQUAL "0")
    message(FATAL_ERROR "`${ARGN}` exited with ${rc}\n${out}\n${err}")
  endif()
  set(out "${out}" PARENT_SCOPE)
endfunction()

file(MAKE_DIRECTORY "${WORK}")

if(GATE STREQUAL "paper_artifacts")
  run_checked("${BIN}/dring_artifact" --names)
  string(REGEX MATCHALL "[^\n]+" names "${out}")
  list(LENGTH names count)
  if(count LESS 10)
    message(FATAL_ERROR "registry has ${count} artifacts, expected >= 10")
  endif()
  run_checked("${BIN}/dring_artifact" --check --dir "${SRC}/examples/paper")
  message("${out}")

elseif(GATE STREQUAL "serve_hostile_input")
  string(REPEAT "[" 200000 deep)
  set(requests
      "${deep}"
      "{\"op\":\"point\",\"fp\":\"0xzz\"}"
      "{\"op\":\"point\",\"fp\":\"-1\"}"
      "{\"op\":\"point\",\"fp\":\"\"}"
      "{\"op\":\"point\",\"fp\":\"0x12 \"}")
  list(LENGTH requests expected)
  list(JOIN requests "\n" text)
  file(WRITE "${WORK}/hostile_requests.txt" "${text}\n")
  file(WRITE "${WORK}/empty_store.jsonl" "")
  execute_process(
    COMMAND "${BIN}/dring_serve" --oneshot --quiet
            --store "${WORK}/empty_store.jsonl"
    INPUT_FILE "${WORK}/hostile_requests.txt"
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc STREQUAL "0")
    message(FATAL_ERROR "dring_serve exited with ${rc}\n${err}")
  endif()
  string(REGEX MATCHALL "[^\n]+" replies "${out}")
  list(LENGTH replies got)
  string(REGEX MATCHALL "\"ok\":false" refused "${out}")
  list(LENGTH refused refused_count)
  if(NOT got EQUAL expected OR NOT refused_count EQUAL expected)
    message(FATAL_ERROR "expected ${expected} \"ok\":false replies, got "
                        "${got} replies:\n${out}")
  endif()

elseif(GATE STREQUAL "stable_test_ids")
  run_checked("${BIN}/dring_tests" --gtest_list_tests)
  set(first "${out}")
  run_checked("${BIN}/dring_tests" --gtest_list_tests)
  if(NOT first STREQUAL out)
    file(WRITE "${WORK}/list_a.txt" "${first}")
    file(WRITE "${WORK}/list_b.txt" "${out}")
    message(FATAL_ERROR "test listings differ: compare ${WORK}/list_a.txt "
                        "and ${WORK}/list_b.txt")
  endif()

else()
  message(FATAL_ERROR "unknown gate '${GATE}'")
endif()
