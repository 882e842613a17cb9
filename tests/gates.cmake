# Byte gates and end-to-end replays run by ctest (label `gate`), as
#   cmake -DGATE=<name> -DBIN=<build dir> -DSRC=<source dir> -DWORK=<dir>
#         -P tests/gates.cmake
#
#   paper_artifacts      every registered paper artifact re-derives its
#                        committed report under examples/paper byte for
#                        byte; a missing report fails, and the registry
#                        keeps at least 10 artifacts.
#   serve_hostile_input  dring_serve --oneshot answers each hostile request
#                        line with "ok":false and exits 0, never a signal;
#                        compare opens nothing outside the served store's
#                        directory and no reply quotes a file's bytes.
#   stable_test_ids      two listings of dring_tests are identical, so every
#                        ctest id is a pure function of the test source.
#   campaign_thread_invariance
#                        the smoke campaign store is byte-identical at 1 and
#                        2 threads.
#   campaign_resume_noop a --resume over a complete smoke store executes
#                        nothing (", 0 executed,") and --diff finds it equal
#                        to the serial store.
#   campaign_shard_merge the 2-shard smoke stores merge to the
#                        single-process store byte for byte.
#   campaign_smoke_report
#                        dring_report over the two shard stores re-derives
#                        examples/campaign_smoke_report.md byte for byte.
#   frontier_report      the frontier campaign re-derives
#                        examples/frontier_tn_report.md byte for byte.
#   feasibility_map_usage
#                        feasibility_map --sizes=abc is a usage error: exit
#                        2 and a message naming the bad token.

function(run_checked)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc STREQUAL "0")
    message(FATAL_ERROR "`${ARGN}` exited with ${rc}\n${out}\n${err}")
  endif()
  set(out "${out}" PARENT_SCOPE)
endfunction()

# Fail unless the two files hold the same bytes (the `diff` of a shell gate).
function(expect_same_file actual expected)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                          "${actual}" "${expected}"
                  RESULT_VARIABLE rc)
  if(NOT rc STREQUAL "0")
    message(FATAL_ERROR "${actual} differs from ${expected}")
  endif()
endfunction()

# dring_campaign over the committed smoke spec into `store`, extra flags
# appended; its stdout lands in `out`.
function(smoke_campaign store)
  run_checked("${BIN}/dring_campaign" --spec "${SRC}/examples/campaign_smoke.json"
              --out "${store}" ${ARGN})
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
  # A file beside the served store that is not a store: compare must name
  # it, never quote it.
  file(WRITE "${WORK}/not_a_store.txt" "secret-first-line\n")
  # The deep line stays out of the list: an unbalanced `[` would swallow
  # every later list element into one.
  set(requests
      "{\"op\":\"point\",\"fp\":\"0xzz\"}"
      "{\"op\":\"point\",\"fp\":\"-1\"}"
      "{\"op\":\"point\",\"fp\":\"\"}"
      "{\"op\":\"point\",\"fp\":\"0x12 \"}"
      "{\"op\":\"compare\",\"store\":\"/etc/hostname\"}"
      "{\"op\":\"compare\",\"store\":\"${WORK}/not_a_store.txt\"}")
  list(LENGTH requests expected)
  math(EXPR expected "${expected} + 1")
  list(JOIN requests "\n" text)
  file(WRITE "${WORK}/hostile_requests.txt" "${deep}\n${text}\n")
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
  string(FIND "${out}" "result store line" quoted_line)
  string(FIND "${out}" "secret-first-line" quoted_bytes)
  if(NOT quoted_line EQUAL -1 OR NOT quoted_bytes EQUAL -1)
    message(FATAL_ERROR "a reply quotes a file's bytes:\n${out}")
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

elseif(GATE STREQUAL "campaign_thread_invariance")
  smoke_campaign("${WORK}/smoke.jsonl" --threads 2)
  smoke_campaign("${WORK}/smoke_serial.jsonl" --threads 1)
  expect_same_file("${WORK}/smoke.jsonl" "${WORK}/smoke_serial.jsonl")

elseif(GATE STREQUAL "campaign_resume_noop")
  smoke_campaign("${WORK}/smoke.jsonl" --threads 2)
  smoke_campaign("${WORK}/smoke_serial.jsonl" --threads 1)
  smoke_campaign("${WORK}/smoke.jsonl" --threads 2 --resume)
  string(FIND "${out}" ", 0 executed," at)
  if(at EQUAL -1)
    message(FATAL_ERROR "resume over a complete store executed cells:\n${out}")
  endif()
  run_checked("${BIN}/dring_campaign" --diff "${WORK}/smoke.jsonl"
              "${WORK}/smoke_serial.jsonl")

elseif(GATE STREQUAL "campaign_shard_merge")
  smoke_campaign("${WORK}/smoke.jsonl" --threads 2)
  smoke_campaign("${WORK}/shard0.jsonl" --threads 2 --shard 0/2)
  smoke_campaign("${WORK}/shard1.jsonl" --threads 2 --shard 1/2)
  run_checked("${BIN}/dring_campaign" --merge "${WORK}/shard0.jsonl"
              "${WORK}/shard1.jsonl" --out "${WORK}/merged.jsonl")
  expect_same_file("${WORK}/merged.jsonl" "${WORK}/smoke.jsonl")

elseif(GATE STREQUAL "campaign_smoke_report")
  smoke_campaign("${WORK}/shard0.jsonl" --threads 2 --shard 0/2)
  smoke_campaign("${WORK}/shard1.jsonl" --threads 2 --shard 1/2)
  run_checked("${BIN}/dring_report" --store "${WORK}/shard0.jsonl"
              --store "${WORK}/shard1.jsonl" --group-by algorithm,n
              --metric explored_round --format md)
  file(WRITE "${WORK}/campaign_smoke_report.md" "${out}")
  expect_same_file("${WORK}/campaign_smoke_report.md"
                   "${SRC}/examples/campaign_smoke_report.md")

elseif(GATE STREQUAL "frontier_report")
  run_checked("${BIN}/dring_campaign" --spec "${SRC}/examples/frontier_tn.json"
              --threads 2 --out "${WORK}/frontier_tn.jsonl")
  run_checked("${BIN}/dring_report" --store "${WORK}/frontier_tn.jsonl"
              --group-by t_interval --frontier n --format md)
  file(WRITE "${WORK}/frontier_tn_report.md" "${out}")
  expect_same_file("${WORK}/frontier_tn_report.md"
                   "${SRC}/examples/frontier_tn_report.md")

elseif(GATE STREQUAL "feasibility_map_usage")
  execute_process(COMMAND "${BIN}/feasibility_map" --sizes=abc
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  string(FIND "${err}" "'abc'" named)
  if(NOT rc STREQUAL "2" OR named EQUAL -1)
    message(FATAL_ERROR "feasibility_map --sizes=abc: want exit 2 naming "
                        "'abc', got ${rc}\n${err}")
  endif()

else()
  message(FATAL_ERROR "unknown gate '${GATE}'")
endif()
