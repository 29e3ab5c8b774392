# CLI test for the tracing tools, run via `cmake -P` with:
#   -DDLAJA_RUN_BIN=<path to dlaja_run> -DDLAJA_TRACE_BIN=<path to dlaja_trace>
#   -DWORK_DIR=<scratch directory> -DSOURCE_DIR=<repository root>
#
# Covers: dlaja_run --trace emits a non-empty Chrome trace, dlaja_trace
# profile prints the per-component self-time table (from both a trace JSON
# and a workload replay), dlaja_trace info reports n/a instead of the
# numeric scan sentinels on a trace without resource-bearing jobs,
# dlaja_run's timeline and telemetry describe the last reported iteration,
# dlaja_trace replay seeds its scheduler with --seed and rejects a
# scheduler spec its fleet cannot run, and a trace whose buffer overflowed
# says so at every surface.

foreach(var DLAJA_RUN_BIN DLAJA_TRACE_BIN WORK_DIR SOURCE_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "${var} must be passed with -D${var}=...")
  endif()
endforeach()

file(MAKE_DIRECTORY "${WORK_DIR}")

function(run_checked out_var)
  execute_process(
    COMMAND ${ARGN}
    WORKING_DIRECTORY "${WORK_DIR}"
    OUTPUT_VARIABLE stdout
    ERROR_VARIABLE stderr
    RESULT_VARIABLE code)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "command failed (${code}): ${ARGN}\n${stdout}\n${stderr}")
  endif()
  set(${out_var} "${stdout}" PARENT_SCOPE)
  set(${out_var}_stderr "${stderr}" PARENT_SCOPE)
endfunction()

# Runs a command that must fail; its stderr goes to `err_var`.
function(run_failing err_var)
  execute_process(
    COMMAND ${ARGN}
    WORKING_DIRECTORY "${WORK_DIR}"
    OUTPUT_VARIABLE stdout
    ERROR_VARIABLE stderr
    RESULT_VARIABLE code)
  if(code EQUAL 0)
    message(FATAL_ERROR "command should have failed: ${ARGN}\n${stdout}")
  endif()
  set(${err_var} "${stderr}" PARENT_SCOPE)
endfunction()

# A decimal CSV field as integer microseconds (digits past the sixth
# decimal are dropped); math(EXPR) has integers only.
function(to_us out_var text)
  if(NOT text MATCHES "^([0-9]+)(\\.([0-9]*))?$")
    message(FATAL_ERROR "not a non-negative decimal: '${text}'")
  endif()
  set(whole "${CMAKE_MATCH_1}")
  string(SUBSTRING "${CMAKE_MATCH_3}000000" 0 6 frac)
  string(REGEX REPLACE "^0+([0-9])" "\\1" frac "${frac}")
  math(EXPR us "${whole} * 1000000 + ${frac}")
  set(${out_var} "${us}" PARENT_SCOPE)
endfunction()

# Field `column` (0-based) of row `row` of a CSV file; a negative `row`
# counts from the end (-1 = last row).
function(csv_field out_var path row column)
  file(STRINGS "${path}" lines)
  list(GET lines ${row} line)
  string(REPLACE "," ";" fields "${line}")
  list(GET fields ${column} value)
  set(${out_var} "${value}" PARENT_SCOPE)
endfunction()

function(expect_contains text needle what)
  string(FIND "${text}" "${needle}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "${what}: expected to find '${needle}' in:\n${text}")
  endif()
endfunction()

# 1. A traced run writes a Chrome trace with events from several components.
set(trace_json "${WORK_DIR}/run.trace.json")
run_checked(out "${DLAJA_RUN_BIN}" --scheduler bidding --jobs 30 --iters 1
            --trace "${trace_json}")
if(NOT EXISTS "${trace_json}")
  message(FATAL_ERROR "dlaja_run --trace did not write ${trace_json}")
endif()
file(READ "${trace_json}" trace_text)
expect_contains("${trace_text}" "\"traceEvents\"" "trace JSON")
expect_contains("${trace_text}" "\"ph\":\"X\"" "trace JSON spans")
foreach(comp sim msg net sched)
  expect_contains("${trace_text}" "\"cat\":\"${comp}\"" "trace JSON ${comp} events")
endforeach()

# 2. Profiling the exported JSON prints the self-time tables.
run_checked(profile_out "${DLAJA_TRACE_BIN}" profile "${trace_json}" --top 5)
expect_contains("${profile_out}" "per-component self time" "profile (json)")
expect_contains("${profile_out}" "top spans by self time" "profile (json)")
expect_contains("${profile_out}" "sched" "profile (json) components")

# 3. Profiling a workload replay works without a pre-recorded trace.
set(workload_csv "${WORK_DIR}/workload.csv")
run_checked(out "${DLAJA_TRACE_BIN}" generate --jobs 20 --out "${workload_csv}")
run_checked(replay_out "${DLAJA_TRACE_BIN}" profile "${workload_csv}"
            --scheduler baseline --top 10)
expect_contains("${replay_out}" "per-component self time" "profile (replay)")
expect_contains("${replay_out}" "offer" "profile (replay) baseline spans")

# 4. info on a trace without resource-bearing jobs prints n/a, not sentinels.
set(pure_csv "${WORK_DIR}/pure.csv")
file(WRITE "${pure_csv}"
  "job_id,key,resource,resource_mb,process_mb,fixed_cost_us,created_at_us\n"
  "1,pure#1,0,0,50,200000,0\n"
  "2,pure#2,0,0,80,200000,1000000\n")
run_checked(info_out "${DLAJA_TRACE_BIN}" info "${pure_csv}")
expect_contains("${info_out}" "n/a" "info without resources")
string(FIND "${info_out}" "1000000000" sentinel_pos)
if(NOT sentinel_pos EQUAL -1)
  message(FATAL_ERROR "info printed a sentinel-sized repo:\n${info_out}")
endif()

# 5. Timeline and telemetry come from the last reported iteration: both end
# where the last CSV row's run ends (paper_bidding's three iterations end at
# 456.3, 306.1 and 312.7 s), not at some other run's end.
set(runs_csv "${WORK_DIR}/paper.runs.csv")
set(timeline_csv "${WORK_DIR}/paper.timeline.csv")
set(telemetry_csv "${WORK_DIR}/paper.telemetry.csv")
run_checked(out "${DLAJA_RUN_BIN}" --scenario "${SOURCE_DIR}/examples/scenarios/paper_bidding.json"
            --csv "${runs_csv}" --timeline "${timeline_csv}" --telemetry-csv "${telemetry_csv}")
csv_field(exec_s "${runs_csv}" -1 5)
to_us(exec_us "${exec_s}")
csv_field(timeline_first "${timeline_csv}" 1 0)
csv_field(timeline_second "${timeline_csv}" 2 0)
csv_field(timeline_last "${timeline_csv}" -1 0)
to_us(first_us "${timeline_first}")
to_us(second_us "${timeline_second}")
to_us(last_us "${timeline_last}")
math(EXPR step_us "${second_us} - ${first_us}")
math(EXPR gap_us "${exec_us} - ${last_us}")
if(gap_us LESS 0 OR gap_us GREATER step_us)
  message(FATAL_ERROR "timeline ends at ${timeline_last} s, more than one step "
                      "(${step_us} us) from the last run's exec_time_s ${exec_s}")
endif()
csv_field(sample_first "${telemetry_csv}" 1 1)
csv_field(sample_second "${telemetry_csv}" 2 1)
csv_field(sample_last "${telemetry_csv}" -1 1)
to_us(first_us "${sample_first}")
to_us(second_us "${sample_second}")
to_us(last_us "${sample_last}")
math(EXPR bound_us "${exec_us} + 2 * (${second_us} - ${first_us})")
if(NOT last_us LESS bound_us)
  message(FATAL_ERROR "telemetry ends at ${sample_last} s, two intervals or more "
                      "past the last run's exec_time_s ${exec_s}")
endif()

# 6. replay seeds its scheduler with --seed: the random policy places the
# 20-job trace differently at seeds 1, 2 and 3 (a scheduler stuck on one
# seed reports the same misses every time).
set(replay_misses "")
foreach(seed 1 2 3)
  run_checked(replay_out "${DLAJA_TRACE_BIN}" replay "${workload_csv}" --scheduler random
              --seed ${seed})
  if(NOT replay_out MATCHES "cache misses *\\| *([0-9]+)")
    message(FATAL_ERROR "replay printed no cache misses:\n${replay_out}")
  endif()
  list(APPEND replay_misses "${CMAKE_MATCH_1}")
endforeach()
list(REMOVE_DUPLICATES replay_misses)
list(LENGTH replay_misses distinct)
if(distinct LESS 2)
  message(FATAL_ERROR "replay --scheduler random reported ${replay_misses} misses at "
                      "every seed")
endif()

# 7. replay rejects a scheduler spec its fleet cannot run, with dlaja_run's
# field: message line.
run_failing(err "${DLAJA_TRACE_BIN}" replay "${workload_csv}"
            --scheduler bidding:fanout=probe:10 --workers 5)
expect_contains("${err}"
  "scheduler: scheduler 'bidding:fanout=probe:10': probe fan-out k=10 exceeds the fleet (5 workers)"
  "replay with an oversized probe fan-out")

# 8. A trace whose buffer overflowed says so. A 128-worker bidding run of
# 1,400 jobs records about 1.1M events, past the tracer's fixed cap of 2^20
# (the CSV export, about 40 bytes an event, is deleted at once): dlaja_run's
# summary line counts the drops and stderr warns. Its JSON export gets a
# top-level droppedEvents key, which a complete trace lacks (test_obs covers
# the writer and reader); dlaja_trace info and profile print the drop note
# for a short trace carrying that key.
set(overflow_csv "${WORK_DIR}/overflow.trace.csv")
run_checked(out "${DLAJA_RUN_BIN}" --scheduler bidding --workers 128 --jobs 1400 --iters 1
            --trace-csv "${overflow_csv}")
file(REMOVE "${overflow_csv}")
if(NOT out MATCHES "1048576 trace events \\(([0-9]+) dropped: buffer full\\) -> ")
  message(FATAL_ERROR "dlaja_run did not report the dropped trace events:\n${out}")
endif()
set(dropped "${CMAKE_MATCH_1}")
expect_contains("${out_stderr}" "warning: the trace buffer filled up; ${dropped} later events"
  "dlaja_run's stderr for an overflowed trace")
string(FIND "${trace_text}" "droppedEvents" complete_pos)
if(NOT complete_pos EQUAL -1)
  message(FATAL_ERROR "a complete trace carries a droppedEvents key")
endif()
run_checked(info_out "${DLAJA_TRACE_BIN}" info "${trace_json}")
expect_contains("${info_out}" "dropped events" "info on a complete trace")
if(info_out MATCHES "were dropped")
  message(FATAL_ERROR "info notes drops on a complete trace:\n${info_out}")
endif()
set(short_json "${WORK_DIR}/short.trace.json")
string(REPLACE "{\"displayTimeUnit\":\"ms\","
               "{\"displayTimeUnit\":\"ms\",\"droppedEvents\":${dropped},"
               short_text "${trace_text}")
file(WRITE "${short_json}" "${short_text}")
set(note "note: ${dropped} events were dropped (buffer full)")
run_checked(info_out "${DLAJA_TRACE_BIN}" info "${short_json}")
expect_contains("${info_out}" "${note}" "info on an overflowed trace")
run_checked(profile_out "${DLAJA_TRACE_BIN}" profile "${short_json}")
expect_contains("${profile_out}" "${note}" "profile of an overflowed trace")

message(STATUS "cli_trace_profile: all checks passed")
