#!/usr/bin/env bash
# Tier-1 verification: build + full test suite, once normally and once under
# AddressSanitizer (DSPROF_SANITIZE=address); the simulator suites once more
# under UndefinedBehaviorSanitizer (DSPROF_SANITIZE=undefined); plus these
# static/dynamic gates:
#   - clang-tidy over src/sa/, src/opt/, src/collect/, src/machine/,
#     src/obs/, src/serve/, src/experiment/ and src/analyze/ (skipped with a
#     notice when clang-tidy is not installed — the reference container does
#     not ship it); src/sa/, src/opt/, src/collect/, src/machine/ and
#     src/serve/ additionally run with WarningsAsErrors on;
#   - `s3verify all`, which lints every built-in compiled image and exits
#     nonzero on any error-severity diagnostic, plus the attribution-coverage
#     floor: every hwcprof built-in image must have >= 90% of its reachable
#     memory ops statically attributable;
#   - the cli-docs gate: docs/CLI.md flag tables must match each binary's
#     live --help output in both directions;
#   - the env-docs gate: every getenv("DSPROF_...") in src/, examples/ and
#     bench/ must have a row in docs/CLI.md's environment table, and every
#     row must name a variable something still reads (CMake rows are
#     checked against CMakeLists.txt);
#   - the temp-paths gate: tests/ must not name a fixed on-disk path (a
#     fixed name collides between tests running in parallel; use
#     tests/temp_dir.hpp);
#   - the wire-docs gate: docs/WIRE.md must document every frame type
#     src/serve/wire.hpp declares (and nothing it does not), carry the same
#     protocol version as kWireVersion, and list a history row for every
#     version up to it — in both directions, so neither file drifts;
#   - the dsprofd smoke gate: spawn the daemon on a temp Unix socket, stream a
#     live MCF collect run into it with dsprof_send, and require the streamed
#     snapshot to be byte-identical to `er_print <saved-dir> -J` over the same
#     events (the serve subsystem's central invariant, end to end over real
#     processes and a real socket);
#   - the fleet smoke gate: spawn the daemon on a TCP loopback port, stream
#     three concurrent collect sessions into it, and require the merged
#     fleet view to be byte-identical to offline multi-dir
#     `er_print dir1 dir2 dir3 -J` over the three saved directories (the
#     cross-session extension of the same invariant);
#   - the er_opt smoke gate: run the closed feedback loop on the builtin
#     mcf-small workload and require a positive end-to-end speedup plus a
#     positive, sampling-significant User-CPU delta (the optimizer must
#     actually improve the program it claims to improve);
#   - the mpx smoke gate: list_counters --json must advertise the PIC
#     constraints, and the er_opt loop profiled through a 4-counter
#     time-multiplexed spec must still find a positive speedup
#     (bench/multiplex holds the +/-5% renormalization-accuracy bar).
# Usage:
#
#   scripts/check.sh            # all build passes + all gates + benches
#   scripts/check.sh --fast     # normal pass + gates only
#   scripts/check.sh --asan     # ASan pass only
#   scripts/check.sh --ubsan    # UBSan pass over the simulator suites only
#   scripts/check.sh --bench    # benchmark sweep only (BENCH_*.json)
#
# Exits nonzero on the first failing step.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
jobs="$(nproc 2>/dev/null || echo 2)"
mode="${1:-all}"

run_pass() {
  local name="$1" dir="$2"
  shift 2
  echo "== ${name}: configure + build (${dir}) =="
  cmake -B "${dir}" -S "${repo}" "$@"
  cmake --build "${dir}" -j "${jobs}"
  # The normal pass runs every test up to three times: a test that shares
  # on-disk state with another fails only when the two happen to overlap
  # under -j, so one green run proves little. The ASan pass runs once.
  local repeat=()
  [[ "${name}" == normal ]] && repeat=(--repeat until-fail:3)
  echo "== ${name}: ctest ${repeat[*]:-} =="
  ctest --test-dir "${dir}" --output-on-failure -j "${jobs}" ${repeat[@]+"${repeat[@]}"}
}

# UBSan over the suites that drive the simulator's inline fast paths —
# pointer arithmetic into memory chunks and cache lines, u64 threshold
# arithmetic for the time-driven counters — plus the collect and
# multiplexing suites that run them end to end. Findings are fatal
# (-fno-sanitize-recover), so a clean exit is a clean pass.
ubsan_suites=(mem_test cache_test machine_test collect_test multiplex_test)
run_ubsan() {
  local dir="$1" t
  echo "== ubsan: configure + build ${ubsan_suites[*]} (${dir}) =="
  cmake -B "${dir}" -S "${repo}" -DDSPROF_SANITIZE=undefined
  cmake --build "${dir}" -j "${jobs}" --target "${ubsan_suites[@]}"
  for t in "${ubsan_suites[@]}"; do
    echo "== ubsan: ${t} =="
    UBSAN_OPTIONS=print_stacktrace=1 "${dir}/tests/${t}" --gtest_brief=1
  done
}

# clang-tidy over the static-analysis, layout-optimizer, collect, machine,
# obs, serve, experiment and analyze subsystems (the code on the zero-copy
# fast path and the profiling hot paths, held to the strictest bar). Graceful
# skip when the tool is absent; any emitted "error:" diagnostic fails the
# script. src/sa/, src/opt/, src/collect/, src/machine/ and src/serve/ — the
# static analyses, the feedback optimizer, the multiplexing collector/CPU
# pair, and the fleet daemon — run with WarningsAsErrors on; the broader tree
# keeps warnings advisory so it can adopt the profile incrementally (ROADMAP).
run_tidy() {
  local dir="$1"
  if ! command -v clang-tidy >/dev/null 2>&1; then
    echo "== tidy: clang-tidy not installed; skipping (install it or use -DDSPROF_TIDY=ON) =="
    return 0
  fi
  echo "== tidy: clang-tidy over src/sa/, src/opt/, src/collect/, src/machine/," \
       "src/serve/ (warnings-as-errors), src/obs/, src/experiment/, src/analyze/ =="
  cmake -B "${dir}" -S "${repo}" -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  clang-tidy -p "${dir}" --quiet --warnings-as-errors='*' \
    "${repo}"/src/sa/*.cpp "${repo}"/src/opt/*.cpp \
    "${repo}"/src/collect/*.cpp "${repo}"/src/machine/*.cpp "${repo}"/src/serve/*.cpp
  clang-tidy -p "${dir}" --quiet "${repo}"/src/obs/*.cpp \
    "${repo}"/src/experiment/*.cpp "${repo}"/src/analyze/*.cpp
}

# Static verification of every built-in compiled image (CFG + hwcprof lint +
# backtrack-table build); s3verify exits nonzero on error diagnostics. Then
# the attribution-coverage floor: every hwcprof image must have >= 90% of its
# reachable memory ops classified statically attributable (the dataflow
# coverage proof — a drop below means codegen started emitting patterns the
# profiler cannot attribute).
run_s3verify() {
  local dir="$1"
  echo "== s3verify: lint all built-in images =="
  cmake --build "${dir}" -j "${jobs}" --target s3verify
  "${dir}/examples/s3verify" all
  echo "== s3verify: attribution-coverage floor (>= 90% on hwcprof images) =="
  local line name frac ok=1
  while IFS= read -r line; do
    grep -q '"hwcprof":true' <<<"${line}" || continue
    name="$(grep -oE '"name":"[^"]+"' <<<"${line}" | head -1 | cut -d'"' -f4)"
    frac="$(grep -oE '"fraction":[0-9.eE+-]+' <<<"${line}" | head -1 | cut -d: -f2)"
    if [[ -z "${frac}" ]]; then
      echo "s3verify coverage FAILED: ${name:-?}: no coverage fraction in JSON"; ok=0
      continue
    fi
    if awk -v f="${frac}" 'BEGIN { exit (f + 0 >= 0.90) ? 0 : 1 }'; then
      echo "s3verify coverage: ${name} ${frac} attributable"
    else
      echo "s3verify coverage FAILED: ${name} fraction ${frac} < 0.90"; ok=0
    fi
  done < <("${dir}/examples/s3verify" --json all)
  [[ ${ok} -eq 1 ]] || return 1
}

# Benchmark sweep: every bench/ target supports --json <path> (bench_json.hpp
# contract) and is collected as BENCH_<name>.json at the repo root;
# bench/obs_overhead doubles as the self-observability acceptance gate (< 3%
# enabled-instrumentation overhead on the reduce and ingest hot paths) and
# writes BENCH_obs.json. Benches with built-in acceptance bars (pipeline,
# backtrack, ingest floor, obs) fail the script through their exit codes.
run_bench() {
  local dir="$1"
  local plain=(fig1_total_metrics fig2_function_list fig3_annotated_source
    fig4_annotated_disasm fig5_hot_pcs fig6_data_objects fig7_node_expansion
    opt_speedups overhead_hwcprof effectiveness ablation_padding ablation_skid
    prefetch_feedback address_views instance_view pipeline_throughput
    backtrack_table ingest_throughput fleet_load dataflow multiplex)
  echo "== bench: run every bench target, collect BENCH_*.json =="
  cmake --build "${dir}" -j "${jobs}" --target "${plain[@]}" bench_er_opt obs_overhead micro_sim
  local b log
  log="$(mktemp)"
  for b in "${plain[@]}"; do
    echo "-- bench: ${b} --"
    "${dir}/bench/${b}" --json "${repo}/BENCH_${b}.json" >"${log}" 2>&1 \
      || { echo "bench ${b} FAILED"; cat "${log}"; rm -f "${log}"; return 1; }
    tail -1 "${log}"
  done
  # er_opt's bench binary is built as target bench_er_opt (the name er_opt
  # belongs to the example); it carries its own acceptance bars — auto plan
  # within 2% of the hand-tuned churn fix, significant mcf-small improvement.
  echo "-- bench: er_opt --"
  "${dir}/bench/er_opt" --json "${repo}/BENCH_er_opt.json" >"${log}" 2>&1 \
    || { echo "bench er_opt FAILED"; cat "${log}"; rm -f "${log}"; return 1; }
  tail -1 "${log}"
  echo "-- bench: obs_overhead --"
  "${dir}/bench/obs_overhead" --json "${repo}/BENCH_obs.json" >"${log}" 2>&1 \
    || { echo "bench obs_overhead FAILED"; cat "${log}"; rm -f "${log}"; return 1; }
  tail -1 "${log}"
  echo "-- bench: micro_sim --"
  "${dir}/bench/micro_sim" --json "${repo}/BENCH_micro_sim.json" >"${log}" 2>&1 \
    || { echo "bench micro_sim FAILED"; cat "${log}"; rm -f "${log}"; return 1; }
  rm -f "${log}"
  echo "bench: $(ls "${repo}"/BENCH_*.json | wc -l) BENCH_*.json files collected"
}

# docs/CLI.md drift gate: every flag a binary advertises in --help must be
# documented in that binary's section of docs/CLI.md, and every flag the
# section documents must exist in --help. Help flag lines are formatted
# "  --flag ..." by convention; doc flags are the backticked table rows.
run_cli_docs() {
  local dir="$1"
  echo "== cli-docs: docs/CLI.md vs live --help =="
  cmake --build "${dir}" -j "${jobs}" --target er_print er_opt s3verify dsprofd \
    dsprof_send list_counters
  local bin section flag ok=1
  for bin in er_print er_opt s3verify dsprofd dsprof_send list_counters; do
    section="$(awk "/^## ${bin}\$/{f=1;next} /^## /{f=0} f" "${repo}/docs/CLI.md")"
    [[ -n "${section}" ]] || { echo "cli-docs: no '## ${bin}' section in docs/CLI.md"; ok=0; continue; }
    while read -r flag; do
      grep -qF "\`${flag}" <<<"${section}" \
        || { echo "cli-docs: ${bin}: ${flag} in --help but not in docs/CLI.md"; ok=0; }
    done < <("${dir}/examples/${bin}" --help 2>&1 \
               | grep -oE '^ +-{1,2}[A-Za-z][A-Za-z0-9_-]*' | tr -d ' ' | sort -u)
    while read -r flag; do
      "${dir}/examples/${bin}" --help 2>&1 | grep -qE "^ +${flag}([ ,<]|\$)" \
        || { echo "cli-docs: ${bin}: ${flag} documented but absent from --help"; ok=0; }
    done < <(grep -oE '^\| `-{1,2}[A-Za-z][A-Za-z0-9_-]*' <<<"${section}" \
               | sed 's/^| `//' | sort -u)
  done
  [[ ${ok} -eq 1 ]] || return 1
  echo "cli-docs: flag lists match --help for all six binaries"
}

# env-docs gate: docs/CLI.md's environment table must list exactly the
# DSPROF_* variables the code reads. Every getenv("DSPROF_...") in src/,
# examples/ and bench/ needs a row; every row must name a variable that a
# getenv() there still reads, or, for rows whose consumer is "CMake
# configure", one that CMakeLists.txt defines.
run_env_docs() {
  echo "== env-docs: docs/CLI.md environment table vs getenv() and CMakeLists.txt =="
  local table read_vars doc_vars="" line consumer var ok=1
  table="$(awk '/^## Environment variables$/{f=1;next} /^## /{f=0} f' "${repo}/docs/CLI.md")"
  [[ -n "${table}" ]] || { echo "env-docs: no '## Environment variables' section in docs/CLI.md"; return 1; }
  read_vars="$(grep -rhoE 'getenv\("DSPROF_[A-Z0-9_]+"\)' "${repo}/src" "${repo}/examples" \
                 "${repo}/bench" | grep -oE 'DSPROF_[A-Z0-9_]+' | sort -u)"
  while IFS= read -r line; do
    consumer="$(cut -d'|' -f3 <<<"${line}")"
    for var in $(cut -d'|' -f2 <<<"${line}" | grep -oE 'DSPROF_[A-Z0-9_]+'); do
      doc_vars+="${var}"$'\n'
      if [[ "${consumer}" == *"CMake configure"* ]]; then
        grep -qw "${var}" "${repo}/CMakeLists.txt" \
          || { echo "env-docs: ${var} documented as a CMake setting but absent from CMakeLists.txt"; ok=0; }
      else
        grep -qx "${var}" <<<"${read_vars}" \
          || { echo "env-docs: ${var} documented but nothing in src/, examples/ or bench/ reads it"; ok=0; }
      fi
    done
  done < <(grep -E '^\| `DSPROF_' <<<"${table}")
  while read -r var; do
    [[ -n "${var}" ]] || continue
    grep -qx "${var}" <<<"${doc_vars}" \
      || { echo "env-docs: ${var} is read by getenv() but has no row in docs/CLI.md"; ok=0; }
  done <<<"${read_vars}"
  [[ ${ok} -eq 1 ]] || return 1
  echo "env-docs: $(grep -c . <<<"${doc_vars}") documented variables, all read; every getenv() documented"
}

# temp-paths gate: ctest runs each TEST as its own process, in parallel, so a
# fixed on-disk name in tests/ ("/tmp/...", or TempDir() plus a constant)
# lets two tests overwrite each other's files. Tests take a unique directory
# from tests/temp_dir.hpp instead. The endpoint strings serve_test hands to
# parse_endpoint are only parsed, never opened, and are exempt.
run_temp_paths() {
  echo "== temp-paths: no fixed on-disk paths in tests/ =="
  local hits
  hits="$(grep -nE '"/(var/)?tmp/|TempDir\(\) *\+|temp_directory_path' \
            "${repo}"/tests/*.cpp "${repo}"/tests/*.hpp \
          | grep -vE '^[^:]*/serve_test\.cpp:[0-9]+: .*(parse_endpoint\(|EXPECT_EQ\(e\.path, )' \
          || true)"
  if [[ -n "${hits}" ]]; then
    echo "temp-paths FAILED: fixed on-disk paths in tests/ (use testfix::ScopedTempDir):"
    echo "${hits}"
    return 1
  fi
  echo "temp-paths: tests/ name no fixed on-disk paths"
}

# docs/WIRE.md drift gate: the wire-protocol reference must agree with
# src/serve/wire.hpp in both directions. Frame tags: every FrameType the
# enum declares must have a row in WIRE.md's frame table, and every frame
# the table documents must exist in the enum. Versions: the "current
# protocol version is **N**" sentence must match kWireVersion, the history
# table must carry a row for every version v1..vN, and no row beyond vN.
run_wire_docs() {
  echo "== wire-docs: docs/WIRE.md vs src/serve/wire.hpp =="
  local hpp="${repo}/src/serve/wire.hpp" doc="${repo}/docs/WIRE.md" ok=1
  local enum_names doc_names name
  enum_names="$(awk '/^enum class FrameType/{f=1;next} f && /^};/{exit} f' "${hpp}" \
                  | grep -oE '^  [A-Za-z]+' | tr -d ' ' | sort -u)"
  doc_names="$(grep -oE '^\| `[A-Za-z]+` \|' "${doc}" | grep -oE '[A-Za-z]+' | sort -u)"
  [[ -n "${enum_names}" ]] || { echo "wire-docs: no FrameType enum found in wire.hpp"; return 1; }
  [[ -n "${doc_names}" ]] || { echo "wire-docs: no frame table rows found in WIRE.md"; return 1; }
  while read -r name; do
    grep -qx "${name}" <<<"${doc_names}" \
      || { echo "wire-docs: frame '${name}' in wire.hpp but not in WIRE.md's frame table"; ok=0; }
  done <<<"${enum_names}"
  while read -r name; do
    grep -qx "${name}" <<<"${enum_names}" \
      || { echo "wire-docs: frame '${name}' documented in WIRE.md but absent from wire.hpp"; ok=0; }
  done <<<"${doc_names}"

  local ver doc_ver hist_max i
  ver="$(grep -oE 'kWireVersion = [0-9]+' "${hpp}" | grep -oE '[0-9]+')"
  doc_ver="$(grep -oE 'current protocol version is \*\*[0-9]+\*\*' "${doc}" | grep -oE '[0-9]+')"
  if [[ -z "${ver}" || -z "${doc_ver}" || "${ver}" != "${doc_ver}" ]]; then
    echo "wire-docs: version mismatch (wire.hpp kWireVersion=${ver:-?}, WIRE.md says ${doc_ver:-?})"
    ok=0
  fi
  for ((i = 1; i <= ${ver:-0}; i++)); do
    grep -q "^| v${i} |" "${doc}" \
      || { echo "wire-docs: WIRE.md history table lacks a row for v${i}"; ok=0; }
  done
  hist_max="$(grep -oE '^\| v[0-9]+ \|' "${doc}" | grep -oE '[0-9]+' | sort -n | tail -1)"
  if [[ -n "${hist_max}" && -n "${ver}" && "${hist_max}" -gt "${ver}" ]]; then
    echo "wire-docs: WIRE.md history documents v${hist_max} beyond kWireVersion=${ver}"
    ok=0
  fi
  grep -q 'kSnapshotMergedFlag' "${doc}" \
    || { echo "wire-docs: WIRE.md does not document kSnapshotMergedFlag"; ok=0; }
  [[ ${ok} -eq 1 ]] || return 1
  echo "wire-docs: WIRE.md matches wire.hpp ($(wc -l <<<"${enum_names}") frames, version ${ver})"
}

# Fleet smoke gate: the cross-session extension of the central invariant,
# end to end over real processes and a real TCP socket. A daemon on an
# ephemeral loopback port (discovered from its readiness line) takes three
# concurrent collect sessions under the Block policy (nothing may drop);
# afterwards a monitoring client's merged fleet view must be byte-identical
# to offline multi-dir `er_print exp1 exp2 exp3 -J` over the directories
# the same three sessions saved.
run_fleet_smoke() {
  local dir="$1"
  echo "== fleet smoke: merged TCP fleet view vs offline multi-dir er_print -J =="
  cmake --build "${dir}" -j "${jobs}" --target dsprofd dsprof_send er_print
  local tmp
  tmp="$(mktemp -d)"
  trap 'rm -rf "${tmp}"' RETURN

  "${dir}/examples/dsprofd" --listen tcp://127.0.0.1:0 --policy block \
    >"${tmp}/daemon.log" 2>&1 &
  local daemon_pid=$!
  local uri=""
  for _ in $(seq 1 100); do
    uri="$(grep -oE 'tcp://[0-9.]+:[0-9]+' "${tmp}/daemon.log" | head -1 || true)"
    [[ -n "${uri}" ]] && break
    sleep 0.05
  done
  [[ -n "${uri}" ]] || { echo "fleet smoke FAILED: no readiness line from dsprofd"
                         cat "${tmp}/daemon.log"; kill "${daemon_pid}" 2>/dev/null; return 1; }

  local i send_pids=()
  for i in 1 2 3; do
    "${dir}/examples/dsprof_send" --connect "${uri}" --workload mcf-small \
      --save "${tmp}/exp${i}" >"${tmp}/send${i}.log" 2>&1 &
    send_pids+=($!)
  done
  local failed=0
  for i in 1 2 3; do
    wait "${send_pids[$((i - 1))]}" \
      || { echo "fleet smoke FAILED: dsprof_send session ${i} exited nonzero"
           cat "${tmp}/send${i}.log"; failed=1; }
  done
  [[ ${failed} -eq 0 ]] || { kill "${daemon_pid}" 2>/dev/null; return 1; }

  "${dir}/examples/dsprof_send" --connect "${uri}" --merged \
    --report "${tmp}/merged.json" >"${tmp}/merged.log" 2>&1 \
    || { echo "fleet smoke FAILED: merged fetch exited nonzero"
         cat "${tmp}/merged.log"; kill "${daemon_pid}" 2>/dev/null; return 1; }

  # Graceful stop: the daemon checks its own accounting invariant on the way
  # out and exits nonzero if it broke.
  kill "${daemon_pid}"
  wait "${daemon_pid}" \
    || { echo "fleet smoke FAILED: dsprofd exited nonzero (accounting broke)"
         cat "${tmp}/daemon.log"; return 1; }

  "${dir}/examples/er_print" "${tmp}/exp1" "${tmp}/exp2" "${tmp}/exp3" -J \
    >"${tmp}/offline.json"
  if ! diff -q "${tmp}/merged.json" "${tmp}/offline.json" >/dev/null; then
    echo "fleet smoke FAILED: merged fleet view differs from offline multi-dir report"
    diff "${tmp}/merged.json" "${tmp}/offline.json" | head -20
    return 1
  fi
  echo "fleet smoke: merged view of 3 TCP sessions is byte-identical to er_print exp1 exp2 exp3 -J"
}

# Multiplexing smoke gate: more than two counters must time-slice end to end.
# list_counters --json has to advertise the per-counter PIC constraints the
# set partitioner honors, and the er_opt closed loop profiled through a
# 4-counter multiplexed spec (three sets on this machine) must still finish
# and find a positive end-to-end speedup — the renormalized profile has to be
# good enough to steer the optimizer. bench/multiplex holds the tighter
# +/-5% accuracy bar in the bench sweep.
run_mpx_smoke() {
  local dir="$1"
  echo "== mpx smoke: 4-counter multiplexed profile must drive the er_opt loop =="
  cmake --build "${dir}" -j "${jobs}" --target er_opt list_counters
  local counters out speedup
  counters="$("${dir}/examples/list_counters" --json)" \
    || { echo "mpx smoke FAILED: list_counters --json exited nonzero"; return 1; }
  for field in '"pic_mask":' '"multiplexable":' '"skid_min":'; do
    grep -qF "${field}" <<<"${counters}" \
      || { echo "mpx smoke FAILED: list_counters --json lacks ${field}"; return 1; }
  done
  out="$("${dir}/examples/er_opt" --run --workload mcf-small \
           --hw "cycles,100003,+ecstall,on,+ecrm,on,+dtlbm,on" -J)" \
    || { echo "mpx smoke FAILED: er_opt loop over multiplexed profile exited nonzero"; return 1; }
  speedup="$(grep -oE '"speedup_pct":-?[0-9.]+' <<<"${out}" | head -1 | cut -d: -f2)"
  if [[ -z "${speedup}" ]] || ! awk -v s="${speedup}" 'BEGIN { exit (s + 0 > 0) ? 0 : 1 }'; then
    echo "mpx smoke FAILED: speedup_pct '${speedup:-missing}' not positive"
    echo "${out}" | tail -1
    return 1
  fi
  echo "mpx smoke: multiplexed 4-counter loop speedup ${speedup}%"
}

# er_opt smoke gate: the closed feedback loop on the builtin mcf-small
# workload must produce a positive end-to-end speedup AND a positive,
# sampling-significant User-CPU delta. This is the optimizer's contract — a
# plan that does not move the total metric is a regression even if every
# stage "worked".
run_er_opt_smoke() {
  local dir="$1"
  echo "== er_opt smoke: closed loop on mcf-small must significantly improve ucpu =="
  cmake --build "${dir}" -j "${jobs}" --target er_opt
  local out ucpu speedup
  out="$("${dir}/examples/er_opt" --run --workload mcf-small -J)" \
    || { echo "er_opt smoke FAILED: loop exited nonzero"; return 1; }
  speedup="$(grep -oE '"speedup_pct":-?[0-9.]+' <<<"${out}" | head -1 | cut -d: -f2)"
  ucpu="$(grep -oE '\{"metric":"ucpu"[^}]*\}' <<<"${out}" | head -1)"
  if [[ -z "${speedup}" || -z "${ucpu}" ]]; then
    echo "er_opt smoke FAILED: no speedup_pct / ucpu delta in -J output"
    echo "${out}" | tail -1
    return 1
  fi
  if ! awk -v s="${speedup}" 'BEGIN { exit (s + 0 > 0) ? 0 : 1 }'; then
    echo "er_opt smoke FAILED: speedup_pct ${speedup} not positive"
    return 1
  fi
  if ! grep -qE '"delta_pct":[0-9.]+.*"significant":true' <<<"${ucpu}"; then
    echo "er_opt smoke FAILED: ucpu delta not positive+significant: ${ucpu}"
    return 1
  fi
  echo "er_opt smoke: mcf-small speedup ${speedup}%, ucpu delta significant"
}

# End-to-end dsprofd smoke gate over a real Unix-domain socket: the streamed
# snapshot of a live collect run must be byte-identical to the offline
# er_print -J report of the experiment directory the same run saved, the obs
# accounting of the two must agree, and the queue-free fast path must have
# folded at least one batch.
run_dsprofd_smoke() {
  local dir="$1"
  echo "== dsprofd smoke: streamed snapshot vs offline er_print -J =="
  cmake --build "${dir}" -j "${jobs}" --target dsprofd dsprof_send er_print
  local tmp
  tmp="$(mktemp -d)"
  trap 'rm -rf "${tmp}"' RETURN
  local sock="${tmp}/dsprofd.sock"

  "${dir}/examples/dsprofd" --socket "${sock}" --once >"${tmp}/daemon.log" 2>&1 &
  local daemon_pid=$!
  for _ in $(seq 1 100); do
    [[ -S "${sock}" ]] && break
    sleep 0.05
  done
  [[ -S "${sock}" ]] || { echo "dsprofd did not come up"; cat "${tmp}/daemon.log"; return 1; }

  "${dir}/examples/dsprof_send" --socket "${sock}" --workload mcf-small \
    --save "${tmp}/exp" --report "${tmp}/online.json" >"${tmp}/send.log" 2>&1 \
    || { echo "dsprof_send failed"; cat "${tmp}/send.log"; return 1; }
  wait "${daemon_pid}" \
    || { echo "dsprofd exited nonzero (accounting broke)"; cat "${tmp}/daemon.log"; return 1; }

  "${dir}/examples/er_print" "${tmp}/exp" -J >"${tmp}/offline.json"
  if ! diff -q "${tmp}/online.json" "${tmp}/offline.json" >/dev/null; then
    echo "dsprofd smoke FAILED: streamed snapshot differs from offline report"
    diff "${tmp}/online.json" "${tmp}/offline.json" | head -20
    return 1
  fi
  echo "dsprofd smoke: streamed snapshot is byte-identical to er_print -J"

  # Obs cross-check: the daemon's self-profile (Stats frame, in daemon.log)
  # and an offline er_print -O -J over the saved directory must agree on
  # event counts — offline folds every saved event, the daemon folded all it
  # did not drop, so offline == daemon_folded + daemon_dropped.
  local pick='grep -oE "\"reduce.events.folded\":[0-9]+" | head -1 | cut -d: -f2'
  local daemon_folded daemon_dropped offline_folded
  daemon_folded="$(eval "${pick}" <"${tmp}/daemon.log")"
  # Counters appear in a snapshot once registered; a drop-free run may not
  # have touched serve.events.dropped at all — treat absent as zero. The
  # grep legitimately matches nothing then, so shield it from pipefail.
  daemon_dropped="$(grep -oE '"serve.events.dropped":[0-9]+' "${tmp}/daemon.log" | head -1 | cut -d: -f2 || true)"
  daemon_dropped="${daemon_dropped:-0}"
  offline_folded="$("${dir}/examples/er_print" "${tmp}/exp" -O -J | eval "${pick}")"
  if [[ -z "${daemon_folded}" || -z "${offline_folded}" || \
        "${offline_folded}" -ne $((daemon_folded + daemon_dropped)) ]]; then
    echo "dsprofd smoke FAILED: obs self-profiles disagree" \
         "(offline folded=${offline_folded:-?}, daemon folded=${daemon_folded:-?} dropped=${daemon_dropped:-?})"
    return 1
  fi
  echo "dsprofd smoke: obs self-profiles agree (folded ${offline_folded} = ${daemon_folded} + ${daemon_dropped} dropped)"

  # Fast-path check: the first batch always finds the queue empty and the
  # reducer idle, so at least one batch must have been folded inline.
  local direct_folds
  direct_folds="$(grep -oE '"direct_folds":[0-9]+' "${tmp}/daemon.log" | head -1 | cut -d: -f2)"
  direct_folds="${direct_folds:-0}"
  if [[ "${direct_folds}" -eq 0 ]]; then
    echo "dsprofd smoke FAILED: no batch took the queue-free path"
    return 1
  fi
  echo "dsprofd smoke: queue-free fast path engaged (direct_folds=${direct_folds})"
}

case "${mode}" in
  --fast|fast)
    run_pass "normal" "${repo}/build"
    run_tidy "${repo}/build"
    run_s3verify "${repo}/build"
    run_cli_docs "${repo}/build"
    run_env_docs
    run_temp_paths
    run_wire_docs
    run_dsprofd_smoke "${repo}/build"
    run_fleet_smoke "${repo}/build"
    run_er_opt_smoke "${repo}/build"
    run_mpx_smoke "${repo}/build"
    ;;
  --asan|asan)
    run_pass "asan" "${repo}/build-asan" -DDSPROF_SANITIZE=address
    ;;
  --ubsan|ubsan)
    run_ubsan "${repo}/build-ubsan"
    ;;
  --bench|bench)
    cmake -B "${repo}/build" -S "${repo}" >/dev/null
    run_bench "${repo}/build"
    ;;
  all|--all)
    run_pass "normal" "${repo}/build"
    run_tidy "${repo}/build"
    run_s3verify "${repo}/build"
    run_cli_docs "${repo}/build"
    run_env_docs
    run_temp_paths
    run_wire_docs
    run_dsprofd_smoke "${repo}/build"
    run_fleet_smoke "${repo}/build"
    run_er_opt_smoke "${repo}/build"
    run_mpx_smoke "${repo}/build"
    run_bench "${repo}/build"
    run_pass "asan" "${repo}/build-asan" -DDSPROF_SANITIZE=address
    run_ubsan "${repo}/build-ubsan"
    ;;
  *)
    echo "usage: $0 [--fast|--asan|--ubsan|--bench]" >&2
    exit 2
    ;;
esac

echo "== check.sh: all requested passes green =="
