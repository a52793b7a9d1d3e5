#!/usr/bin/env bash
# Workload gate: diff a macro-workload report (ode-bench -workload: the
# E17/E18 rows of internal/bench) against the committed
# WORKLOAD_BASELINE.json.
#
#   ci/workload_gate.sh [REPORT.json]
#
# With no argument the gate runs the short embedded suite itself;
# workload-smoke CI passes pre-generated reports (one embedded, one
# remote against a live ode-server) so the same artifacts it uploads
# are the ones gated. Two checks per row, matched on (workload, mode):
#
#   - ops_per_sec must not fall more than WORKLOAD_TOLERANCE percent
#     (default 25) below the baseline — only slowdowns fail;
#   - ops must match the baseline exactly: the seeded op mix is a pure
#     function of (seed, workers, short), so any drift means the suite
#     lost determinism, not performance. This check runs on 1-CPU hosts
#     too; only the throughput check skips there.
#
# Baseline re-record (one command; short mode, embedded + loopback
# remote, seed 1, 4 workers — the same shape CI runs). The suite runs
# RECORD_RUNS times (default 3) and the committed floor is the per-row
# minimum ops/s, so one hot sample can't set a baseline that later
# quiet-but-honest runs fail:
#
#   RECORD=1 ci/workload_gate.sh
set -euo pipefail
cd "$(dirname "$0")/.."
. ci/gate_lib.sh
baseline=${WORKLOAD_BASELINE:-WORKLOAD_BASELINE.json}
tol=${WORKLOAD_TOLERANCE:-25}

if [ "${RECORD:-0}" = 1 ]; then
    runs=${RECORD_RUNS:-3}
    go build -o /tmp/ode-bench-record ./cmd/ode-bench
    files=()
    for i in $(seq "$runs"); do
        f=/tmp/ode-workload-record-$i.json
        /tmp/ode-bench-record -workload all -loopback -quick -seed 1 -json "$f"
        files+=("$f")
    done
    gate_record_min "$baseline" "${files[@]}"
    echo "recorded $baseline (min ops/s over $runs runs)"
    exit 0
fi

# On one CPU only the throughput check is skipped: the op counts are a
# pure function of (seed, workers, short) and still gate exactly.
check_tp=1
if gate_skip_single_cpu; then
    check_tp=0
fi

report=${1:-}
if [ -z "$report" ]; then
    report=/tmp/ode-workload-gate.json
    go run ./cmd/ode-bench -workload all -quick -seed 1 -json "$report"
fi

# rows FILE — list the (workload, mode) pairs a report carries.
rows() {
    awk '
        $1 == "\"workload\":" { w = $2; gsub(/[",]/, "", w) }
        $1 == "\"mode\":"     { m = $2; gsub(/[",]/, "", m); print w, m }
    ' "$1"
}

fail=0
n=0
while read -r wl mode; do
    n=$((n + 1))
    base_tp=$(gate_row "$baseline" ops_per_sec "workload=$wl" "mode=$mode")
    cur_tp=$(gate_row "$report" ops_per_sec "workload=$wl" "mode=$mode")
    if [ "$check_tp" = 1 ]; then
        gate_check_min "$wl/$mode" "$cur_tp" "$base_tp" "$tol" || fail=1
    fi
    base_ops=$(gate_row "$baseline" ops "workload=$wl" "mode=$mode")
    cur_ops=$(gate_row "$report" ops "workload=$wl" "mode=$mode")
    gate_check_eq "$wl/$mode ops" "$cur_ops" "$base_ops" || fail=1
done < <(rows "$report")

if [ "$n" = 0 ]; then
    echo "FAIL: no workload rows in $report"
    fail=1
fi
if [ "$fail" != 0 ]; then
    echo "workload regression — see docs/TESTING.md (workload suite); re-record only after profiling: RECORD=1 ci/workload_gate.sh"
fi
exit $fail
