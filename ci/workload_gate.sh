#!/usr/bin/env bash
# Workload gate: diff macro-workload reports (ode-bench -workload: the
# E17/E18 rows of internal/bench) against the committed
# WORKLOAD_BASELINE.json.
#
#   ci/workload_gate.sh [REPORT.json...]
#
# With no argument the gate runs the short embedded suite three times
# itself; workload-smoke CI passes pre-generated reports (three
# embedded runs, three remote runs against a live ode-server) so the
# same artifacts it uploads are the ones gated. The reports are runs of
# one suite: the rows of the first are gated, each matched on
# (workload, mode) in every report. Two checks per row:
#
#   - the median ops_per_sec across the reports must not fall more than
#     WORKLOAD_TOLERANCE percent (default 25) below the baseline — only
#     slowdowns fail. One short run cannot tell a 25% regression from
#     this host class's noise; the median of three can;
#   - ops must be equal in every report and match the baseline exactly:
#     the seeded op mix is a pure function of (seed, workers, short),
#     so any drift means the suite lost determinism, not performance.
#     This check runs on 1-CPU hosts too; only the throughput check
#     skips there.
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

reports=("$@")
if [ ${#reports[@]} = 0 ]; then
    go build -o /tmp/ode-bench-gate ./cmd/ode-bench
    for i in 1 2 3; do
        reports+=("/tmp/ode-workload-gate-$i.json")
        /tmp/ode-bench-gate -workload all -quick -seed 1 -json "${reports[-1]}"
    done
fi
report=${reports[0]}

# median V... — the median of the values (the mean of the middle two
# for an even count); empty when any value is missing.
median() {
    local v
    for v in "$@"; do
        [ -n "$v" ] || return 0
    done
    printf '%s\n' "$@" | sort -g | awk '
        { v[NR] = $1 }
        END { if (NR % 2) print v[(NR + 1) / 2]; else print (v[NR / 2] + v[NR / 2 + 1]) / 2 }'
}

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
    tps=()
    cur_ops=
    for f in "${reports[@]}"; do
        tps+=("$(gate_row "$f" ops_per_sec "workload=$wl" "mode=$mode")")
        ops=$(gate_row "$f" ops "workload=$wl" "mode=$mode")
        if [ -z "$cur_ops" ]; then
            cur_ops=$ops
        elif [ "$ops" != "$cur_ops" ]; then
            echo "FAIL $wl/$mode ops: $f has $ops ops, $report has $cur_ops — the runs disagree"
            fail=1
        fi
    done
    if [ "$check_tp" = 1 ]; then
        base_tp=$(gate_row "$baseline" ops_per_sec "workload=$wl" "mode=$mode")
        gate_check_min "$wl/$mode" "$(median "${tps[@]}")" "$base_tp" "$tol" || fail=1
    fi
    base_ops=$(gate_row "$baseline" ops "workload=$wl" "mode=$mode")
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
